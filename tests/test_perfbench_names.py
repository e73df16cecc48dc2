"""The benchmark's tracer still finds every name it wraps in wh3."""

import sys
from pathlib import Path

from wh3 import linalg, verify


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    originals = (linalg.ScalarEchelon.insert, linalg.ModEchelon.reduce, verify.run_check)
    tracer = Tracer()
    try:
        tracer.install()
        assert linalg.ModEchelon.reduce is not originals[1]
    finally:
        tracer.uninstall()
    assert (linalg.ScalarEchelon.insert, linalg.ModEchelon.reduce, verify.run_check) == originals
