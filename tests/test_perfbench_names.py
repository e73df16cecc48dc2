"""The benchmark still finds every name it uses in wh3."""

import sys
from pathlib import Path

from wh3 import catalog, linalg, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
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


def test_benchmark_setup_and_check_ids_match_wh3(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("child", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import child
    import workloads

    child.build_catalog(catalog)
    assert workloads.CHECK_IDS == verify.CHECK_IDS
    assert all(check in verify.CHECKS for check in workloads.MUTATION_CHECKS)
