"""Smoke test of the benchmark harness on a tiny seeded mutation-controls pass.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import time
from fractions import Fraction

import pytest

import run
import workloads
from tracer import read_spans

SEED = 7


@pytest.fixture(scope="module")
def bench():
    run.OUT.mkdir(exist_ok=True)
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results(bench):
    """One untraced and two traced runs; the second traced run must repeat the counts."""
    return [run.run_workload("mutation-controls", SEED, 1.0, trace, bench)
            for trace in (False, True, True)]


def test_every_metric_is_reported(bench, results):
    plain, *traced = results
    for result, declared in [(plain, bench["end_to_end"])] + [(t, bench["per_layer"]) for t in traced]:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m["name"] for m in declared}
    layers = {k: v["value"] for k, v in traced[0]["metrics"].items()}
    # corruptions never reach the membership oracle or the modular echelon
    assert layers["ncalg.member.calls"] == 0
    assert layers["linalg.mod_echelon.insert.calls"] == 0
    assert layers["catalog.cmatrix_inverse.calls"] > 0


def test_spans_nest(results):
    spans = read_spans(run.OUT / f"spans-mutation-controls-seed{SEED}.bin.gz")
    assert spans["name"], "no spans recorded"
    for idx, par in enumerate(spans["parent"]):
        if par >= 0:
            assert spans["run"][par] == spans["run"][idx]
            assert spans["start"][par] <= spans["start"][idx] <= spans["end"][idx] <= spans["end"][par]


def test_wrong_expectation_counts_as_error():
    spec = {"mode": "calls", "workload": "mutation-controls", "seed": SEED,
            "seconds": None, "count": 1, "spans": None}
    child, _ = run.spawn(spec, time.monotonic() + 120)
    attempted, errors = run.score_calls("mutation-controls", child["calls"])
    assert attempted == 2 and errors == []
    wrong = workloads.Expectation(exit_code=0, passing=("ybe",))
    attempted, errors = run.score_calls("mutation-controls", child["calls"], wrong)
    assert attempted == 2 and len(errors) == 2


def test_corruption_must_change_the_entry():
    with pytest.raises(ValueError):
        workloads.corruption_argv("11,11", "q/u^2", Fraction(0))
