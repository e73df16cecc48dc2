"""Reports and printed matrices stay byte-identical to the stored ones.

Each verify-*.json file under tests/golden/ is the output of
`python -m wh3 verify --all --format json --no-timings` with the options that
name it; each matrix-* file is the output of `python -m wh3 matrix` with the
options that name it.  A change that legitimately alters one regenerates it
with that command and lists the changed text in CHANGES.md.
"""

from pathlib import Path

import pytest

from wh3 import cli
from wh3.reports import reports_to_json

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fixture, name", [
    ("default_reports", "verify-default.json"),
    ("errata_off_reports", "verify-errata-off.json"),
])
def test_reports_match_golden_files(request, fixture, name):
    reports = request.getfixturevalue(fixture).values()
    text = reports_to_json(reports, with_timings=False) + "\n"
    assert text == (GOLDEN / name).read_text()


@pytest.mark.parametrize("options, name, code", [
    # a binding that mentions a parameter
    (("--set", "q=2*q"), "verify-set-q-2q.json", 0),
    # the coinciding-calculi point, with its "not applicable:" notes
    (("--spec", "q=u^2"), "verify-spec-q-u2.json", 0),
    (("--mutate", "omega:11,11=(q/u^2)+(2)"), "verify-mutate-omega.json", 1),
    # a rational point: every coefficient prints as a substituted rational
    (("--set", "q=3/2,u=5/7,s=2"), "verify-set-rational.json", 0),
    # coaction families decided by membership and stopped by a completion collapse
    (("--spec", "q=u^2", "--errata", "off"), "verify-spec-q-u2-errata-off.json", 1),
])
def test_verify_output_matches_golden_file(capsys, options, name, code):
    assert cli.run(["verify", "--all", "--format", "json", "--no-timings", *options]) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("options, name", [
    # parsed by the benchmark's mutation-controls workload
    (("--name", "omega", "--format", "json"), "matrix-omega.json"),
    # three of the fourteen entries vanish at q = u^2 and are not printed
    (("--name", "omega-inv", "--set", "q=u^2"), "matrix-omega-inv-q-u2.txt"),
])
def test_matrix_output_matches_golden_file(capsys, options, name):
    assert cli.run(["matrix", *options]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / name).read_text()
