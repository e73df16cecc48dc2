"""Reports and printed matrices stay byte-identical to the stored ones.

Each verify-*.json file under tests/golden/ is the output of
`python -m wh3 verify --all --format json --no-timings` with the options that
name it, verify-default.txt that of `python -m wh3 verify --all
--no-timings` and verify-errata-off.txt that of the same command with
`--errata off`; each matrix-* file is the output of `python -m wh3 matrix`
with the options that name it; each member-* file is the output of
`python -m wh3 member --algebra t --mode modular` on the expression of its
test; export-tt.json is the output of `python -m wh3 export --family tt`.
A change that legitimately alters one regenerates it with that command and
lists the changed text in CHANGES.md.
"""

import json
from dataclasses import replace
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
    text = reports_to_json([replace(r, millis=0) for r in reports]) + "\n"
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


def test_no_golden_verdict_is_read_from_base_rules():
    # every exact verdict comes from normal forms under completed rules, so no
    # note reports a base-rule normal form or leaves a verdict undecided
    notes = [(path.name, detail.get("note") or "")
             for path in sorted(GOLDEN.glob("verify-*.json"))
             for report in json.loads(path.read_text())["reports"]
             for detail in report["details"]]
    # a text report prints each failing detail as "FAIL id: note"
    notes += [(path.name, line.split(": ", 1)[1])
              for path in sorted(GOLDEN.glob("verify-*.txt"))
              for line in path.read_text().splitlines()
              if line.lstrip().startswith("FAIL ") and ": " in line]
    assert {"verify-errata-off.json", "verify-errata-off.txt"} <= {name for name, _ in notes}
    for name, note in notes:
        assert "keeps a nonzero normal form" not in note, name
        assert not note.startswith("undecided:"), name


def test_text_report_matches_golden_file(capsys):
    assert cli.run(["verify", "--all", "--no-timings"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify-default.txt").read_text()


def test_errata_off_text_report_matches_golden_file(capsys):
    # the text rendering of failing details and counterexamples
    assert cli.run(["verify", "--all", "--no-timings", "--errata", "off"]) == 1
    assert capsys.readouterr().out == (GOLDEN / "verify-errata-off.txt").read_text()


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


@pytest.mark.parametrize("expr, name, code", [
    # a degree-4 non-member: six support words, rechecked at a second point
    ("t13*t31*t22*t11 - t11*t22*t31*t13", "member-t-degree-four-modular.txt", 1),
    # a tt relation, below the default degree 4, meets the degree-2 rows
    ("t21*t11 - (1/q)*t11*t21 + (s/q)*t31^2", "member-t-relation-modular.txt", 0),
])
def test_member_output_matches_golden_file(capsys, expr, name, code):
    assert cli.run(["member", "--algebra", "t", "--expr", expr, "--mode", "modular"]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / name).read_text()


def test_export_output_matches_golden_file(capsys):
    # the algebra-definition format: generators, weights, relation strings
    assert cli.run(["export", "--family", "tt"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / "export-tt.json").read_text()


def test_every_failing_golden_detail_has_a_note():
    # a failing detail's note says what failed
    unnoted = [
        (path.name, report["check"], detail["id"])
        for path in sorted(GOLDEN.glob("verify-*.json"))
        for report in json.loads(path.read_text())["reports"]
        for detail in report["details"]
        if not detail["ok"] and not detail.get("note")
    ]
    assert unnoted == []
