"""The wh3 command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wh3 import cli


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_swap(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--algebra", "x", "--expr", "x2*x1")
    assert code == 0
    assert out.strip() == "(1/q)*x1*x2 - (s/q)*x3*x3"


def test_normalize_unknown_symbol(capsys):
    code, _, err = run_cli(capsys, "normalize", "--algebra", "x", "--expr", "x4")
    assert code == 2
    assert "unknown symbol" in err and "did you mean" in err


def test_normalize_quantum_group_dinv(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--algebra", "qg", "--expr", "t21*Dinv")
    assert code == 0
    assert out.strip() == "(q^4/u^2)*Dinv*t21"


def test_verify_selected_checks_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "ybe,constraints")
    assert code == 0
    assert "ybe" in out and "constraints" in out


def test_normalize_unorientable_algebra_file(tmp_path, capsys):
    doc = {"name": "collapse", "relations": ["x1 - x2"],
           "generators": [{"name": "x1", "rank": 0}, {"name": "x2", "rank": 1}]}
    path = tmp_path / "collapse.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "normalize", "--algebra-file", str(path), "--expr", "x1")
    assert code == 2
    assert "degree-1 relation" in err


def test_verify_collapsed_coaction_prints_report_and_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "coaction", "--spec", "q=u^2",
                           "--errata", "off")
    assert code == 1
    assert "] coaction (" in out
    assert "FAIL family:dd: rank collapse: the ambiguity " in out
    assert "undecided" not in out


def test_verify_rejects_a_parameter_given_twice(capsys):
    code, out, err = run_cli(capsys, "verify", "--check", "specializations",
                             "--set", "q=3/2", "--spec", "q=u^2")
    assert (code, out) == (2, "")
    assert err == "error: parameter q given more than once in --set/--spec\n"


def test_verify_scalar_error_inside_a_check_prints_report_and_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "specializations",
                           "--mutate", "omega:33,33=((q-u^2)/u^2)")
    assert code == 1
    assert "FAIL scalar-error: undecided: substitution sends denominator to zero" in out


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--check", "nonsense")
    assert code == 2
    assert "unknown checks" in err


def test_verify_requires_selection(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    code, out, err = run_cli(capsys, "verify", "--check", ",")
    assert code == 2 and not out
    assert err.strip() == "error: choose --all or --check ids"
    code, out, err = run_cli(capsys, "verify", "--check", "ybe,ybe")
    assert (code, out) == (2, "")
    assert err == "error: check ybe given more than once in --check\n"
    code, out, err = run_cli(capsys, "verify", "--all", "--check", "ybe")
    assert (code, out) == (2, "")
    assert err == "error: choose --all or --check ids, not both\n"


def test_verify_list(capsys):
    from wh3.verify import CHECK_IDS

    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert out.split() == list(CHECK_IDS)


def test_verify_mutation_fails_with_counterexample(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "ybe",
                           "--mutate", "omega:11,11=1")
    assert code == 1
    assert "counterexample" in out and "cell" in out


def test_verify_bad_mutation_syntax(capsys):
    code, _, err = run_cli(capsys, "verify", "--check", "ybe", "--mutate", "omega:xx")
    assert code == 2


def test_verify_json_byte_stable(capsys):
    args = ("verify", "--check", "ybe,star", "--format", "json",
            "--prime", "101", "--seed", "7", "--no-timings")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert [r["check"] for r in doc["reports"]] == ["star", "ybe"]
    for report in doc["reports"]:
        assert list(report) == ["check", "status", "mode", "prime", "seed",
                                "details", "counterexample", "millis"]
        assert report["millis"] == 0


def test_verify_exact_mode_skips_the_modular_half(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "determinant", "--mode", "exact",
                           "--format", "json", "--no-timings")
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert (report["status"], report["mode"]) == ("pass", "exact")
    assert report["prime"] is None and report["seed"] is None
    notes = {d["id"]: d["note"] for d in report["details"]
             if d["id"].startswith("exact-modular-agreement:")}
    assert set(notes) == {"exact-modular-agreement:t11", "exact-modular-agreement:t21"}
    assert all(note.endswith("modular half skipped (--mode exact)") for note in notes.values())


@pytest.mark.parametrize("argv, code", [
    (("--check", "determinant"), 1),  # pass-modular counts as a failure
    (("--check", "determinant", "--mode", "exact"), 0),
    (("--check", "ybe"), 0),
])
def test_verify_strict_exact_fails_only_modular_passes(capsys, argv, code):
    assert run_cli(capsys, "verify", "--strict-exact", *argv)[0] == code


def test_verify_errata_off_documented_failures(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "rtt", "--errata", "off")
    assert code == 1
    assert "generated-vs-transcribed" in out


def test_verify_spec_binding(capsys):
    # at q = u^2 the braid checks still hold
    code, _, _ = run_cli(capsys, "verify", "--check", "ybe", "--spec", "q=u^2")
    assert code == 0


@pytest.mark.parametrize("binding", [
    ("--set", "q=3/2,u=5/7,s=2"),
    ("--spec", "q=u^2"),
    ("--set", "s=0"),
])
def test_verify_specializations_under_bindings(capsys, binding):
    code, out, _ = run_cli(capsys, "verify", "--check", "specializations", *binding)
    assert code == 0, out


def test_member_verb(capsys):
    code, out, _ = run_cli(
        capsys, "member", "--algebra", "t",
        "--expr", "t22*t11 - t11*t22 + ((u^2 - q)/q^2)*t12*t21 + (q*s/u^2)*t31*t32",
        "--degree", "2",
    )
    assert code == 0
    assert "member" in out
    code, out, _ = run_cli(capsys, "member", "--algebra", "x",
                           "--expr", "x1*x2 - x2*x1", "--degree", "2")
    assert code == 1
    assert "not a member" in out


def test_member_modular_mode_uses_the_raw_rows(capsys):
    code, out, _ = run_cli(capsys, "member", "--algebra", "x", "--mode", "modular",
                           "--expr", "x1*x2 - x2*x1", "--degree", "2")
    assert code == 1
    assert out.startswith("not a member (probabilistic; linear-algebra, modular, degree 2)")


def test_member_modular_residual_is_its_support_at_the_point(capsys):
    code, out, _ = run_cli(capsys, "member", "--algebra", "t", "--mode", "modular",
                           "--expr", "t11*t22-t22*t11")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "not a member (probabilistic; linear-algebra, modular, degree 4)"
    # GF(p) values are no coefficients over Q(q, u, s): only the words are printed
    assert lines[1].startswith("residual over GF(2147483647) at (q, u, s) = (")
    assert lines[1].endswith("), support: t11*t22, t22*t11")
    assert lines[2].startswith("not a member at two GF(2147483647) points: ")
    assert "2147483646" not in out
    code, out, _ = run_cli(capsys, "member", "--algebra", "t", "--mode", "modular",
                           "--expr", "t11*t22-t22*t11", "--format", "json")
    doc = json.loads(out)
    assert (doc["residual"], doc["residual_support"]) == (None, ["t11*t22", "t22*t11"])
    assert len(doc["point"]) == 3 and doc["note"] == lines[2]


def test_member_prints_an_undecided_verdict(tmp_path, capsys):
    # neither homogeneous nor confluent: a nonzero normal form decides nothing
    doc = {"name": "affine", "relations": ["y*x - q*x*y - x", "y*y - x*x - 1"],
           "generators": [{"name": "x", "rank": 0}, {"name": "y", "rank": 1}]}
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "member", "--algebra-file", str(path),
                           "--expr", "x*y", "--degree", "3")
    assert code == 1
    assert out.startswith("undecided: nonzero normal form under rules completed to degree 3")


def test_matrix_verb(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--name", "omega", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"]["11,11"] == "q/u^2"
    code, out, _ = run_cli(capsys, "matrix", "--name", "omega-inv")
    assert code == 0
    assert "u^2/q" in out


def test_export_import_round_trip(tmp_path, capsys):
    out_path = tmp_path / "xx.json"
    code, _, _ = run_cli(capsys, "export", "--family", "xx", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert [g["name"] for g in doc["generators"]] == ["x1", "x2", "x3"]
    # re-imported algebra normalizes identically
    code, out, _ = run_cli(capsys, "normalize", "--algebra-file", str(out_path),
                           "--expr", "x2*x1")
    assert code == 0
    assert out.strip() == "(1/q)*x1*x2 - (s/q)*x3*x3"


def test_export_every_family_round_trips(tmp_path, capsys):
    from wh3 import catalog, ncalg

    for fid in catalog.FAMILY_IDS:
        out_path = tmp_path / f"{fid}.json"
        code, _, _ = run_cli(capsys, "export", "--family", fid, "--out", str(out_path))
        assert code == 0
        loaded = ncalg.presentation_from_json(json.loads(out_path.read_text()))
        fam = catalog.family(fid)
        assert loaded.relations == fam.relations
        assert loaded.alphabet.compatible_with(fam.alphabet)


def run_module(*argv):
    """`python -m wh3 ARGV` from this checkout, in a fresh interpreter."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "wh3", *argv],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)


def test_python_dash_m_entry_point():
    proc = run_module("matrix", "--name", "omega")
    assert proc.returncode == 0, proc.stderr
    assert "[11 ; 11] = q/u^2" in proc.stdout


class PathArg:
    """A path argument under tmp_path: a file holding text, or for text None
    tmp_path itself (a directory)."""

    def __init__(self, text=None):
        self.text = text

    def path(self, tmp_path):
        if self.text is None:
            return str(tmp_path)
        path = tmp_path / "algebra.json"
        path.write_text(self.text)
        return str(path)


def normalize_file(text):
    return ("normalize", "--algebra-file", PathArg(text), "--expr", "x")


@pytest.mark.parametrize("argv, message", [
    (("verify", "--check", "ybe", "--set", "q=0"), "denominator to zero"),
    (("matrix", "--set", "u=0"), "denominator to zero"),
    (("verify", "--check", "determinant", "--prime", "4"), "--prime 4 is not a prime"),
    (("verify", "--check", "determinant", "--prime", "1"), "--prime 1 is not a prime"),
    (("verify", "--check", "ybe", "--mutate", "omega:44,11=1"), "indices 1..3"),
    (("verify", "--check", "ybe", "--mutate", "omega:12,21=0"), "matrix is singular"),
    (normalize_file("{not json"), "malformed algebra file"),
    (normalize_file('{"name": "a"}'), "missing key 'generators'"),
    (normalize_file("[1, 2]"), "malformed algebra file"),
    (normalize_file('{"generators": [{"name": "x", "rank": 0, "weight": 0}], '
                    '"relations": []}'), "generator weights must be positive"),
    (normalize_file(None), "Is a directory"),
    (("export", "--family", "xx", "--out", PathArg()), "Is a directory"),
    # the grammar would read q as the parameter, and cannot reference "x y"
    (normalize_file('{"generators": [{"name": "q", "rank": 0}, {"name": "x", "rank": 1}], '
                    '"relations": ["q*x - 2*x*q"]}'),
     "algebra.json: generator name 'q' is reserved for a parameter"),
    (normalize_file('{"generators": [{"name": "x y", "rank": 0}], "relations": []}'),
     "algebra.json: generator name 'x y' is not a name"),
    # document shapes: each names the key it rejects
    (normalize_file('{"generators": [{"name": "x", "rank": 0}], "relations": "x*x"}'),
     '"relations" must be a list of strings'),
    (normalize_file('{"generators": [{"name": "x", "rank": 0}], "relations": [1]}'),
     '"relations" must be a list of strings'),
    (normalize_file('{"generators": {"x": 0}, "relations": []}'),
     '"generators" must be a list of objects'),
    (normalize_file('{"generators": [{"name": "x", "rank": 0}, {"name": "y", "rank": 0}], '
                    '"relations": []}'),
     """generators 'x' and 'y' share "rank" 0"""),
    (normalize_file('{"generators": [{"name": "x", "rank": 0.5}], "relations": []}'),
     """generator 'x': "rank" must be an integer, not 0.5"""),
    (normalize_file('{"generators": [{"name": "x", "rank": 0, "parity": "weird"}], '
                    '"relations": []}'),
     """generator 'x': "parity" must be "even" or "odd", not 'weird'"""),
    (normalize_file('{"generators": [{"name": "x", "rank": 0, "weight": 1.5}], '
                    '"relations": []}'),
     """generator weights must be positive integers: "weight" of 'x' is 1.5"""),
    (normalize_file('{"generators": [{"name": "x", "rank": 0}], "order": "x", "relations": []}'),
     "order list disagrees with generator ranks"),
])
def test_malformed_input_exits_two_with_one_line(argv, message, tmp_path):
    argv = [a.path(tmp_path) if isinstance(a, PathArg) else a for a in argv]
    proc = run_module(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines
