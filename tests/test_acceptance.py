"""Acceptance suite: every exit criterion, at its stated tolerance.

Tolerance is exact symbolic equality throughout; the few verdicts that run
over a prime field record their prime and seed and are marked as such.  Each
test prints one CRITERION line so a verbose run doubles as a scorecard.
"""

import random

from wh3 import catalog, ncalg, verify
from wh3.catalog import CMatrix
from wh3.exprs import parse_scalar
from wh3.ncalg import Element, MembershipOracle
from wh3.scalars import Scalar
from wh3.verify import VerifyContext

from reference_routes import leftmost_steps, rewrite


def scorecard(number, text, ok):
    print(f"CRITERION {number:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok


def details(report):
    return {d.id: d for d in report.details}


def test_criterion_01_yang_baxter(default_reports):
    report = default_reports["ybe"]
    ok = report.passed and report.millis < 5000
    mutated = verify.check_yang_baxter(
        VerifyContext(omega_mutations=(((1, 1), (1, 1), Scalar.one()),))
    )
    ok = ok and mutated.status == "fail" and mutated.millis < 5000
    scorecard(1, "braid equation exact for both braidings; mutation fails; <5s", ok)


def test_criterion_02_inverse_and_coincidence():
    ident = CMatrix.identity()
    ok = catalog.omega() @ catalog.omega_inverse() == ident
    ok = ok and catalog.omega_inverse() @ catalog.omega() == ident
    bind = {"q": parse_scalar("u^2")}
    ok = ok and catalog.omega().substitute(bind) == catalog.omega_inverse().substitute(bind)
    scorecard(2, "omega * omega^-1 = 1 exactly; self-inverse at q=u^2", ok)


def test_criterion_03_constraints(default_reports):
    report = default_reports["constraints"]
    ok = report.passed and len(report.details) == 20
    ident = CMatrix.identity()
    lhs = ident.entry((1, 2), (1, 2))
    rhs = Scalar.param("q") * ident.entry((2, 1), (1, 2)) - Scalar.one()
    ok = ok and lhs != rhs
    scorecard(3, "all ten coefficient identities hold for both braidings; "
                 "identity matrix fails", ok)


def test_criterion_04_generated_families(default_reports):
    ok = True
    for variant in ("omega", "omega-inv"):
        dm = details(default_reports[f"calculus-{variant}"])
        for kind in ("xxi", "dxi", "xd", "xixi"):
            ok = ok and dm[f"generated-vs-transcribed:{kind}"].ok
    scorecard(4, "all eight calculus families regenerate from the braiding "
                 "matrices (span equality)", ok)


def test_criterion_05_calculus(default_reports):
    ok = True
    for variant in ("omega", "omega-inv"):
        report = default_reports[f"calculus-{variant}"]
        dm = details(report)
        ok = ok and report.passed and report.millis < 60_000
        ok = ok and all(dm[f"derivative-annihilates:d{i}*xx{j}"].ok
                        for i in (1, 2, 3) for j in (1, 2, 3))
        ok = ok and all(dm[f"exterior-derivative:xx{j}"].ok for j in (1, 2, 3))
        ok = ok and all(dm[f"derivative-decomposition:{p}"].ok
                        for p in ("x1", "x1*x2", "x2*x3*x1"))
        ok = ok and "overlap-analysis" in dm
    scorecard(5, "derivatives and the exterior differential annihilate the "
                 "variable relations; probe decompositions agree; overlap "
                 "report generated; <60s per variant", ok)


def test_criterion_06_rtt(default_reports):
    report = default_reports["rtt"]
    dm = details(report)
    ok = report.passed and dm["rank"].ok
    mutated = verify.check_rtt(
        VerifyContext(omega_mutations=(((1, 2), (3, 3), Scalar.zero()),))
    )
    ok = ok and mutated.status == "fail" and mutated.counterexample
    scorecard(6, "exchange span = transcribed span = inverse-braiding span, "
                 "rank 36; mutation control fails with witness", ok)


def test_criterion_07_inverse(default_reports):
    report = default_reports["inverse"]
    dm = details(report)
    ok = report.passed and report.millis < 120_000
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            right = dm[f"right-inverse:({i},{j})"]
            anti = dm[f"antipode:({i},{j})"]
            ok = ok and right.ok and anti.ok and not right.modular and not anti.modular
    scorecard(7, "all 9+9 product entries certified at degree 3, exact; <120s", ok)


def test_criterion_08_determinant(default_reports):
    report = default_reports["determinant"]
    dm = details(report)
    ok = report.passed
    ok = ok and all(dm[f"lambda:{name}"].ok for name in catalog.t_alphabet().names())
    ok = ok and dm["non-centrality:t21"].ok
    ok = ok and "u^2/q^4" in dm["lambda:t21"].note  # certified factor, != 1
    ok = ok and report.prime is not None and report.seed is not None
    ok = ok and dm["exact-modular-agreement:t11"].ok
    ok = ok and dm["exact-modular-agreement:t21"].ok
    scorecard(8, "all nine determinant commutation factors certified at "
                 "degree 4 against the errata-corrected table; non-centrality "
                 "witnessed by t21; exact and modular agree on t11/t21", ok)


def test_criterion_09_coaction(default_reports):
    report = default_reports["coaction"]
    dm = details(report)
    ok = report.passed
    for fid in ("xx", "xixi", "dd", "xxi-omega", "dxi-omega", "xd-omega"):
        ok = ok and dm[f"family:{fid}"].ok
    scorecard(9, "coaction invariance for the variable, one-form, derivative "
                 "and all mixed families of the primary calculus", ok)


def test_criterion_10_hopf(default_reports):
    report = default_reports["hopf"]
    dm = details(report)
    ok = report.passed
    ok = ok and dm["coproduct-is-algebra-map"].ok and not dm["coproduct-is-algebra-map"].modular
    ok = ok and dm["determinant-group-like"].ok
    ok = ok and dm["counit-axiom"].ok and not dm["counit-axiom"].modular
    scorecard(10, "coproduct is an algebra map at bidegree (2,2), exact; "
                  "determinant group-like; counit axiom exact", ok)


def test_criterion_11_star(default_reports):
    report = default_reports["star"]
    dm = details(report)
    ok = report.passed
    ok = ok and dm["involutive-on-generators"].ok
    ok = ok and dm["variable-relation-fixed-point"].ok
    ok = ok and dm["quantum-matrix-relations"].ok
    ok = ok and dm["inverse-determinant-relations"].ok
    scorecard(11, "star images of the variable, quantum-matrix and "
                  "inverse-determinant relations are ideal members; "
                  "involutivity on all generators", ok)


def test_criterion_12_specializations(default_reports):
    report = default_reports["specializations"]
    dm = details(report)
    ok = report.passed
    ok = ok and dm["s=0-quantum-plane"].ok
    ok = ok and dm["q=u^2-self-inverse-braiding"].ok
    ok = ok and all(dm[f"q=u^2-calculi-coincide:{k}"].ok for k in ("xxi", "dxi", "xd"))
    ok = ok and dm["t3-row-residue:t12*t33"].ok and dm["t3-row-residue:t21*t33"].ok
    ok = ok and dm["t-prime-commutativity"].ok
    scorecard(12, "quantum-plane limit; calculi coincide at q=u^2; corner "
                  "residues forced; t' generators commute pairwise", ok)


def test_criterion_13_property_suites():
    # termination / soundness / path-independence on randomized inputs
    pres = catalog.calculus_presentation("omega")
    rules = ncalg.orient(pres)
    rng = random.Random(13)
    n = len(pres.alphabet)
    ok = True
    for _ in range(15):
        word = tuple(rng.randrange(n) for _ in range(rng.randrange(6)))
        e = Element.from_word(pres.alphabet, word)
        nf, steps = leftmost_steps(rules, e)
        ok = ok and steps < rules.budget
        ok = ok and rewrite(rules, e, "random", rng) == nf
    xp = catalog.x_presentation()
    oracle = MembershipOracle(xp)
    xrules = oracle.rules
    for _ in range(10):
        word = tuple(rng.randrange(3) for _ in range(3))
        e = Element.from_word(xp.alphabet, word)
        ok = ok and oracle.member(xrules.normalize(e) - e, degree=3).member
    # scalar field axioms on a few random values
    vals = [parse_scalar(t) for t in ("q/u^2 - 1", "s", "2", "(u^2-q)/q^2", "1/u")]
    for a in vals:
        for b in vals:
            ok = ok and (a + b == b + a) and (a * b == b * a)
            if not b.is_zero:
                ok = ok and (a / b) * b == a
    # mutation sensitivity: 20 random corruptions each flip a verdict
    rng = random.Random(20260809)
    for _ in range(20):
        ctx = VerifyContext(omega_mutations=(verify.random_omega_mutation(rng),))
        ok = ok and verify.check_yang_baxter(ctx).status == "fail"
    from wh3.linalg import ScalarEchelon
    gen_ech = ScalarEchelon()
    for rel in catalog.rtt_generate(catalog.omega()).relations:
        if not rel.is_zero:
            gen_ech.insert(dict(rel.terms))
    fam = catalog.family("tt").relations
    rng = random.Random(424242)
    for _ in range(20):
        rel = fam[rng.randrange(len(fam))]
        word = sorted(rel.terms)[rng.randrange(len(rel.terms))]
        mutated = rel + Element.from_word(rel.alphabet, word, Scalar.param("q"))
        ok = ok and bool(gen_ech.reduce(dict(mutated.terms)))
    scorecard(13, "termination, soundness, path-independence, field axioms "
                  "and 20-fold mutation sensitivity all green", ok)


def test_criterion_14_full_run_and_errata_toggle(default_reports, errata_off_reports, capsys):
    total_ms = sum(r.millis for r in default_reports.values())
    ok = all(r.passed for r in default_reports.values())
    ok = ok and total_ms < 600_000
    # the errata-off run pinpoints the typographical rows, deterministically
    passing_off = {c for c, r in errata_off_reports.items() if r.passed}
    ok = ok and passing_off == {"ybe", "constraints"}
    star_off = errata_off_reports["star"]
    ok = ok and "[9, 25, 27, 33]" in (star_off.counterexample or "")
    rtt_off = {d.id for d in errata_off_reports["rtt"].details if not d.ok}
    ok = ok and rtt_off == {"generated-vs-transcribed"}
    with capsys.disabled():
        print(f"\n[full default verification: {total_ms} ms across "
              f"{len(default_reports)} checks]")
    scorecard(14, "full default suite passes well under ten minutes; the "
                  "errata-off run fails in the documented stable set", ok)
