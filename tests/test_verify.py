"""The verification checks, their witnesses, and their negative controls."""

import ast
import contextlib
import functools
import random
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from wh3 import catalog, cli, linalg, ncalg, verify
from wh3.catalog import CMatrix, PAIRS
from wh3.exprs import parse_element, parse_scalar
from wh3.linalg import ScalarEchelon
from wh3.ncalg import Element, MembershipOracle
from wh3.scalars import Scalar, ScalarSubstitutionError
from wh3.verify import VerifyContext

from reference_routes import algebra_tensor, random_omega_mutation, whole_product_yang_baxter


def detail_map(report):
    return {d.id: d for d in report.details}


def untimed(report):
    return {**report.to_dict(), "millis": 0}


# ---------------------------------------------------------------------------
# positive suite (shared run)
# ---------------------------------------------------------------------------


def test_all_default_checks_pass(default_reports):
    assert set(default_reports) == set(verify.CHECK_IDS)
    for check, report in default_reports.items():
        assert report.passed, (check, report.counterexample)


def test_every_report_is_exact(default_reports):
    # one verdict kind: a report says pass or fail and names no prime or seed
    assert {r.status for r in default_reports.values()} == {"pass"}
    for report in default_reports.values():
        assert set(report.to_dict()) == {"check", "status", "details", "counterexample",
                                         "millis"}
        assert all(set(d.to_dict()) <= {"id", "ok", "note"} for d in report.details)
    # the confluent quantum-matrix rules certify non-centrality exactly
    noncentral = detail_map(default_reports["determinant"])["non-centrality:t21"]
    assert noncentral.ok and noncentral.note.endswith("(exact)")


def test_rtt_reports_rank(default_reports):
    details = detail_map(default_reports["rtt"])
    assert "rank 36" in details["rank"].note or "36" in details["rank"].note
    assert details["independent-rows"].ok


def test_inverse_has_all_eighteen_certificates(default_reports):
    details = detail_map(default_reports["inverse"])
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert details[f"right-inverse:({i},{j})"].ok
            assert details[f"antipode:({i},{j})"].ok


def test_determinant_lambda_notes(default_reports):
    details = detail_map(default_reports["determinant"])
    assert "q^4/u^2" in details["lambda:t12"].note
    assert "u^2/q^4" in details["lambda:t21"].note
    assert details["non-centrality:t21"].ok
    assert details["decomposition-replay:t11"].ok
    assert details["decomposition-replay:t21"].ok


def test_coaction_covers_required_families(default_reports):
    details = detail_map(default_reports["coaction"])
    for fid in ("xx", "xixi", "dd", "xxi-omega", "dxi-omega", "xd-omega"):
        assert details[f"family:{fid}"].ok, fid
    assert details["transposed-inverse"].ok


def test_transposed_inverse_needs_no_linear_solve(monkeypatch):
    # W is the star image of the cofactors; nothing solves for it
    def refuse(rows):
        raise AssertionError("solve_linear called")

    monkeypatch.setattr(verify, "solve_linear", refuse)
    ctx = VerifyContext()
    report = verify.check_coaction(ctx)
    assert report.passed, report.counterexample
    assert detail_map(report)["transposed-inverse"].note.startswith(
        "W is the star image of the cofactors")
    assert all(entry for row in ctx.bound.W for entry in row)


def test_tensor_checks_rewrite_no_mixed_word(monkeypatch):
    # coaction's qg (x) calculus and hopf's l (x) r normalize leg by leg:
    # nothing orients a tensor presentation or rewrites a word of two legs
    inp = VerifyContext().bound
    legs = [set(inp.qg.alphabet.names()), set(inp.calculus["omega"].alphabet.names()),
            {f"l{i}{j}" for i in "123" for j in "123"},
            {f"r{i}{j}" for i in "123" for j in "123"}]

    def mixed(alphabet):
        names = set(alphabet.names())
        return sum(bool(names & leg) for leg in legs) > 1

    orient = ncalg.orient

    def refuse_tensors(pres, *args):
        if mixed(pres.alphabet):
            raise AssertionError(f"orient called on the tensor {pres.name}")
        return orient(pres, *args)

    normalized = set()
    normalize_word = ncalg.RuleSystem.normalize_word

    def spy(self, word, counter=None):
        normalized.add(self.alphabet)
        return normalize_word(self, word, counter)

    monkeypatch.setattr(ncalg, "_ALGEBRAS", OrderedDict())  # build every algebra afresh
    monkeypatch.setattr(ncalg, "orient", refuse_tensors)
    monkeypatch.setattr(ncalg.RuleSystem, "normalize_word", spy)
    for check in (verify.check_coaction, verify.check_hopf):
        report = check(VerifyContext())
        assert report.passed, report.counterexample
    assert normalized and not any(mixed(alphabet) for alphabet in normalized)


@pytest.mark.parametrize("errata", [True, False], ids=["default", "errata-off"])
def test_run_all_orients_only_the_base_presentations(errata, monkeypatch):
    # a tensor algebra is built from its legs' objects: hopf's A (x) A has tt
    # as both legs, and no tensor or renamed copy is oriented or cached
    oriented = []
    orient = ncalg.orient

    def spy(pres, *args):
        oriented.append(pres.name)
        return orient(pres, *args)

    monkeypatch.setattr(ncalg, "_ALGEBRAS", OrderedDict())
    monkeypatch.setattr(ncalg, "orient", spy)
    verify.run_all(VerifyContext(errata=errata))
    assert sorted(oriented) == ["calculus-omega", "calculus-omega-inv", "qg", "t"]
    assert [type(found) for found in ncalg._ALGEBRAS.values()] == [MembershipOracle] * 4


def test_wrong_transposed_inverse_stops_before_the_families(default_reports):
    ctx = VerifyContext()
    W = ctx.bound.W
    W[0], W[1] = W[1], W[0]
    report = verify.check_coaction(ctx)
    detail = detail_map(report)["transposed-inverse"]
    passing = detail_map(default_reports["coaction"])["transposed-inverse"]
    assert not detail.ok and report.status == "fail"
    assert detail.note != passing.note
    assert report.counterexample.startswith("entry (1, 1): ")
    assert len(report.counterexample) <= len("entry (1, 1): ") + 160
    assert [d.id for d in report.details] == ["transposed-inverse"]


def test_star_details(default_reports):
    details = detail_map(default_reports["star"])
    assert details["involutive-on-generators"].ok
    assert details["variable-relation-fixed-point"].ok
    assert details["determinant-star-fixed"].ok


@pytest.mark.parametrize("errata", [True, False], ids=["default", "errata-off"])
def test_checks_do_not_depend_on_run_order(errata, default_reports, errata_off_reports,
                                           monkeypatch):
    # each check alone, on a fresh context and an empty algebra cache, and the
    # registry run backwards report what the session's run_all reported
    session = default_reports if errata else errata_off_reports
    expected = {cid: untimed(session[cid]) for cid in verify.CHECK_IDS}
    for cid in verify.CHECK_IDS:
        monkeypatch.setattr(ncalg, "_ALGEBRAS", OrderedDict())
        alone = verify.run_check(cid, VerifyContext(errata=errata))
        assert untimed(alone) == expected[cid], cid
    monkeypatch.setattr(ncalg, "_ALGEBRAS", OrderedDict())
    backwards = verify.run_all(VerifyContext(errata=errata), verify.CHECK_IDS[::-1])
    assert {r.check: untimed(r) for r in backwards} == expected


def test_rtt_implies_coaction_ordering(default_reports):
    # logical dependency: the coaction can only hold on top of a correct
    # quantum matrix; both are executed independently and both pass
    assert default_reports["rtt"].passed
    assert default_reports["coaction"].passed


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------


def test_ybe_mutation_fails_with_cited_cell(default_reports):
    passing = {d.id: d.note for d in default_reports["ybe"].details}
    ctx = VerifyContext(omega_mutations=(((1, 1), (1, 1), Scalar.one()),))
    report = verify.check_yang_baxter(ctx)
    assert report.status == "fail"
    assert report.counterexample and "cell" in report.counterexample
    # each failing variant's note names its first differing cell; the mutation
    # is the one pinned by tests/golden/verify-mutate-omega.json
    value = parse_scalar("(q/u^2)+(2)")
    report = verify.check_yang_baxter(
        VerifyContext(omega_mutations=(((1, 1), (1, 1), value),)))
    notes = {d.id: d.note for d in report.details if not d.ok}
    assert notes == {
        "braid-equation:omega": "27x27 products differ at cell (3, 1, 1)x(3, 1, 1)",
        "braid-equation:omega-inv": "27x27 products differ at cell (1, 1, 3)x(1, 1, 3)",
    }
    assert all(note != passing[detail_id] for detail_id, note in notes.items())
    assert report.counterexample.startswith("cell (3, 1, 1)x(3, 1, 1): ")


def test_row_by_row_braid_equation_names_the_whole_products_cell():
    # every nonzero braiding cell, shifted by a few offsets, and no corruption;
    # a shift that makes the braiding singular has no inverse to check
    offsets = [parse_scalar(text) for text in ("1", "-1", "q/u + 1/2")]
    contexts = [VerifyContext()]
    for row_pair, col_pair, value in catalog.omega().nonzero_cells():
        contexts += [VerifyContext(omega_mutations=((row_pair, col_pair, value + offset),))
                     for offset in offsets]
    compared = 0
    for ctx in contexts:
        try:
            ctx.bound
        except catalog.SingularMatrixError:
            continue
        got, want = verify.check_yang_baxter(ctx), whole_product_yang_baxter(ctx)
        assert [(d.id, d.ok, d.note) for d in got.details] == \
            [(d.id, d.ok, d.note) for d in want.details]
        assert got.counterexample == want.counterexample
        compared += 1
    assert compared > 30


def test_ybe_identity_braiding_passes():
    # braid equation for the identity is trivial; exercised via the raw helper
    C1, C2 = verify._braid_legs(CMatrix.identity())
    assert C1 @ C2 @ C1 == C2 @ C1 @ C2


def test_constraints_fail_for_identity_braiding():
    ident = CMatrix.identity()
    # first linear identity: C^{12}_{12} = q C^{21}_{12} - 1 becomes 1 = -1
    lhs = ident.entry((1, 2), (1, 2))
    rhs = Scalar.param("q") * ident.entry((2, 1), (1, 2)) - Scalar.one()
    assert lhs != rhs
    assert lhs == Scalar.one() and rhs == Scalar.from_fraction(-1)


def test_rtt_mutation_zeroed_entry_fails():
    ctx = VerifyContext(omega_mutations=(((1, 2), (3, 3), Scalar.zero()),))
    report = verify.check_rtt(ctx)
    assert report.status == "fail"
    assert report.counterexample  # separating vector cited


def test_calculus_mutation_fails_derivative_annihilation():
    # corrupt one structure coefficient: d2*x1 -> (q/u^2)*x1*d2 instead of q^2/u^2
    pres = catalog.calculus_presentation("omega")
    target = pres.alphabet
    mutated = []
    for rel in pres.relations:
        text = rel.format()
        if text.startswith("-(q^2/u^2)*x1*d2"):
            rel = parse_element("d2*x1 - (q/u^2)*x1*d2", target)
        mutated.append(rel)
    assert any(r.format() == "-(q/u^2)*x1*d2 + d2*x1" for r in mutated)
    rules = ncalg.orient(ncalg.PresentationSpec("mutated", target, mutated))
    first = ncalg.algebra_map(catalog.family("xx").relations[0], target)
    residual = rules.normalize(Element.generator(target, "d2") * first)
    assert not residual.is_zero


def test_coaction_negative_control_dropped_relations():
    """Treating the lower corner generators as free breaks invariance."""
    tt = catalog.tt_presentation()
    dropped = {8, 9}  # the straightening rows for t31*t11 and t32*t11
    weakened = ncalg.PresentationSpec(
        "weakened", tt.alphabet,
        [r for idx, r in enumerate(tt.relations) if idx not in dropped],
    )
    xp = catalog.x_presentation()
    tensor = algebra_tensor(weakened, xp)
    rules = ncalg.orient(tensor)
    TA = tensor.alphabet
    images = {}
    for i in (1, 2, 3):
        total = Element.zero(TA)
        for j in (1, 2, 3):
            total = total + Element.generator(TA, f"t{i}{j}") * Element.generator(TA, f"x{j}")
        images[f"x{i}"] = total
    rel = catalog.family("xx").relations[1]  # x1*x3 - u*x3*x1
    image = Element.zero(TA)
    for w, c in rel.terms.items():
        piece = Element.from_scalar(TA, c)
        for g in w:
            piece = piece * images[rel.alphabet.generators[g].name]
        image = image + piece
    residual = rules.normalize(image)
    assert not residual.is_zero
    # certify non-membership with the tensor-quotient oracle: project each
    # t-coefficient modulo the weakened span and the x-part modulo the
    # variable relations; a nonzero image cannot lie in the combined ideal
    ech_t = ScalarEchelon()
    for rel_t in weakened.relations:
        ech_t.insert(dict(rel_t.terms))
    assert ech_t.rank == 34
    ech_x = ScalarEchelon()
    for rel_x in xp.relations:
        ech_x.insert(dict(rel_x.terms))
    offset = len(tt.alphabet)
    matrix: dict = {}
    for w, c in residual.terms.items():
        t_word = tuple(g for g in w if g < offset)
        x_word = tuple(g - offset for g in w if g >= offset)
        matrix.setdefault(x_word, {})[t_word] = c
    quotient_nonzero = False
    for x_word, t_vec in matrix.items():
        reduced_t = ech_t.reduce(dict(t_vec))
        for t_word, c in reduced_t.items():
            reduced_x = ech_x.reduce({x_word: c})
            if reduced_x:
                quotient_nonzero = True
    assert quotient_nonzero  # image survives both quotients: not in the ideal


def test_full_coaction_passes_where_weakened_fails(default_reports):
    assert detail_map(default_reports["coaction"])["family:xx"].ok


# ---------------------------------------------------------------------------
# mutation sensitivity (>= 20 random single corruptions flip each verdict)
# ---------------------------------------------------------------------------


def test_ybe_mutation_sensitivity():
    rng = random.Random(20260809)
    for trial in range(20):
        mutation = random_omega_mutation(rng)
        ctx = VerifyContext(omega_mutations=(mutation,))
        report = verify.check_yang_baxter(ctx)
        assert report.status == "fail", (trial, mutation)


def test_rtt_mutation_sensitivity():
    rng = random.Random(424242)
    gen = catalog.rtt_generate(catalog.omega()).relations
    ech = ScalarEchelon()
    for rel in gen:
        if not rel.is_zero:
            ech.insert(dict(rel.terms))
    fam = catalog.family("tt").relations
    for trial in range(20):
        idx = rng.randrange(len(fam))
        rel = fam[idx]
        word = sorted(rel.terms)[rng.randrange(len(rel.terms))]
        bump = Scalar.param("q") if rng.random() < 0.5 else Scalar.from_fraction(1)
        mutated = rel + Element.from_word(rel.alphabet, word, bump)
        assert ech.reduce(dict(mutated.terms)), (trial, idx)


def test_calculus_mutation_sensitivity():
    rng = random.Random(777)
    target = catalog.calculus_alphabet()
    generated = {
        kind: catalog.generate_from_C(catalog.omega(), catalog.omega_inverse(), kind).relations
        for kind in ("xxi", "dxi", "xd")
    }
    echelons = {}
    for kind, rels in generated.items():
        ech = ScalarEchelon()
        for rel in rels:
            ech.insert(dict(rel.terms))
        echelons[kind] = ech
    for trial in range(20):
        kind, fid = rng.choice((("xxi", "xxi-omega"), ("dxi", "dxi-omega"), ("xd", "xd-omega")))
        fam = [ncalg.algebra_map(r, target) for r in catalog.family(fid).relations]
        rel = fam[rng.randrange(len(fam))]
        word = sorted(rel.terms)[rng.randrange(len(rel.terms))]
        mutated = rel + Element.from_word(target, word, Scalar.param("u"))
        assert echelons[kind].reduce(dict(mutated.terms)), (trial, kind)


# ---------------------------------------------------------------------------
# eigenstructure: derived oracle and specialization invariance
# ---------------------------------------------------------------------------


def test_xx_vector_is_row_eigenvector_by_direct_multiplication():
    # independent 9-component oracle for the first variable relation vector
    om = catalog.omega()
    vec = {
        (1, 2): Scalar.one(),
        (2, 1): -Scalar.param("q"),
        (3, 3): -Scalar.param("s"),
    }
    image = {}
    for rp, c in vec.items():
        for cp in PAIRS:
            v = om.entry(rp, cp)
            if not v.is_zero:
                image[cp] = image.get(cp, Scalar.zero()) + c * v
    image = {k: v for k, v in image.items() if not v.is_zero}
    assert image == {k: -v for k, v in vec.items()}


def test_one_form_vectors_have_eigenvalue_q_over_u_squared(default_reports):
    details = detail_map(default_reports["eigenstructure"])
    assert "q/u^2" in details["one-form-row-eigenvectors:omega"].note


def test_eigenstructure_surfaces_normalization_ambiguity(default_reports):
    # both spectra are reported; the stated one-form value is flagged, not patched
    details = detail_map(default_reports["eigenstructure"])
    note = details["spectrum-normalization-note"].note
    assert "-1" in note and "q/u^2" in note


def test_eigenstructure_invariant_under_numeric_specialization(default_reports):
    from fractions import Fraction

    ctx = VerifyContext(bindings=(
        ("q", Scalar.from_fraction(Fraction(7, 5))),
        ("u", Scalar.from_fraction(Fraction(3, 2))),
        ("s", Scalar.from_fraction(Fraction(2, 9))),
    ))
    numeric = verify.check_eigenstructure(ctx)
    assert numeric.passed
    sym = detail_map(default_reports["eigenstructure"])
    num = detail_map(numeric)
    for key in ("derivative-eigenspace-dim:omega", "derivative-eigenspace-dim:omega-inv"):
        assert sym[key].note == num[key].note  # same reported dimensions
    # the numeric eigenvalues are the specializations of the symbolic ones
    assert "-1" in num["xx-row-eigenvectors:omega"].note


def test_specialization_details(default_reports):
    details = detail_map(default_reports["specializations"])
    assert details["s=0-quantum-plane"].ok
    assert details["q=u^2-self-inverse-braiding"].ok
    assert details["t3-row-residue:t12*t33"].ok
    assert details["t3-row-residue:t21*t33"].ok
    assert details["t-prime-commutativity"].ok
    assert "nu" in details["t-prime-commutativity"].note


def _tprime(tt, D, inp):
    """t-prime commutativity of tt and D at q = u^2, t31 = t32 = 0."""
    u2 = {"q": inp.u * inp.u}
    return verify._tprime_commutativity(
        ncalg.specialize(tt, {**u2, "t31": 0, "t32": 0}), D, u2)


def _doubled(tt, row, word_text):
    """tt with the coefficient of one word of one row doubled."""
    (word,) = parse_element(word_text, tt.alphabet).terms
    rel = tt.relations[row]
    rels = list(tt.relations)
    rels[row] = Element(tt.alphabet, {**rel.terms, word: rel.terms[word] + rel.terms[word]})
    return ncalg.PresentationSpec(tt.name, tt.alphabet, rels)


def test_tprime_commutativity_builds_no_algebra(monkeypatch):
    # 21 degree-2 span identities: no rules, completion or membership
    def refuse(pres):
        raise AssertionError("t-prime commutativity built an algebra object")

    inp = VerifyContext().bound
    monkeypatch.setattr(ncalg, "algebra", refuse)
    ok, note, counterexample = _tprime(inp.tt, inp.determinant, inp)
    assert ok and counterexample is None
    assert note.endswith("; all 21 pairs commute")


@pytest.mark.parametrize("row, word, counterexample", [
    (15, "t12*t21", "[t12*w, t21*w] = (-t11*t22 + t33*t33)*w^2"),
    (19, "t33*t33", "[t13*w, t23*w] = ((s/u)*t33*t33)*w^2"),
])
def test_tprime_commutativity_counterexample_is_a_degree_two_residual(row, word, counterexample):
    inp = VerifyContext().bound
    ok, note, found = _tprime(_doubled(inp.tt, row, word), inp.determinant, inp)
    assert not ok
    assert found == counterexample
    assert note.endswith("; 1 of 21 pairs do not commute")


def test_tprime_commutativity_needs_a_clean_rule_for_t33():
    # without its t33*t11 term, row 7 no longer rewrites t33*t11 at all
    inp = VerifyContext().bound
    tt = inp.tt
    (word,) = parse_element("t33*t11", tt.alphabet).terms
    rels = list(tt.relations)
    rels[7] = Element(tt.alphabet, {w: c for w, c in rels[7].terms.items() if w != word})
    mutant = ncalg.PresentationSpec(tt.name, tt.alphabet, rels)
    reason = "no clean commutation rule for t33 with t11: t33*t11"
    assert _tprime(mutant, inp.determinant, inp) == (False, reason, reason)


# Every tt term whose doubled coefficient breaks t-prime commutativity; the
# other 51 of the 96 terms vanish at q = u^2, t31 = t32 = 0 or leave the
# commutators in the span.
TPRIME_SWEEP_FAILURES = {
    0: ("t12*t11", "t11*t12"), 1: ("t22*t11", "t11*t22"), 2: ("t13*t12", "t12*t13"),
    3: ("t21*t11", "t11*t21"), 4: ("t13*t11", "t11*t13"), 5: ("t23*t11", "t11*t23"),
    7: ("t33*t11", "t11*t33"), 10: ("t33*t12", "t12*t33"), 11: ("t22*t12", "t12*t22"),
    12: ("t23*t22", "t22*t23"), 13: ("t23*t12", "t12*t23"), 15: ("t21*t12", "t12*t21"),
    19: ("t23*t13", "t13*t23", "t33*t33", "t11*t22", "t12*t21"),
    21: ("t22*t13", "t13*t22"), 22: ("t21*t22", "t22*t21"), 23: ("t33*t22", "t22*t33"),
    24: ("t23*t21", "t21*t23"), 25: ("t33*t23", "t23*t33"), 31: ("t21*t13", "t13*t21"),
    33: ("t33*t13", "t13*t33"), 34: ("t33*t21", "t21*t33"),
}


def test_tprime_commutativity_rejects_exactly_the_recorded_doubled_terms():
    inp = VerifyContext().bound
    tt, A = inp.tt, inp.tt.alphabet
    mutants = [(row, A.format_word(word)) for row, rel in enumerate(tt.relations)
               for word in rel.terms]
    assert len(mutants) == 96
    failing = {(row, word) for row, word in mutants
               if not _tprime(_doubled(tt, row, word), inp.determinant, inp)[0]}
    assert failing == {(row, word) for row, words in TPRIME_SWEEP_FAILURES.items()
                       for word in words}


@pytest.mark.parametrize("bindings", [(), (("u", "s+1"),)], ids=["free", "u=s+1"])
def test_t3_row_residue_must_be_a_multiple_of_the_factor(bindings):
    # t31 = t32 = 0 leaves (u^2 - q^2)/(u*q) * t12*t33: nonzero, but u^2 - q
    # does not divide it; a bound u may stay in the denominator
    values = {name: parse_scalar(value) for name, value in bindings}
    ctx = VerifyContext(bindings=tuple(values.items()))
    tt = ctx.bound.tt
    tt.relations[17] = parse_element("t32*t13 - t13*t32 + ((u^2 - q^2)/(u*q))*t12*t33",
                                     tt.alphabet).substitute_params(values)
    details = detail_map(verify.check_specializations(ctx))
    assert not details["t3-row-residue:t12*t33"].ok
    assert details["t3-row-residue:t21*t33"].ok


def test_membership_certifies_corrected_inverse_factor():
    """Degree-4 membership certifies the corrected commutation factor for t21
    and rejects the uncorrected printed one."""
    pres = catalog.tt_presentation()
    oracle = MembershipOracle(pres)
    A = pres.alphabet
    D = catalog.quantum_determinant()
    g = Element.generator(A, "t21")
    true_lambda = catalog.dinv_factor("t21").inverse()  # u^2/q^4
    assert true_lambda == parse_scalar("u^2/q^4")
    assert oracle.member(g * D - D.scale(true_lambda) * g, degree=4).member
    printed_lambda = parse_scalar("1/q^2")  # from the uncorrected row
    report = oracle.member(g * D - D.scale(printed_lambda) * g, degree=4)
    assert not report.member


def test_hopf_details(default_reports):
    details = detail_map(default_reports["hopf"])
    assert details["coproduct-is-algebra-map"].ok
    assert details["determinant-group-like"].ok
    assert details["counit-axiom"].ok


def test_hopf_holds_under_bindings():
    # the coproduct target must carry the same bound relations as the images
    numeric = (("q", parse_scalar("3/2")), ("u", parse_scalar("5/7")), ("s", parse_scalar("2")))
    for bindings in (numeric, (("q", parse_scalar("u^2")),)):
        report = verify.check_hopf(VerifyContext(bindings=bindings))
        assert report.passed, (bindings, report.counterexample)


def test_determinant_holds_at_a_rational_point_with_integral_products():
    # q*u = 1/4 and u*s = 1: products of the bound values store Fraction(1, 1)
    halves = (("q", parse_scalar("1/2")), ("u", parse_scalar("1/2")), ("s", parse_scalar("2")))
    report = verify.check_determinant(VerifyContext(bindings=halves))
    assert report.passed, report.counterexample


def test_specializations_compose_with_bindings():
    numeric = (("q", parse_scalar("3/2")), ("u", parse_scalar("5/7")), ("s", parse_scalar("2")))
    report = verify.check_specializations(VerifyContext(bindings=numeric))
    assert report.passed, report.counterexample
    skipped = {d.id for d in report.details if d.note.startswith("not applicable:")}
    assert skipped == {
        "s=0-quantum-plane",
        "q=u^2-self-inverse-braiding",
        "q=u^2-calculi-coincide:xxi",
        "q=u^2-calculi-coincide:dxi",
        "q=u^2-calculi-coincide:xd",
        "t-prime-commutativity",
    }
    # on q = u^2 the (u^2 - q) residues vanish; the rest still runs for real
    report = verify.check_specializations(VerifyContext(bindings=(("q", parse_scalar("u^2")),)))
    assert report.passed, report.counterexample
    skipped = {d.id for d in report.details if d.note.startswith("not applicable:")}
    assert skipped == {"t3-row-residue:t12*t33", "t3-row-residue:t21*t33"}
    assert detail_map(report)["s=0-quantum-plane"].note == "span comparison: equal"


def test_specializations_apply_after_bindings_that_mention_parameters():
    # s := 0 reaches both sides of the quantum-plane comparison, and a bound s
    # that vanishes at s = 0 does not rule it out
    for name, value in (("q", "s"), ("u", "s+1"), ("q", "u^2*s+u^2"), ("s", "2*s")):
        report = verify.check_specializations(
            VerifyContext(bindings=((name, parse_scalar(value)),)))
        assert report.passed, (name, value, report.counterexample)
        assert detail_map(report)["s=0-quantum-plane"].note == "span comparison: equal"
    # q := u^2 is no specialization when the bound u mentions q
    report = verify.check_specializations(VerifyContext(bindings=(("u", parse_scalar("q")),)))
    assert report.passed, report.counterexample
    skipped = {d.id for d in report.details
               if d.note == "not applicable: the bindings give u = q, which mentions q"}
    assert skipped == {
        "q=u^2-self-inverse-braiding",
        "q=u^2-calculi-coincide:xxi",
        "q=u^2-calculi-coincide:dxi",
        "q=u^2-calculi-coincide:xd",
        "t-prime-commutativity",
    }


def test_specializations_run_every_subcheck_when_bindings_allow():
    for bindings in ((("s", parse_scalar("0")),), (("u", parse_scalar("2")),)):
        report = verify.check_specializations(VerifyContext(bindings=bindings))
        assert report.passed, (bindings, report.counterexample)
        assert not any(d.note.startswith("not applicable:") for d in report.details)


# ---------------------------------------------------------------------------
# errata-off: the documented, stable failing set
# ---------------------------------------------------------------------------

ERRATA_OFF_EXPECTED_FAILURES = {
    "eigenstructure": {"derivative-eigenvectors:omega", "derivative-eigenvectors:omega-inv"},
    "calculus-omega": {"generated-vs-transcribed:dxi", "completion"},
    "calculus-omega-inv": {"generated-vs-transcribed:xd", "completion"},
    "rtt": {"generated-vs-transcribed"},
    "star": {"quantum-matrix-relations", "inverse-determinant-relations"},
    "hopf": {"coproduct-is-algebra-map"},
    "specializations": {"q=u^2-calculi-coincide:dxi", "q=u^2-calculi-coincide:xd"},
    "coaction": {f"family:{fid}" for fid in verify.COACTION_DEFAULT_FAMILIES},
}


def test_errata_off_failing_set_is_stable(errata_off_reports):
    passing = {c for c, r in errata_off_reports.items() if r.passed}
    assert passing == {"ybe", "constraints"}
    for check, expected in ERRATA_OFF_EXPECTED_FAILURES.items():
        failed = {d.id for d in errata_off_reports[check].details if not d.ok}
        assert failed == expected, (check, failed)
    # the remaining failures localize in the inverse/determinant/coaction web
    for check in ("inverse", "determinant", "coaction"):
        assert not errata_off_reports[check].passed


def test_errata_off_coaction_reaches_the_calculus_collapse(errata_off_reports):
    # tt is homogeneous: normal forms under its rules completed to degree 3
    # certify W, and each family then meets its calculus's rank collapse
    details = detail_map(errata_off_reports["coaction"])
    passing = detail_map(verify.check_coaction(VerifyContext()))["transposed-inverse"]
    assert details["transposed-inverse"].ok
    assert details["transposed-inverse"].note == passing.note
    for fid in verify.COACTION_DEFAULT_FAMILIES:
        variant = "omega-inv" if fid.endswith("omega-inv") else "omega"
        detail = details[f"family:{fid}"]
        assert not detail.ok
        assert detail.note.startswith(
            f"rank collapse: the ambiguity {ERRATA_OFF_COLLAPSES[variant]} into the ideal "
            "(deciding relation "), (fid, detail.note)


def test_errata_off_group_like_and_star_fixed_pass(errata_off_reports):
    # tt is homogeneous: normal forms under its rules completed to degree 3
    # decide both identities, and each reduces to zero
    group_like = detail_map(errata_off_reports["hopf"])["determinant-group-like"]
    star_fixed = detail_map(errata_off_reports["star"])["determinant-star-fixed"]
    assert group_like.ok and star_fixed.ok
    assert group_like.note == "Delta(D) - D(x)D reduces to zero at bidegree (3,3), exactly"
    assert star_fixed.note == "star(D) - D reduces to zero at degree 3"


DERIVATIVE_IDENTITIES = ("derivative-annihilates:", "exterior-derivative:",
                         "derivative-decomposition:")


# completing each uncorrected calculus to degree 3 puts a derivative into the ideal
ERRATA_OFF_COLLAPSES = {
    "omega": "d2*d1*x1 puts ((q^4 - u^4)/u^4)*d2",
    "omega-inv": "d2*d1*x2 puts ((q^4 - u^4)/(q^2*u^2))*d1",
}


def test_errata_off_calculi_report_one_completion_collapse(errata_off_reports):
    # no derivative identity is decided
    for variant, collapse in ERRATA_OFF_COLLAPSES.items():
        details = errata_off_reports[f"calculus-{variant}"].details
        completion = [d for d in details if d.id == "completion"]
        assert [d.ok for d in completion] == [False]
        assert completion[0].note == f"rank collapse: the ambiguity {collapse} into the ideal"
        assert not any(d.id.startswith(DERIVATIVE_IDENTITIES) for d in details)


@pytest.mark.parametrize("variant", ERRATA_OFF_COLLAPSES)
def test_errata_off_calculus_collapses_whatever_the_element_degree(monkeypatch, variant):
    # rules that are neither confluent nor homogeneous are completed to at
    # least degree 3, so a fresh object meets the collapse at a degree-1 or
    # degree-2 element too, not only after a degree-3 identity
    monkeypatch.setattr(ncalg, "_ALGEBRAS", OrderedDict())
    calculus = ncalg.algebra(catalog.calculus_presentation(variant, errata=False))
    A = calculus.pres.alphabet
    collapse = f"rank collapse: the ambiguity {ERRATA_OFF_COLLAPSES[variant]} into the ideal"
    with pytest.raises(ncalg.InconsistentPresentationError) as raised:
        calculus.member(Element.generator(A, "d2"))
    assert str(raised.value) == collapse
    monkeypatch.setattr(ncalg, "_ALGEBRAS", OrderedDict())
    calculus = ncalg.algebra(catalog.calculus_presentation(variant, errata=False))
    with pytest.raises(ncalg.InconsistentPresentationError) as raised:
        calculus.normal_form(parse_element("d1*x1", A))
    assert str(raised.value) == collapse


def test_holding_derivative_identities_ask_no_membership_note(monkeypatch):
    # a vanishing normal form decides an identity; `member` only writes the
    # note of a failing one
    def refuse(self, e, degree=None):
        raise AssertionError(f"member asked for {e}")

    monkeypatch.setattr(ncalg.MembershipOracle, "member", refuse)
    for variant in ("omega", "omega-inv"):
        report = verify.check_calculus(VerifyContext(), variant)
        assert report.status == "pass", [d.id for d in report.details if not d.ok]


def test_failing_derivative_identity_takes_the_membership_note(monkeypatch):
    # d(x1) = xi2 breaks the exterior derivative of xx1; the calculus is
    # confluent, so its nonzero normal form is a certificate
    images = verify._exterior_images
    monkeypatch.setattr(verify, "_exterior_images",
                        lambda A: {**images(A), "x1": Element.generator(A, "xi2")})
    report = verify.check_calculus(VerifyContext())
    detail = detail_map(report)["exterior-derivative:xx1"]
    assert not detail.ok
    # the identity has degree 2, and is decided at its own degree
    assert detail.note == ("nonzero normal form under confluent or homogeneous rules "
                           "completed to degree 2")
    assert report.counterexample


def test_errata_off_failing_notes_say_what_failed(errata_off_reports):
    inverse = detail_map(errata_off_reports["inverse"])
    assert inverse["antipode:(1,1)"].note == (
        "lifted by one determinant power; certificate: "
        "D * sum_k S(t^1_k) t^k_1 - D is not in the ideal")
    assert inverse["antipode:(2,3)"].note == (
        "lifted by one determinant power; certificate: "
        "D * sum_k S(t^2_k) t^k_3 is not in the ideal")
    eigen = detail_map(errata_off_reports["eigenstructure"])
    for variant in ("omega", "omega-inv"):
        assert eigen[f"derivative-eigenvectors:{variant}"].note == (
            "relations [0, 1, 2] are not eigenvectors under the transposed inverse")


def test_unoriented_qg_gives_the_antipode_its_error(monkeypatch):
    orient = ncalg.orient

    def refuse_qg(pres, *args):
        if pres.name == "qg":
            raise ncalg.InconsistentPresentationError("qg refused")
        return orient(pres, *args)

    monkeypatch.setattr(ncalg, "_ALGEBRAS", OrderedDict())
    monkeypatch.setattr(ncalg, "orient", refuse_qg)
    report = verify.check_inverse(VerifyContext())
    detail = detail_map(report)["antipode"]
    assert not detail.ok and detail.note == "qg refused"


def test_tensor_completion_stops_qg_at_the_calculus_collapse(monkeypatch, capsys):
    # the calculus collapses at degree 3 and, being inhomogeneous, is completed
    # before qg at each degree: qg is never completed to degree 3
    completion = MembershipOracle.completion
    for argv in (["--check", "coaction", "--spec", "q=u^2"], ["--all"]):
        asked = []

        def spy(self, degree):
            asked.append((self.pres.name, degree))
            return completion(self, degree)

        monkeypatch.setattr(ncalg, "_ALGEBRAS", OrderedDict())
        monkeypatch.setattr(MembershipOracle, "completion", spy)
        assert cli.run(["verify", *argv, "--errata", "off", "--format", "json",
                        "--no-timings"]) == 1
        assert "rank collapse" in capsys.readouterr().out
        qg = [degree for name, degree in asked if name == "qg"]
        assert qg and max(qg) <= 2, argv


def test_errata_off_run_scans_each_base_rule_system_once(monkeypatch):
    # confluence scans the base rules' overlaps, and a completion from them
    # starts from its unresolved defects instead of scanning them again
    scanned = []
    ambiguities = ncalg._ambiguities

    def spy(rules, fresh=None):
        scanned.append(rules)
        return ambiguities(rules, fresh)

    monkeypatch.setattr(ncalg, "_ALGEBRAS", OrderedDict())
    monkeypatch.setattr(ncalg, "_ambiguities", spy)
    verify.run_all(VerifyContext(errata=False))
    algebras = list(ncalg._ALGEBRAS.values())
    assert sorted(found.pres.name for found in algebras) == \
        ["calculus-omega", "calculus-omega-inv", "qg", "t"]
    for found in algebras:
        assert sum(rules == found.rules.rules for rules in scanned) <= 1, found.pres.name


def test_errata_off_run_derives_each_tt_ambiguity_once(monkeypatch):
    # an ambiguity's two paths are normalized once, whatever the completions
    # after it: a later round only normalizes a carried defect's difference
    derived = []
    path_difference = ncalg._path_difference

    def spy(system, word, lhs_a, pos_b, lhs_b):
        derived.append((system.alphabet, (word, lhs_a, lhs_b)))
        return path_difference(system, word, lhs_a, pos_b, lhs_b)

    monkeypatch.setattr(ncalg, "_ALGEBRAS", OrderedDict())
    monkeypatch.setattr(ncalg, "_path_difference", spy)
    verify.run_all(VerifyContext(errata=False))
    tt = next(found for found in ncalg._ALGEBRAS.values() if found.pres.name == "t")
    assert sorted(tt._completions) == [3, 4]
    ambiguities = [key for alphabet, key in derived if alphabet is tt.pres.alphabet]
    assert len(ambiguities) > tt.confluence.overlaps_checked
    assert len(set(ambiguities)) == len(ambiguities)


def test_errata_off_determinant_names_the_tdinv_errata(errata_off_reports):
    # lambda is read from normal forms under the rules completed to degree 4,
    # so the inverse table differs exactly on the rows the errata correct
    corrected = {entry.corrected.split("*")[0] for entry in catalog.ERRATA
                 if entry.family == "tdinv"}
    assert corrected == {"t12", "t21", "t23", "t32"}
    details = detail_map(errata_off_reports["determinant"])
    differs = {name.split(":")[1] for name, d in details.items()
               if name.startswith("lambda:") and "DIFFERS" in (d.note or "")}
    assert differs == corrected
    assert details["lambda:t11"].ok


def test_errata_off_star_cites_flawed_rows(errata_off_reports):
    report = errata_off_reports["star"]
    assert "[9, 25, 27, 33]" in (report.counterexample or "")


def test_failing_details_do_not_keep_their_passing_note(default_reports, errata_off_reports):
    kept = [
        (check, d.id, d.note)
        for check, report in errata_off_reports.items()
        for d in report.details
        if not d.ok and d.note
        and d.note in {p.note for p in default_reports[check].details if p.id == d.id}
    ]
    assert kept == []
    # a failing span comparison keeps its rank pair and says how the spans differ
    notes = {d.id: d.note for d in errata_off_reports["calculus-omega"].details}
    assert notes["generated-vs-transcribed:dxi"] == "ranks 9/9; spans incomparable"
    notes = {d.id: d.note for d in errata_off_reports["star"].details}
    assert notes["quantum-matrix-relations"] == \
        "star images of 4 of 36 transcribed rows leave the span"


def test_central_determinant_fails_with_its_own_note():
    # at q = u = 1 every lambda is 1
    ctx = VerifyContext(bindings=(("q", parse_scalar("1")), ("u", parse_scalar("1"))))
    detail = detail_map(verify.check_determinant(ctx))["some-lambda-nontrivial"]
    assert not detail.ok
    assert detail.note == "no generator has a lambda other than 1"


def test_failing_notes_differ_from_the_passing_ones(default_reports, monkeypatch):
    # perturb the bound inputs, the star map, the counit and the coproduct so
    # that each detail below fails; its note must then say what failed
    two = Scalar.from_fraction(2)
    coproduct = verify._coproduct_images
    monkeypatch.setattr(verify, "_coproduct_images",
                        lambda target: {k: v.scale(two) for k, v in coproduct(target).items()})
    monkeypatch.setattr(catalog, "star_generator_map",
                        lambda: {"x1": "x2", "x2": "x3", "x3": "x1"})
    monkeypatch.setattr(catalog, "counit_value", lambda e: two)
    ctx = VerifyContext()
    inp = ctx.bound
    inp.determinant = inp.determinant + parse_element("t11^3", inp.tt.alphabet)
    inp.families["xx"][0] = inp.families["xx"][0] + parse_element("x1^2", catalog.x_alphabet())
    duplicated = VerifyContext()
    tt = duplicated.bound.tt
    duplicated.bound.tt = ncalg.PresentationSpec(tt.name, tt.alphabet,
                                                 [*tt.relations, tt.relations[0]])
    expected = {
        "rtt": (duplicated, {"independent-rows"}),
        "inverse": (ctx, {"counit-on-relations", "counit-on-determinant",
                          *(f"{kind}:({i},{i})" for kind in ("right-inverse", "antipode")
                            for i in (1, 2, 3))}),
        "hopf": (ctx, {"counit-axiom", "determinant-group-like"}),
        "star": (ctx, {"involutive-on-generators", "variable-relations:1",
                       "variable-relation-fixed-point", "determinant-star-fixed"}),
        "specializations": (ctx, {"s=0-quantum-plane", "t-prime-commutativity"}),
    }
    for check, (context, failing) in expected.items():
        passing = detail_map(default_reports[check])
        failed = [d for d in verify.run_check(check, context).details if not d.ok]
        assert {d.id for d in failed} == failing, (check, [d.id for d in failed])
        for detail in failed:
            assert detail.note and detail.note != passing[detail.id].note, (check, detail)


def test_failing_coaction_family_says_what_failed(monkeypatch):
    # lift every image to the determinant, which is not in the ideal
    monkeypatch.setattr(verify, "_determinant_lift", lambda nf, target, D: D)
    monkeypatch.setattr(verify, "COACTION_DEFAULT_FAMILIES", ("xx",))
    report = verify.check_coaction(VerifyContext())
    detail = detail_map(report)["family:xx"]
    assert not detail.ok
    assert detail.note == ("3 of 3 relation images do not reduce to zero after "
                           "straightening Dinv left and lifting by determinant powers")
    assert report.counterexample.startswith("relation 0: ")


def test_tampered_decomposition_fails_its_detail(monkeypatch):
    # one changed coefficient or relation index no longer multiplies out to the probe
    decomposition = MembershipOracle.decomposition
    for tamper in ("coefficient", "relation"):
        def tampered(self, e):
            certificate = dict(decomposition(self, e))
            (w1, r, w2), c = next(iter(certificate.items()))
            if tamper == "coefficient":
                certificate[(w1, r, w2)] = c + Scalar.one()
            else:
                del certificate[(w1, r, w2)]
                certificate[(w1, (r + 1) % len(self.pres.relations), w2)] = c
            return certificate

        monkeypatch.setattr(MembershipOracle, "decomposition", tampered)
        report = verify.check_determinant(VerifyContext())
        assert [d.id for d in report.details if not d.ok] == [
            "decomposition-replay:t11", "decomposition-replay:t21"], tamper
        assert report.status == "fail"
        assert detail_map(report)["decomposition-replay:t11"].note.endswith(
            "do not multiply out to g*D - lambda*D*g")


def test_verify_builds_no_modular_echelon(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a GF(p) echelon was built")

    monkeypatch.setattr(MembershipOracle, "_echelon", refuse)
    monkeypatch.setattr(linalg.ModEchelon, "insert", refuse)
    for errata in (True, False):
        verify.run_all(VerifyContext(errata=errata))


# ---------------------------------------------------------------------------
# verdicts that do not depend on how a table is written
# ---------------------------------------------------------------------------

# the presentations built from the families, cached apart from them
_FAMILY_PRESENTATIONS = (catalog.x_presentation, catalog.calculus_presentation,
                         catalog.tt_presentation, catalog.qg_presentation)


@contextlib.contextmanager
def _rewritten_families(rewrite):
    """Every family's rows as rewrite(fid, rows) gives them, on an empty algebra cache."""
    table, algebras = catalog._family_cached, ncalg._ALGEBRAS

    @functools.lru_cache(maxsize=None)
    def rewritten(fid, errata):
        fam = table(fid, errata)
        return ncalg.PresentationSpec(fam.name, fam.alphabet, rewrite(fid, list(fam.relations)))

    def clear():
        for presentation in _FAMILY_PRESENTATIONS:
            presentation.cache_clear()

    catalog._family_cached, ncalg._ALGEBRAS = rewritten, OrderedDict()
    clear()
    try:
        yield
    finally:
        catalog._family_cached, ncalg._ALGEBRAS = table, algebras
        clear()


def _assert_same_verdicts(rewrite, default_reports, errata_off_reports):
    """Each check's status and failing detail ids, at both errata settings."""
    def verdicts(reports):
        return {r.check: (r.status, [d.id for d in r.details if not d.ok]) for r in reports}

    with _rewritten_families(rewrite):
        for errata, session in ((True, default_reports), (False, errata_off_reports)):
            found = verdicts(verify.run_all(VerifyContext(errata=errata)))
            assert found == verdicts(session.values()), errata


@pytest.mark.parametrize("rewrite", [
    lambda fid, rows: rows[::-1],
    lambda fid, rows: [row.scale(2) for row in rows],
    lambda fid, rows: [row.scale(parse_scalar("q/u")) for row in rows],
], ids=["reversed", "doubled", "scaled-by-q/u"])
def test_verdicts_do_not_depend_on_row_order_or_scale(rewrite, default_reports,
                                                     errata_off_reports):
    _assert_same_verdicts(rewrite, default_reports, errata_off_reports)


@settings(max_examples=3)
@given(st.randoms(use_true_random=False))
def test_verdicts_survive_permuted_and_rescaled_tables(default_reports, errata_off_reports, rng):
    # a random order of each family and a random Laurent monomial per row
    plans = {}
    for fid in catalog.FAMILY_IDS:
        count = len(catalog.family(fid).relations)
        scales = [parse_scalar(f"{rng.choice(('1', '-2', '3/5'))}*q^{rng.randint(-2, 2)}"
                               f"*u^{rng.randint(-2, 2)}") for _ in range(count)]
        plans[fid] = (rng.sample(range(count), count), scales)

    def rewrite(fid, rows):
        order, scales = plans[fid]
        return [rows[i].scale(scales[i]) for i in order]

    _assert_same_verdicts(rewrite, default_reports, errata_off_reports)


# ---------------------------------------------------------------------------
# registry and undecided families
# ---------------------------------------------------------------------------


def test_check_registry_order_and_unknown_id():
    assert verify.CHECK_IDS == tuple(verify.CHECKS)
    assert verify.CHECK_IDS[3:5] == ("calculus-omega", "calculus-omega-inv")
    assert verify.run_check("calculus-omega-inv").check == "calculus-omega-inv"
    try:
        verify.run_check("nonsense")
    except KeyError as err:
        assert "unknown check 'nonsense'; known: ybe, constraints" in str(err)
    else:
        raise AssertionError("unknown check id accepted")


def test_coaction_fails_collapsed_families_without_building_rows(monkeypatch):
    # errata off at q = u^2 leaves images that only membership can decide; the
    # completion of the tensor rules puts a derivative into the ideal
    def no_rows(self, degree):
        raise AssertionError("membership rows built")

    monkeypatch.setattr(MembershipOracle, "_row_vectors", no_rows)
    ctx = VerifyContext(errata=False, bindings=(("q", parse_scalar("u^2")),))
    report = verify.check_coaction(ctx)
    families = {d.id: d for d in report.details if d.id.startswith("family:")}
    assert len(families) == len(verify.COACTION_DEFAULT_FAMILIES)
    # the one-form images reduce to zero before any membership question
    assert families.pop("family:xixi").ok
    for detail in families.values():
        assert not detail.ok, detail.id
        assert detail.note.startswith("rank collapse: the ambiguity "), detail.note
        assert "(u^4 - 1)*d2 into the ideal" in detail.note
    assert report.status == "fail"


def test_verify_leaves_every_completion_degree_to_the_algebra_objects():
    # each identity is decided at its own degree by `member` or `normal_form`
    calls = [node for node in ast.walk(ast.parse(Path(verify.__file__).read_text()))
             if isinstance(node, ast.Call)]
    assert [c.lineno for c in calls
            if isinstance(c.func, ast.Attribute) and c.func.attr == "completion"] == []
    assert [c.lineno for c in calls if any(k.arg == "degree" for k in c.keywords)] == []


def test_row_cap_is_checked_before_any_row_is_built(monkeypatch):
    oracle = ncalg.MembershipOracle(catalog.x_presentation())
    probe = parse_element("x1*x2*x3", catalog.x_alphabet())
    # three quadratic relations, each padded by one of three letters on either side
    monkeypatch.setattr(ncalg, "MEMBERSHIP_ROW_CAP", 3 * 2 * 3 - 1)
    monkeypatch.setattr(ncalg.Element, "from_word", None)  # any built row would fail
    try:
        oracle.modular_member(probe, degree=3)
    except ncalg.DegreeBoundError as err:
        assert "18 products > 17" in str(err)
    else:
        raise AssertionError("row cap not enforced")


# ---------------------------------------------------------------------------
# bind once, fail locally
# ---------------------------------------------------------------------------


def test_parameter_valued_binding_is_applied_once():
    # generated relations and coproduct images come from bound inputs; binding
    # them again would turn q into 4q on one side
    ctx = VerifyContext(bindings=(("q", parse_scalar("2*q")),))
    for check in ("calculus-omega", "calculus-omega-inv", "rtt", "hopf"):
        report = verify.run_check(check, ctx)
        assert report.passed, (check, report.counterexample)


def test_bound_inputs_are_built_once_per_context(monkeypatch):
    inverses = []
    inverse = CMatrix.inverse
    monkeypatch.setattr(CMatrix, "inverse", lambda m: inverses.append(m) or inverse(m))
    mutation = (((1, 1), (1, 1), parse_scalar("q/u^2 + 1")),)
    ctx = VerifyContext(omega_mutations=mutation)
    verify.run_all(ctx, ("ybe", "constraints", "eigenstructure", "calculus-omega",
                         "calculus-omega-inv", "rtt"))
    assert ctx.bound is ctx.bound
    assert len(inverses) == 1


GENERIC_CHECKS = tuple(c for c in verify.CHECK_IDS if c not in ("determinant", "coaction"))


@settings(max_examples=4)
@given(st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * 3))
def test_rational_points_keep_the_generic_verdicts(default_reports, point):
    q, u, s = point
    # q = u^2 is the specialization the paper singles out; at q = -u^2 the
    # braiding eigenvalues -1 and q/u^2 coincide
    assume(q != u * u and q != -u * u)
    ctx = VerifyContext(bindings=tuple(zip("qus", map(Scalar.from_fraction, point))))
    try:
        ctx.bound
    except ScalarSubstitutionError:
        reject()
    statuses = {r.check: r.status for r in verify.run_all(ctx, GENERIC_CHECKS)}
    assert statuses == {c: default_reports[c].status for c in GENERIC_CHECKS}, point


def test_mutated_contexts_report_every_check(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import MUTATION_CHECKS

    checks = (*MUTATION_CHECKS, "specializations")
    rng = random.Random(5)
    mutations = [((3, 3), (3, 3), parse_scalar("(q - u^2)/u^2"))]
    mutations += [random_omega_mutation(rng) for _ in range(8)]
    for mutation in mutations:
        reports = verify.run_all(VerifyContext(omega_mutations=(mutation,)), checks)
        assert [r.check for r in reports] == list(checks), mutation
    # the first mutation puts q - u^2 in a denominator of the inverse braiding:
    # q := u^2 is undecided, and the detail before it is kept
    report = verify.check_specializations(VerifyContext(omega_mutations=(mutations[0],)))
    assert [d.id for d in report.details] == ["s=0-quantum-plane", "scalar-error"]
    assert report.details[1].note == ("undecided: substitution sends denominator to zero "
                                      "in q*s/(q - u^2)")
    assert report.status == "fail"
