"""Noncommutative rewriting, membership and span machinery."""

import functools
import itertools
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wh3 import catalog, ncalg, verify
from wh3.exprs import UnknownSymbolError, parse_element, parse_scalar
from wh3.linalg import ModEchelon, ModularPoint
from wh3.ncalg import (
    Alphabet,
    Element,
    InconsistentPresentationError,
    MembershipOracle,
    PresentationSpec,
    Span,
    algebra_map,
    derivation_apply,
    orient,
    overlap_resolve,
    span_compare,
    specialize,
)
from wh3.scalars import Scalar
from wh3.verify import VerifyContext

from reference_routes import (all_pairs_ambiguities, algebra_tensor, leftmost_steps, rewrite,
                              row_member, two_pass_span_compare)


def x_pres():
    return catalog.x_presentation()


def parse_x(text):
    return parse_element(text, catalog.x_alphabet())


# ---------------------------------------------------------------------------
# orientation
# ---------------------------------------------------------------------------


def test_orient_variable_relations():
    rules = orient(x_pres())
    A = catalog.x_alphabet()
    got = {A.format_word(lhs): rhs.format() for lhs, rhs in rules.rules.items()}
    assert got == {
        "x2*x1": "(1/q)*x1*x2 - (s/q)*x3*x3",
        "x3*x1": "(1/u)*x1*x3",
        "x3*x2": "u*x2*x3",
    }


def test_orient_derivative_relations_verbatim():
    # the uncorrected transcription rearranges to these straightening rules
    fam = catalog.family("dd", errata=False)
    rules = orient(PresentationSpec("dd", fam.alphabet, list(fam.relations)))
    A = fam.alphabet
    got = {A.format_word(lhs): rhs.format() for lhs, rhs in rules.rules.items()}
    assert got["d2*d1"] == "(q^2/u^2)*d1*d2"
    assert len(got) == 3


def test_orient_inconsistent_presentation():
    A = catalog.x_alphabet()
    pres = PresentationSpec("bad", A, [
        parse_element("x1*x2 - x2*x1", A),
        parse_element("x1*x2 - 2*x2*x1", A),
    ])
    with pytest.raises(InconsistentPresentationError):
        orient(pres)


def test_oriented_rule_tails_hold_no_left_side():
    A = Alphabet.build([(name, 0) for name in "abc"])
    rules = orient(PresentationSpec("abc", A, [parse_element("c*c - c*b - b*a", A),
                                               parse_element("b*a - a*a", A)]))
    got = {A.format_word(lhs): rhs.format() for lhs, rhs in rules.rules.items()}
    assert got == {"c*c": "a*a + c*b", "b*a": "a*a"}
    assert not any(w in rules.rules for rhs in rules.rules.values() for w in rhs.terms)


def test_orient_accepts_declared_monomial_relations():
    fam = catalog.family("xixi")
    rules = orient(PresentationSpec("xixi", fam.alphabet, list(fam.relations)))
    assert len(rules.rules) == 6  # three squares, three straightenings


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_swap_example():
    rules = orient(x_pres())
    assert rules.normalize(parse_x("x2*x1")).format() == "(1/q)*x1*x2 - (s/q)*x3*x3"


def test_normalize_derivative_unit_example():
    pres = catalog.calculus_presentation("omega")
    rules = orient(pres)
    e = parse_element("d1*x1", pres.alphabet)
    assert rules.normalize(e).format() == "1 + (q/u^2)*x1*d1"


def all_normal_forms(e, rules):
    """Brute-force oracle: the set of results over every rewrite order."""
    results = set()

    def explore(element):
        redexes = []
        for word in element.terms:
            for i in range(len(word) - 1):
                for lhs in rules.rules:
                    if word[i:i + len(lhs)] == lhs:
                        redexes.append((word, i, lhs))
        if not redexes:
            results.add(frozenset(element.terms.items()))
            return
        for word, i, lhs in redexes:
            coeff = element.terms[word]
            rest = Element(element.alphabet,
                           {w: c for w, c in element.terms.items() if w != word})
            replaced = Element.zero(element.alphabet)
            for rw, rc in rules.rules[lhs].terms.items():
                replaced = replaced + Element.from_word(
                    element.alphabet, word[:i] + rw + word[i + len(lhs):], coeff * rc)
            explore(rest + replaced)

    explore(e)
    return results


def test_normalize_path_independence_brute_force():
    rules = orient(x_pres())
    e = parse_x("x2*x1*x3")
    outcomes = all_normal_forms(e, rules)
    assert len(outcomes) == 1
    assert frozenset(rules.normalize(e).terms.items()) in outcomes


def test_normalize_strategies_agree_on_confluent_system():
    rules = orient(x_pres())
    e = parse_x("x3*x2*x1 - q*x1*x3*x2")
    leftmost = rules.normalize(e)
    rightmost = rewrite(rules, e, "rightmost")
    randomized = rewrite(rules, e, "random", random.Random(7))
    assert leftmost == rightmost == randomized


def test_rewrite_budget(monkeypatch):
    rules = orient(x_pres())
    monkeypatch.setattr(ncalg, "REWRITE_BUDGET", 1)
    with pytest.raises(ncalg.RewriteBudgetError):
        rewrite(rules, parse_x("x3*x3*x2*x2*x1*x1"), "rightmost")
    with pytest.raises(ncalg.RewriteBudgetError):
        rules.normalize(parse_x("x3*x3*x2*x2*x1*x1"))


# ---------------------------------------------------------------------------
# overlap analysis
# ---------------------------------------------------------------------------


def test_overlap_variable_relations_confluent():
    report = overlap_resolve(orient(x_pres()))
    assert report.confluent
    assert report.overlaps_checked == 1  # the single descending triple


def test_overlap_derivative_relations_confluent():
    fam = catalog.family("dd")
    report = overlap_resolve(orient(PresentationSpec("dd", fam.alphabet, list(fam.relations))))
    assert report.confluent


def _broken_variable_rules():
    # the straightening rules with one corrupted coefficient (u swapped for q)
    A = catalog.x_alphabet()
    rules = dict(orient(x_pres()).rules)
    rules[(2, 1)] = parse_element("q*x2*x3", A)  # should be u*x2*x3
    return ncalg.RuleSystem(A, rules)


def test_overlap_reports_broken_system():
    report = overlap_resolve(_broken_variable_rules())
    assert not report.confluent
    assert len(report.unresolved) == 1
    defect = report.unresolved[0]
    assert not defect.difference.is_zero


def test_bounded_completion_adds_rules():
    report = overlap_resolve(_broken_variable_rules(), complete_up_to=3)
    assert report.rules_added  # the cube defect is oriented into a new rule


def _inclusion_rules():
    # the left side x2*x1 lies inside the left side x3*x2*x1, the one ambiguity
    A = catalog.x_alphabet()
    return {(1, 0): parse_element("x1*x2", A), (2, 1, 0): parse_element("x1*x2*x3", A)}


@pytest.mark.parametrize("rules, count", [
    (lambda: orient(catalog.tt_presentation()).rules, 84),
    # 105 rules with left sides of length 2 to 4
    (lambda: ncalg.algebra(catalog.tt_presentation(errata=False)).completion(4).rules, 1174),
    (_inclusion_rules, 1),
], ids=["tt", "errata-off-tt-completed-to-4", "inclusion"])
def test_ambiguities_are_distinct_pairs_of_distinct_occurrences(rules, count):
    seen = set()
    for word, first, second in ncalg._ambiguities(rules()):
        assert first != second, word
        assert (word, first, second) not in seen, word
        seen.add((word, first, second))
    assert len(seen) == count
    assert list(ncalg._ambiguities(rules())) == list(all_pairs_ambiguities(rules()))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_indexed_ambiguities_follow_the_all_pairs_scan(data):
    # same ambiguities in the same order, so a collapse names the same one
    letters = data.draw(st.integers(1, 3))
    words = st.lists(st.integers(0, letters - 1), min_size=1, max_size=4).map(tuple)
    lhs = data.draw(st.lists(words, min_size=1, max_size=8, unique=True))
    rules = dict.fromkeys(lhs)
    assert list(ncalg._ambiguities(rules)) == list(all_pairs_ambiguities(rules))
    fresh = data.draw(st.lists(st.sampled_from(lhs), unique=True))
    assert list(ncalg._ambiguities(rules, fresh)) == list(all_pairs_ambiguities(rules, fresh))


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


def calculus_images(alphabet):
    images = {f"x{i}": Element.generator(alphabet, f"xi{i}") for i in (1, 2, 3)}
    images.update({f"xi{i}": Element.zero(alphabet) for i in (1, 2, 3)})
    return images


def test_derivation_leibniz_examples():
    A = catalog.calculus_alphabet()
    images = calculus_images(A)
    assert derivation_apply(images, parse_element("x1*x2", A)).format() == "xi1*x2 + x1*xi2"
    assert derivation_apply(images, parse_element("xi1*x1", A)).format() == "-xi1*xi1"


def test_derivation_kills_relation_in_quotient():
    pres = catalog.calculus_presentation("omega")
    rules = orient(pres)
    images = calculus_images(pres.alphabet)
    rel = parse_element("x1*x2 - q*x2*x1 - s*x3^2", pres.alphabet)
    assert rules.normalize(derivation_apply(images, rel)).is_zero


def test_derivation_missing_image():
    A = catalog.calculus_alphabet()
    with pytest.raises(ncalg.DerivationError):
        derivation_apply({"x1": Element.generator(A, "xi1")}, parse_element("x1*x2", A))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_derivation_graded_leibniz_property(data):
    A = catalog.calculus_alphabet()
    images = calculus_images(A)
    letters = [A.rank_of(n) for n in ("xi1", "xi2", "xi3", "x1", "x2", "x3")]
    wa = tuple(data.draw(st.sampled_from(letters)) for _ in range(data.draw(st.integers(0, 3))))
    wb = tuple(data.draw(st.sampled_from(letters)) for _ in range(data.draw(st.integers(0, 3))))
    a = Element.from_word(A, wa)
    b = Element.from_word(A, wb)
    sign = -1 if sum(A.parities[g] for g in wa) % 2 else 1
    lhs = derivation_apply(images, a * b)
    rhs = derivation_apply(images, a) * b + (a * derivation_apply(images, b)).scale(sign)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# membership and spans
# ---------------------------------------------------------------------------


def test_membership_generator_is_member():
    rel = parse_x("x1*x2 - q*x2*x1 - s*x3^2")
    assert ncalg.algebra(x_pres()).member(rel, degree=2).member


def test_membership_commutator_is_not_member():
    report = ncalg.algebra(x_pres()).member(parse_x("x1*x2 - x2*x1"), degree=2)
    assert not report.member
    assert report.certain
    # independent rank oracle: adjoining the probe grows the span
    from wh3.linalg import ScalarEchelon
    ech = ScalarEchelon()
    for rel in x_pres().relations:
        ech.insert(dict(rel.terms))
    base_rank = ech.rank
    ech.insert(dict(parse_x("x1*x2 - x2*x1").terms))
    assert (base_rank, ech.rank) == (3, 4)


def test_membership_modular_reproducible():
    probe = parse_x("x1*x2 - x2*x1")
    a = ncalg.algebra(x_pres()).modular_member(probe, degree=2, seed=5)
    b = ncalg.algebra(x_pres()).modular_member(probe, degree=2, seed=5)
    assert (a.member, a.prime, a.seed, a.point) == (b.member, b.prime, b.seed, b.point)
    assert not a.member and not a.certain


def test_membership_modular_agrees_with_exact_on_probes():
    rng = random.Random(11)
    pres = x_pres()
    A = pres.alphabet
    for _ in range(10):
        word1 = tuple(rng.randrange(3) for _ in range(2))
        word2 = tuple(rng.randrange(3) for _ in range(2))
        probe = Element.from_word(A, word1) - Element.from_word(A, word2).scale(
            Scalar.param("q") ** rng.randrange(-1, 2))
        exact = ncalg.algebra(pres).member(probe, degree=2)
        modular = ncalg.algebra(pres).modular_member(probe, degree=2)
        assert modular.route == "linear-algebra"
        assert exact.member == modular.member


def test_membership_certificate_on_confluent_rules():
    probe = parse_x("x1*x2 - x2*x1")
    report = ncalg.algebra(x_pres()).member(probe, degree=2)
    assert (report.member, report.route, report.mode, report.certain) == \
        (False, "certificate", "exact", True)
    assert report.prime is None and report.span_rank == 0
    assert report.residual == orient(x_pres()).normalize(probe)


def test_membership_on_homogeneous_rules_without_confluence_is_certified():
    # the uncorrected quantum-matrix rules have 22 unresolved overlaps; they are
    # homogeneous, so the normal form under the completed rules decides exactly
    oracle = ncalg.algebra(catalog.tt_presentation(errata=False))
    assert not oracle.confluence.confluent
    assert len(oracle.confluence.unresolved) == 22
    report = oracle.member(parse_element("t11*t11", oracle.pres.alphabet), degree=2)
    assert (report.member, report.route, report.mode, report.certain) == \
        (False, "certificate", "exact", True)
    assert report.span_rank == 0 and report.prime is None


@pytest.mark.parametrize("errata", [True, False], ids=["errata", "errata-off"])
def test_every_tt_relation_is_a_row_member_below_the_degree(errata):
    # the ideal is graded: a degree-2 relation meets the degree-2 rows
    oracle = ncalg.algebra(catalog.tt_presentation(errata=errata))
    for rel in oracle.pres.nonzero_relations():
        rows = row_member(oracle, rel, 3)
        assert (rows.member, rows.certain) == (True, True)
        modular = oracle.modular_member(rel, degree=4)
        assert (modular.member, modular.degree) == (True, 4)


def test_completion_resolves_every_short_ambiguity():
    # each ambiguity is checked once, under the rules of its round: a full
    # scan of the completed rules finds nothing left to add
    oracle = ncalg.algebra(catalog.tt_presentation(errata=False))
    completed = oracle.completion(3)
    assert oracle.completion(3) is completed
    assert len(completed) > len(oracle.rules)
    assert overlap_resolve(completed, complete_up_to=3).rules_added == []
    fourth = oracle.completion(4)
    assert overlap_resolve(fourth, complete_up_to=4).rules_added == []
    # the rule counts of a loop that checks every ambiguity again each round
    assert (len(completed), len(fourth), len(oracle.completion(5))) == (54, 105, 203)
    # confluent rules are their own completion
    x_algebra = ncalg.algebra(x_pres())
    assert x_algebra.completion(5) is x_algebra.rules


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_completion_agrees_with_raw_exact_rows_on_errata_off_tt(data):
    # homogeneous and not confluent: completion to the degree decides exactly
    oracle = ncalg.algebra(catalog.tt_presentation(errata=False))
    A = oracle.pres.alphabet
    degree = data.draw(st.integers(2, 3))
    coefficients = st.sampled_from(["1", "-1", "q", "u/q", "s"])
    words = st.tuples(*[st.integers(0, len(A) - 1)] * degree)
    probe = Element.zero(A)
    for word, coeff in data.draw(st.lists(st.tuples(words, coefficients), max_size=2)):
        probe = probe + Element.from_word(A, word, parse_scalar(coeff))
    # add ideal elements w1 * r * w2 so that members occur too
    for ridx in data.draw(st.lists(st.integers(0, len(oracle.pres.relations) - 1),
                                   min_size=1, max_size=2)):
        pad = data.draw(st.tuples(*[st.integers(0, len(A) - 1)] * (degree - 2)))
        left = data.draw(st.integers(0, degree - 2))
        probe = probe + (Element.from_word(A, pad[:left]) * oracle.pres.relations[ridx]
                         * Element.from_word(A, pad[left:]))
    completed = oracle.member(probe, degree=degree)
    raw = row_member(oracle, probe, degree)
    assert completed.certain and completed.route in ("trivial", "reduction", "certificate")
    assert completed.member == raw.member


def test_membership_is_undecided_without_confluence_or_homogeneity():
    A = Alphabet.build([("x", 0), ("y", 0)])
    pres = PresentationSpec(
        "affine", A, [parse_element(t, A) for t in ("y*x - q*x*y - x", "y*y - x*x - 1")])
    oracle = ncalg.algebra(pres)
    assert not oracle.confluence.confluent and not pres.all_homogeneous()
    report = oracle.member(parse_element("x*y", A), degree=3)
    assert (report.member, report.certain, report.mode) == (False, False, "exact")
    assert report.note.startswith("undecided: ")
    # x*y + x/(q - 1) lies in the ideal, but only a degree-4 ambiguity shows it
    assert oracle.member(parse_element("x*y + (1/(q - 1))*x", A), degree=4).member


def test_completion_reports_a_rank_collapse():
    A = Alphabet.build([("x", 0), ("y", 0)])
    # y*x*x read two ways: (x*y + x)*x = y + 2 against y*1 = y
    pres = PresentationSpec(
        "collapse", A, [parse_element(t, A) for t in ("y*x - x*y - x", "x*x - 1")])
    oracle = ncalg.algebra(pres)
    for _ in range(2):  # the collapse is cached and raised again
        with pytest.raises(InconsistentPresentationError,
                           match="rank collapse: the ambiguity y\\*x\\*x puts 2 into"):
            oracle.member(parse_element("y*y*y", A), degree=3)


def test_completion_starts_from_the_largest_cached_completion_below(monkeypatch):
    # the certificate's overlap pass is the first round of a completion from
    # the base rules: its defects' rules are added first; a higher completion
    # goes on from the largest cached one below it
    starts = []
    resolve = ncalg.overlap_resolve

    def spy(rs, complete_up_to=None, checked=None):
        report = resolve(rs, complete_up_to, checked)
        starts.append((rs, complete_up_to, checked, report))
        return report

    monkeypatch.setattr(ncalg, "overlap_resolve", spy)
    oracle = MembershipOracle(catalog.tt_presentation(errata=False))
    leads = {defect.difference.lead_word() for defect in oracle.confluence.unresolved}
    third = oracle.completion(3)
    oracle.completion(4)
    base, seeded, from_third = starts
    assert base[:3] == (oracle.rules, None, None)
    assert seeded[:3] == (oracle.rules, 3, oracle.confluence)
    assert set(seeded[3].rules_added[:len(leads)]) == leads
    assert from_third[:3] == (third, 4, seeded[3])
    assert seeded[3].system is third


def test_completion_of_quadratic_rules_to_degree_two_is_the_base_rules(monkeypatch):
    # every ambiguity of quadratic rules has length 3: nothing to orient or
    # scan, not even for the certificate
    oracle = MembershipOracle(catalog.tt_presentation(errata=False))
    monkeypatch.setattr(ncalg, "overlap_resolve", None)
    assert oracle.completion(2) is oracle.rules
    monkeypatch.undo()
    assert not oracle.confluent


@pytest.fixture(scope="module")
def fresh_errata_off_tt_completion():
    return overlap_resolve(orient(catalog.tt_presentation(errata=False)), complete_up_to=4).system


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_completion_from_a_lower_one_gives_the_fresh_normal_forms(
        fresh_errata_off_tt_completion, data):
    fresh = fresh_errata_off_tt_completion
    oracle = ncalg.algebra(catalog.tt_presentation(errata=False))
    oracle.completion(3)
    A = oracle.pres.alphabet
    words = st.tuples(*[st.integers(0, len(A) - 1)] * 4)
    coefficients = st.sampled_from(["1", "-1", "q", "u/q", "s"])
    probe = Element.zero(A)
    for word, coeff in data.draw(st.lists(st.tuples(words, coefficients), min_size=1, max_size=3)):
        probe = probe + Element.from_word(A, word, parse_scalar(coeff))
    assert oracle.completion(4).normalize(probe) == fresh.normalize(probe)


def test_completion_raises_a_collapse_met_below_without_completing_again(monkeypatch):
    A = Alphabet.build([("x", 0), ("y", 0)])
    pres = PresentationSpec(
        "collapse", A, [parse_element(t, A) for t in ("y*x - x*y - x", "x*x - 1")])
    oracle = MembershipOracle(pres)
    with pytest.raises(InconsistentPresentationError) as below:
        oracle.completion(3)
    monkeypatch.setattr(ncalg, "overlap_resolve", None)  # completing again would fail here
    with pytest.raises(InconsistentPresentationError) as above:
        oracle.completion(5)
    assert above.value is below.value


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_trace_heap_key_pops_words_in_descending_word_key_order(data):
    n = data.draw(st.integers(1, 4))
    A = Alphabet.build([(f"g{i}", 0, data.draw(st.integers(1, 3))) for i in range(n)])
    drawn = data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=5), min_size=1,
                               max_size=8))
    words = {tuple(w[:k]) for w in drawn for k in range(len(w) + 1)}  # with prefixes
    by_heap_key = sorted(words, key=lambda w: ncalg._descending_key(A.weights, w))
    assert by_heap_key == sorted(words, key=A.word_key, reverse=True)
    assert len({ncalg._descending_key(A.weights, w) for w in words}) == len(words)


@pytest.mark.parametrize("errata, rank", [(True, 6066), (False, 6188)])
def test_raw_degree_four_modular_rank_of_tt(errata, rank):
    # the determinant's cross-check: 8748 raw rows w1*r*w2 over GF(p)
    oracle = MembershipOracle(catalog.tt_presentation(errata=errata))
    assert sum(1 for _ in oracle._row_vectors(4)) == 8748
    g = Element.generator(oracle.pres.alphabet, "t21")
    report = oracle.modular_member(g * oracle.pres.relations[0] * g, degree=4)
    assert (report.member, report.span_rank, report.note) == (True, rank, "")
    # rows enter in lead-column order; the pivots are those of generation order
    point = ModularPoint.generate()
    in_generation_order = ModEchelon(point.prime)
    for row in oracle._row_vectors(4, point):
        in_generation_order.insert(row)
    assert set(oracle._echelon(4, point).rows) == set(in_generation_order.rows)


@pytest.mark.parametrize("errata", [True, False], ids=["errata", "errata-off"])
def test_member_residual_is_the_completed_normal_form(errata):
    # every pivot column is cleared, so the residual does not depend on the
    # order the rows entered: its words are those of the normal form
    oracle = MembershipOracle(catalog.tt_presentation(errata=errata))
    A = oracle.pres.alphabet
    for quartic, cubic in [
        ("t13*t31*t22*t11 - t11*t22*t31*t13", "t13*t31*t22 - t22*t31*t13"),
        ("t33*t22*t11*t12 - t12*t11*t22*t33", "t21*t12*t33 - t33*t12*t21"),
        ("t32*t23*t11*t22 - t22*t11*t23*t32", "t32*t23*t11 - t11*t23*t32"),
    ]:
        e = parse_element(quartic, A)
        report = oracle.modular_member(e, degree=4)
        assert not report.member
        assert set(report.support) == set(oracle.completion(4).normalize(e).terms), quartic
        e = parse_element(cubic, A)
        assert row_member(oracle, e, 3).residual == \
            oracle.completion(3).normalize(e), cubic


def test_modular_non_member_is_rechecked_at_a_second_point():
    report = ncalg.algebra(x_pres()).modular_member(parse_x("x1*x2 - x2*x1"), degree=2)
    first, second = (ModularPoint.generate(attempt=a).values for a in (0, 1))
    assert (report.member, report.certain, report.point) == (False, False, first)
    assert report.note == (f"not a member at two GF({report.prime}) points: (q, u, s) = "
                           f"{first} (attempt 0) and {second} (attempt 1)")
    A = x_pres().alphabet
    assert [A.format_word(w) for w in report.support] == ["x3*x3", "x1*x2"]
    assert report.residual is None


def test_modular_points_that_disagree_leave_the_verdict_undecided():
    # q - q0 vanishes at the first point only, so x*y leaves the span there alone
    q0 = ModularPoint.generate().values[0]
    A = Alphabet.build([("x", 0), ("y", 0)])
    pres = PresentationSpec("unlucky", A, [parse_element(f"(q - {q0})*x*y", A)])
    report = ncalg.algebra(pres).modular_member(parse_element("x*y", A), degree=2)
    assert (report.member, report.certain) == (False, False)
    second = ModularPoint.generate(attempt=1).values
    assert report.note == (f"undecided: not a member at (q, u, s) = "
                           f"{(q0, *ModularPoint.generate().values[1:])} (attempt 0) "
                           f"but a member at {second} (attempt 1)")
    assert row_member(ncalg.algebra(pres), parse_element("x*y", A), 2).member


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_certificate_agrees_with_raw_exact_membership(data):
    pres = x_pres()
    A = pres.alphabet
    degree = data.draw(st.integers(1, 3))
    coefficients = st.sampled_from(["1", "-1", "2", "q", "s", "1/u", "q - u^2"])
    words = st.tuples(*[st.integers(0, 2)] * degree)
    probe = Element.zero(A)
    for word, coeff in data.draw(st.lists(st.tuples(words, coefficients), max_size=3)):
        probe = probe + Element.from_word(A, word, parse_scalar(coeff))
    # add an ideal element w1 * r * w2 so that members occur too
    if degree >= 2 and data.draw(st.booleans()):
        rel = pres.relations[data.draw(st.integers(0, len(pres.relations) - 1))]
        left = data.draw(st.integers(0, degree - 2))
        pad = data.draw(st.tuples(*[st.integers(0, 2)] * (degree - 2)))
        probe = probe + Element.from_word(A, pad[:left]) * rel * Element.from_word(A, pad[left:])
    oracle = ncalg.algebra(pres)
    certified = oracle.member(probe, degree=degree)
    raw = row_member(oracle, probe, degree)
    assert certified.route in ("trivial", "reduction", "certificate")
    assert raw.route in ("trivial", "linear-algebra")
    assert certified.member == raw.member


def test_algebra_is_shared_by_content():
    base = x_pres()
    A = Alphabet.build([(g.name, g.parity, g.weight) for g in base.alphabet])
    copy = PresentationSpec("copy", A, [Element(A, dict(r.terms)) for r in base.relations])
    assert ncalg.algebra(copy) is ncalg.algebra(base)
    bound = specialize(base, {"q": Scalar.from_fraction(2)})
    assert ncalg.algebra(bound) is not ncalg.algebra(base)
    changed = list(base.relations)
    word, coeff = next(iter(changed[1].terms.items()))
    changed[1] = changed[1] + Element.from_word(base.alphabet, word, coeff)
    other = PresentationSpec("x", base.alphabet, changed)
    assert ncalg.algebra(other) is not ncalg.algebra(base)


def test_membership_soundness_of_normal_forms():
    # normalize(e) - e always lies in the ideal (randomized degree-3 probes)
    pres = x_pres()
    rules = orient(pres)
    rng = random.Random(3)
    for _ in range(8):
        word = tuple(rng.randrange(3) for _ in range(3))
        e = Element.from_word(pres.alphabet, word)
        diff = rules.normalize(e) - e
        assert ncalg.algebra(pres).member(diff, degree=3).member


def test_membership_degree_bound():
    with pytest.raises(ncalg.DegreeBoundError):
        ncalg.algebra(x_pres()).member(parse_x("x1*x2*x3*x1*x2"), degree=3)


# ---------------------------------------------------------------------------
# ideal decompositions
# ---------------------------------------------------------------------------


def test_every_completion_rule_replays_to_its_difference():
    # each rule of errata-off tt's completion(4), base or added, written out
    # over the transcribed rows and multiplied out again apart from ncalg
    oracle = ncalg.algebra(catalog.tt_presentation(errata=False))
    system = oracle.completion(4)
    assert len(system) == 105 and len(oracle.confluence.system) < 105
    for lhs, rhs in system.rules.items():
        difference = Element.from_word(system.alphabet, lhs) - rhs
        certificate = oracle.decomposition(difference)
        assert certificate is not None, lhs
        assert verify._replay(certificate, oracle.pres.relations) == difference.terms, lhs


@settings(max_examples=16, deadline=None, derandomize=True)
@given(st.data())
def test_random_members_replay(data):
    pres = data.draw(st.sampled_from([x_pres(), catalog.tt_presentation(),
                                      catalog.tt_presentation(errata=False),
                                      catalog.calculus_presentation("omega")]))
    A, relations = pres.alphabet, pres.relations
    degree = data.draw(st.integers(2, 4))
    coefficients = st.sampled_from(["1", "-1", "2", "q", "s", "1/u", "q - u^2"])
    member = Element.zero(A)
    for _ in range(data.draw(st.integers(1, 3))):
        rel = relations[data.draw(st.integers(0, len(relations) - 1))]
        pad = data.draw(st.tuples(*[st.integers(0, len(A) - 1)] * (degree - 2)))
        left = data.draw(st.integers(0, degree - 2))
        member = member + (Element.from_word(A, pad[:left], parse_scalar(data.draw(coefficients)))
                           * rel * Element.from_word(A, pad[left:]))
    certificate = ncalg.algebra(pres).decomposition(member)
    assert certificate is not None
    assert verify._replay(certificate, relations) == member.terms


def test_non_member_has_no_decomposition():
    assert ncalg.algebra(x_pres()).decomposition(parse_x("x1*x2 - x2*x1")) is None
    tt = catalog.tt_presentation(errata=False)
    probe = parse_element("t13*t31*t22*t11 - t11*t22*t31*t13", tt.alphabet)
    assert ncalg.algebra(tt).decomposition(probe) is None


def test_replay_calls_nothing_of_the_rewriting():
    # like the sympy-free runtime: the replay must not reach ncalg or linalg
    oracle = ncalg.algebra(catalog.tt_presentation(errata=False))
    probe = oracle.pres.relations[3] * Element.generator(oracle.pres.alphabet, "t12")
    certificate = oracle.decomposition(probe)
    modules = set()

    def record(frame, event, arg):
        if event == "call":
            modules.add(Path(frame.f_code.co_filename).name)

    sys.setprofile(record)
    try:
        replayed = verify._replay(certificate, oracle.pres.relations)
    finally:
        sys.setprofile(None)
    assert replayed == probe.terms
    assert "scalars.py" in modules
    assert not modules & {"ncalg.py", "linalg.py"}, modules


def test_span_compare_examples():
    xx = x_pres().relations
    reordered = list(reversed([r.scale(Scalar.param("u")) for r in xx]))
    assert span_compare(xx, reordered).verdict == "equal"
    s0 = [r.substitute_params({"s": 0}) for r in xx]
    assert span_compare(xx, s0).verdict != "equal"
    cmp = span_compare(xx, xx[:2])
    assert cmp.verdict == "B_subset_A"
    assert (cmp.rank_a, cmp.rank_b) == (3, 2)


def test_span_compare_rejects_mixed_alphabets():
    with pytest.raises(ValueError):
        span_compare(x_pres().relations, catalog.family("dd").relations)


def test_span_flags_zero_and_repeated_relations():
    xx = x_pres().relations
    zero = Element.zero(xx[0].alphabet)
    span = Span([xx[0], zero, xx[1], xx[0].scale(Scalar.param("u")), xx[2]])
    assert span.dependent == [1, 3]
    assert span.rank == 3
    assert Span(xx).dependent == [] and Span([]).rank == 0


def test_span_residual_vanishes_exactly_on_members():
    xx = x_pres().relations
    span = Span(xx[:2])
    assert span.residual(xx[0] * Scalar.param("s") - xx[1]).is_zero
    assert span.residual(Element.zero(xx[0].alphabet)).is_zero
    for outside in (xx[2], xx[2] + xx[0], parse_x("x1*x1")):
        assert not span.residual(outside).is_zero
    # an element longer than every relation is reduced, not refused
    x1 = Element.generator(xx[0].alphabet, "x1")
    assert not Span(xx).residual(x1 * xx[0]).is_zero
    # the first relation outside the other span gives the comparison's witness
    assert span_compare(xx, xx[:2]).witness == span.residual(xx[2])
    assert span_compare(xx[:2], xx).witness == span.residual(xx[2])


# a row is a combination of the three xx relations, x1*x1 and x3*x3, or None
# for a zero row
span_rows = st.lists(
    st.one_of(st.none(), st.tuples(*[st.sampled_from(["0", "0", "1", "-1", "2", "q", "u/q"])] * 5)),
    max_size=4)


def _span_rows(coeffs):
    pool = [*x_pres().relations, parse_x("x1*x1"), parse_x("x3*x3")]
    rows = []
    for cs in coeffs:
        row = Element.zero(pool[0].alphabet)
        for c, rel in zip(cs or (), pool):
            row = row + rel.scale(parse_scalar(c))
        rows.append(row)
    return rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(a=span_rows, b=span_rows)
@example(a=[("1", "0", "0", "0", "0"), None, ("0", "1", "0", "0", "0")],
         b=[("0", "q", "0", "0", "0"), ("2", "0", "0", "0", "0"), None])
@example(a=[("1", "0", "0", "0", "0"), ("0", "1", "0", "0", "0")],
         b=[None, ("1", "1", "0", "0", "0")])
@example(a=[("1", "0", "0", "0", "0")], b=[("1", "u/q", "0", "0", "0"), ("0", "1", "0", "0", "0")])
@example(a=[("1", "0", "0", "1", "0")], b=[("0", "0", "0", "0", "-1"), None])
@example(a=[], b=[None])
def test_span_compare_matches_the_two_pass_comparison(a, b):
    a, b = _span_rows(a), _span_rows(b)
    want = two_pass_span_compare(a, b)
    for a_arg in (a, Span(a)):
        for b_arg in (b, Span(b)):
            got = span_compare(a_arg, b_arg)
            assert (got.verdict, got.rank_a, got.rank_b, got.witness) == \
                (want.verdict, want.rank_a, want.rank_b, want.witness)


ABC = Alphabet.build([(name, 0) for name in "abc"])
abc_quadratics = st.lists(
    st.tuples(st.sampled_from(["1", "-1", "2", "q", "u"]),
              st.sampled_from([f"{x}*{y}" for x in "abc" for y in "abc"])),
    min_size=1, max_size=4,
).map(lambda terms: " + ".join(f"({c})*{w}" for c, w in terms))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rels=st.lists(abc_quadratics, min_size=1, max_size=3), e=abc_quadratics)
@example(rels=["u*a*c - b*a + c*a", "b*a + 2*c*a + c*b", "u*a*a + q*a*c + 2*c*a"],
         e="b*a + b*c + c*a")
def test_span_residual_does_not_depend_on_relation_order(rels, e):
    rels = [parse_element(r, ABC) for r in rels]
    e = parse_element(e, ABC)
    residuals = set()
    for order in itertools.permutations(rels):
        span = Span(list(order))
        residual = span.residual(e)
        pivots = {word for _, word in span._echelon.rows}
        assert not pivots & residual.terms.keys()
        residuals.add(residual)
    assert len(residuals) == 1


def test_span_rejects_mixed_alphabets():
    dd = catalog.family("dd").relations
    with pytest.raises(ValueError):
        Span([*x_pres().relations, *dd])
    with pytest.raises(ValueError):
        Span(x_pres().relations).residual(dd[0])


def test_equal_spans_give_agreeing_membership_verdicts():
    # equal spans decide the same degree-2 probes
    base = x_pres()
    scaled = ncalg.PresentationSpec(
        "scaled", base.alphabet,
        [r.scale(Scalar.param("u") ** (i + 1)) for i, r in enumerate(base.relations)],
    )
    assert span_compare(base.relations, scaled.relations).verdict == "equal"
    rng = random.Random(17)
    for _ in range(8):
        words = [tuple(rng.randrange(3) for _ in range(2)) for _ in range(2)]
        probe = Element.from_word(base.alphabet, words[0]) - \
            Element.from_word(base.alphabet, words[1]).scale(Scalar.param("q"))
        a = ncalg.algebra(base).member(probe, degree=2)
        b = ncalg.algebra(scaled).member(probe, degree=2)
        assert a.member == b.member


# ---------------------------------------------------------------------------
# tensor products and specialization
# ---------------------------------------------------------------------------


def test_algebra_tensor_counts_and_cross_rules():
    tensor = algebra_tensor(catalog.tt_presentation(), x_pres())
    assert len(tensor.alphabet) == 12
    assert len(tensor.relations) == 36 + 3 + 27
    rules = orient(tensor)
    e = parse_element("x1*t11", tensor.alphabet)
    assert rules.normalize(e).format() == "t11*x1"


def test_algebra_tensor_name_collision():
    with pytest.raises(ValueError):
        algebra_tensor(x_pres(), x_pres())


def tt_copy(prefix, errata):
    """tt with its letters t^i_j renamed prefix^i_j, at the same ranks."""
    tt = catalog.tt_presentation(errata)
    A = Alphabet.build([(prefix + g.name[1:], g.parity, g.weight) for g in tt.alphabet])
    return PresentationSpec(prefix, A, [Element(A, r.terms) for r in tt.relations])


TENSOR_LEGS = {
    "qg(x)calculus-omega": lambda errata: (catalog.qg_presentation(errata),
                                           catalog.calculus_presentation("omega", errata)),
    "qg(x)calculus-omega-inv": lambda errata: (catalog.qg_presentation(errata),
                                               catalog.calculus_presentation("omega-inv", errata)),
    "tt(x)x": lambda errata: (catalog.tt_presentation(errata), x_pres()),
    "tt(x)tt": lambda errata: (tt_copy("l", errata), tt_copy("r", errata)),
}


@functools.cache
def oriented_tensor(case, errata):
    """The tensor algebra of a case, and the rules of orienting its presentation whole."""
    a, b = TENSOR_LEGS[case](errata)
    tensor = algebra_tensor(a, b)
    # hopf's coproduct target: tt itself is both legs of the renamed copies
    legs = (catalog.tt_presentation(errata),) * 2 if case == "tt(x)tt" else (a, b)
    return ncalg.TensorAlgebra(*map(ncalg.algebra, legs), tensor.alphabet), orient(tensor)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_leg_wise_normal_forms_are_the_tensor_normal_forms(data):
    # letters are drawn as numbers read modulo the alphabet's size, so that
    # every example runs on every case, with and without errata
    words = st.lists(st.integers(0, 2**16), max_size=4).map(tuple)
    coefficients = st.sampled_from(["1", "-1", "q", "u/q", "s"])
    drawn = data.draw(st.lists(st.tuples(words, coefficients), min_size=1, max_size=3))
    for case, errata in itertools.product(sorted(TENSOR_LEGS), (True, False)):
        tensor, rules = oriented_tensor(case, errata)
        A = tensor.alphabet
        e = Element.zero(A)
        for word, coeff in drawn:
            e = e + Element.from_word(A, tuple(g % len(A) for g in word), parse_scalar(coeff))
        nf = tensor.rule_system().normalize(e)
        if errata:
            # confluent legs: the one normal form
            assert nf == rules.normalize(e), case
        else:
            # legs with unresolved overlaps: a normal form, not the leftmost one
            assert all(rules.find_redex(w) is None for w in nf.terms), case


def bound_tensor(variant="omega", **context):
    inp = VerifyContext(**context).bound
    legs = (inp.qg, inp.calculus[variant])
    return ncalg.TensorAlgebra(*map(ncalg.algebra, legs),
                               ncalg.tensor_alphabet(*(leg.alphabet for leg in legs)))


def test_tensor_algebra_is_built_from_its_legs():
    tensor = bound_tensor()
    assert [leg.pres.name for leg in tensor.legs] == ["qg", "calculus-omega"]
    assert tensor.legs[0] is ncalg.algebra(VerifyContext().bound.qg)
    assert tensor.confluent and all(leg.confluent for leg in tensor.legs)
    assert [rules.rules for rules in tensor.completion(4).legs] == \
        [leg.rules.rules for leg in tensor.legs]


def test_tensor_completion_meets_the_calculus_rank_collapse():
    tensor = bound_tensor(errata=False, bindings=(("q", parse_scalar("u^2")),))
    with pytest.raises(InconsistentPresentationError, match=re.escape(
            "rank collapse: the ambiguity d2*d1*x1 puts (u^4 - 1)*d2 into the ideal")):
        tensor.completion(3)
    # the tensor is confluent when both legs are: one leg without it is enough
    qg, calculus = tensor.legs
    assert not qg.confluent and not calculus.confluent and not tensor.confluent
    mixed = ncalg.TensorAlgebra(ncalg.algebra(VerifyContext().bound.qg), calculus,
                                tensor.alphabet)
    assert mixed.legs[0].confluent and not mixed.confluent


def test_tensor_algebra_keeps_no_overlap_report():
    tensor = bound_tensor()
    with pytest.raises(AttributeError, match="a tensor algebra keeps no overlap report; "
                                             "its legs do"):
        tensor.confluence
    assert all(leg.confluence.confluent for leg in tensor.legs)


def test_tensor_presentation_is_one_algebra_with_its_flat_copy():
    tensor = algebra_tensor(catalog.tt_presentation(), x_pres())
    flat = PresentationSpec("flat", tensor.alphabet, list(tensor.relations))
    found = ncalg.algebra(tensor)
    assert found is ncalg.algebra(flat)
    assert type(found) is MembershipOracle


@pytest.mark.parametrize("mode", ["rows", "modular"])
def test_tensor_algebra_builds_no_rows(mode, monkeypatch):
    # a tensor inherits the exact membership route: normal forms, neither the
    # raw rows nor their GF(p) echelon; it refuses the modular route outright
    assert "member" not in vars(ncalg.TensorAlgebra)
    tensor = bound_tensor()
    e = parse_element("d1*t11 - t11*d1", tensor.alphabet)
    builder = {"rows": "_row_vectors", "modular": "_echelon"}[mode]
    monkeypatch.setattr(MembershipOracle, builder, lambda *args: pytest.fail(f"{mode} built"))
    report = tensor.member(e)
    assert (report.member, report.route, report.mode) == (True, "reduction", "exact")
    with pytest.raises(ValueError, match="not in mode 'modular'"):
        tensor.modular_member(e)


def test_tensor_alphabet_must_list_the_legs_letters():
    tt, x = ncalg.algebra(catalog.tt_presentation()), ncalg.algebra(x_pres())
    with pytest.raises(ValueError, match="legs' letters in order"):
        ncalg.TensorAlgebra(tt, x, ncalg.tensor_alphabet(x.pres.alphabet, tt.pres.alphabet))


@pytest.mark.parametrize("errata", [True, False], ids=["errata", "errata-off"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_tensor_normal_form_at_the_bidegree_is_the_total_degree_one(errata, data):
    # hopf's tt (x) tt: homogeneous legs, each completed only to its part of e
    tt = ncalg.algebra(catalog.tt_presentation(errata))
    legs = [Alphabet.build([(leg + g.name[1:], g.parity, g.weight) for g in tt.pres.alphabet])
            for leg in "lr"]
    TA = ncalg.tensor_alphabet(*legs)
    tensor = ncalg.TensorAlgebra(tt, tt, TA)
    n = len(tt.pres.alphabet)
    a = data.draw(st.integers(0, 4))
    b = data.draw(st.integers(0, 4 - a))

    def word(length, leg):
        return tuple(data.draw(st.lists(st.integers(leg * n, leg * n + n - 1),
                                        min_size=length, max_size=length)))

    # an ideal element of the same bidegree, so that members occur too
    sizes = (a, b)
    leg = data.draw(st.sampled_from([k for k in (0, 1) if sizes[k] >= 2] + [None]))
    coefficients = st.sampled_from(["1", "-1", "q", "u/q", "s"])
    e = Element.zero(TA)
    for _ in range(data.draw(st.integers(0 if leg is not None else 1, 2))):
        # the letters of the two legs interleaved in any order
        shuffled = data.draw(st.permutations(word(a, 0) + word(b, 1)))
        e = e + Element.from_word(TA, tuple(shuffled), parse_scalar(data.draw(coefficients)))
    if leg is not None:
        rel = tt.pres.relations[data.draw(st.integers(0, len(tt.pres.relations) - 1))]
        images = {g.name: Element.generator(TA, f"{'lr'[leg]}{g.name[1:]}")
                  for g in tt.pres.alphabet}
        pad = word(sizes[leg] - 2, leg)
        cut = data.draw(st.integers(0, len(pad)))
        e = e + (Element.from_word(TA, pad[:cut]) * algebra_map(rel, TA, images)
                 * Element.from_word(TA, pad[cut:]) * Element.from_word(TA, word(sizes[1 - leg], 1 - leg)))
    assert tensor.normal_form(e) == tensor.completion(a + b).normalize(e)


def test_specialize_to_quantum_plane():
    spec = specialize(x_pres(), {"s": 0})
    assert span_compare(spec.relations,
                        catalog.quantum_plane_presentation().relations).verdict == "equal"


def test_specialize_to_heisenberg_form():
    spec = specialize(x_pres(), {"q": 1, "u": 1, "x3": 1})
    nonzero = [r for r in spec.relations if r]
    assert len(nonzero) == 1
    assert nonzero[0].format() == "-s + x1*x2 - x2*x1"
    # zero relations are kept for provenance
    assert len(spec.relations) == 3


def test_specialize_keeps_residue_relations():
    spec = specialize(catalog.tt_presentation(), {"t31": 0, "t32": 0})
    A = spec.alphabet
    residues = {
        tuple(A.generators[g].name for g in next(iter(r.terms)))
        for r in spec.relations if r and len(r.terms) == 1
    }
    assert residues == {("t12", "t33"), ("t21", "t33")}


def test_specialize_rejects_bad_bindings():
    with pytest.raises(ValueError):
        specialize(x_pres(), {"x1": 2})
    with pytest.raises(ValueError):
        specialize(x_pres(), {"y9": 0})


# ---------------------------------------------------------------------------
# algebra maps
# ---------------------------------------------------------------------------

MAP_SCALARS = ("1", "-2", "1/3", "q", "s/u", "q - u^2", "1/(q - u^2)")
MAP_CASES = (
    (catalog.x_alphabet(), catalog.calculus_alphabet()),
    (catalog.t_alphabet(), catalog.qg_alphabet()),
)


@st.composite
def map_elements(draw, alphabet, max_terms=4, max_length=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        word = tuple(draw(st.lists(st.integers(0, len(alphabet) - 1), max_size=max_length)))
        terms[word] = parse_scalar(draw(st.sampled_from(MAP_SCALARS)))
    return Element(alphabet, terms)


@st.composite
def map_images(draw, source, target):
    """Images mixing 0, 1, same-name defaults, renames, scalars and sums."""
    images = {}
    for g in source:
        kind = draw(st.sampled_from(("same", "zero", "one", "rename", "scalar", "sum")))
        if kind == "zero":
            images[g.name] = 0
        elif kind == "one":
            images[g.name] = 1
        elif kind == "rename":
            images[g.name] = Element.generator(target, draw(st.sampled_from(target.names())))
        elif kind == "scalar":
            images[g.name] = parse_scalar(draw(st.sampled_from(MAP_SCALARS)))
        elif kind == "sum":
            images[g.name] = draw(map_elements(target, max_terms=3, max_length=2))
    return images


@st.composite
def map_case(draw):
    source, target = draw(st.sampled_from(MAP_CASES))
    return (draw(map_elements(source)), draw(map_elements(source)), target,
            draw(map_images(source, target)))


@settings(max_examples=60)
@given(map_case())
def test_algebra_map_is_an_algebra_homomorphism(case):
    a, b, target, images = case
    image_a, image_b = algebra_map(a, target, images), algebra_map(b, target, images)
    assert algebra_map(a * b, target, images) == image_a * image_b
    assert algebra_map(a + b, target, images) == image_a + image_b
    assert algebra_map(a.scale(parse_scalar("q/s")), target, images) == \
        image_a.scale(parse_scalar("q/s"))


def test_algebra_map_letters():
    calc = catalog.calculus_alphabet()
    e = parse_x("x1*x2 - q*x2*x1 - s*x3*x3")
    assert algebra_map(e, calc).format() == "x1*x2 - q*x2*x1 - s*x3*x3"
    assert algebra_map(e, calc, {"x3": 0}).format() == "x1*x2 - q*x2*x1"
    assert algebra_map(e, calc, {"x3": 1}).format() == "-s + x1*x2 - q*x2*x1"
    assert algebra_map(e, calc, {"x2": Element.generator(calc, "xi2")}).format() == \
        "-q*xi2*x1 + x1*xi2 - s*x3*x3"


def test_algebra_map_needs_an_image_for_generators_missing_from_target():
    e = Element.generator(catalog.t_alphabet(), "t11")
    with pytest.raises(ValueError, match="t11"):
        algebra_map(e, catalog.x_alphabet())
    assert algebra_map(e, catalog.x_alphabet(), {**{g: 0 for g in e.alphabet.names()},
                                                 "t11": 1}) == \
        Element.from_scalar(catalog.x_alphabet(), 1)


# ---------------------------------------------------------------------------
# termination / soundness properties
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_rewriting_terminates_on_random_words(data):
    pres = catalog.calculus_presentation("omega")
    rules = orient(pres)
    n = len(pres.alphabet)
    word = tuple(data.draw(st.integers(0, n - 1))
                 for _ in range(data.draw(st.integers(0, 5))))
    _, steps = leftmost_steps(rules, Element.from_word(pres.alphabet, word))
    assert steps < ncalg.REWRITE_BUDGET


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_confluent_normalize_is_idempotent_and_path_independent(data):
    rules = orient(x_pres())
    word = tuple(data.draw(st.integers(0, 2)) for _ in range(data.draw(st.integers(0, 5))))
    e = Element.from_word(catalog.x_alphabet(), word)
    nf = rules.normalize(e)
    assert rules.normalize(nf) == nf
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    assert rewrite(rules, e, "random", rng) == nf


def test_element_format_round_trip():
    A = catalog.calculus_alphabet()
    e = parse_element("x1*x2 - q*x2*x1 - s*x3^2 + (1 - q/u^2)*xi1*d1 - 3", A)
    assert parse_element(e.format(), A) == e


def test_unknown_symbol_suggestion():
    with pytest.raises(UnknownSymbolError) as err:
        parse_element("x4", catalog.x_alphabet())
    assert err.value.suggestion in ("x1", "x2", "x3")


def test_presentation_json_round_trip(tmp_path):
    pres = catalog.calculus_presentation("omega")
    doc = ncalg.presentation_to_json(pres)
    back = ncalg.presentation_from_json(doc)
    assert back.alphabet.compatible_with(pres.alphabet)
    assert back.relations == pres.relations
