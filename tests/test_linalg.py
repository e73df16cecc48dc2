"""The one sparse elimination and what is built on it."""

import pytest

from wh3 import catalog
from wh3.catalog import CMatrix
from wh3.exprs import parse_scalar
from wh3.linalg import ModEchelon, ModularPoint, ScalarEchelon, eval_vec_mod, solve_linear
from wh3.ncalg import Element, span_compare
from wh3.scalars import Scalar


def sc(text):
    return parse_scalar(text)


# ---------------------------------------------------------------------------
# solve_linear
# ---------------------------------------------------------------------------


def test_solve_linear_unique_solution():
    # q*x + y = q^2 + u and x - y = q - u give x = q, y = u
    rows = [
        ({("x",): sc("q"), ("y",): sc("1")}, sc("q^2 + u")),
        ({("x",): sc("1"), ("y",): sc("-1")}, sc("q - u")),
    ]
    assert solve_linear(rows) == {("x",): sc("q"), ("y",): sc("u")}


def test_solve_linear_sets_free_unknowns_to_zero():
    # one equation, written twice: y is the pivot (the larger key), x is free
    row = {("x",): sc("1"), ("y",): sc("u")}
    rows = [(row, sc("s")), ({k: v * sc("q") for k, v in row.items()}, sc("q*s"))]
    assert solve_linear(rows) == {("y",): sc("s/u")}


def test_solve_linear_inconsistent_system_is_none():
    row = {("x",): sc("1"), ("y",): sc("q")}
    assert solve_linear([(row, sc("1")), (row, sc("2"))]) is None
    assert solve_linear([({("x",): Scalar.zero()}, sc("s"))]) is None


# ---------------------------------------------------------------------------
# CMatrix.inverse
# ---------------------------------------------------------------------------


def test_inverse_of_singular_matrix_raises():
    singular = CMatrix.identity().with_entry((2, 2), (2, 2), Scalar.zero())
    with pytest.raises(ValueError):
        singular.inverse()


def test_inverse_of_mutated_omega():
    # a corrupted cell gives pivots with non-monomial denominators
    mutated = catalog.omega().with_entry((1, 1), (1, 1), sc("q/u^2 + 2"))
    inv = mutated.inverse()
    ident = CMatrix.identity()
    assert mutated @ inv == ident
    assert inv @ mutated == ident


# ---------------------------------------------------------------------------
# the two fields
# ---------------------------------------------------------------------------


def test_mod_rank_equals_exact_rank_on_raw_degree_three_tt_rows():
    pres = catalog.tt_presentation()
    alphabet = pres.alphabet
    rows = []
    for rel in pres.nonzero_relations():
        for g in range(len(alphabet)):
            gen = Element.from_word(alphabet, (g,))
            rows.append(dict((gen * rel).terms))
            rows.append(dict((rel * gen).terms))
    exact = ScalarEchelon()
    point = ModularPoint.generate()
    modular = ModEchelon(point.prime)
    for row in rows:
        exact.insert(row)
        modular.insert(eval_vec_mod(row, point))
    assert 0 < exact.rank < len(rows)
    assert modular.rank == exact.rank


def test_interreduce_gives_reduced_rows_in_both_fields():
    a, b, c = (0,), (1,), (2,)
    vecs = [{c: 1, b: 2, a: 3}, {b: 1, a: 5}]
    # c + 2b + 3a minus twice b + 5a leaves c - 7a
    for ech, lift, minus_seven in ((ScalarEchelon(), Scalar.from_fraction, Scalar.from_fraction(-7)),
                                   (ModEchelon(101), int, 94)):
        for vec in vecs:
            ech.insert({w: lift(v) for w, v in vec.items()})
        ech.interreduce()
        assert set(ech.rows) == {c, b}
        assert ech.rows[c] == {a: minus_seven}


# ---------------------------------------------------------------------------
# span_compare
# ---------------------------------------------------------------------------


def test_span_compare_subset_and_incomparable_verdicts():
    xx = catalog.x_presentation().relations
    sub = span_compare(xx[:2], xx)
    assert sub.verdict == "A_subset_B"
    assert (sub.rank_a, sub.rank_b) == (2, 3)
    assert sub.witness is not None and not sub.witness.is_zero
    neither = span_compare(xx[:2], xx[1:])
    assert neither.verdict == "incomparable"
    assert (neither.rank_a, neither.rank_b) == (2, 2)
    assert neither.witness is not None
