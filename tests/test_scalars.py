"""Exact field arithmetic in Q(q, u, s)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.fields import field

from wh3 import scalars
from wh3.exprs import parse_scalar
from wh3.scalars import Scalar, ScalarDivisionError, ScalarSubstitutionError


def test_parse_normalizes_difference_of_quotients():
    value = parse_scalar("(q/u^2 - 1)")
    assert value == parse_scalar("(q - u^2)/u^2")
    assert value.numer_terms() == {(1, 0, 0): Fraction(1), (0, 2, 0): Fraction(-1)}
    assert value.denom_terms() == {(0, 2, 0): Fraction(1)}


def test_parse_identity_cancellation():
    assert parse_scalar("q*(1/q) - 1").is_zero


def test_parse_table_coefficient():
    value = parse_scalar("(u^2-q)/q^2")
    assert value.numer_terms() == {(0, 2, 0): Fraction(1), (1, 0, 0): Fraction(-1)}
    assert value.denom_terms() == {(2, 0, 0): Fraction(1)}


def test_parse_syntax_error_reports_position():
    from wh3.exprs import ExprSyntaxError

    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar("q + * u")
    assert err.value.position == 4


def test_parse_zero_denominator_rejected():
    from wh3.exprs import ExprSyntaxError

    with pytest.raises(ExprSyntaxError):
        parse_scalar("q/(u - u)")


def test_arith_examples():
    assert parse_scalar("q/u^2 - 1") + Scalar.one() == parse_scalar("q/u^2")
    assert parse_scalar("(u^2-q)/q^2") * parse_scalar("q^2") == parse_scalar("u^2-q")
    assert Scalar.one() / parse_scalar("(u^2-q)/q^2") == parse_scalar("q^2/(u^2-q)")
    with pytest.raises(ScalarDivisionError):
        Scalar.one() / Scalar.zero()


def test_substitute_examples():
    assert parse_scalar("q/u^2 - 1").substitute({"q": parse_scalar("u^2")}).is_zero
    assert parse_scalar("s/q").substitute({"s": 0}).is_zero
    # independent rational oracle (plain Fraction arithmetic)
    expected = (Fraction(5, 7) ** 2 - Fraction(3, 2)) / Fraction(3, 2) ** 2
    assert expected == Fraction(-194, 441)
    value = parse_scalar("(u^2-q)/q^2").substitute(
        {"q": Fraction(3, 2), "u": Fraction(5, 7), "s": 2},
    )
    assert value == Scalar.from_fraction(expected)


def test_substitute_partial_keeps_symbols():
    value = parse_scalar("q*s + u").substitute({"s": 0})
    assert value == parse_scalar("u")


def test_substitute_vanishing_denominator_reports_factor():
    with pytest.raises(ScalarSubstitutionError) as err:
        parse_scalar("1/(q - u^2)").substitute({"q": parse_scalar("u^2")})
    assert "q" in err.value.offending_factor


def test_eval_mod_matches_fraction_arithmetic():
    p = 2147483647
    value = parse_scalar("(u^2-q)/q^2")
    got = value.eval_mod(p, (3, 5, 7))
    expected_fraction = Fraction(5 * 5 - 3, 9)
    expected = expected_fraction.numerator * pow(expected_fraction.denominator, -1, p) % p
    assert got == expected


def test_eval_mod_denominator_zero():
    from wh3.scalars import ScalarModularError

    with pytest.raises(ScalarModularError):
        parse_scalar("1/(q-1)").eval_mod(101, (1, 2, 3))


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def random_scalars(draw, allow_zero=True):
    num_terms = draw(st.lists(
        st.tuples(st.tuples(coeffs.map(abs), coeffs.map(abs), coeffs.map(abs)), coeffs),
        min_size=0, max_size=3,
    ))
    total = Scalar.zero()
    for (eq, eu, es), c in num_terms:
        term = Scalar.from_fraction(c)
        term = term * Scalar.param("q") ** eq * Scalar.param("u") ** eu * Scalar.param("s") ** es
        total = total + term
    if not allow_zero and total.is_zero:
        total = total + Scalar.one()
    return total


@settings(max_examples=40, deadline=None)
@given(a=random_scalars(), b=random_scalars(), c=random_scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero:
        assert a * a.inverse() == Scalar.one()


@settings(max_examples=40, deadline=None)
@given(a=random_scalars(), b=random_scalars())
def test_canonical_form_equality(a, b):
    # equality iff the canonical difference is the stored zero
    assert (a == b) == (a - b).is_zero
    if a == b:
        assert a.format() == b.format()


@settings(max_examples=30, deadline=None)
@given(a=random_scalars(), b=random_scalars())
def test_substitution_is_a_homomorphism(a, b):
    bindings = {"q": Fraction(2, 3), "u": Fraction(5, 2), "s": Fraction(1, 4)}
    try:
        left = (a * b).substitute(bindings)
        right = a.substitute(bindings) * b.substitute(bindings)
        added = (a + b).substitute(bindings)
    except ScalarSubstitutionError:
        return
    assert left == right
    assert added == a.substitute(bindings) + b.substitute(bindings)


@settings(max_examples=50, deadline=None)
@given(a=random_scalars())
def test_format_parse_fixed_point(a):
    text = a.format()
    assert parse_scalar(text) == a
    assert parse_scalar(text).format() == text


# ---------------------------------------------------------------------------
# Laurent representation against a direct sympy reference
# ---------------------------------------------------------------------------

_REF_FIELD, *_REF_GENS = field("q,u,s", QQ)
_PARAMS = tuple(Scalar.param(name) for name in "qus")


def _holds_no_sympy(value):
    """True iff value is stored as a Laurent term dict: int exponents, nonzero rationals."""
    rep = value._rep
    return type(rep) is dict and all(
        all(type(e) is int for e in exps) and type(c) in (int, Fraction) and c
        for exps, c in rep.items()
    )


def _terms(poly):
    return {tuple(exps): Fraction(int(QQ.numer(c)), int(QQ.denom(c))) for exps, c in poly.terms()}


def _monomial(exps):
    value, ref = Scalar.one(), _REF_FIELD.one
    for param, gen, e in zip(_PARAMS, _REF_GENS, exps):
        value, ref = value * param**e, ref * gen**e
    return value, ref


laurent_exps = st.tuples(*[st.integers(min_value=-2, max_value=2)] * 3)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def scalar_pairs(draw):
    """A Scalar built through Scalar arithmetic and the same value in sympy."""
    value, ref = Scalar.zero(), _REF_FIELD.zero
    for exps, c in draw(st.lists(st.tuples(laurent_exps, rationals), min_size=1, max_size=3)):
        mono, mono_ref = _monomial(exps)
        value, ref = value + c * mono, ref + QQ(c.numerator, c.denominator) * mono_ref
    if draw(st.booleans()):
        # a two-term denominator: the value leaves the Laurent ring unless it cancels
        (e1, e2) = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=2, max_size=2,
                                 unique=True))
        c1, c2 = draw(st.sampled_from([1, -1, 2])), draw(st.sampled_from([1, -3]))
        (m1, r1), (m2, r2) = _monomial(e1), _monomial(e2)
        value, ref = value / (c1 * m1 + c2 * m2), ref / (c1 * r1 + c2 * r2)
    return value, ref


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=scalar_pairs(), b=scalar_pairs())
def test_arithmetic_matches_sympy_reference(a, b):
    (x, rx), (y, ry) = a, b
    results = [(x + y, rx + ry), (x - y, rx - ry), (y - x, ry - rx), (x * y, rx * ry), (-x, -rx)]
    if not y.is_zero:
        results.append((x / y, rx / ry))
    for got, ref in results:
        assert got.format() == scalars._format_frac(ref)
        assert got.numer_terms() == _terms(ref.numer)
        assert got.denom_terms() == _terms(ref.denom)
        assert got.leading_sign() == (0 if not ref else 1 if ref.numer.LC > 0 else -1)
        assert _holds_no_sympy(got) == (len(ref.denom) == 1)


def test_demotion_to_laurent_form():
    q, u, _ = _PARAMS
    quotient = (q * q - u * u) / (q - u)
    assert quotient == q + u
    assert hash(quotient) == hash(q + u)
    assert quotient.format() == (q + u).format() == "q + u"
    assert _holds_no_sympy(quotient)
    ratio = (q - u * u) / (q - u * u)
    assert ratio.is_one and ratio == Scalar.one() and _holds_no_sympy(ratio)
    assert not _holds_no_sympy(Scalar.one() / (q - u * u))


def test_laurent_results_hold_no_sympy_object():
    q, u, s = _PARAMS
    x = parse_scalar("(u^2-q)/q^2 + s/(3*u)")
    for value in (x, x + q, x - s, x * x, -x, x / (2 * q * u), x / s,
                  q**-3, Scalar.from_fraction(Fraction(5, 6))):
        assert _holds_no_sympy(value), value
    assert x * Scalar.one() is x and Scalar.one() * x is x


def test_eval_mod_negative_exponents_match_fraction_arithmetic():
    p = 2147483647
    point = (3, 5, 7)
    value = parse_scalar("3/4*u/(q^2*s) - 5/u^3 + 2/7*q*s^2")
    expected = (Fraction(3, 4) * 5 / (9 * 7) - Fraction(5, 125) + Fraction(2, 7) * 3 * 49)
    assert value.eval_mod(p, point) == expected.numerator * pow(expected.denominator, -1, p) % p


def test_eval_mod_coefficient_denominator_divisible_by_prime():
    from wh3.scalars import ScalarModularError

    value = parse_scalar("q/7 + 1")
    assert value.eval_mod(11, (2, 3, 4)) == (2 * pow(7, -1, 11) + 1) % 11
    with pytest.raises(ScalarModularError):
        value.eval_mod(7, (2, 3, 4))
    with pytest.raises(ScalarModularError):
        parse_scalar("1/q").eval_mod(5, (5, 3, 4))
