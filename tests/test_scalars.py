"""Exact field arithmetic in Q(q, u, s)."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.fields import field

from wh3 import scalars
from wh3.exprs import parse_scalar
from wh3.linalg import ModEchelon
from wh3.scalars import (
    Scalar, ScalarDivisionError, ScalarModularError, ScalarSubstitutionError,
)

from reference_routes import gcd_combine


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


def _at(terms, point):
    """A term dict evaluated at a rational point."""
    return sum(c * prod(v**e for v, e in zip(point, exps)) for exps, c in terms.items())


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
    for k in range(-2, 4):
        if k < 0 and x.is_zero:
            continue
        # sympy's negative powers skip its sign normalization, and it has no 0**0
        base, n = (rx, k) if k >= 0 else (_REF_FIELD.one / rx, -k)
        results.append((x**k, base**n if n else _REF_FIELD.one))
    for got, ref in results:
        assert got.format() == scalars._format_parts(_terms(ref.numer), _terms(ref.denom))
        assert got.numer_terms() == _terms(ref.numer)
        assert got.denom_terms() == _terms(ref.denom)
        assert got.leading_sign() == (0 if not ref else 1 if ref.numer.LC > 0 else -1)
        assert _holds_no_sympy(got) == (len(ref.denom) == 1)
    # substitution at a rational point raises exactly when the reference denominator vanishes
    point = (Fraction(2), Fraction(1, 2), Fraction(-1))
    den = _at(_terms(rx.denom), point)
    try:
        got = x.substitute(dict(zip("qus", point)))
    except ScalarSubstitutionError:
        got = None
    assert got == (None if den == 0 else Scalar.from_fraction(_at(_terms(rx.numer), point) / den))


def test_laurent_values_never_build_a_fraction(monkeypatch):
    def refuse(a, b, op):
        raise AssertionError("Laurent values were combined as reduced fractions")

    monkeypatch.setattr(scalars, "_combine", refuse)
    q, u, s = _PARAMS
    x = parse_scalar("(u^2-q)/q^2 + 3/4*s/u - 2/5")
    assert x**3 == x * x * x and x**1 is x and x**0 == Scalar.one()
    assert (2 * q / (3 * u))**-3 == Fraction(27, 8) * u**3 / q**3
    assert q**-100000 * q**100000 == Scalar.one()
    # substitution: a rational point, a partial binding and a vanishing denominator
    vq, vu = Fraction(3, 2), Fraction(5, 7)
    expected = (vu**2 - vq) / vq**2 + Fraction(3, 4) * 2 / vu - Fraction(2, 5)
    assert x.substitute({"q": vq, "u": vu, "s": 2}) == Scalar.from_fraction(expected)
    assert x.substitute({"s": 0}) == parse_scalar("(u^2-q)/q^2 - 2/5")
    with pytest.raises(ScalarSubstitutionError) as err:
        x.substitute({"u": 0})
    assert err.value.offending_factor == "20*q^2*u"
    # printing and the numerator/denominator views of the reduced fraction
    assert x.format() == "(-8*q^2*u + 15*q^2*s - 20*q*u + 20*u^3)/(20*q^2*u)"
    assert x.numer_terms() == {(2, 1, 0): -8, (2, 0, 1): 15, (1, 1, 0): -20, (0, 3, 0): 20}
    assert x.denom_terms() == {(2, 1, 0): 20}
    assert (x.leading_sign(), (-x).leading_sign(), Scalar.zero().leading_sign()) == (-1, 1, 0)
    # GF(p): the value, a coefficient denominator divisible by p and a vanishing parameter
    p = 2147483647
    expected = (25 - 3) / Fraction(9) + Fraction(3, 4) * 7 / 5 - Fraction(2, 5)
    assert x.eval_mod(p, (3, 5, 7)) == expected.numerator * pow(expected.denominator, -1, p) % p
    for prime, point in ((5, (2, 3, 4)), (101, (0, 3, 4))):
        with pytest.raises(ScalarModularError):
            x.eval_mod(prime, point)


def test_integral_fraction_coefficients_read_as_ints():
    # sums and products leave integral Fractions such as Fraction(1, 1) in a term dict
    q, u, s = _PARAMS
    one = Scalar.from_fraction(Fraction(1, 2)) * 2
    bound = (q * u * s).substitute({"q": 2, "u": Fraction(1, 2)})
    for value in (one, bound, bound / q, bound + q):
        assert type(value.eval_mod(101, (2, 3, 4))) is int, value
        for terms in (value.numer_terms(), value.denom_terms()):
            assert all(type(c) is int for c in terms.values()), value
    assert one.eval_mod(101, (2, 3, 4)) == 1 and bound.eval_mod(101, (2, 3, 4)) == 4
    assert ModEchelon(101).insert({(1,): one.eval_mod(101, (2, 3, 4))}) == (1,)


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


# ---------------------------------------------------------------------------
# reduced fractions whose parts share non-monomial multivariate factors
# ---------------------------------------------------------------------------

small_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                              st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
# two or more terms in two or more of q, u, s
shared_factors = small_polys.filter(
    lambda terms: len(terms) >= 2 and sum(any(column) for column in zip(*terms)) >= 2)


def _poly(terms):
    """A polynomial with integer coefficients as a Scalar and as a sympy reference."""
    value, ref = Scalar.zero(), _REF_FIELD.zero
    for exps, c in terms.items():
        mono, mono_ref = _monomial(exps)
        value, ref = value + c * mono, ref + c * mono_ref
    return value, ref


def _shared_factor_values(f, g, a, b, c, d, s1, s2):
    """x = s1*f*a/(g*b) and y = s2*g*c/(f*d), whose arithmetic cancels f and g."""
    x, y = s1 * f * a / (g * b), s2 * g * c / (f * d)
    return [x, y, x + y, x - y, x * y, x / y, x * g / f, y * d + x * b, (x + f) * (y - g)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polys=st.tuples(shared_factors, shared_factors, *[small_polys] * 4),
       scales=st.tuples(*[st.sampled_from([1, 2, 3, 6, -4])] * 2))
def test_shared_multivariate_factors_cancel_as_sympy_does(polys, scales):
    pairs = [_poly(terms) for terms in polys]
    refs = _shared_factor_values(*(ref for _, ref in pairs), *scales)
    got = _shared_factor_values(*(value for value, _ in pairs), *scales)
    with pytest.MonkeyPatch.context() as patch:
        # no heuristic attempt: every GCD comes from the modular algorithm
        patch.setattr(scalars, "_HEU_GCD_ATTEMPTS", 0)
        fallback = _shared_factor_values(*(value for value, _ in pairs), *scales)
    for value, again, ref in zip(got, fallback, refs):
        assert value == again and hash(value) == hash(again)
        assert value.format() == scalars._format_parts(_terms(ref.numer), _terms(ref.denom))
        assert value.numer_terms() == _terms(ref.numer)
        assert value.denom_terms() == _terms(ref.denom)
        assert value.leading_sign() == (0 if not ref else 1 if ref.numer.LC > 0 else -1)
    # the heuristic and the modular GCD agree, and find the shared f*g
    (f, _), (g, _), (a, _), (b, _) = pairs[:4]
    left, right = (f * g * a).numer_terms(), (scales[0] * f * g * b).numer_terms()
    found = scalars._heugcd(left, right, 0)
    assert found is not None
    h, cofactor_left, cofactor_right = found
    modular = scalars._modular_gcd(left, right)
    assert h in (modular, scalars._negate(modular))
    assert scalars._mul_terms(h, cofactor_left) == left
    assert scalars._mul_terms(h, cofactor_right) == right
    assert scalars._exact_div(h, (f * g).numer_terms()) is not None


# ---------------------------------------------------------------------------
# cross-cancellation against the one-GCD route
# ---------------------------------------------------------------------------

_FACTORS = ("s", "q", "u", "q - 1", "q - u^2", "q + u^2")
# 0, +-1, Laurent monomials and Laurent polynomials
_LAURENT = tuple(parse_scalar(text) for text in (
    "0", "1", "-1", "q/u", "-3*s^2/(2*q)", "u^-2", "q - 1", "q/u^2 - 1", "(q + u^2)/(2*u)"))


@st.composite
def factor_fractions(draw):
    """A product of powers of s, q, u, q - 1 and q -+ u^2, with a rational coefficient."""
    numer = draw(st.lists(st.sampled_from(_FACTORS), max_size=3))
    denom = draw(st.lists(st.sampled_from(_FACTORS), min_size=1, max_size=3))
    coeff = draw(st.sampled_from(["1", "-2", "3/4"]))
    return parse_scalar(f"({coeff})" + "".join(f"*({f})" for f in numer)
                        + "".join(f"/({f})" for f in denom))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(x=factor_fractions(), y=st.one_of(st.sampled_from(_LAURENT), factor_fractions()))
def test_cross_cancellation_matches_the_one_gcd_route(x, y):
    for left, right in ((x, y), (y, x)):
        results = [("+", left + right), ("-", left - right), ("*", left * right)]
        if right:
            results.append(("/", left / right))
        for op, value in results:
            want = gcd_combine(left._rep, right._rep, op)
            assert value == want and value.format() == want.format(), (left, op, right)


def test_laurent_sides_run_no_heuristic_gcd(monkeypatch):
    q, u, _ = _PARAMS
    x = parse_scalar("(q - 1)*s/((q - u^2)*(q + u^2))")
    assert not _holds_no_sympy(x)
    calls = []
    heugcd = scalars._heugcd

    def spy(f, g, k):
        calls.append((f, g, k))
        return heugcd(f, g, k)

    monkeypatch.setattr(scalars, "_heugcd", spy)
    got = [Scalar.zero() + x, x * -1, x * (q / u), x + q]
    assert calls == []
    assert got[:2] == [x, -x]
    assert got[2:] == [gcd_combine(x._rep, (q / u)._rep, "*"), gcd_combine(x._rep, q._rep, "+")]
