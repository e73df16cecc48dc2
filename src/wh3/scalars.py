"""Exact arithmetic in the rational-function field Q(q, u, s).

Every coefficient in the deformed-algebra catalog lives in this field: the
deformation parameters q and u are invertible, s enters polynomially, and all
arithmetic must stay exact so that equality (and in particular equality to
zero) is decidable.

Nearly every value the verifier meets has a monomial denominator, so it is a
Laurent polynomial in Q[q^±1, u^±1, s^±1].  A Scalar stores such a value as a
dict from exponent triples (q, u, s; negative exponents allowed) to nonzero
rational coefficients (an int when integral, else a Fraction), and adds,
subtracts, multiplies, negates, divides by a single term and evaluates over
GF(p) on that dict with Python integers alone.  Only a value whose reduced
denominator has two or more terms (a pivot such as q - u^2) is kept as a
reduced fraction: a pair of integer term dicts over nonnegative exponents
that share no factor, content included, with a positive lex-leading
denominator coefficient.  Arithmetic with such a value, and division by a
non-monomial, multiply and add the numerator/denominator parts of both sides
with Henrici's cross-cancellation, which divides out the greatest common
divisors of the parts before it multiplies them, and demote the result back
to the Laurent form whenever its denominator is one term.  That invariant
makes the stored form canonical: two equal scalars have identical stored
forms.  A GCD with a one-term part is a monomial's, so a product or
quotient with a Laurent monomial, or a sum with any Laurent value, takes no
GCD of two multi-term polynomials.
Powers are products, and substitution, GF(p) evaluation, printing and the
numerator/denominator views read the same parts (`_parts`).

The GCD of two polynomials in Z[q, u, s] is the heuristic GCD of Char, Geddes
and Gonnet (J. Symb. Comp. 7, 1989), as sympy's sparse polynomials compute
it: evaluate one variable at a large integer, recurse down to an integer GCD,
interpolate and check by exact division.  When its attempts run out, the
modular GCD of Brown (J. ACM 18, 1971) always succeeds; the recursive
primitive PRS of the same paper swells to resultant-sized coefficients on
products of a few trivariate factors.  Both give the unique reduced fraction,
so the printed form is the one sympy's `cancel` gives.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Mapping, Union

__all__ = [
    "PARAMETERS",
    "Scalar",
    "ScalarError",
    "ScalarDivisionError",
    "ScalarSubstitutionError",
    "ScalarModularError",
    "CoefficientTooLongError",
    "format_scalar",
]

PARAMETERS = ("q", "u", "s")

_UNIT = (0, 0, 0)
_ONE_TERMS = {_UNIT: 1}
_PARAM_TERMS = {"q": {(1, 0, 0): 1}, "u": {(0, 1, 0): 1}, "s": {(0, 0, 1): 1}}


class ScalarError(ValueError):
    """Base class for scalar arithmetic errors."""


class ScalarDivisionError(ScalarError):
    """Division by the zero scalar / zero polynomial."""


class ScalarSubstitutionError(ScalarError):
    """A substitution makes a denominator vanish."""

    def __init__(self, message: str, offending_factor: str):
        super().__init__(message)
        self.offending_factor = offending_factor


class ScalarModularError(ScalarError):
    """A modular evaluation hit a vanishing denominator for the chosen point."""


class CoefficientTooLongError(ValueError):
    """A coefficient has more decimal digits than Python converts to text.

    Not a ScalarError: the value is exact and only its printing fails, so a
    check that meets it is not undecided.
    """


ScalarLike = Union["Scalar", int, Fraction]


def _coerce(value: ScalarLike) -> "Scalar":
    if isinstance(value, Scalar):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, (int, Fraction)):
        return Scalar({_UNIT: _canon(Fraction(value))} if value else {})
    raise TypeError(f"cannot interpret {value!r} as a Scalar")


class Scalar:
    """An element of Q(q, u, s) in canonical form.

    `_rep` is a Laurent term dict when the reduced denominator is a monomial
    (the empty dict is zero), and otherwise the tuple (numerator,
    denominator) of integer term dicts of the reduced fraction, whose
    denominator has two or more terms and a positive lex-leading coefficient.
    Immutable and hashable, and ``a == b`` iff the stored representations
    coincide.  Build values through the constructors and arithmetic below,
    never from a raw representation.  Term dicts are shared between Scalars
    (``x * 1`` returns ``x``), so none is ever mutated.  Only arithmetic with a
    non-Laurent value or divisor computes a polynomial GCD, and only parts of
    two or more terms on both sides make it more than a monomial's.
    """

    __slots__ = ("_rep",)

    def __init__(self, rep):
        object.__setattr__(self, "_rep", rep)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def param(name: str) -> "Scalar":
        try:
            return Scalar(_PARAM_TERMS[name])
        except KeyError:
            raise ScalarError(f"unknown parameter {name!r}; expected one of {PARAMETERS}")

    @staticmethod
    def from_fraction(value: Union[int, Fraction]) -> "Scalar":
        return _coerce(value)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        other = _coerce(other)
        a, b = self._rep, other._rep
        if type(a) is dict and type(b) is dict:
            if not b:
                return self
            if not a:
                return other
            return Scalar(_add_terms(a, b, False))
        return _combine(a, b, "+")

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return _sub(self, _coerce(other))

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return _sub(_coerce(other), self)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        other = _coerce(other)
        a, b = self._rep, other._rep
        if type(a) is dict and type(b) is dict:
            if b == _ONE_TERMS:
                return self
            if a == _ONE_TERMS:
                return other
            return Scalar(_mul_terms(a, b))
        return _combine(a, b, "*")

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        return _div(self, _coerce(other))

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return _div(_coerce(other), self)

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            raise TypeError("scalar exponents must be integers")
        if exponent < 0:
            if self.is_zero:
                raise ScalarDivisionError("zero scalar has no inverse")
            return self.inverse() ** -exponent
        result, base = _ONE, self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __neg__(self) -> "Scalar":
        rep = self._rep
        if type(rep) is dict:
            return Scalar(_negate(rep))
        numer, denom = rep
        return Scalar((_negate(numer), denom))

    def inverse(self) -> "Scalar":
        return _ONE / self

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = self._rep, other._rep
        if (type(a) is dict) != (type(b) is dict):
            return False
        return a == b

    def __hash__(self) -> int:
        rep = self._rep
        if type(rep) is dict:
            return hash(frozenset(rep.items()))
        return hash(tuple(frozenset(part.items()) for part in rep))

    def __bool__(self) -> bool:
        return bool(self._rep)

    @property
    def is_zero(self) -> bool:
        return not self._rep

    @property
    def is_one(self) -> bool:
        rep = self._rep
        return type(rep) is dict and rep == _ONE_TERMS

    # -- structure access --------------------------------------------------

    def numer_terms(self) -> dict[tuple[int, int, int], int]:
        """Numerator as a map exponent-triple -> integer coefficient."""
        return dict(_parts(self._rep)[0])

    def denom_terms(self) -> dict[tuple[int, int, int], int]:
        """Denominator as a map exponent-triple -> integer coefficient."""
        return dict(_parts(self._rep)[1])

    def leading_sign(self) -> int:
        """Sign of the numerator's leading coefficient (0 for the zero scalar)."""
        numer = _parts(self._rep)[0]
        if not numer:
            return 0
        return 1 if numer[max(numer)] > 0 else -1

    # -- substitution and evaluation ---------------------------------------

    def substitute(self, bindings: Mapping[str, ScalarLike]) -> "Scalar":
        """Exact image under q,u,s |-> bindings; unbound parameters stay symbolic.

        Raises ScalarSubstitutionError when the denominator vanishes.
        """
        for name in bindings:
            if name not in _PARAM_TERMS:
                raise ScalarError(f"unknown parameter {name!r} in substitution")
        values = [_coerce(bindings[name]) if name in bindings else Scalar.param(name)
                  for name in PARAMETERS]
        numer, denom = _parts(self._rep)
        den = _eval_terms(denom, values)
        if den.is_zero:
            raise ScalarSubstitutionError(
                f"substitution sends denominator to zero in {self}",
                offending_factor=_format_poly(denom),
            )
        return _eval_terms(numer, values) / den

    def eval_mod(self, prime: int, point: tuple[int, int, int]) -> int:
        """Evaluate at (q, u, s) = point over GF(prime).

        Raises ScalarModularError if the denominator vanishes at the point.
        """
        vq, vu, vs = point
        num, den = (
            sum(c * pow(vq, eq, prime) * pow(vu, eu, prime) * pow(vs, es, prime)
                for (eq, eu, es), c in terms.items()) % prime
            for terms in _parts(self._rep)
        )
        if den == 0:
            raise ScalarModularError(f"denominator of {self} vanishes at {point} mod {prime}")
        return num * pow(den, -1, prime) % prime

    # -- formatting --------------------------------------------------------

    def format(self) -> str:
        """Canonical string; parsing it back yields the identical Scalar."""
        return format_scalar(self)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"


# ---------------------------------------------------------------------------
# Laurent term dicts and reduced fractions
# ---------------------------------------------------------------------------


def _canon(coeff: Fraction) -> Union[int, Fraction]:
    return coeff.numerator if coeff.denominator == 1 else coeff


def _negate(terms: dict) -> dict:
    return {key: -c for key, c in terms.items()}


def _add_terms(a: dict, b: dict, negate: bool) -> dict:
    out = dict(a)
    for key, coeff in b.items():
        if negate:
            coeff = -coeff
        prev = out.get(key)
        if prev is None:
            out[key] = coeff
        else:
            coeff += prev
            if coeff:
                out[key] = coeff
            else:
                del out[key]
    return out


def _mul_terms(a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        ((f0, f1, f2), d), = b.items()
        return {(e0 + f0, e1 + f1, e2 + f2): c * d for (e0, e1, e2), c in a.items()}
    out: dict = {}
    for (f0, f1, f2), d in b.items():
        for (e0, e1, e2), c in a.items():
            key = (e0 + f0, e1 + f1, e2 + f2)
            out[key] = out.get(key, 0) + c * d
    return {key: c for key, c in out.items() if c}


def _sub(x: Scalar, y: Scalar) -> Scalar:
    a, b = x._rep, y._rep
    if type(a) is dict and type(b) is dict:
        if not b:
            return x
        return Scalar(_add_terms(a, b, True))
    return _combine(a, b, "-")


def _div(x: Scalar, y: Scalar) -> Scalar:
    a, b = x._rep, y._rep
    if not b:
        raise ScalarDivisionError("division by zero scalar")
    if type(a) is dict and type(b) is dict and len(b) == 1:
        ((f0, f1, f2), d), = b.items()
        return Scalar(_mul_terms(a, {(-f0, -f1, -f2): _canon(1 / Fraction(d))}))
    return _combine(a, b, "/")


def _combine(a, b, op: str) -> Scalar:
    """The Scalar `a op b` (op one of + - * /) from the reduced fractions of both sides.

    Henrici's cross-cancellation (Knuth, TAOCP vol. 2, 4.5.1): with n1/d1
    and n2/d2 reduced, the product is reduced once gcd(n1, d2) and
    gcd(n2, d1) are cancelled, and the sum n1*(d2/g) + n2*(d1/g) over
    d1*d2/g, with g = gcd(d1, d2), can share a factor with g alone.  A
    Laurent side has a one-term denominator, and 0, +-1 or a monomial a
    one-term numerator too, so every GCD taken with it is a monomial's.
    """
    (n1, d1), (n2, d2) = _parts(a), _parts(b)
    if op == "/":
        n2, d2 = d2, n2
    if op in "*/":
        if not n1 or not n2:
            return _ZERO
        _, n1, d2 = _cofactors(n1, d2)
        _, n2, d1 = _cofactors(n2, d1)
        numer, denom = _mul_terms(n1, n2), _mul_terms(d1, d2)
    else:
        g, d1, d2 = (d1, _ONE_TERMS, _ONE_TERMS) if d1 == d2 else _cofactors(d1, d2)
        numer = _add_terms(_mul_terms(n1, d2), _mul_terms(n2, d1), op == "-")
        if not numer:
            return _ZERO
        _, numer, g = _cofactors(numer, g)
        denom = _mul_terms(_mul_terms(d1, d2), g)
    if denom[max(denom)] < 0:
        numer, denom = _negate(numer), _negate(denom)
    if len(denom) == 1:
        ((m0, m1, m2), dc), = denom.items()
        return Scalar({(e0 - m0, e1 - m1, e2 - m2): _canon(Fraction(c, dc))
                       for (e0, e1, e2), c in numer.items()})
    return Scalar((numer, denom))


def _parts(rep) -> tuple[dict, dict]:
    """Numerator and denominator of a value as integer-coefficient term dicts.

    They are the parts of the reduced fraction of the value, over nonnegative
    exponents: a non-Laurent value stores them.  A Laurent dict shifts each
    parameter's exponents up by their minimum when it is negative and scales
    both sides by the lcm L of its coefficient denominators, giving the
    denominator L times a monomial, which shares no factor with the
    numerator.  The numerator may be the stored dict itself, so never mutate
    it.
    """
    if type(rep) is not dict:
        return rep
    if not rep:
        return {}, _ONE_TERMS
    s0, s1, s2 = (min(0, *column) for column in zip(*rep))
    # sums and products leave integral Fractions such as Fraction(1, 1) in place
    if s0 == s1 == s2 == 0 and all(type(c) is int for c in rep.values()):
        return rep, _ONE_TERMS
    scale = lcm(*(c.denominator for c in rep.values()))
    numer = {(eq - s0, eu - s1, es - s2): c.numerator * (scale // c.denominator)
             for (eq, eu, es), c in rep.items()}
    return numer, {(-s0, -s1, -s2): scale}


def _eval_terms(terms: dict, values) -> Scalar:
    """The polynomial `terms` at (q, u, s) = values, by Scalar arithmetic."""
    vq, vu, vs = values
    total = _ZERO
    for (eq, eu, es), coeff in terms.items():
        total = total + coeff * vq**eq * vu**eu * vs**es
    return total


# ---------------------------------------------------------------------------
# GCDs in Z[q, u, s]
#
# Polynomials are nonzero integer term dicts over exponent triples.  The
# heuristic GCD evaluates q, then u, then s: its argument k is the first
# variable still present, the earlier exponents being zero throughout, and
# k == 3 leaves integers, stored as {(0, 0, 0): c}.  The modular GCD
# evaluates s, then u, and ends in q: its argument n counts the leading
# variables still present.
# ---------------------------------------------------------------------------

# evaluation points the heuristic GCD tries before the modular GCD takes over
_HEU_GCD_ATTEMPTS = 6


def _cofactors(f: dict, g: dict) -> tuple[dict, dict, dict]:
    """(h, f/h, g/h) with h = gcd(f, g), for nonzero f and g."""
    if len(f) == 1 or len(g) == 1:
        return _gcd_monomial(f, g)
    found = _heugcd(f, g, 0)
    if found is not None:
        return found
    h = _modular_gcd(f, g)
    return h, _exact_div(f, h), _exact_div(g, h)


def _gcd_monomial(f: dict, g: dict) -> tuple[dict, dict, dict]:
    """`_cofactors` when f or g is a single term: the gcd is content times a monomial."""
    m0, m1, m2 = (min(column) for column in zip(*f, *g))
    c = gcd(_content(f), _content(g))
    h = {(m0, m1, m2): c}
    return h, _exact_div(f, h), _exact_div(g, h)


def _content(f: dict) -> int:
    return gcd(*f.values())


def _lead(f: dict) -> int:
    return f[max(f)]


def _exact_div(f: dict, g: dict, p: int | None = None) -> dict | None:
    """f / g when g divides f in Z[q, u, s], or in GF(p)[q, u, s] for a prime p, else None.

    A one-term g over Z divides term by term.  Otherwise lex-leading terms
    divide, and each step removes the remainder's leading term, so the loop
    stops in the well-ordered lex order.
    """
    lm = max(g)
    (g0, g1, g2), lc = lm, g[lm]
    if len(g) == 1 and p is None:
        quotient = {}
        for (e0, e1, e2), c in f.items():
            coeff, left = divmod(c, lc)
            if e0 < g0 or e1 < g1 or e2 < g2 or left:
                return None
            quotient[(e0 - g0, e1 - g1, e2 - g2)] = coeff
        return quotient
    rest = [(key, c) for key, c in g.items() if key != lm]
    if p is None:
        remainder = dict(f)
    else:
        inverse = pow(lc, -1, p)
        remainder = {key: c % p for key, c in f.items() if c % p}
    quotient = {}
    while remainder:
        (r0, r1, r2) = top = max(remainder)
        e0, e1, e2 = r0 - g0, r1 - g1, r2 - g2
        if p is None:
            coeff, left = divmod(remainder.pop(top), lc)
        else:
            coeff, left = remainder.pop(top) * inverse % p, 0
        if e0 < 0 or e1 < 0 or e2 < 0 or left:
            return None
        quotient[(e0, e1, e2)] = coeff
        for (a0, a1, a2), c in rest:
            key = (a0 + e0, a1 + e1, a2 + e2)
            value = remainder.get(key, 0) - coeff * c
            if p is not None:
                value %= p
            if value:
                remainder[key] = value
            else:
                remainder.pop(key, None)
    return quotient


def _heugcd(f: dict, g: dict, k: int) -> tuple[dict, dict, dict] | None:
    """`_cofactors` in the variables k.. by the heuristic GCD, or None when it gives up."""
    if k == 3:
        a, b = f[_UNIT], g[_UNIT]
        h = gcd(a, b)
        return {_UNIT: h}, {_UNIT: a // h}, {_UNIT: b // h}
    common = gcd(_content(f), _content(g))
    f = {key: c // common for key, c in f.items()}
    g = {key: c // common for key, c in g.items()}
    f_norm, g_norm = max(map(abs, f.values())), max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(min(bound, 99 * isqrt(bound)),
            2 * min(f_norm // abs(_lead(f)), g_norm // abs(_lead(g))) + 4)
    for _ in range(_HEU_GCD_ATTEMPTS):
        ff, gg = _evaluate(f, k, x), _evaluate(g, k, x)
        if ff and gg:
            found = _heugcd(ff, gg, k + 1)
            if found is None:
                return None
            h, cff, cfg = found
            # the gcd, then either cofactor, interpolated from the image at x
            h = _interpolate(h, k, x)
            content = _content(h)
            h = {key: c // content for key, c in h.items()}
            cff_ = _exact_div(f, h)
            if cff_ is not None and (cfg_ := _exact_div(g, h)) is not None:
                return _scale(h, common), cff_, cfg_
            cff = _interpolate(cff, k, x)
            h = _exact_div(f, cff)
            if h is not None and (cfg_ := _exact_div(g, h)) is not None:
                return _scale(h, common), cff, cfg_
            cfg = _interpolate(cfg, k, x)
            h = _exact_div(g, cfg)
            if h is not None and (cff_ := _exact_div(f, h)) is not None:
                return _scale(h, common), cff_, cfg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _scale(f: dict, c: int) -> dict:
    return {key: c * v for key, v in f.items()}


def _with(key: tuple, k: int, e: int) -> tuple:
    """`key` with the exponent of variable k set to e."""
    return key[:k] + (e,) + key[k + 1:]


def _evaluate(f: dict, k: int, x: int) -> dict:
    """f with variable k set to the integer x."""
    out: dict = {}
    for key, c in f.items():
        rest = _with(key, k, 0)
        out[rest] = out.get(rest, 0) + c * x ** key[k]
    return {key: c for key, c in out.items() if c}


def _interpolate(h: dict, k: int, x: int) -> dict:
    """The polynomial whose variable-k coefficients are the symmetric base-x digits of h's.

    It takes the value h at variable k = x, and its sign makes the
    lex-leading coefficient positive.
    """
    out, half = {}, x // 2
    for key, c in h.items():
        e = 0
        while c:
            digit = c % x
            if digit > half:
                digit -= x
            if digit:
                out[_with(key, k, e)] = digit
            c = (c - digit) // x
            e += 1
    return out if _lead(out) > 0 else _negate(out)


def _modular_gcd(f: dict, g: dict) -> dict:
    """gcd(f, g) in Z[q, u, s] with a positive lex-leading coefficient.

    Brown's modular algorithm: images over GF(p) for a run of primes,
    scaled to the gcd gamma of the inputs' leading coefficients and joined by
    Chinese remaindering until two moduli give the same symmetric image,
    whose primitive part is then checked by exact division.  An image whose
    leading monomial is larger than another prime's comes from an unlucky
    prime and is dropped.  Only finitely many primes are unlucky, so this
    always succeeds.
    """
    cf, cg = _content(f), _content(g)
    f = {key: c // cf for key, c in f.items()}
    g = {key: c // cg for key, c in g.items()}
    lead_f, lead_g = _lead(f), _lead(g)
    gamma = gcd(lead_f, lead_g)
    lm, image, modulus = None, {}, 1
    for p in _primes_below(1 << 20):
        if lead_f % p == 0 or lead_g % p == 0:
            continue
        h = _gcd_mod(f, g, p, 3)
        m = max(h)
        if lm is not None and m > lm:
            continue
        if lm is None or m < lm:
            lm, image, modulus = m, {}, 1
        before = _symmetric(image, modulus)
        image = {key: _crt(image.get(key, 0), modulus, gamma * h.get(key, 0), p)
                 for key in image.keys() | h.keys()}
        modulus *= p
        candidate = _symmetric(image, modulus)
        if candidate == before:
            content = _content(candidate) * (1 if _lead(candidate) > 0 else -1)
            candidate = {key: c // content for key, c in candidate.items()}
            if _exact_div(f, candidate) is not None and _exact_div(g, candidate) is not None:
                return _scale(candidate, gcd(cf, cg))
    raise ArithmeticError("ran out of 20-bit primes")  # pragma: no cover


def _primes_below(n: int):
    """The primes below n, descending, by trial division."""
    for m in range(n - 1, 1, -1):
        if all(m % d for d in range(2, isqrt(m) + 1)):
            yield m


def _crt(a: int, m: int, b: int, p: int) -> int:
    """The x in [0, m*p) with x = a mod m and x = b mod p."""
    return a + m * ((b - a) * pow(m, -1, p) % p)


def _symmetric(image: dict, modulus: int) -> dict:
    """The residues in (-modulus/2, modulus/2], without zeros."""
    half = modulus // 2
    out = {key: c - modulus if c > half else c for key, c in image.items()}
    return {key: c for key, c in out.items() if c}


def _gcd_mod(f: dict, g: dict, p: int, n: int) -> dict:
    """The monic gcd over GF(p) of f and g, nonzero mod p, in the first n variables.

    With v the last of them, the gcd of f's and g's contents in GF(p)[x_v]
    times the gcd of their primitive parts, which is interpolated in x_v
    from gcds at points where neither leading coefficient vanishes, each
    scaled to gamma, the gcd of those leading coefficients.  Points whose
    gcd has a larger leading monomial are unlucky and dropped, and
    deg(gamma) + min(deg_v f, deg_v g) + 1 points fix the interpolant.
    """
    v = n - 1
    fc, gc = _columns(f, v, p), _columns(g, v, p)
    if n == 1:
        return {(e, 0, 0): c for e, c in enumerate(_ugcd(fc[_UNIT], gc[_UNIT], p)) if c}
    cont_f, cont_g = _ucontent(fc.values(), p), _ucontent(gc.values(), p)
    fc = {key: _uquo(col, cont_f, p) for key, col in fc.items()}
    gc = {key: _uquo(col, cont_g, p) for key, col in gc.items()}
    lead_f, lead_g = fc[max(fc)], gc[max(gc)]
    gamma = _ugcd(lead_f, lead_g, p)
    needed = len(gamma) + min(max(map(len, fc.values())), max(map(len, gc.values()))) - 1
    lm = ceiling = None
    points, images = [], []
    a = 0
    while True:
        a += 1
        if not _ueval(lead_f, a, p) or not _ueval(lead_g, a, p):
            continue
        h = _gcd_mod(_at(fc, a, p), _at(gc, a, p), p, v)
        m = max(h)
        if ceiling is not None and m >= ceiling or lm is not None and m > lm:
            continue
        if lm is None or m < lm:
            lm, points, images = m, [], []
        scale = _ueval(gamma, a, p)
        points.append(a)
        images.append({key: c * scale % p for key, c in h.items()})
        if len(points) < needed:
            continue
        columns = {key: _uinterpolate(points, [image.get(key, 0) for image in images], p)
                   for key in set().union(*images)}
        content = _ucontent(columns.values(), p)
        candidate = {_with(key, v, e): c for key, col in columns.items()
                     for e, c in enumerate(_uquo(col, content, p)) if c}
        if _exact_div(f, candidate, p) is not None and _exact_div(g, candidate, p) is not None:
            result = _mul_terms(candidate, {_with(_UNIT, v, e): c
                                            for e, c in enumerate(_ugcd(cont_f, cont_g, p)) if c})
            inverse = pow(_lead(result), -1, p)
            result = {key: c * inverse % p for key, c in result.items()}
            return {key: c for key, c in result.items() if c}
        # every image so far was unlucky: wait for a smaller leading monomial
        ceiling, lm = lm, None


def _columns(f: dict, v: int, p: int) -> dict:
    """f over GF(p) as a map from monomials without x_v to dense coefficient lists in x_v."""
    out: dict = {}
    for key, c in f.items():
        col = out.setdefault(_with(key, v, 0), [])
        e = key[v]
        col.extend([0] * (e + 1 - len(col)))
        col[e] = c % p
    return {key: _utrim(col) for key, col in out.items() if any(col)}


def _at(columns: dict, a: int, p: int) -> dict:
    """The polynomial with these x_v columns at x_v = a, over GF(p)."""
    out = {key: _ueval(col, a, p) for key, col in columns.items()}
    return {key: c for key, c in out.items() if c}


# dense polynomials in one variable over GF(p): coefficient lists, lowest
# degree first, with a nonzero last entry; [] is zero


def _utrim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _ueval(a: list, x: int, p: int) -> int:
    value = 0
    for c in reversed(a):
        value = (value * x + c) % p
    return value


def _udivmod(a: list, b: list, p: int) -> tuple[list, list]:
    a, inverse = list(a), pow(b[-1], -1, p)
    quotient = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        shift, c = len(a) - len(b), a[-1] * inverse % p
        quotient[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % p
        _utrim(a)
    return quotient, a


def _uquo(a: list, b: list, p: int) -> list:
    return _udivmod(a, b, p)[0]


def _ugcd(a: list, b: list, p: int) -> list:
    """The monic gcd."""
    while b:
        a, b = b, _udivmod(a, b, p)[1]
    inverse = pow(a[-1], -1, p)
    return [c * inverse % p for c in a]


def _ucontent(columns, p: int) -> list:
    """The monic gcd of nonzero coefficient lists."""
    content: list = []
    for col in columns:
        content = _ugcd(content, col, p)
        if len(content) == 1:
            break
    return content


def _uinterpolate(xs: list, ys: list, p: int) -> list:
    """The polynomial of degree below len(xs) through the points (xs, ys), by Newton's divided differences."""
    n = len(xs)
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * pow(xs[i] - xs[i - j], -1, p) % p
    poly = [coef[-1]]
    for i in range(n - 2, -1, -1):
        shifted = [0] + poly
        for d, c in enumerate(poly):
            shifted[d] -= c * xs[i]
        shifted[0] += coef[i]
        poly = [c % p for c in shifted]
    return _utrim(poly)


_ZERO = Scalar({})
_ONE = Scalar(_ONE_TERMS)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _format_monomial(exps: tuple[int, int, int]) -> str:
    parts = []
    for name, e in zip(PARAMETERS, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _format_poly(terms: dict) -> str:
    if not terms:
        return "0"
    pieces = []
    for exps in sorted(terms, reverse=True):
        coeff = terms[exps]
        mono = _format_monomial(exps)
        mag = _decimal(abs(coeff))
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def _decimal(n: int) -> str:
    """n in decimal, or CoefficientTooLongError past Python's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        raise CoefficientTooLongError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits") from None


def _poly_is_simple_denominator(terms: dict) -> bool:
    # Safe to print unparenthesized after "/": a single power of one parameter
    # with coefficient 1 ("q", "u^2", ...).
    if len(terms) != 1:
        return False
    (exps, coeff), = terms.items()
    return coeff == 1 and sum(1 for e in exps if e) <= 1 and any(exps)


def format_scalar(value: Scalar) -> str:
    """Canonical textual form of a scalar; a fixed point of parse o format."""
    return _format_parts(*_parts(value._rep))


def _format_parts(numer: dict, denom: dict) -> str:
    num_str = _format_poly(numer)
    if denom == _ONE_TERMS:
        return num_str
    if len(numer) > 1:
        num_str = f"({num_str})"
    den_str = _format_poly(denom)
    if not _poly_is_simple_denominator(denom):
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"

