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
reduced fraction in sympy's sparse polynomial field.  Arithmetic with such a
value, and division by a non-monomial, go through sympy and demote the result
back to the Laurent form whenever its denominator is one term.  That
invariant makes the stored form canonical: two equal scalars have identical
stored forms.  Powers are products, and substitution, GF(p) evaluation,
printing and the numerator/denominator views read the integral numerator and
denominator term dicts of the reduced fraction (`_parts`), so none of them
builds a sympy fraction of a Laurent value.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Union

from sympy.polys.domains import QQ
from sympy.polys.fields import field as _sympy_field

__all__ = [
    "PARAMETERS",
    "Scalar",
    "ScalarError",
    "ScalarDivisionError",
    "ScalarSubstitutionError",
    "ScalarModularError",
    "format_scalar",
]

PARAMETERS = ("q", "u", "s")

_FIELD = _sympy_field(",".join(PARAMETERS), QQ)[0]
_RING = _FIELD.ring
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
    (the empty dict is zero), and otherwise a sympy fraction whose
    denominator has two or more terms; sympy keeps that fraction reduced with
    a normalized denominator.  Immutable and hashable, and ``a == b`` iff the
    stored representations coincide.  Build values through the constructors
    and arithmetic below, never from a raw representation.  Term dicts are
    shared between Scalars (``x * 1`` returns ``x``), so none is ever mutated.
    Only arithmetic with a non-Laurent value or divisor touches sympy.
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
        return _from_frac(_to_frac(a) + _to_frac(b))

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
        return _from_frac(_to_frac(a) * _to_frac(b))

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
            return Scalar({k: -c for k, c in rep.items()})
        return Scalar(-rep)

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
        return hash(rep)

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
# Laurent term dicts and the sympy fallback
# ---------------------------------------------------------------------------


def _canon(coeff: Fraction) -> Union[int, Fraction]:
    return coeff.numerator if coeff.denominator == 1 else coeff


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
    return _from_frac(_to_frac(a) - _to_frac(b))


def _div(x: Scalar, y: Scalar) -> Scalar:
    a, b = x._rep, y._rep
    if not b:
        raise ScalarDivisionError("division by zero scalar")
    if type(a) is dict and type(b) is dict and len(b) == 1:
        ((f0, f1, f2), d), = b.items()
        return Scalar(_mul_terms(a, {(-f0, -f1, -f2): _canon(1 / Fraction(d))}))
    return _from_frac(_to_frac(a) / _to_frac(b))


def _parts(rep) -> tuple[dict, dict]:
    """Numerator and denominator of a value as integer-coefficient term dicts.

    They are the terms of sympy's reduced fraction of the value.  A Laurent
    dict shifts each parameter's exponents up by their minimum when it is
    negative and scales both sides by the lcm L of its coefficient
    denominators, giving the denominator L times a monomial: that is how
    sympy's cancel over QQ clears denominators, and a coefficient-1 monomial
    shares no content with the numerator.  The numerator may be the stored
    dict itself, so never mutate it.
    """
    if type(rep) is not dict:
        return _poly_terms(rep.numer), _poly_terms(rep.denom)
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


def _to_frac(rep):
    """The sympy fraction of a representation."""
    if type(rep) is not dict:
        return rep
    numer, denom = _parts(rep)
    return _FIELD.raw_new(_RING.from_dict(numer), _RING.from_dict(denom))


def _from_frac(frac) -> Scalar:
    """Wrap a sympy result, demoting it to a term dict if its denominator is one term."""
    if len(frac.denom) != 1:
        return Scalar(frac)
    ((d0, d1, d2), dc), = frac.denom.items()
    scale = _fraction(dc)
    return Scalar({
        (eq - d0, eu - d1, es - d2): _canon(_fraction(c) / scale)
        for (eq, eu, es), c in frac.numer.items()
    })


def _fraction(coeff) -> Fraction:
    return Fraction(int(QQ.numer(coeff)), int(QQ.denom(coeff)))


def _poly_terms(poly) -> dict[tuple[int, int, int], int]:
    # a reduced sympy fraction over QQ has integer coefficients
    return {tuple(exps): _canon(_fraction(coeff)) for exps, coeff in poly.terms()}


def _eval_terms(terms: dict, values) -> Scalar:
    """The polynomial `terms` at (q, u, s) = values, by Scalar arithmetic."""
    vq, vu, vs = values
    total = _ZERO
    for (eq, eu, es), coeff in terms.items():
        total = total + coeff * vq**eq * vu**eu * vs**es
    return total


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
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


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

