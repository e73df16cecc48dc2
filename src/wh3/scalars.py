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
reduced fraction in sympy's sparse polynomial field.  Operations involving
such a value, division by a non-monomial, powers, substitution, and the
numerator/denominator views used for printing go through sympy and demote
the result back to the Laurent form whenever its denominator is one term.
That invariant makes the stored form canonical: two equal scalars have
identical stored forms.
"""

from __future__ import annotations

from fractions import Fraction
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
        if exponent < 0 and self.is_zero:
            raise ScalarDivisionError("zero scalar has no inverse")
        return _from_frac(_to_frac(self._rep) ** exponent)

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

    def numer_terms(self) -> dict[tuple[int, int, int], Fraction]:
        """Numerator as a map exponent-triple -> rational coefficient."""
        return _poly_terms(_to_frac(self._rep).numer)

    def denom_terms(self) -> dict[tuple[int, int, int], Fraction]:
        """Denominator as a map exponent-triple -> rational coefficient."""
        return _poly_terms(_to_frac(self._rep).denom)

    def leading_sign(self) -> int:
        """Sign of the numerator's leading coefficient (0 for the zero scalar)."""
        if self.is_zero:
            return 0
        rep = self._rep
        # clearing a monomial denominator shifts every exponent alike, which
        # keeps the lex-greatest term of the numerator
        lead = rep[max(rep)] if type(rep) is dict else rep.numer.LC
        return 1 if lead > 0 else -1

    # -- substitution and evaluation ---------------------------------------

    def substitute(self, bindings: Mapping[str, ScalarLike]) -> "Scalar":
        """Exact image under q,u,s |-> bindings; unbound parameters stay symbolic.

        Raises ScalarSubstitutionError when the denominator vanishes.
        """
        for name in bindings:
            if name not in _PARAM_TERMS:
                raise ScalarError(f"unknown parameter {name!r} in substitution")
        values = {
            name: _coerce(bindings[name]) if name in bindings else Scalar.param(name)
            for name in PARAMETERS
        }
        frac = _to_frac(self._rep)
        num = _eval_poly(frac.numer, values)
        den = _eval_poly(frac.denom, values)
        if den.is_zero:
            raise ScalarSubstitutionError(
                f"substitution sends denominator to zero in {self}",
                offending_factor=_format_poly(frac.denom),
            )
        return num / den

    def eval_mod(self, prime: int, point: tuple[int, int, int]) -> int:
        """Evaluate at (q, u, s) = point over GF(prime).

        Raises ScalarModularError if the denominator vanishes at the point.
        """
        rep = self._rep
        if type(rep) is not dict:
            den = _eval_poly_mod(rep.denom, prime, point)
            if den == 0:
                raise ScalarModularError(f"denominator of {self} vanishes at {point} mod {prime}")
            return _eval_poly_mod(rep.numer, prime, point) * pow(den, -1, prime) % prime
        vq, vu, vs = point
        total = 0
        try:
            for (eq, eu, es), coeff in rep.items():
                if type(coeff) is int:
                    val = coeff
                else:
                    # raises ValueError when the coefficient's denominator is 0 mod prime
                    val = coeff.numerator * pow(coeff.denominator, -1, prime)
                # a negative exponent of a parameter that is 0 mod prime raises ValueError
                if eq:
                    val = val * pow(vq, eq, prime) % prime
                if eu:
                    val = val * pow(vu, eu, prime) % prime
                if es:
                    val = val * pow(vs, es, prime) % prime
                total += val
        except ValueError:
            raise ScalarModularError(f"denominator of {self} vanishes at {point} mod {prime}") from None
        return total % prime

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


def _to_frac(rep):
    """The sympy fraction of a representation."""
    if type(rep) is not dict:
        return rep
    if not rep:
        return _FIELD.zero
    shift = [min(0, min(exps[i] for exps in rep)) for i in range(3)]
    numer = _RING.from_dict({
        (eq - shift[0], eu - shift[1], es - shift[2]): QQ(c.numerator, c.denominator)
        for (eq, eu, es), c in rep.items()
    })
    denom = _RING.from_dict({(-shift[0], -shift[1], -shift[2]): QQ.one})
    return _FIELD.new(numer, denom)


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


def _poly_terms(poly) -> dict[tuple[int, int, int], Fraction]:
    return {tuple(exps): _fraction(coeff) for exps, coeff in poly.terms()}


def _eval_poly(poly, values: Mapping[str, Scalar]) -> Scalar:
    vq, vu, vs = values["q"], values["u"], values["s"]
    total = _ZERO
    for (eq, eu, es), coeff in poly.terms():
        term = Scalar.from_fraction(_fraction(coeff))
        if eq:
            term = term * vq**eq
        if eu:
            term = term * vu**eu
        if es:
            term = term * vs**es
        total = total + term
    return total


def _eval_poly_mod(poly, prime: int, point: tuple[int, int, int]) -> int:
    vq, vu, vs = point
    total = 0
    for (eq, eu, es), coeff in poly.terms():
        num = int(QQ.numer(coeff)) % prime
        den = int(QQ.denom(coeff)) % prime
        if den == 0:
            raise ScalarModularError("rational coefficient denominator divisible by prime")
        val = num * pow(den, -1, prime)
        if eq:
            val = val * pow(vq, eq, prime) % prime
        if eu:
            val = val * pow(vu, eu, prime) % prime
        if es:
            val = val * pow(vs, es, prime) % prime
        total = (total + val) % prime
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


def _format_poly(poly) -> str:
    terms = _poly_terms(poly)
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


def _poly_is_simple_denominator(poly) -> bool:
    # Safe to print unparenthesized after "/": a single power of one parameter
    # with coefficient 1 ("q", "u^2", ...).
    terms = _poly_terms(poly)
    if len(terms) != 1:
        return False
    (exps, coeff), = terms.items()
    return coeff == 1 and sum(1 for e in exps if e) <= 1 and any(exps)


def format_scalar(value: Scalar) -> str:
    """Canonical textual form of a scalar; a fixed point of parse o format."""
    return _format_frac(_to_frac(value._rep))


def _format_frac(frac) -> str:
    num_str = _format_poly(frac.numer)
    if frac.denom == _FIELD.one.numer:
        return num_str
    if len(frac.numer) > 1:
        num_str = f"({num_str})"
    den_str = _format_poly(frac.denom)
    if not _poly_is_simple_denominator(frac.denom):
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"

