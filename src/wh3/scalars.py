"""Exact arithmetic in the rational-function field Q(q, u, s).

Every coefficient in the deformed-algebra catalog lives in this field: the
deformation parameters q and u are invertible, s enters polynomially, and all
arithmetic must stay exact so that equality (and in particular equality to
zero) is decidable.  Scalars are reduced fractions of polynomials in
Q[q, u, s]; the reduced/normalized representation is canonical, so two equal
scalars have identical stored form.

The heavy lifting (multivariate gcd, fraction normalization) is delegated to
sympy's sparse polynomial fields, wrapped behind a small immutable value type.
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
    "scalar",
    "scalar_parse",
    "scalar_arith",
    "scalar_substitute",
    "format_scalar",
]

PARAMETERS = ("q", "u", "s")

_FIELD, _GEN_Q, _GEN_U, _GEN_S = _sympy_field(",".join(PARAMETERS), QQ)
_GENS = {"q": _GEN_Q, "u": _GEN_U, "s": _GEN_S}


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
    if isinstance(value, int):
        return Scalar(_FIELD.ground_new(QQ(value)))
    if isinstance(value, Fraction):
        return Scalar(_FIELD.ground_new(QQ(value.numerator, value.denominator)))
    raise TypeError(f"cannot interpret {value!r} as a Scalar")


class Scalar:
    """An element of Q(q, u, s) in canonical reduced form.

    Immutable and hashable; the denominator is normalized by sympy to have a
    positive leading coefficient and no common factor with the numerator, so
    ``a == b`` iff the stored representations coincide.
    """

    __slots__ = ("_frac",)

    def __init__(self, frac):
        object.__setattr__(self, "_frac", frac)

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
            return Scalar(_GENS[name])
        except KeyError:
            raise ScalarError(f"unknown parameter {name!r}; expected one of {PARAMETERS}")

    @staticmethod
    def from_fraction(value: Union[int, Fraction]) -> "Scalar":
        return _coerce(value)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        return Scalar(self._frac + _coerce(other)._frac)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return Scalar(self._frac - _coerce(other)._frac)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar(_coerce(other)._frac - self._frac)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        return Scalar(self._frac * _coerce(other)._frac)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        divisor = _coerce(other)
        if divisor.is_zero:
            raise ScalarDivisionError("division by zero scalar")
        return Scalar(self._frac / divisor._frac)

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        if self.is_zero:
            raise ScalarDivisionError("division by zero scalar")
        return Scalar(_coerce(other)._frac / self._frac)

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            raise TypeError("scalar exponents must be integers")
        if exponent < 0 and self.is_zero:
            raise ScalarDivisionError("zero scalar has no inverse")
        return Scalar(self._frac ** exponent)

    def __neg__(self) -> "Scalar":
        return Scalar(-self._frac)

    def inverse(self) -> "Scalar":
        return _ONE / self

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._frac == other._frac

    def __hash__(self) -> int:
        return hash(self._frac)

    def __bool__(self) -> bool:
        return bool(self._frac)

    @property
    def is_zero(self) -> bool:
        return not self._frac

    @property
    def is_one(self) -> bool:
        return self._frac == _FIELD.one

    # -- structure access --------------------------------------------------

    def numer_terms(self) -> dict[tuple[int, int, int], Fraction]:
        """Numerator as a map exponent-triple -> rational coefficient."""
        return _poly_terms(self._frac.numer)

    def denom_terms(self) -> dict[tuple[int, int, int], Fraction]:
        """Denominator as a map exponent-triple -> rational coefficient."""
        return _poly_terms(self._frac.denom)

    def as_fraction(self) -> Fraction:
        """The value as a rational number, if it is parameter-free."""
        num = self.numer_terms()
        den = self.denom_terms()
        if set(num) - {(0, 0, 0)} or set(den) - {(0, 0, 0)}:
            raise ScalarError(f"{self} is not a constant")
        return num.get((0, 0, 0), Fraction(0)) / den[(0, 0, 0)]

    def leading_sign(self) -> int:
        """Sign of the numerator's leading coefficient (0 for the zero scalar)."""
        if self.is_zero:
            return 0
        lead = self._frac.numer.LC
        return 1 if lead > 0 else -1

    # -- substitution and evaluation ---------------------------------------

    def substitute(self, bindings: Mapping[str, ScalarLike]) -> "Scalar":
        """Exact image under q,u,s |-> bindings; unbound parameters stay symbolic.

        Raises ScalarSubstitutionError when the denominator vanishes.
        """
        for name in bindings:
            if name not in _GENS:
                raise ScalarError(f"unknown parameter {name!r} in substitution")
        values = {
            name: _coerce(bindings[name]) if name in bindings else Scalar(gen)
            for name, gen in _GENS.items()
        }
        num = _eval_poly(self._frac.numer, values)
        den = _eval_poly(self._frac.denom, values)
        if den.is_zero:
            raise ScalarSubstitutionError(
                f"substitution sends denominator to zero in {self}",
                offending_factor=_format_poly(self._frac.denom),
            )
        return num / den

    def eval_mod(self, prime: int, point: tuple[int, int, int]) -> int:
        """Evaluate at (q, u, s) = point over GF(prime).

        Raises ScalarModularError if the denominator vanishes at the point.
        """
        den = _eval_poly_mod(self._frac.denom, prime, point)
        if den == 0:
            raise ScalarModularError(f"denominator of {self} vanishes at {point} mod {prime}")
        num = _eval_poly_mod(self._frac.numer, prime, point)
        return (num * pow(den, -1, prime)) % prime

    # -- formatting --------------------------------------------------------

    def format(self) -> str:
        """Canonical string; parsing it back yields the identical Scalar."""
        return format_scalar(self)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"


def _poly_terms(poly) -> dict[tuple[int, int, int], Fraction]:
    out: dict[tuple[int, int, int], Fraction] = {}
    for exps, coeff in poly.terms():
        out[tuple(exps)] = Fraction(int(QQ.numer(coeff)), int(QQ.denom(coeff)))
    return out


def _eval_poly(poly, values: Mapping[str, Scalar]) -> Scalar:
    vq, vu, vs = values["q"], values["u"], values["s"]
    total = _ZERO
    for (eq, eu, es), coeff in poly.terms():
        term = Scalar.from_fraction(Fraction(int(QQ.numer(coeff)), int(QQ.denom(coeff))))
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


_ZERO = Scalar(_FIELD.zero)
_ONE = Scalar(_FIELD.one)


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
    frac = value._frac
    num_str = _format_poly(frac.numer)
    if frac.denom == _FIELD.one.numer:
        return num_str
    if len(value.numer_terms()) > 1:
        num_str = f"({num_str})"
    den_str = _format_poly(frac.denom)
    if not _poly_is_simple_denominator(frac.denom):
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"


# ---------------------------------------------------------------------------
# module-level operation surface
# ---------------------------------------------------------------------------


def scalar(value: ScalarLike) -> Scalar:
    """Coerce an int or Fraction to a Scalar."""
    return _coerce(value)


def scalar_parse(text: str) -> Scalar:
    """Parse a scalar expression (rationals, q, u, s, + - * / ^, parens)."""
    from . import exprs  # late import: exprs builds on this module

    return exprs.parse_scalar(text)


def scalar_arith(a: Scalar, b: Scalar, op: str) -> Scalar:
    """Field arithmetic dispatched by name: add, sub, mul or div."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ScalarError(f"unknown operation {op!r}")


def scalar_substitute(a: Scalar, bindings: Mapping[str, ScalarLike]) -> Scalar:
    """Evaluation homomorphism on parameters; see Scalar.substitute."""
    return a.substitute(bindings)
