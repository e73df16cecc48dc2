"""One sparse Gaussian elimination, over Q(q, u, s) or over a prime field.

Every sparse sum of terms over Q(q, u, s) in the package goes through
`add_into(out, terms, coeff)`: the exact elimination below, the products,
normal forms, derivations and algebra maps of `ncalg`, and the matrix
products and generated families of `catalog`.  It adds coeff * terms
into out and deletes what cancels, so no stored coefficient is ever zero.

Vectors are dicts from columns to Scalar or integer coefficients.  Columns
compare by their natural order (tuples) and the pivot of a row is its
largest column; a word of an algebra enters as its `ncalg.Alphabet.word_key`
(weight, word), which sorts in the algebra's word order, so no key function
runs inside the elimination.  An echelon accumulates rows
incrementally, and it has one reduction: `reduce(vec)` clears every pivot
column and keeps the rest, so it returns the unique vector congruent to vec
modulo the span that lies on non-pivot columns.  That canonical remainder
is empty iff vec is in the span and does not depend on the order the rows
were inserted in.  `insert` stores the remainder, so every stored row is
free of the pivots before it, and `interreduce` clears the later ones too.
Rows inserted in ascending order of their lead column keep the fill-in of
a large sparse elimination low.  The field is a fact of the class:
`ScalarEchelon` is exact over Q(q, u, s), `ModEchelon(prime)` works over
GF(p); both run the same `reduce`, `insert` and `interreduce`.

`solve_linear` and the exact inverse of a sparse matrix
(`catalog.CMatrix.inverse`) are built on that echelon: augmented columns
ranked below the unknowns are reduced along with them, and the answer is
read off the reduced rows.

The modular route evaluates exact coefficients at a random point of
GF(p)^3 (with q, u, s nonzero so the invertible parameters stay invertible).
A vanishing denominator at the chosen point triggers a bounded resample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from .scalars import Scalar, ScalarModularError

__all__ = [
    "add_into",
    "ScalarEchelon",
    "ModEchelon",
    "ModularPoint",
    "eval_vec_mod",
    "with_modular_retries",
    "solve_linear",
    "DEFAULT_PRIME",
    "DEFAULT_SEED",
]

DEFAULT_PRIME = 2147483647  # largest signed-32-bit prime
DEFAULT_SEED = 12345
MODULAR_RETRIES = 8


def add_into(out: dict, terms: Mapping, coeff=None) -> dict:
    """Add coeff * terms into out, dropping entries that cancel; returns out.

    Coefficients are Scalars and coeff None means 1; a coeff that is one
    multiplies nothing either.  terms is only read: Element term dicts and
    cached normal forms are shared.
    """
    if coeff is not None and coeff.is_one:
        coeff = None
    get, pop = out.get, out.pop
    for key, c in terms.items():
        if coeff is not None:
            c = c * coeff
        acc = get(key)
        if acc is not None:
            c = acc + c
        if c.is_zero:
            pop(key, None)
        else:
            out[key] = c
    return out


class ScalarEchelon:
    """Row-echelon span basis keyed by pivot column, exact over Q(q, u, s).

    Rows are monic: `rows[lead]` holds the entries below the pivot, whose
    coefficient is an implicit 1.  `prime` is None here; ModEchelon sets it
    and the same loops then work on integers modulo the prime.
    """

    prime: int | None = None

    def __init__(self):
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """The canonical remainder of vec: empty iff vec is in the span.

        Every pivot column is cleared, so the remainder is the one vector
        congruent to vec modulo the span whose columns are all non-pivot
        columns, whatever order the rows were inserted in.
        """
        p, rows = self.prime, self.rows
        if p is None:
            vec = {w: c for w, c in vec.items() if not c.is_zero}
        else:
            vec = {w: c % p for w, c in vec.items() if c % p}
        # a row holds only columns below its pivot, so a kept column is final
        kept: dict = {}
        while vec:
            lead = max(vec)
            factor = vec.pop(lead)
            row = rows.get(lead)
            if row is None:
                kept[lead] = factor
            elif p is None:
                add_into(vec, row, -factor)
            else:
                for w, c in row.items():
                    new = (vec.get(w, 0) - factor * c) % p
                    if new:
                        vec[w] = new
                    else:
                        vec.pop(w, None)
        return kept

    def insert(self, vec: dict):
        """Store the remainder of vec monic if it is nonzero; returns its pivot or None."""
        residual = self.reduce(vec)
        if not residual:
            return None
        lead = max(residual)
        pivot = residual.pop(lead)
        p = self.prime
        if p is None:
            if not pivot.is_one:  # a monic remainder is stored as it is
                inv = pivot.inverse()
                residual = {w: c * inv for w, c in residual.items()}
            self.rows[lead] = residual
        else:
            inv = pow(pivot, -1, p)
            self.rows[lead] = {w: c * inv % p for w, c in residual.items()}
        return lead

    def interreduce(self):
        """Clear the later pivots from every stored row: the reduced echelon, order-free."""
        for lead in sorted(self.rows):
            self.rows[lead] = self.reduce(self.rows[lead])


class ModEchelon(ScalarEchelon):
    """The same echelon over GF(prime), on integer coefficients."""

    # perfbench/tracer.py wraps insert/reduce through each class's own __dict__
    insert = ScalarEchelon.insert
    reduce = ScalarEchelon.reduce

    def __init__(self, prime: int):
        super().__init__()
        self.prime = prime


@dataclass(frozen=True)
class ModularPoint:
    """A reproducible evaluation point for modular verification."""

    prime: int
    seed: int
    attempt: int
    values: tuple[int, int, int]

    @staticmethod
    def generate(prime: int = DEFAULT_PRIME, seed: int = DEFAULT_SEED, attempt: int = 0) -> "ModularPoint":
        rng = random.Random((seed << 16) ^ (attempt * 0x9E3779B9))
        # q, u, s nonzero keeps denominators built from parameter powers alive
        values = tuple(rng.randrange(2, prime - 1) for _ in range(3))
        return ModularPoint(prime, seed, attempt, values)


def eval_vec_mod(vec: dict, point: ModularPoint) -> dict:
    """Evaluate an exact vector entrywise; raises ScalarModularError on bad points."""
    out: dict = {}
    for w, c in vec.items():
        v = c.eval_mod(point.prime, point.values)
        if v:
            out[w] = v
    return out


def with_modular_retries(func, prime: int = DEFAULT_PRIME, seed: int = DEFAULT_SEED,
                         first_attempt: int = 0):
    """Run func(point) resampling the point when a denominator vanishes.

    Points are the attempts first_attempt, first_attempt + 1, ... of the seed,
    so a second run from the attempt after a used point is independent of it.
    """
    last_error = None
    for attempt in range(first_attempt, first_attempt + MODULAR_RETRIES):
        point = ModularPoint.generate(prime, seed, attempt)
        try:
            return point, func(point)
        except ScalarModularError as err:
            last_error = err
    raise ScalarModularError(
        f"no usable modular point after {MODULAR_RETRIES} attempts: {last_error}"
    )


def solve_linear(rows):
    """Solve a sparse exact linear system given as (coefficients, rhs) pairs.

    Each row is a dict unknown-key -> Scalar plus a Scalar right-hand side.
    Unknown keys must be nonempty, totally ordered tuples.  Returns a dict
    assigning every pivot unknown (free unknowns are zero), or None if the
    system is inconsistent.
    """
    # the right-hand side sits in column (), the lowest tuple: a pivot there
    # is a row 0 = b != 0, and otherwise the reduced rows read x = -row[()]
    ech = ScalarEchelon()
    for cols, b in rows:
        if ech.insert({**cols, (): -b}) == ():
            return None
    ech.interreduce()
    zero = Scalar.zero()
    return {lead: -row.get((), zero) for lead, row in ech.rows.items()}
