"""Typed transcription of the deformation's matrices and relation families.

This module is the single source for every constant the verifier consumes:
the braiding matrix and its inverse, the variable / one-form / derivative
relation families, the two differential-calculus families for each braiding
variant, the quantum-matrix straightening table, the quantum determinant and
cofactor matrix, the determinant-inverse commutation table, and the star and
counit data.

One table maps each family id to its verbatim table and alphabet; one list,
`calculus_family_ids`, names the families of a calculus; and one lookup,
`named_presentation`, resolves every algebra name the command line accepts.

The transcription layer stores the source tables verbatim.  A separate,
machine-certified errata list patches the handful of typographical slips in
them; every deviation is recorded there (verbatim form, corrected form and
the oracle that certifies the correction) and nowhere else.  Builders accept
``errata=False`` to work against the uncorrected text, which is how the
``--errata off`` verification mode reproduces exactly which rows are flawed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from . import exprs
from .linalg import ScalarEchelon, add_into
from .ncalg import EMPTY_ALPHABET, Alphabet, Element, PresentationSpec, algebra_map
from .scalars import Scalar, ScalarError

__all__ = [
    "PAIRS",
    "CMatrix",
    "SingularMatrixError",
    "omega",
    "omega_inverse",
    "FAMILY_IDS",
    "CALCULUS_VARIANTS",
    "calculus_family_ids",
    "ALGEBRA_IDS",
    "named_presentation",
    "ErrataEntry",
    "ERRATA",
    "family",
    "generate_from_C",
    "rtt_generate",
    "quantum_determinant",
    "cofactor_matrix",
    "dinv_factor",
    "x_alphabet",
    "calculus_alphabet",
    "t_alphabet",
    "qg_alphabet",
    "x_presentation",
    "quantum_plane_presentation",
    "calculus_presentation",
    "tt_presentation",
    "qg_presentation",
    "star_generator_map",
    "star_apply",
    "counit_value",
]

# ---------------------------------------------------------------------------
# index conventions
# ---------------------------------------------------------------------------

PAIRS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))


class SingularMatrixError(ScalarError):
    """A matrix to be inverted is singular over Q(q, u, s)."""


class CMatrix:
    """A sparse square matrix over Q(q, u, s), indexed by tuples.

    `rows` maps every row index to {column index: nonzero Scalar}; a row
    with no entries is kept, so the row indices are the matrix's indices.
    The braiding is indexed by ordered pairs of {1, 2, 3}: row (k, l)
    against column (m, n) is read off the braiding convention
    x^k xi^l = C^{kl}_{mn} xi^m x^n, which fixes all transposition
    ambiguity.  The legs of the braid equation are indexed by triples.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: dict):
        self.rows = rows

    @staticmethod
    def from_table(table: dict) -> "CMatrix":
        rows: dict = {pair: {} for pair in PAIRS}
        for (row, col), text in table.items():
            add_into(rows[row], {col: exprs.parse_scalar(text)})
        return CMatrix(rows)

    @staticmethod
    def identity() -> "CMatrix":
        one = Scalar.one()
        return CMatrix({pair: {pair: one} for pair in PAIRS})

    def entry(self, row, col) -> Scalar:
        return self.rows.get(row, {}).get(col, Scalar.zero())

    def row(self, row) -> dict:
        """The nonzero entries of one row, keyed by column; shared, so only read it."""
        return self.rows.get(row, {})

    def with_entry(self, row, col, value: Scalar) -> "CMatrix":
        entries = {c: v for c, v in self.rows.get(row, {}).items() if c != col}
        return CMatrix({**self.rows, row: add_into(entries, {col: value})})

    def map_entries(self, fn) -> "CMatrix":
        """fn applied to every nonzero entry; entries it sends to zero are dropped."""
        return CMatrix({r: add_into({}, {c: fn(v) for c, v in row.items()})
                        for r, row in self.rows.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, CMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        out: dict = {}
        for r, row in self.rows.items():
            acc = out[r] = {}
            for k, c in row.items():
                add_into(acc, other.row(k), c)
        return CMatrix(out)

    def transpose(self) -> "CMatrix":
        out: dict = {r: {} for r in self.rows}
        for r, col, value in self.nonzero_cells():
            out.setdefault(col, {})[r] = value
        return CMatrix(out)

    def inverse(self) -> "CMatrix":
        """Exact inverse: reduce [M | I] to [I | M^-1]; raises if singular."""
        # column (1, j) is column j of M, (0, k) column k of I, ranked below M
        ech = ScalarEchelon()
        one = Scalar.one()
        for i, row in sorted(self.rows.items()):
            vec = {(1, j): c for j, c in row.items()}
            vec[(0, i)] = one
            ech.insert(vec)
        if any(lead[0] == 0 for lead in ech.rows):
            raise SingularMatrixError("matrix is singular over Q(q, u, s)")
        ech.interreduce()
        return CMatrix({j: {k: c for (_, k), c in row.items()}
                        for (_, j), row in sorted(ech.rows.items())})

    def substitute(self, bindings) -> "CMatrix":
        return self.map_entries(lambda c: c.substitute(bindings))

    def nonzero_cells(self):
        for r, row in sorted(self.rows.items()):
            for col, value in sorted(row.items()):
                yield r, col, value


_OMEGA_TABLE = {
    ((1, 1), (1, 1)): "q/u^2",
    ((1, 2), (2, 1)): "q^2/u^2",
    ((1, 2), (3, 3)): "q*s/u^2",
    ((1, 3), (3, 1)): "q/u",
    ((2, 1), (1, 2)): "1/q",
    ((2, 1), (2, 1)): "q/u^2 - 1",
    ((2, 1), (3, 3)): "-s/q",
    ((2, 2), (2, 2)): "q/u^2",
    ((2, 3), (2, 3)): "q/u^2 - 1",
    ((2, 3), (3, 2)): "1/u",
    ((3, 1), (1, 3)): "1/u",
    ((3, 1), (3, 1)): "q/u^2 - 1",
    ((3, 2), (2, 3)): "q/u",
    ((3, 3), (3, 3)): "q/u^2",
}


@lru_cache(maxsize=None)
def omega() -> CMatrix:
    """The braiding matrix, transcribed verbatim."""
    return CMatrix.from_table(_OMEGA_TABLE)


@lru_cache(maxsize=None)
def omega_inverse() -> CMatrix:
    """Exact inverse of the braiding matrix, computed by elimination."""
    return omega().inverse()


# ---------------------------------------------------------------------------
# alphabets
# ---------------------------------------------------------------------------
#
# The order weights (third-index generators light, derivative weights
# reversed) make every transcribed table a strictly decreasing straightening
# system for the stated generator rankings; normal words are then exactly the
# sorted monomials.

_X_SPECS = [("x1", 0, 2), ("x2", 0, 2), ("x3", 0, 1)]
_XI_SPECS = [("xi1", 1, 2), ("xi2", 1, 2), ("xi3", 1, 1)]
_D_SPECS = [("d1", 0, 1), ("d2", 0, 1), ("d3", 0, 2)]
_T_SPECS = [
    ("t11", 0, 2), ("t12", 0, 2), ("t13", 0, 2),
    ("t22", 0, 2), ("t21", 0, 2), ("t23", 0, 2),
    ("t33", 0, 1), ("t31", 0, 1), ("t32", 0, 1),
]


@lru_cache(maxsize=None)
def x_alphabet() -> Alphabet:
    return Alphabet.build(_X_SPECS)


@lru_cache(maxsize=None)
def xi_alphabet() -> Alphabet:
    return Alphabet.build(_XI_SPECS)


@lru_cache(maxsize=None)
def d_alphabet() -> Alphabet:
    return Alphabet.build(_D_SPECS)


@lru_cache(maxsize=None)
def calculus_alphabet() -> Alphabet:
    return Alphabet.build(_XI_SPECS + _X_SPECS + _D_SPECS)


@lru_cache(maxsize=None)
def t_alphabet() -> Alphabet:
    return Alphabet.build(_T_SPECS)


@lru_cache(maxsize=None)
def qg_alphabet() -> Alphabet:
    return Alphabet.build([("Dinv", 0, 1)] + _T_SPECS)


# ---------------------------------------------------------------------------
# verbatim relation tables
# ---------------------------------------------------------------------------

_XX_TABLE = (
    "x1*x2 - q*x2*x1 - s*x3^2",
    "x1*x3 - u*x3*x1",
    "x2*x3 - u^-1*x3*x2",
)

_XIXI_TABLE = (
    "xi1^2",
    "xi2^2",
    "xi3^2",
    "xi2*xi1 + (u^2/q^2)*xi1*xi2",
    "xi1*xi3 + (q/u)*xi3*xi1",
    "xi2*xi3 + (u/q)*xi3*xi2",
)

_DD_TABLE = (
    "d1*d2 - (u^2/q^2)*d2*d1",
    "d1*d3 - (u/q)*d3*d1",
    "d2*d3 - (q/u)*d3*d2",
)

_XXI_OMEGA_TABLE = (
    "x1*xi1 - (q/u^2)*xi1*x1",
    "x2*xi2 - (q/u^2)*xi2*x2",
    "x3*xi3 - (q/u^2)*xi3*x3",
    "x1*xi3 - (q/u)*xi3*x1",
    "x1*xi2 - (q^2/u^2)*xi2*x1 - (q*s/u^2)*xi3*x3",
    "x3*xi2 - (q/u)*xi2*x3",
    "x2*xi3 - (q/u^2 - 1)*xi2*x3 - (1/u)*xi3*x2",
    "x3*xi1 - (q/u^2 - 1)*xi3*x1 - (1/u)*xi1*x3",
    "x2*xi1 - (1/q)*xi1*x2 - (q/u^2 - 1)*xi2*x1 + (s/q)*xi3*x3",
)

_XXI_OMEGA_INV_TABLE = (
    "x1*xi1 - (u^2/q)*xi1*x1",
    "x2*xi2 - (u^2/q)*xi2*x2",
    "x3*xi3 - (u^2/q)*xi3*x3",
    "x1*xi3 - (u^2/q - 1)*xi1*x3 - u*xi3*x1",
    "x3*xi1 - (u/q)*xi1*x3",
    "x2*xi1 - (u^2/q^2)*xi1*x2 + (s*u^2/q^2)*xi3*x3",
    "x2*xi3 - (u/q)*xi3*x2",
    "x3*xi2 - (u^2/q - 1)*xi3*x2 - u*xi2*x3",
    "x1*xi2 - (u^2/q - 1)*xi1*x2 - q*xi2*x1 - s*xi3*x3",
)

_DXI_OMEGA_TABLE = (
    "d3*xi3 - (u^2/q - 1)*xi2*d2 - (u^2/q)*xi3*d2",
    "d1*xi2 - (u^2/q^2)*xi2*d1",
    "d1*xi3 - (u/q)*xi3*d1",
    "d2*xi1 - q*xi1*d2",
    "d3*xi2 - (u/q)*xi2*d3 + (s*u^2/q^2)*xi3*d1",
    "d2*xi3 - u*xi3*d2",
    "d3*xi1 - u*xi1*d3 - s*xi3*d2",
    "d2*xi2 - (u^2/q)*xi2*d2",
    "d1*xi1 - (u^2/q)*xi1*d1 - (u^2/q - 1)*xi3*d3 - (u^2/q - 1)*xi2*d2",
)

_DXI_OMEGA_INV_TABLE = (
    "d1*xi1 - (q/u^2)*xi1*d1",
    "d3*xi2 - (1/u)*xi2*d3 + (s/q)*xi3*d1",
    "d1*xi3 - (1/u)*xi3*d1",
    "d2*xi1 - (q^2/u^2)*xi1*d2",
    "d2*xi3 - (q/u)*xi3*d2",
    "d3*xi1 - (q/u)*xi1*d3 - (s*q/u^2)*xi3*d2",
    "d1*xi2 - (1/q)*xi2*d1",
    "d3*xi3 - (q/u^2 - 1)*xi1*d1 - (q/u^2)*xi3*d3",
    "d2*xi2 - (q/u^2 - 1)*xi1*d1 - (q/u^2 - 1)*xi3*d3 - (q/u^2)*xi2*d2",
)

_XD_OMEGA_TABLE = (
    "d1*x1 - 1 - (q/u^2)*x1*d1",
    "d2*x3 - (q/u)*x3*d2",
    "d3*x3 - 1 - (q/u^2)*x3*d3 - (q/u^2 - 1)*x1*d1",
    "d1*x2 - (1/q)*x2*d1",
    "d3*x1 - (q/u)*x1*d3 - (q*s/u^2)*x3*d2",
    "d2*x1 - (q^2/u^2)*x1*d2",
    "d3*x2 - (1/u)*x2*d3 + (s/q)*x3*d1",
    "d1*x3 - (1/u)*x3*d1",
    "d2*x2 - 1 - (q/u^2)*x2*d2 - (q/u^2 - 1)*x1*d1 - (q/u^2 - 1)*x3*d3",
)

_XD_OMEGA_INV_TABLE = (
    "d2*x2 - 1 - (u^2/q)*x2*d2",
    "d1*x3 - (u/q)*x3*d1",
    "d3*x3 - 1 - (u^2/q)*x3*d3 - (u^2/q - 1)*x2*d2",
    "d2*x1 - q*x1*d2",
    "d3*x2 - (u/q)*x2*d3 + (s*u^2/q)*x3*d1",
    "d1*x2 - (u^2/q^2)*x2*d1",
    "d3*x1 - u*x1*d3 - s*x3*d2",
    "d2*x3 - u*x3*d2",
    "d1*x1 - 1 - (u^2/q)*x1*d1 - (u^2/q - 1)*x2*d2 - (u^2/q - 1)*x3*d3",
)

# Quantum-matrix straightening table; 36 rows, one per misordered generator
# pair, transcribed in source reading order (left column, then right column,
# line by line).
_TT_TABLE = (
    "t12*t11 - (q^2/u^2)*t11*t12",
    "t22*t11 - t11*t22 + ((u^2 - q)/q^2)*t12*t21 + (q*s/u^2)*t31*t32",
    "t13*t12 - (u/q)*t12*t13",
    "t21*t11 - (1/q)*t11*t21 + (s/q)*t31^2",
    "t13*t11 - (q/u)*t11*t13",
    "t23*t11 - (u/q)*t11*t23 + ((u^2 - q)/q^2)*t13*t21 + (s/q)*t33*t31",
    "t32*t22 - u*t22*t32",
    "t33*t11 - t11*t33 + ((u^2 - q)/(u*q))*t13*t31",
    "t31*t11 - (1/u)*t11*t31",
    "t32*t11 - (q/u)*t11*t32 + ((u^2 - q)/u)*t12*t31",
    "t33*t12 - (1/q)*t12*t33",
    "t22*t12 - (1/q)*t12*t22 + (s/q)*t32^2",
    "t23*t22 - (u/q)*t22*t23",
    "t23*t12 - (u/q^2)*t12*t23 + (s/q)*t33*t32",
    "t31*t12 - (u/q^2)*t12*t31",
    "t21*t12 - (u^2/q^3)*t12*t21 + (s/q)*t31*t32",
    "t32*t21 - (q^2/u)*t21*t32",
    "t32*t13 - t13*t32 + ((u^2 - q)/(u*q))*t12*t33",
    "t32*t12 - (1/u)*t12*t32",
    "t23*t13 - (1/q)*t13*t23 + (s/q)*t33^2 - (s/q)*t11*t22 + (s*u^2/q^3)*t12*t21",
    "t31*t13 - (1/q)*t13*t31",
    "t22*t13 - (u/q)*t13*t22 + ((u^2 - q)/q^2)*t12*t23 + (s/u)*t33*t32",
    "t21*t22 - (u^2/q^2)*t22*t21",
    "t33*t22 - t22*t33 - ((u^2 - q)/u)*t23*t32",
    "t23*t21 - (q/u)*t21*t23",
    "t33*t23 - u*t23*t33 - (s*q/u)*t21*t32 + s*u*t22*t31",
    "t32*t31 - (q^2/u^2)*t31*t32",
    "t31*t22 - (u/q)*t22*t31 - ((u^2 - q)/u)*t21*t32",
    "t32*t33 - (q/u)*t33*t32",
    "t31*t23 - t23*t31 - ((u^2 - q)/u)*t21*t33",
    "t31*t21 - u*t21*t31",
    "t21*t13 - (u/q^2)*t13*t21 + (s*u/q^2)*t33*t31",
    "t31*t33 - (u/q)*t33*t31",
    "t33*t13 - (1/u)*t13*t33 - (s/u)*t11*t32 + (s*u/q^2)*t12*t31",
    "t33*t21 - q*t21*t33",
    "t32*t23 - q*t23*t32",
)

# Determinant-inverse commutation table.  Three of the source rows print the
# right side with the factors unswapped; they are transcribed verbatim here
# and corrected by the errata list.
_TDINV_TABLE = (
    "t11*Dinv - Dinv*t11",
    "t12*Dinv - (u^2/q^4)*t12*Dinv",
    "t13*Dinv - (u/q^2)*Dinv*t13",
    "t22*Dinv - Dinv*t22",
    "t21*Dinv - q^2*Dinv*t21",
    "t23*Dinv - (u/q^2)*t23*Dinv",
    "t31*Dinv - (q^2/u)*Dinv*t31",
    "t32*Dinv - (u/q^2)*t32*Dinv",
    "t33*Dinv - Dinv*t33",
)

_DETERMINANT = (
    "t11*t22*t33 + t13*t21*t32 + (u^3/q^3)*t12*t23*t31"
    " - (q/u)*t11*t23*t32 - (u^2/q^2)*t12*t21*t33 - (u^2/q^2)*t13*t22*t31"
)

_COFACTOR_TABLE = (
    (
        "t22*t33 - (q/u)*t23*t32",
        "-(q^2/u^2)*t12*t33 + (q^3/u^3)*t13*t32",
        "t12*t23 - (q/u)*t13*t22",
    ),
    (
        "-(u^2/q^2)*t21*t33 + (u^3/q^3)*t23*t31",
        "t11*t33 - (u/q)*t13*t31",
        "-(u^2/q^2)*t11*t23 + (u^3/q^3)*t13*t21",
    ),
    (
        "t21*t32 - (u^2/q^2)*t22*t31",
        "-(q^2/u^2)*t11*t32 + t12*t31",
        "t11*t22 - (u^2/q^2)*t12*t21",
    ),
)


# ---------------------------------------------------------------------------
# errata: machine-certified corrections to the verbatim tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrataEntry:
    family: str
    index: int  # position in the family's relation list
    verbatim: str
    corrected: str
    justification: str


ERRATA: tuple[ErrataEntry, ...] = (
    ErrataEntry(
        family="dd",
        index=0,
        verbatim=_DD_TABLE[0],
        corrected="d2*d1 - (u^2/q^2)*d1*d2",
        justification=(
            "row printed with transposed variance (subscripts swapped); the "
            "printed reading forces (q^4-u^4)*d2 into the combined ideal, the "
            "corrected reading makes both calculus systems confluent and its "
            "contragradient vector a (-1)-eigenvector of both transposed "
            "braiding inverses"
        ),
    ),
    ErrataEntry(
        family="dd",
        index=1,
        verbatim=_DD_TABLE[1],
        corrected="d3*d1 - (u/q)*d1*d3",
        justification="same transposed-variance slip as the first derivative row",
    ),
    ErrataEntry(
        family="dd",
        index=2,
        verbatim=_DD_TABLE[2],
        corrected="d3*d2 - (q/u)*d2*d3",
        justification="same transposed-variance slip as the first derivative row",
    ),
    ErrataEntry(
        family="dxi-omega",
        index=0,
        verbatim=_DXI_OMEGA_TABLE[0],
        corrected="d3*xi3 - (u^2/q - 1)*xi2*d2 - (u^2/q)*xi3*d3",
        justification=(
            "last factor misprinted d2 for d3; certified by span equality "
            "against the family generated from the inverse braiding matrix"
        ),
    ),
    ErrataEntry(
        family="xd-omega-inv",
        index=4,
        verbatim=_XD_OMEGA_INV_TABLE[4],
        corrected="d3*x2 - (u/q)*x2*d3 + (s*u^2/q^2)*x3*d1",
        justification=(
            "coefficient misprinted s*u^2/q for s*u^2/q^2; certified by span "
            "equality against the family generated from the inverse braiding matrix"
        ),
    ),
    ErrataEntry(
        family="tt",
        index=9,
        verbatim=_TT_TABLE[9],
        corrected="t32*t11 - (q/u)*t11*t32 + ((u^2 - q)/(u*q))*t12*t31",
        justification=(
            "tail coefficient misprinted (u^2-q)/u for (u^2-q)/(u*q); certified "
            "by membership in the span generated from the exchange condition"
        ),
    ),
    ErrataEntry(
        family="tt",
        index=25,
        verbatim=_TT_TABLE[25],
        corrected="t33*t23 - u*t23*t33 - (s*q/u)*t21*t32 + (s*u/q)*t22*t31",
        justification=(
            "tail coefficient misprinted s*u for s*u/q; certified by membership "
            "in the span generated from the exchange condition"
        ),
    ),
    ErrataEntry(
        family="tdinv",
        index=1,
        verbatim=_TDINV_TABLE[1],
        corrected="t12*Dinv - (u^2/q^4)*Dinv*t12",
        justification=(
            "right side printed with the factors unswapped; corrected to "
            "inverse-left normal form, coefficient certified by the degree-4 "
            "determinant commutation oracle"
        ),
    ),
    ErrataEntry(
        family="tdinv",
        index=4,
        verbatim=_TDINV_TABLE[4],
        corrected="t21*Dinv - (q^4/u^2)*Dinv*t21",
        justification=(
            "coefficient misprinted q^2 for q^4/u^2; certified by the degree-4 "
            "determinant commutation oracle NF(g*D) = lambda*NF(D*g) and by "
            "star-duality with the t12 row"
        ),
    ),
    ErrataEntry(
        family="tdinv",
        index=5,
        verbatim=_TDINV_TABLE[5],
        corrected="t23*Dinv - (q^2/u)*Dinv*t23",
        justification=(
            "right side printed unswapped and the coefficient inverted "
            "(u/q^2 for q^2/u); certified by the degree-4 determinant "
            "commutation oracle and by star-duality with the t13 row"
        ),
    ),
    ErrataEntry(
        family="tdinv",
        index=7,
        verbatim=_TDINV_TABLE[7],
        corrected="t32*Dinv - (u/q^2)*Dinv*t32",
        justification=(
            "right side printed with the factors unswapped; corrected to "
            "inverse-left normal form, coefficient certified by the degree-4 "
            "determinant commutation oracle"
        ),
    ),
)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

# family id -> (verbatim table, alphabet); a calculus variant's own family is KIND-VARIANT
_FAMILIES = {
    "xx": (_XX_TABLE, x_alphabet),
    "xixi": (_XIXI_TABLE, xi_alphabet),
    "dd": (_DD_TABLE, d_alphabet),
    "xxi-omega": (_XXI_OMEGA_TABLE, calculus_alphabet),
    "xxi-omega-inv": (_XXI_OMEGA_INV_TABLE, calculus_alphabet),
    "dxi-omega": (_DXI_OMEGA_TABLE, calculus_alphabet),
    "dxi-omega-inv": (_DXI_OMEGA_INV_TABLE, calculus_alphabet),
    "xd-omega": (_XD_OMEGA_TABLE, calculus_alphabet),
    "xd-omega-inv": (_XD_OMEGA_INV_TABLE, calculus_alphabet),
    "tt": (_TT_TABLE, t_alphabet),
    "tdinv": (_TDINV_TABLE, qg_alphabet),
}
FAMILY_IDS = tuple(_FAMILIES)

CALCULUS_VARIANTS = ("omega", "omega-inv")


def calculus_family_ids(variant: str) -> tuple[str, ...]:
    """The families of one calculus: xx, xixi, dd, then the variant's xxi, dxi and xd."""
    if variant not in CALCULUS_VARIANTS:
        raise ValueError("variant must be 'omega' or 'omega-inv'")
    return ("xx", "xixi", "dd", f"xxi-{variant}", f"dxi-{variant}", f"xd-{variant}")


def family(fid: str, errata: bool = True) -> PresentationSpec:
    """A transcribed relation family named by its id, with errata unless disabled.

    The result is shared between callers and must not be modified.
    """
    if fid not in _FAMILIES:
        raise KeyError(f"unknown relation family {fid!r}; known: {', '.join(FAMILY_IDS)}")
    return _family_cached(fid, errata)


@lru_cache(maxsize=None)
def _family_cached(fid: str, errata: bool) -> PresentationSpec:
    table, alphabet_of = _FAMILIES[fid]
    texts = list(table)
    if errata:
        for entry in ERRATA:
            if entry.family == fid:
                texts[entry.index] = entry.corrected
    alphabet = alphabet_of()
    return PresentationSpec(fid, alphabet, [exprs.parse_element(t, alphabet) for t in texts])


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def x_presentation() -> PresentationSpec:
    fam = family("xx")
    return PresentationSpec("x", fam.alphabet, list(fam.relations))


@lru_cache(maxsize=None)
def quantum_plane_presentation() -> PresentationSpec:
    """The s = 0 limit written directly (independent of specialize())."""
    alphabet = x_alphabet()
    texts = ("x1*x2 - q*x2*x1", "x1*x3 - u*x3*x1", "x2*x3 - u^-1*x3*x2")
    return PresentationSpec(
        "quantum-plane", alphabet, [exprs.parse_element(t, alphabet) for t in texts]
    )


@lru_cache(maxsize=None)
def calculus_presentation(variant: str, errata: bool = True) -> PresentationSpec:
    """Variables, one-forms and derivatives with the full relation set."""
    alphabet = calculus_alphabet()
    relations: list[Element] = []
    for fid in calculus_family_ids(variant):
        relations.extend(algebra_map(r, alphabet) for r in family(fid, errata).relations)
    return PresentationSpec(f"calculus-{variant}", alphabet, relations)


@lru_cache(maxsize=None)
def tt_presentation(errata: bool = True) -> PresentationSpec:
    fam = family("tt", errata)
    return PresentationSpec("t", fam.alphabet, list(fam.relations))


@lru_cache(maxsize=None)
def qg_presentation(errata: bool = True) -> PresentationSpec:
    """The ten-generator quantum group: quantum matrix plus inverse determinant."""
    alphabet = qg_alphabet()
    relations = [algebra_map(r, alphabet) for r in family("tt", errata).relations]
    relations.extend(family("tdinv", errata).relations)
    return PresentationSpec("qg", alphabet, relations)


_NAMED_ALGEBRAS = {
    "x": lambda errata: x_presentation(),
    "quantum-plane": lambda errata: quantum_plane_presentation(),
    "t": tt_presentation,
    "qg": qg_presentation,
    **{f"calculus-{variant}": partial(calculus_presentation, variant)
       for variant in CALCULUS_VARIANTS},
}
ALGEBRA_IDS = tuple(sorted(_NAMED_ALGEBRAS))


def named_presentation(name: str, errata: bool = True) -> PresentationSpec:
    """A named algebra, or the relation family with that id; KeyError lists both."""
    if name in _NAMED_ALGEBRAS:
        return _NAMED_ALGEBRAS[name](errata)
    if name in _FAMILIES:
        return family(name, errata)
    raise KeyError(f"unknown algebra {name!r}; names: {', '.join(ALGEBRA_IDS)} "
                   f"or families: {', '.join(FAMILY_IDS)}")


# ---------------------------------------------------------------------------
# generation from a braiding matrix
# ---------------------------------------------------------------------------


def generate_from_C(C: CMatrix, C_inv: CMatrix, kind: str) -> PresentationSpec:
    """Build a calculus relation family mechanically from a braiding matrix.

    Kinds: 'xxi' (variables vs one-forms), 'dxi' (derivatives vs one-forms,
    from the inverse matrix C_inv), 'xd' (derivatives vs variables, with the
    inhomogeneous unit term) and 'xixi' (one-form square relations).
    """
    alphabet = calculus_alphabet()
    xi = {i: alphabet.rank_of(f"xi{i}") for i in (1, 2, 3)}
    x = {i: alphabet.rank_of(f"x{i}") for i in (1, 2, 3)}
    d = {i: alphabet.rank_of(f"d{i}") for i in (1, 2, 3)}
    one = Scalar.one()
    relations = []
    if kind == "xxi":
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                terms = {(x[k], xi[l]): one}
                for (m, n) in PAIRS:
                    c = C.entry((k, l), (m, n))
                    if not c.is_zero:
                        terms[(xi[m], x[n])] = -c
                relations.append(Element(alphabet, terms))
    elif kind == "dxi":
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                terms = {(d[k], xi[l]): one}
                for (m, n) in PAIRS:
                    c = C_inv.entry((l, m), (k, n))
                    if not c.is_zero:
                        terms[(xi[n], d[m])] = -c
                relations.append(Element(alphabet, terms))
    elif kind == "xd":
        for l in (1, 2, 3):
            for k in (1, 2, 3):
                terms: dict = {(d[l], x[k]): one}
                if k == l:
                    terms[()] = -one
                for (m, n) in PAIRS:
                    c = C.entry((k, m), (l, n))
                    if not c.is_zero:
                        terms[(x[n], d[m])] = -c
                relations.append(Element(alphabet, terms))
    elif kind == "xixi":
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                terms = {(xi[m], xi[n]): c for (m, n), c in C.row((k, l)).items()}
                relations.append(Element(alphabet, add_into(terms, {(xi[k], xi[l]): one})))
    else:
        raise ValueError(f"unknown generation kind {kind!r}")
    return PresentationSpec(f"generated-{kind}", alphabet, relations)


def rtt_generate(R: CMatrix) -> PresentationSpec:
    """The 81 formal exchange relations R^{ji}_{kl} t^k_m t^l_n = t^j_l t^i_k R^{lk}_{mn}."""
    alphabet = t_alphabet()
    t = {(i, j): alphabet.rank_of(f"t{i}{j}") for i in (1, 2, 3) for j in (1, 2, 3)}
    columns = R.transpose()
    relations = []
    for (j, i) in PAIRS:
        for (m, n) in PAIRS:
            # the words of each side are distinct; the two sides can cancel
            terms = {(t[(k, m)], t[(l, n)]): c for (k, l), c in R.row((j, i)).items()}
            add_into(terms, {(t[(j, l)], t[(i, k)]): -c for (l, k), c in columns.row((m, n)).items()})
            relations.append(Element(alphabet, terms))
    return PresentationSpec("generated-tt", alphabet, relations)


# ---------------------------------------------------------------------------
# determinant, cofactors, inverse-determinant factors
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def quantum_determinant() -> Element:
    """The six-term degree-3 quantum determinant over the t alphabet."""
    return exprs.parse_element(_DETERMINANT, t_alphabet())


@lru_cache(maxsize=None)
def cofactor_matrix() -> tuple[tuple[Element, ...], ...]:
    """The 3x3 matrix of degree-2 cofactors (the inverse without its Dinv factor)."""
    alphabet = t_alphabet()
    return tuple(
        tuple(exprs.parse_element(text, alphabet) for text in row) for row in _COFACTOR_TABLE
    )


def dinv_factor(name: str, errata: bool = True) -> Scalar:
    """The coefficient lambda' in t . Dinv = lambda' . Dinv . t for a generator."""
    fam = family("tdinv", errata)
    alphabet = fam.alphabet
    rank = alphabet.rank_of(name)
    dinv = alphabet.rank_of("Dinv")
    for rel in fam.relations:
        if (rank, dinv) in rel.terms:
            swapped = rel.coefficient((dinv, rank))
            if not swapped.is_zero:
                return -swapped
            # verbatim unswapped rows relate t*Dinv to itself; no factor exists
            return Scalar.zero()
    raise KeyError(f"no inverse-determinant rule for {name!r}")


# ---------------------------------------------------------------------------
# star structure, counit, coaction
# ---------------------------------------------------------------------------

_STAR_MAP = {
    "t11": "t22", "t22": "t11",
    "t12": "t21", "t21": "t12",
    "t13": "t23", "t23": "t13",
    "t31": "t32", "t32": "t31",
    "t33": "t33",
    "Dinv": "Dinv",
    "x1": "x2", "x2": "x1", "x3": "x3",
}


def star_generator_map() -> dict[str, str]:
    return dict(_STAR_MAP)


def star_apply(e: Element) -> Element:
    """The antilinear antihomomorphism: reverse words, swap conjugate generators.

    Parameters are treated as real, so coefficients pass through unchanged.
    """
    alphabet = e.alphabet
    mapping = {}
    for g in alphabet:
        image = _STAR_MAP.get(g.name)
        if image is None:
            raise ValueError(f"star image undefined for generator {g.name!r}")
        target = alphabet.rank_of(image)
        if target is None:
            raise ValueError(f"star image {image!r} missing from alphabet")
        mapping[g.rank] = target
    return Element(
        alphabet,
        {tuple(mapping[g] for g in reversed(w)): c for w, c in e.terms.items()},
    )


def counit_value(e: Element) -> Scalar:
    """Counit: t^i_j -> delta_ij, Dinv -> 1 (only defined over the t alphabets)."""
    images = {g.name: int(g.name == "Dinv" or (len(g.name) == 3 and g.name[0] == "t"
                                               and g.name[1] == g.name[2]))
              for g in e.alphabet}
    return algebra_map(e, EMPTY_ALPHABET, images).scalar_value()
