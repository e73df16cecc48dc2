"""The verification suite: one check per algebraic claim.

Each check returns a Report with per-assertion details and witnesses on
failure; every verdict is exact over Q(q, u, s).  Checks are pure
functions of an immutable context, so they can run in any order.  Each reads
its inputs from `ctx.bound`, where the bindings are applied once, before the
check starts; nothing derived from them is bound again, and a scalar error
inside a check is an `undecided:` detail of it.
The quantum-matrix identities (T.Cof = D.I, the antipode S(T).T = I, the
coproduct Delta(T) = L.R and the coaction on x, xi and the derivatives) are
products of 3x3 element matrices through one routine, `_matmul`, and every
span identity (calculi, RTT, star stability, the commutators of the t'_ij =
t_ij * t33^-1 at q = u^2) is a test against `ncalg.Span`.
Every product, transpose and inverse of scalar matrices (the braiding, its
inverse, the braid equation's legs C(x)1 and 1(x)C) is a `catalog.CMatrix`
operation; the braid equation multiplies the legs' rows one at a time
(`_row_action`), so it stops at the first row that differs.
The numerators W of the inverse transposed quantum matrix, which transform the
derivatives, are the star image of the transcribed cofactors (nothing solves
for them).  Each identity is decided at its own degree, and a tensor of
homogeneous legs at its bidegree: the algebra object's `member` and
`normal_form` choose the completion, and no check names a degree.  A
vanishing normal form, or a nonzero one under confluent or homogeneous rules,
is an exact certificate, and anything else is reported `undecided:`: rules
that are neither can put a lower-degree element into the ideal through a
longer ambiguity.  Base rules only move Dinv left before it is lifted by
determinant powers.  The determinant's two pinned probes also carry an
explicit decomposition into products w1 * r * w2 of the transcribed rows
(`MembershipOracle.decomposition`), which `_replay` multiplies out again
with plain dicts, sharing no code with the rewriting.
Rules, completions and membership caches live in one shared algebra object
per presentation content (`ncalg.algebra`), so a binding, an errata switch or
any changed coefficient yields its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

from . import catalog, exprs, ncalg
from .catalog import CMatrix, PAIRS
from .linalg import ScalarEchelon, add_into, solve_linear
from .ncalg import Element, PresentationSpec
from .reports import Report, timed_report
from .scalars import Scalar

__all__ = [
    "VerifyContext",
    "BoundInputs",
    "CHECKS",
    "CHECK_IDS",
    "run_check",
    "run_all",
    "check_yang_baxter",
    "check_constraints",
    "check_eigenstructure",
    "check_calculus",
    "check_rtt",
    "check_inverse",
    "check_determinant",
    "check_coaction",
    "check_hopf",
    "check_star",
    "check_specializations",
]

@dataclass(frozen=True)
class VerifyContext:
    """Immutable configuration shared by all checks.

    `bindings` ((param, Scalar), ...) is one simultaneous substitution, whose
    values may mention parameters (q -> 2*q); `omega_mutations` ((row_pair,
    col_pair, Scalar), ...) then replace braiding entries.  See `bound`.
    """

    errata: bool = True
    bindings: tuple = ()
    omega_mutations: tuple = ()

    @cached_property
    def bound(self) -> "BoundInputs":
        """The inputs under the bindings and mutations; raises ScalarError if undefined."""
        return BoundInputs(self)


class BoundInputs:
    """Every transcribed input of one context, bound once; checks only read it.

    q, u, s, the braiding and its inverse, every relation family, the plane, tt,
    qg and calculus presentations, determinant, cofactors, Dinv table and W.
    """

    def __init__(self, ctx: VerifyContext):
        values, memo = dict(ctx.bindings), {}

        def bind(value):
            # the one substitution of the bindings: every parameter at once,
            # each distinct coefficient once
            if not values:
                return value
            if isinstance(value, Element):
                return value.map_coefficients(bind)
            if isinstance(value, CMatrix):
                return value.map_entries(bind)
            if value not in memo:
                memo[value] = value.substitute(values)
            return memo[value]

        def presentation(pres: PresentationSpec) -> PresentationSpec:
            return PresentationSpec(pres.name, pres.alphabet, [bind(r) for r in pres.relations])

        self.q, self.u, self.s = (bind(Scalar.param(name)) for name in "qus")
        self.omega = bind(catalog.omega())
        for row_pair, col_pair, value in ctx.omega_mutations:
            self.omega = self.omega.with_entry(row_pair, col_pair, value)
        self.omega_inv = self.omega.inverse()
        # calculus variant -> (its braiding, the inverse)
        self.braidings = {"omega": (self.omega, self.omega_inv),
                          "omega-inv": (self.omega_inv, self.omega)}
        self.families = {fid: [bind(r) for r in catalog.family(fid, ctx.errata).relations]
                         for fid in catalog.FAMILY_IDS}
        self.plane = presentation(catalog.quantum_plane_presentation())
        self.tt = presentation(catalog.tt_presentation(ctx.errata))
        self.qg = presentation(catalog.qg_presentation(ctx.errata))
        self.calculus = {variant: presentation(catalog.calculus_presentation(variant, ctx.errata))
                         for variant in catalog.CALCULUS_VARIANTS}
        self.determinant = bind(catalog.quantum_determinant())
        self.cofactors = [[bind(c) for c in row] for row in catalog.cofactor_matrix()]
        self.dinv = {name: bind(catalog.dinv_factor(name, ctx.errata))
                     for name in catalog.t_alphabet().names()}
        # the numerators of the inverse transposed quantum matrix: star fixes D
        # and sends t^i_j to t^{sigma i}_{sigma j}, sigma = (1 2), so the star
        # image of T.Cof = D.I is sum_j W_lj t^k_j = delta_lk D with
        # W_lj = star(Cof_{sigma j, sigma l}); coaction certifies it
        sigma = (1, 0, 2)
        self.W = [[catalog.star_apply(self.cofactors[sigma[j]][sigma[l]]) for j in range(3)]
                  for l in range(3)]


DEFAULT_CONTEXT = VerifyContext()


# ---------------------------------------------------------------------------
# braid equation
# ---------------------------------------------------------------------------


def _braid_legs(C: CMatrix) -> tuple[CMatrix, CMatrix]:
    """C (x) 1 and 1 (x) C, over triple indices."""
    left: dict = {}
    right: dict = {}
    for (i, j), (l, m), c in C.nonzero_cells():
        for k in (1, 2, 3):
            left.setdefault((i, j, k), {})[(l, m, k)] = c
            right.setdefault((k, i, j), {})[(k, l, m)] = c
    return CMatrix(left), CMatrix(right)


def check_yang_baxter(ctx: VerifyContext = DEFAULT_CONTEXT) -> Report:
    """Braid consistency: (C(x)1)(1(x)C)(C(x)1) = (1(x)C)(C(x)1)(1(x)C).

    Both products are built one row at a time by `_row_action`, in the
    order of the set of the two legs' row indices, and the comparison stops
    at the first row with a differing cell; a row and its columns are
    visited in the order a comparison of the whole 27x27 products takes, so
    the same cell is named.
    """
    inp = ctx.bound
    with timed_report("ybe") as report:
        for variant, (C, _) in inp.braidings.items():
            C1, C2 = _braid_legs(C)
            cell = None
            for r in set(C1.rows) | set(C2.rows):
                lrow = _row_action(_row_action(C1.row(r), C2), C1)
                rrow = _row_action(_row_action(C2.row(r), C1), C2)
                for c in set(lrow) | set(rrow):
                    a = lrow.get(c, Scalar.zero())
                    b = rrow.get(c, Scalar.zero())
                    if a != b:
                        cell = (r, c, a, b)
                        break
                if cell:
                    break
            report.add(
                f"braid-equation:{variant}",
                cell is None,
                note="27x27 products compared entrywise exactly" if cell is None
                else f"27x27 products differ at cell {cell[0]}x{cell[1]}",
                counterexample=None if cell is None else (
                    f"cell {cell[0]}x{cell[1]}: {cell[2]} != {cell[3]}"
                ),
            )
    return report


_CONSTRAINT_LINEAR = (
    # (lhs cell, coefficient parameter, rhs cell, constant: -1 or a parameter):
    # C[lhs cell] = coefficient * C[rhs cell] + constant
    (((1, 2), (1, 2)), "q", ((2, 1), (1, 2)), -1),
    (((1, 2), (2, 1)), "q", ((2, 1), (2, 1)), "q"),
    (((1, 3), (1, 3)), "u", ((3, 1), (1, 3)), -1),
    (((1, 3), (3, 1)), "u", ((3, 1), (3, 1)), "u"),
    (((3, 2), (2, 3)), "u", ((2, 3), (2, 3)), "u"),
    (((3, 2), (3, 2)), "u", ((2, 3), (3, 2)), -1),
)

_CONSTRAINT_PRODUCTS = (
    (((1, 2), (1, 2)), ((2, 1), (2, 1))),
    (((1, 3), (1, 3)), ((3, 1), (3, 1))),
    (((2, 3), (2, 3)), ((3, 2), (3, 2))),
)


def _cell_name(cell) -> str:
    """A braiding cell as the matrix print names it: C[12 ; 33]."""
    (i, j), (k, l) = cell
    return f"C[{i}{j} ; {k}{l}]"


def check_constraints(ctx: VerifyContext = DEFAULT_CONTEXT) -> Report:
    """The seven linear coefficient identities and three vanishing products.

    A failing detail's note names the identity that fails.
    """
    inp = ctx.bound
    with timed_report("constraints") as report:
        for variant, (C, _) in inp.braidings.items():
            for idx, (lhs_cell, coeff, rhs_cell, const) in enumerate(_CONSTRAINT_LINEAR, 1):
                lhs = C.entry(*lhs_cell)
                rhs = getattr(inp, coeff) * C.entry(*rhs_cell) \
                    + (getattr(inp, const) if isinstance(const, str) else const)
                identity = (f"{_cell_name(lhs_cell)} != {coeff}*{_cell_name(rhs_cell)} "
                            + ("- 1" if const == -1 else f"+ {const}"))
                report.add(
                    f"linear-{idx}:{variant}", lhs == rhs,
                    note="" if lhs == rhs else identity,
                    counterexample=None if lhs == rhs else f"{lhs} != {rhs}",
                )
            # the seventh identity mixes two coefficients and the unit
            lhs = C.entry((1, 2), (3, 3))
            rhs = inp.q * C.entry((2, 1), (3, 3)) + inp.s * C.entry((3, 3), (3, 3)) + inp.s
            report.add(
                f"linear-7:{variant}", lhs == rhs,
                note="" if lhs == rhs else "C[12 ; 33] != q*C[21 ; 33] + s*C[33 ; 33] + s",
                counterexample=None if lhs == rhs else f"{lhs} != {rhs}",
            )
            for idx, (cell_a, cell_b) in enumerate(_CONSTRAINT_PRODUCTS, 1):
                prod = C.entry(*cell_a) * C.entry(*cell_b)
                report.add(
                    f"product-{idx}:{variant}", prod.is_zero,
                    note="" if prod.is_zero else f"{_cell_name(cell_a)}*{_cell_name(cell_b)} != 0",
                    counterexample=None if prod.is_zero else f"product = {prod}",
                )
    return report


# ---------------------------------------------------------------------------
# eigenstructure
# ---------------------------------------------------------------------------


def _pair_vector(rel: Element, names: Sequence[str]) -> dict:
    """Degree-2 element -> vector over index pairs (i, j) of the given letters."""
    rank_of = {}
    for idx, name in enumerate(names, 1):
        rank = rel.alphabet.rank_of(name)
        rank_of[rank] = idx
    vec = {}
    for w, c in rel.terms.items():
        vec[(rank_of[w[0]], rank_of[w[1]])] = c
    return vec


def _row_action(vec: dict, M: CMatrix) -> dict:
    out: dict = {}
    for rp, c in vec.items():
        add_into(out, M.row(rp), c)
    return out


def _eigen_ratio(vec: dict, image: dict):
    """image = ratio * vec, or None if not proportional."""
    if set(image) != set(vec):
        return None
    key = next(iter(vec))
    ratio = image[key] / vec[key]
    for k, c in vec.items():
        if image[k] != ratio * c:
            return None
    return ratio


def check_eigenstructure(ctx: VerifyContext = DEFAULT_CONTEXT) -> Report:
    """Relation spans as invariant subspaces of the braiding actions."""
    inp = ctx.bound
    with timed_report("eigenstructure") as report:
        omega, omega_inv = inp.omega, inp.omega_inv
        # per calculus variant, the transpose of its braiding's inverse
        transposed = {"omega": omega_inv.transpose(), "omega-inv": omega.transpose()}
        # (detail id, family, letter, matrix acting on its pair vectors, note suffix)
        cases = []
        for label, M in (("omega", omega), ("omega-inv", omega_inv)):
            cases.append((f"xx-row-eigenvectors:{label}", "xx", "x", M, ""))
            cases.append((f"one-form-row-eigenvectors:{label}", "xixi", "xi", M, ""))
        # derivative relation vectors act contragradiently: their indices are
        # read swapped, under the transposed inverse
        for label, Mt in transposed.items():
            cases.append((f"derivative-eigenvectors:{label}", "dd", "d", Mt,
                          " under the transposed inverse"))
        for detail_id, fid, letter, M, suffix in cases:
            values, bad = set(), []
            for ridx, rel in enumerate(inp.families[fid]):
                vec = _pair_vector(rel, (f"{letter}1", f"{letter}2", f"{letter}3"))
                if fid == "dd":
                    vec = {(j, i): c for (i, j), c in vec.items()}
                ratio = _eigen_ratio(vec, _row_action(vec, M))
                if ratio is None:
                    bad.append(ridx)
                else:
                    values.add(str(ratio))
            report.add(detail_id, not bad and len(values) == 1,
                       note=f"relations {bad} are not eigenvectors{suffix}" if bad
                       else f"eigenvalue {sorted(values)}{suffix}")
        # dimension of that eigenspace: 9 - rank(M^t + I) for the -1 value
        one = Scalar.one()
        for label, Mt in transposed.items():
            ech = ScalarEchelon()
            for cp, row in Mt.rows.items():
                ech.insert(add_into(dict(row), {cp: one}))
            dim = 9 - ech.rank
            report.add(
                f"derivative-eigenspace-dim:{label}", dim == 3,
                note=f"dim eigenspace(-1) = {dim}; complement dim {ech.rank} "
                     "models the derivative quantum space",
            )
        # minimal polynomial of the braiding matrix
        ident = CMatrix.identity()
        m2 = omega @ omega
        # try degree 2: m2 = a*omega + b*I
        rows = []
        for rp in PAIRS:
            for cp in PAIRS:
                rows.append((
                    {("a",): omega.entry(rp, cp), ("b",): ident.entry(rp, cp)},
                    m2.entry(rp, cp),
                ))
        sol = solve_linear(rows)
        if sol is None:
            report.add("minimal-polynomial", False, note="degree-2 candidate failed")
        else:
            a = sol.get(("a",), Scalar.zero())
            b = sol.get(("b",), Scalar.zero())
            report.add(
                "minimal-polynomial", True,
                note=f"X^2 - ({a})*X - ({b}); factors at eigenvalues -1 and q/u^2",
            )
        report.add(
            "spectrum-normalization-note", True,
            note="variable span has row eigenvalue -1, one-form span q/u^2; the "
                 "stated -1 for one-forms matches no single scaling of the "
                 "braiding, so both spectra are reported without choosing",
        )
    return report


# ---------------------------------------------------------------------------
# differential calculi
# ---------------------------------------------------------------------------


def _exterior_images(alphabet) -> dict[str, Element]:
    images = {f"x{i}": Element.generator(alphabet, f"xi{i}") for i in (1, 2, 3)}
    images.update({f"xi{i}": Element.zero(alphabet) for i in (1, 2, 3)})
    return images


def _span_note(cmp: ncalg.SpanComparison, first: str, second: str) -> str:
    """The ranks of two compared spans and, when they differ, how."""
    note = f"ranks {cmp.rank_a}/{cmp.rank_b}"
    differs = {"A_subset_B": f"{first} span strictly inside {second}",
               "B_subset_A": f"{second} span strictly inside {first}",
               "incomparable": "spans incomparable"}.get(cmp.verdict)
    return note if differs is None else f"{note}; {differs}"


def check_calculus(ctx: VerifyContext = DEFAULT_CONTEXT, variant: str = "omega") -> Report:
    """Internal consistency of one differential calculus."""
    inp = ctx.bound
    with timed_report(f"calculus-{variant}") as report:
        C, C_inv = inp.braidings[variant]
        target = catalog.calculus_alphabet()
        # (a) generation from the braiding matrix reproduces the transcription;
        # a calculus family's id starts with its kind
        fids = {fid.split("-")[0]: fid for fid in catalog.calculus_family_ids(variant)}
        for kind in ("xxi", "dxi", "xd", "xixi"):
            generated = catalog.generate_from_C(C, C_inv, kind).relations
            transcribed = [ncalg.algebra_map(r, target) for r in inp.families[fids[kind]]]
            cmp = ncalg.span_compare(generated, transcribed)
            report.add(
                f"generated-vs-transcribed:{kind}", cmp.verdict == "equal",
                note=_span_note(cmp, "generated", "transcribed"),
                counterexample=None if cmp.verdict == "equal" else str(cmp.witness),
            )
        calculus = ncalg.algebra(inp.calculus[variant])

        def decide(detail_id: str, e: Element):
            nf = calculus.normal_form(e)
            report.add(detail_id, nf.is_zero,
                       note="" if nf.is_zero else calculus.member(e).note,
                       counterexample=None if nf.is_zero else str(nf))

        xx = [ncalg.algebra_map(r, target) for r in inp.families["xx"]]
        images = _exterior_images(target)
        d_ranks = {target.rank_of(f"d{i}") for i in (1, 2, 3)}
        # a completion that collapses raises at the first identity, and is
        # then the one `completion` detail
        try:
            # (b) derivatives annihilate the variable relations
            for ridx, rel in enumerate(xx, 1):
                for i in (1, 2, 3):
                    decide(f"derivative-annihilates:d{i}*xx{ridx}",
                           Element.generator(target, f"d{i}") * rel)
            # (c) the exterior derivative annihilates them too
            for ridx, rel in enumerate(xx, 1):
                decide(f"exterior-derivative:xx{ridx}", ncalg.derivation_apply(images, rel))
            # (d) d agrees with xi^i d_i on probe monomials
            for probe_text in ("x1", "x1*x2", "x2*x3*x1"):
                probe = exprs.parse_element(probe_text, target)
                rhs = Element.zero(target)
                for i in (1, 2, 3):
                    nf = calculus.normal_form(Element.generator(target, f"d{i}") * probe)
                    func = Element(target, {w: c for w, c in nf.terms.items()
                                            if not any(g in d_ranks for g in w)})
                    rhs = rhs + Element.generator(target, f"xi{i}") * func
                decide(f"derivative-decomposition:{probe_text}",
                       ncalg.derivation_apply(images, probe) - rhs)
        except ncalg.InconsistentPresentationError as err:
            report.add("completion", False, note=str(err), counterexample=str(err))
            return report
        # (e) overlap analysis of the combined rule system
        confluence = calculus.confluence
        report.add(
            "overlap-analysis", True,
            note=(
                f"{confluence.overlaps_checked} overlaps, "
                f"{len(confluence.unresolved)} unresolved; "
                f"confluent={confluence.confluent}"
            ),
        )
    return report


# ---------------------------------------------------------------------------
# quantum matrix
# ---------------------------------------------------------------------------


def check_rtt(ctx: VerifyContext = DEFAULT_CONTEXT) -> Report:
    """The exchange condition generates exactly the transcribed relations."""
    inp = ctx.bound
    with timed_report("rtt") as report:
        # each list is eliminated once, whatever it is compared with
        gen = ncalg.Span(catalog.rtt_generate(inp.omega).relations)
        gen_inv = catalog.rtt_generate(inp.omega_inv).relations
        fam = ncalg.Span(inp.tt.relations)
        cmp = ncalg.span_compare(gen, fam)
        report.add(
            "generated-vs-transcribed", cmp.verdict == "equal",
            note=_span_note(cmp, "generated", "transcribed"),
            counterexample=None if cmp.verdict == "equal" else str(cmp.witness),
        )
        cmp2 = ncalg.span_compare(gen, gen_inv)
        report.add(
            "same-quantum-matrix-for-both-braidings", cmp2.verdict == "equal",
            note=_span_note(cmp2, "omega", "omega-inv"),
            counterexample=None if cmp2.verdict == "equal" else str(cmp2.witness),
        )
        report.add("rank", cmp.rank_b == 36, note=f"transcribed span rank {cmp.rank_b}")
        dependent = fam.dependent
        report.add(
            "independent-rows", not dependent,
            note="all 36 transcribed rows independent" if not dependent
            else f"dependent rows at indices {dependent}",
        )
    return report


def _matrix(alphabet, prefix: str) -> list[list[Element]]:
    """The 3x3 matrix of the generators prefix{i}{j}."""
    return [[Element.generator(alphabet, f"{prefix}{i}{j}") for j in "123"] for i in "123"]


def _matmul(a, b) -> list[list[Element]]:
    """The matrix with entries sum_k a_ik * b_kj, for rows of Elements over one alphabet.

    A column vector is an n x 1 matrix.  Each product keeps its factor order:
    the entries do not commute.
    """
    zero = Element.zero(a[0][0].alphabet)
    return [[sum((a_ik * b_k[j] for a_ik, b_k in zip(row, b)), zero)
             for j in range(len(b[0]))] for row in a]


def check_inverse(ctx: VerifyContext = DEFAULT_CONTEXT) -> Report:
    """T . T^-1 = T^-1 . T = I, certified by normal forms at degree 3."""
    inp = ctx.bound
    with timed_report("inverse") as report:
        oracle = ncalg.algebra(inp.tt)
        TA = inp.tt.alphabet
        D = inp.determinant
        T = _matrix(TA, "t")
        right = _matmul(T, inp.cofactors)
        for i in range(3):
            for j in range(3):
                total = right[i][j] - D if i == j else right[i][j]
                rep = oracle.member(total)
                report.add(
                    f"right-inverse:({i + 1},{j + 1})", rep.member,
                    note=rep.route if rep.member else
                    f"{rep.route}: sum_k t^{i + 1}_k Cof_k{j + 1}"
                    f"{' - D' if i == j else ''} is not in the ideal",
                    counterexample=None if rep.member else str(rep.residual),
                )
        # left product without the determinant-inverse weights: reported finding
        left = [[oracle.normal_form(e) for e in row] for row in _matmul(inp.cofactors, T)]
        plain_left_diagonal = all(left[i][j] == left[0][0] if i == j else left[i][j].is_zero
                                  for i in range(3) for j in range(3))
        report.add(
            "left-determinant-analysis", True,
            note=(
                "plain cofactor.T is diagonal with a common left determinant"
                if plain_left_diagonal else
                "plain cofactor.T is not diagonal: the left inverse holds only "
                "with the inverse-determinant weights (see antipode entries)"
            ),
        )
        # antipode: with the inverse adjoined, sum_k S(t^i_k) t^k_j = delta
        try:
            qg_rules = ncalg.algebra(inp.qg).rule_system()
        except ncalg.InconsistentPresentationError as err:
            report.add("antipode", False, note=str(err), counterexample=str(err))
            return report
        QG = inp.qg.alphabet
        dinv = Element.generator(QG, "Dinv")
        S = [[ncalg.algebra_map(c, QG) * dinv for c in row] for row in inp.cofactors]
        antipode = _matmul(S, _matrix(QG, "t"))
        for i in range(3):
            for j in range(3):
                # each word carries one Dinv, which qg's rules keep and straighten left
                lifted = _determinant_lift(qg_rules.normalize(antipode[i][j]), TA, D)
                target = lifted - (D if i == j else Element.zero(TA))
                rep = oracle.member(target)
                report.add(
                    f"antipode:({i + 1},{j + 1})", rep.member,
                    note="lifted by one determinant power; " + (
                        rep.route if rep.member else
                        f"{rep.route}: D * sum_k S(t^{i + 1}_k) t^k_{j + 1}"
                        f"{' - D' if i == j else ''} is not in the ideal"),
                    counterexample=None if rep.member else str(rep.residual),
                )
        # counit kills every relation
        bad = [idx for idx, rel in enumerate(inp.tt.relations)
               if not catalog.counit_value(rel).is_zero]
        report.add(
            "counit-on-relations", not bad,
            note="t^i_j -> delta_ij annihilates every relation" if not bad
            else f"counit fails on rows {bad}",
        )
        counit_D = catalog.counit_value(D)
        report.add("counit-on-determinant", counit_D == Scalar.one(),
                   note="counit(D) = 1" if counit_D == Scalar.one()
                   else f"counit(D) = {counit_D}, not 1")
    return report


def check_determinant(ctx: VerifyContext = DEFAULT_CONTEXT) -> Report:
    """Quasi-commutation of the determinant with every generator."""
    inp = ctx.bound
    with timed_report("determinant") as report:
        oracle = ncalg.algebra(inp.tt)
        TA = inp.tt.alphabet
        D = inp.determinant
        lam: dict[str, Scalar] = {}
        for name in TA.names():
            g = Element.generator(TA, name)
            # normal forms are linear, so g*D - lambda*D*g vanishes exactly
            # when the normal forms of g*D and D*g are proportional
            left = oracle.normal_form(g * D)
            right = oracle.normal_form(D * g)
            if right.is_zero:
                report.add(f"lambda:{name}", False, note="D*g reduces to zero",
                           counterexample="D*g reduces to zero")
                continue
            lead = right.lead_word()
            ratio = left.coefficient(lead) / right.coefficient(lead)
            excess = left - right.scale(ratio)
            if excess:
                report.add(f"lambda:{name}", False, note="g*D is not proportional to D*g",
                           counterexample=f"g*D not proportional to D*g: {excess}")
                continue
            lam[name] = ratio
            table = inp.dinv[name]
            matches = (not table.is_zero) and table == ratio.inverse()
            report.add(
                f"lambda:{name}", matches,
                note=f"g*D = ({ratio}) * D*g; inverse table coefficient "
                     f"{'matches' if matches else 'DIFFERS: ' + str(table)}",
                counterexample=None if matches else
                f"table gives {table}, oracle gives {ratio.inverse()}",
            )
        # the two pinned probes as explicit sums of products w1*r*w2 of the
        # transcribed rows, multiplied out again apart from the rewriting
        for name in ("t11", "t21"):
            if name not in lam:
                continue
            g = Element.generator(TA, name)
            probe = g * D - D.scale(lam[name]) * g
            # None (a nonzero normal form) is an empty sum, which cannot replay
            certificate = oracle.decomposition(probe) or {}
            replayed = _replay(certificate, inp.tt.relations) == probe.terms
            report.add(
                f"decomposition-replay:{name}", replayed,
                note=f"g*D - lambda*D*g = sum of {len(certificate)} products c*w1*r*w2 of "
                     "the transcribed rows, multiplied out exactly" if replayed else
                f"the {len(certificate)} products c*w1*r*w2 of the decomposition do not "
                "multiply out to g*D - lambda*D*g",
            )
        # non-centrality witnessed by t21: g*D - D*g has the normal form
        # (lambda - 1)*D*g, an exact non-member unless lambda is 1
        if "t21" in lam:
            noncentral = lam["t21"] != Scalar.one()
            report.add(
                "non-centrality:t21", noncentral,
                note=f"lambda(t21) = {lam['t21']}; membership of the untwisted "
                     f"commutator: {not noncentral} (exact)",
            )
        nontrivial = any(v != Scalar.one() for v in lam.values())
        report.add(
            "some-lambda-nontrivial", nontrivial,
            note="determinant is not central" if nontrivial
            else "no generator has a lambda other than 1",
        )
    return report


def _replay(certificate: dict, relations: Sequence[Element]) -> dict:
    """The terms of the sum of c * w1 * relations[r] * w2 over {(w1, r, w2): c}.

    Plain dicts and Scalar arithmetic: nothing of `ncalg` or `linalg` runs,
    so the check shares no code with the rewriting that found the
    decomposition.
    """
    out: dict = {}
    for (w1, r, w2), c in certificate.items():
        for w, a in relations[r].terms.items():
            word = w1 + w + w2
            total = out.pop(word, Scalar.zero()) + c * a
            if not total.is_zero:
                out[word] = total
    return out


# ---------------------------------------------------------------------------
# coaction
# ---------------------------------------------------------------------------


def _coaction_images(tensor_alphabet, W) -> dict[str, Element]:
    """x -> T.x, xi -> T.xi and d -> (Dinv W).d over the tensor algebra."""
    T = _matrix(tensor_alphabet, "t")
    dinv = Element.generator(tensor_alphabet, "Dinv")
    dinv_W = [[dinv * ncalg.algebra_map(w, tensor_alphabet) for w in row] for row in W]
    images: dict[str, Element] = {}
    for base, M in (("x", T), ("xi", T), ("d", dinv_W)):
        column = [[Element.generator(tensor_alphabet, f"{base}{j}")] for j in "123"]
        for i, (image,) in enumerate(_matmul(M, column), 1):
            images[f"{base}{i}"] = image
    return images


def _determinant_lift(nf: Element, target, D: Element) -> Element:
    """Multiply out Dinv powers: Dinv^k A_k -> D^(K-k) A_k over target, D over target."""
    dinv = nf.alphabet.rank_of("Dinv")
    by_power: dict[int, dict] = {}
    for w, c in nf.terms.items():
        by_power.setdefault(w.count(dinv), {})[w] = c
    K = max(by_power, default=0)
    out = Element.zero(target)
    for k, terms in by_power.items():
        piece = ncalg.algebra_map(Element(nf.alphabet, terms), target, {"Dinv": 1})
        for _ in range(K - k):
            piece = D * piece
        out = out + piece
    return out


# every calculus family once, in the order of the calculi
COACTION_DEFAULT_FAMILIES = tuple(dict.fromkeys(
    fid for variant in catalog.CALCULUS_VARIANTS for fid in catalog.calculus_family_ids(variant)))


def check_coaction(ctx: VerifyContext = DEFAULT_CONTEXT) -> Report:
    """Invariance of every calculus relation family under the quantum matrix."""
    inp = ctx.bound
    with timed_report("coaction") as report:
        tt = ncalg.algebra(inp.tt)
        D = inp.determinant
        cert = _matmul(inp.W, list(zip(*_matrix(inp.tt.alphabet, "t"))))
        reps = ((l, k, tt.member(cert[l][k] - D if k == l else cert[l][k]))
                for l in range(3) for k in range(3))
        failed = next(((l, k, rep) for l, k, rep in reps if not rep.member), None)
        report.add(
            "transposed-inverse", failed is None,
            note="W is the star image of the cofactors; certifies "
                 "sum_j W_lj t^k_j = delta_lk D" if failed is None
            else "sum_j W_lj t^k_j - delta_lk D is not in the ideal for W the star "
                 "image of the cofactors",
            counterexample=None if failed is None else
            f"entry ({failed[0] + 1}, {failed[1] + 1}): {str(failed[2].residual)[:160]}",
        )
        if failed is not None:
            return report
        # qg (x) calculus also normalizes and decides the lifted images, which
        # have no Dinv: no relation of qg mixes words with Dinv and words
        # without it (every word of the tdinv rows has one, no word of a tt row
        # does), so orienting qg reduces the two kinds of rows apart, and Dinv's
        # rank 0 shifts every other rank by one and keeps their order.  Its
        # rules for Dinv-free words are tt's, and no Dinv rule applies to a
        # Dinv-free word.  The tensor normalizes leg by leg, under the rules of
        # qg and of the calculus.
        # each family is decided in the first calculus that has it
        per_family = {}
        for variant, calculus in inp.calculus.items():
            alphabet = ncalg.tensor_alphabet(inp.qg.alphabet, calculus.alphabet)
            tensor = ncalg.TensorAlgebra(ncalg.algebra(inp.qg), ncalg.algebra(calculus), alphabet)
            setup = (tensor, tensor.rule_system(), alphabet, _coaction_images(alphabet, inp.W),
                     ncalg.algebra_map(D, alphabet))
            for fid in catalog.calculus_family_ids(variant):
                per_family.setdefault(fid, setup)
        for fid in COACTION_DEFAULT_FAMILIES:
            tensor, tensor_rules, alphabet, images, D_tensor = per_family[fid]
            failures = []
            stopped = None  # a rank collapse or an undecided verdict ends the family
            relations = inp.families[fid]
            for ridx, rel in enumerate(relations):
                nf = tensor_rules.normalize(ncalg.algebra_map(rel, alphabet, images))
                lifted = _determinant_lift(nf, alphabet, D_tensor)
                try:
                    rep = tensor.member(lifted)
                except ncalg.InconsistentPresentationError as err:
                    stopped = f"{err} (deciding relation {ridx})"
                    break
                if not rep.certain:
                    stopped = f"{rep.note} (relation {ridx})"
                    break
                if not rep.member:
                    failures.append((ridx, rep.residual))
            outcome = (f"{len(relations)} relations; images reduce to zero" if not failures
                       else f"{len(failures)} of {len(relations)} relation images do not "
                            f"reduce to zero")
            report.add(
                f"family:{fid}", not failures and stopped is None,
                note=stopped or
                f"{outcome} after straightening Dinv left and lifting by determinant powers",
                counterexample=None if not failures else
                f"relation {failures[0][0]}: {str(failures[0][1])[:160]}",
            )
    return report


# ---------------------------------------------------------------------------
# Hopf structure
# ---------------------------------------------------------------------------


def _leg_images(prefix: str, target) -> dict[str, Element]:
    """t^i_j -> prefix^i_j: the embedding of A as one leg of A (x) A."""
    return {f"t{i}{j}": Element.generator(target, f"{prefix}{i}{j}")
            for i in "123" for j in "123"}


def _coproduct_images(target) -> dict[str, Element]:
    """Delta(T) = L.R over A (x) A: Delta(t^i_j) = sum_k l^i_k r^k_j."""
    delta = _matmul(_matrix(target, "l"), _matrix(target, "r"))
    return {f"t{i}{j}": delta[i - 1][j - 1] for i in (1, 2, 3) for j in (1, 2, 3)}


def check_hopf(ctx: VerifyContext = DEFAULT_CONTEXT) -> Report:
    """Coproduct is an algebra map; the determinant is group-like; counit axiom."""
    inp = ctx.bound
    with timed_report("hopf") as report:
        # A (x) A: tt is both legs, its letters t^i_j renamed l^i_j and r^i_j
        tt = ncalg.algebra(inp.tt)
        TA = ncalg.tensor_alphabet(*(ncalg.Alphabet.build(
            [(leg + g.name[1:], g.parity, g.weight) for g in inp.tt.alphabet]) for leg in "lr"))
        tensor = ncalg.TensorAlgebra(tt, tt, TA)
        delta = _coproduct_images(TA)
        relations = inp.tt.relations
        failures = []
        for idx, rel in enumerate(relations):
            nf = tensor.normal_form(ncalg.algebra_map(rel, TA, delta))
            if not nf.is_zero:
                failures.append((idx, nf))
        report.add(
            "coproduct-is-algebra-map", not failures,
            note=f"all {len(relations)} relation images vanish at bidegree (2,2)" if not failures
            else f"{len(failures)} of {len(relations)} relation images do not vanish "
                 f"at bidegree (2,2)",
            counterexample=None if not failures else
            f"relation {failures[0][0]}: {str(failures[0][1])[:160]}",
        )
        D = inp.determinant
        left = ncalg.algebra_map(D, TA, _leg_images("l", TA))
        right = ncalg.algebra_map(D, TA, _leg_images("r", TA))
        diff = tensor.normal_form(ncalg.algebra_map(D, TA, delta) - left * right)
        report.add(
            "determinant-group-like", diff.is_zero,
            note="Delta(D) - D(x)D reduces to zero at bidegree (3,3), exactly" if diff.is_zero
            else "Delta(D) - D(x)D does not reduce to zero at bidegree (3,3)",
            counterexample=None if diff.is_zero else str(diff)[:160],
        )
        # counit axiom on generators: (counit (x) id) Delta = id = (id (x) counit) Delta
        t_alpha = catalog.t_alphabet()
        failed = []
        for leg, kept, side in (("l", "r", "counit x id"), ("r", "l", "id x counit")):
            collapse = {f"{leg}{i}{j}": int(i == j) for i in "123" for j in "123"}
            collapse.update({f"{kept}{i}{j}": Element.generator(t_alpha, f"t{i}{j}")
                             for i in "123" for j in "123"})
            bad = [name for name, image in delta.items()
                   if ncalg.algebra_map(image, t_alpha, collapse) != Element.generator(t_alpha, name)]
            if bad:
                failed.append(f"({side}) Delta(t^i_j) differs from t^i_j for {', '.join(bad)}")
        report.add(
            "counit-axiom", not failed,
            note="(counit x id) Delta(t^i_j) = t^i_j = (id x counit) Delta(t^i_j) "
                 "on all nine generators, symbolically" if not failed else "; ".join(failed),
        )
        report.add(
            "antipode-axiom", True,
            note="delegated: certified by the inverse check's antipode entries",
        )
    return report


# ---------------------------------------------------------------------------
# star structure
# ---------------------------------------------------------------------------


def check_star(ctx: VerifyContext = DEFAULT_CONTEXT) -> Report:
    """The star antihomomorphism respects every relation family it touches."""
    inp = ctx.bound
    with timed_report("star") as report:
        mapping = catalog.star_generator_map()
        moved = [name for name in mapping if mapping[mapping[name]] != name]
        report.add("involutive-on-generators", not moved,
                   note=f"{len(mapping)} generators checked, star o star = id" if not moved
                   else f"star o star moves {', '.join(moved)}")
        # variable relations: the span is star-stable; the central relation is
        # literally fixed, the two light-cone rows swap up to a unit
        xx = inp.families["xx"]
        xx_span = ncalg.Span(xx)
        for idx, rel in enumerate(xx, 1):
            image = catalog.star_apply(rel)
            member = xx_span.residual(image).is_zero
            note = ("star image is the relation itself" if image == rel else
                    "star image stays in the relation span" if member else
                    "star image leaves the relation span")
            report.add(
                f"variable-relations:{idx}", member, note=note,
                counterexample=None if member else str(image),
            )
        # the deformation relation is the row with an x1*x2 term, whatever
        # the order and scaling of the rows (its x3^2 term vanishes at s = 0)
        x1x2 = tuple(catalog.x_alphabet().rank_of(name) for name in ("x1", "x2"))
        deformation = next((rel for rel in xx if x1x2 in rel.terms), None)
        fixed = deformation is not None and catalog.star_apply(deformation) == deformation
        report.add(
            "variable-relation-fixed-point", fixed,
            note="the deformation relation x1*x2 - q*x2*x1 - s*x3^2 is star-fixed" if fixed
            else "no variable relation has an x1*x2 term" if deformation is None
            else "the star image of the deformation relation is not the relation itself",
        )
        # quantum matrix relations
        tt = inp.tt.relations
        tt_span = ncalg.Span(tt)
        bad = [idx for idx, rel in enumerate(tt) if tt_span.residual(catalog.star_apply(rel))]
        report.add(
            "quantum-matrix-relations", not bad,
            note="star image of every transcribed row stays in the span" if not bad
            else f"star images of {len(bad)} of {len(tt)} transcribed rows leave the span",
            counterexample=None if not bad else f"rows {bad} leave the span",
        )
        # the determinant is star-fixed modulo the ideal, so Dinv* = Dinv is sound
        D = inp.determinant
        rep = ncalg.algebra(inp.tt).member(catalog.star_apply(D) - D)
        report.add(
            "determinant-star-fixed", rep.member,
            note="star(D) - D reduces to zero at degree 3" if rep.member
            else "star(D) - D does not reduce to zero at degree 3",
            counterexample=None if rep.member else str(rep.residual)[:160],
        )
        # inverse-determinant commutation rules
        tdinv = inp.families["tdinv"]
        qg_span = ncalg.Span(inp.qg.relations)
        bad = [idx for idx, rel in enumerate(tdinv)
               if qg_span.residual(catalog.star_apply(rel))]
        report.add(
            "inverse-determinant-relations", not bad,
            note="star images of the commutation rules are ideal members" if not bad
            else f"star images of {len(bad)} of {len(tdinv)} commutation rules leave the span",
            counterexample=None if not bad else f"rows {bad} leave the span",
        )
    return report


# ---------------------------------------------------------------------------
# specializations
# ---------------------------------------------------------------------------


def check_specializations(ctx: VerifyContext = DEFAULT_CONTEXT) -> Report:
    """The four distinguished parameter/generator specializations.

    Each specialization is applied after the bindings, to both sides of every
    comparison.  A sub-check that the bindings rule out passes with a note
    that starts "not applicable:".
    """
    inp = ctx.bound
    with timed_report("specializations") as report:
        # (a) s = 0: the variable algebra is the quantum plane
        if not inp.s.substitute({"s": 0}).is_zero:
            report.add("s=0-quantum-plane", True,
                       note=f"not applicable: s is bound to {inp.s}")
        else:
            xp = PresentationSpec("x", catalog.x_alphabet(), inp.families["xx"])
            cmp = ncalg.span_compare(ncalg.specialize(xp, {"s": 0}).relations,
                                     ncalg.specialize(inp.plane, {"s": 0}).relations)
            report.add("s=0-quantum-plane", cmp.verdict == "equal",
                       note=f"span comparison: {cmp.verdict}")
        # (b) q = u^2: the braiding is self-inverse and the calculi coincide;
        # q := u^2 after the bindings if q is free, else the bindings must give it
        factor = inp.u * inp.u - inp.q
        u2, off_u2 = {}, None
        if inp.q != Scalar.param("q"):
            if not factor.is_zero:
                off_u2 = f"not applicable: the bindings give u^2 - q = {factor}"
        elif any(exps[0] for exps in (*inp.u.numer_terms(), *inp.u.denom_terms())):
            off_u2 = f"not applicable: the bindings give u = {inp.u}, which mentions q"
        else:
            u2 = {"q": inp.u * inp.u}
        kinds = ("xxi", "dxi", "xd")
        if off_u2:
            for detail_id in ("q=u^2-self-inverse-braiding",
                              *(f"q=u^2-calculi-coincide:{kind}" for kind in kinds)):
                report.add(detail_id, True, note=off_u2)
        else:
            self_inverse = inp.omega.substitute(u2) == inp.omega_inv.substitute(u2)
            report.add("q=u^2-self-inverse-braiding", self_inverse,
                       note="" if self_inverse else "omega and omega-inv differ at q = u^2")
            for kind in kinds:
                a = [r.substitute_params(u2) for r in inp.families[f"{kind}-omega"]]
                b = [r.substitute_params(u2) for r in inp.families[f"{kind}-omega-inv"]]
                cmp = ncalg.span_compare(a, b)
                report.add(f"q=u^2-calculi-coincide:{kind}", cmp.verdict == "equal",
                           note=f"span comparison: {cmp.verdict}")
        # (c) t31 = t32 = 0 forces the two binomial residues
        spec = ncalg.specialize(inp.tt, {"t31": 0, "t32": 0})
        residues = {}
        for rel in spec.relations:
            if rel and len(rel.terms) == 1:
                word, coeff = next(iter(rel.terms.items()))
                names = tuple(spec.alphabet.generators[g].name for g in word)
                residues[names] = coeff
        for expected in ((("t12", "t33"), ("t21", "t33"))):
            detail_id = f"t3-row-residue:{'*'.join(expected)}"
            if factor.is_zero:
                report.add(detail_id, True, note="not applicable: the bindings make u^2 - q vanish")
                continue
            present = expected in residues
            # the residue must be (u^2 - q) times a Laurent polynomial in q, u, s
            divides = present and _laurent_in(residues[expected] / factor, (inp.q, inp.u))
            report.add(
                detail_id, divides,
                note=f"specialized relation {residues.get(expected)}*{'*'.join(expected)}"
                if present else "residue missing",
            )
        # (d) q = u^2, t31 = t32 = 0, invert t33: all t'_ij commute
        if off_u2:
            report.add("t-prime-commutativity", True, note=off_u2)
        else:
            spec2 = ncalg.specialize(inp.tt, {**u2, "t31": 0, "t32": 0})
            ok, note, counterexample = _tprime_commutativity(spec2, inp.determinant, u2)
            report.add("t-prime-commutativity", ok, note=note, counterexample=counterexample)
    return report


def _laurent_in(x: Scalar, values) -> bool:
    """Whether x is a Laurent polynomial in values and the free parameters.

    Its reduced denominator may hold a monomial and the factors of the
    numerators and denominators of values (the bound q and u, which the
    relations invert): their product to the denominator's degree clears them.
    """
    if len(x.denom_terms()) == 1:
        return True
    q, u, s = (Scalar.param(name) for name in "qus")
    clear = Scalar.one()
    for value in values:
        for terms in (value.numer_terms(), value.denom_terms()):
            clear = clear * sum((k * q ** a * u ** b * s ** c for (a, b, c), k in terms.items()),
                                Scalar.zero())
    degree = max(sum(exps) for exps in x.denom_terms())
    return len((x * clear ** degree).denom_terms()) == 1


def _tprime_commutativity(spec2: PresentationSpec, D: Element, u2: dict):
    """Whether the t'_ij = t_ij * w, w = t33^-1, commute (q = u^2, t31 = t32 = 0).

    Each g quasi-commutes with t33, t33*g = nu_g * g*t33, so g*w = nu_g * w*g
    and [a*w, b*w] = (a*b/nu_b - b*a/nu_a) * w^2: a pair commutes exactly when
    that degree-2 element lies in the span of the specialized relations and of
    M - t33^2.
    """
    SA = spec2.alphabet
    t33 = SA.rank_of("t33")
    # the specialized determinant factors as M * t33; M - t33^2 is the deformed
    # subgroup determinant condition, part of the subgroup's definition
    D_spec = ncalg.algebra_map(D.substitute_params(u2), SA,
                               {"t31": 0, "t32": 0})
    if not all(w and w[-1] == t33 for w in D_spec.terms):
        reason = "specialized determinant does not factor through t33"
        return False, reason, reason
    M = Element(SA, {w[:-1]: c for w, c in D_spec.terms.items()})
    span = ncalg.Span([*spec2.nonzero_relations(), M - Element.from_word(SA, (t33, t33))])
    gen = partial(Element.generator, SA)
    nu = {}
    for g in SA.generators:
        if g.rank == t33:
            continue
        rhs = span.residual(gen("t33") * gen(g.name))
        if set(rhs.terms) != {(g.rank, t33)}:
            reason = f"no clean commutation rule for t33 with {g.name}: {rhs}"
            return False, reason, reason
        nu[g.name] = rhs.terms[(g.rank, t33)]
    inv = {"t33": Scalar.one(), **{name: v.inverse() for name, v in nu.items()}}
    failures = [(a, b, res) for a, b in itertools.combinations(SA.names(), 2)
                if (res := span.residual((gen(a) * gen(b)).scale(inv[b])
                                         - (gen(b) * gen(a)).scale(inv[a])))]
    nu_text = ", ".join(f"{k}:{v}" for k, v in nu.items())
    note = (
        "derived inverse rules g*w = nu*w*g with nu = {%s}; the deformed subgroup "
        "determinant condition (from factoring the specialized determinant) is "
        "adjoined; %s" % (nu_text, f"{len(failures)} of 21 pairs do not commute"
                          if failures else "all 21 pairs commute")
    )
    if failures:
        a, b, res = failures[0]
        return False, note, f"[{a}*w, {b}*w] = ({str(res)[:160]})*w^2"
    return True, note, None


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


CHECKS = {
    "ybe": check_yang_baxter,
    "constraints": check_constraints,
    "eigenstructure": check_eigenstructure,
    "calculus-omega": partial(check_calculus, variant="omega"),
    "calculus-omega-inv": partial(check_calculus, variant="omega-inv"),
    "rtt": check_rtt,
    "inverse": check_inverse,
    "determinant": check_determinant,
    "coaction": check_coaction,
    "hopf": check_hopf,
    "star": check_star,
    "specializations": check_specializations,
}
CHECK_IDS = tuple(CHECKS)


def run_check(check_id: str, ctx: VerifyContext = DEFAULT_CONTEXT) -> Report:
    check = CHECKS.get(check_id)
    if check is None:
        raise KeyError(f"unknown check {check_id!r}; known: {', '.join(CHECK_IDS)}")
    return check(ctx)


def run_all(ctx: VerifyContext = DEFAULT_CONTEXT,
            checks: Sequence[str] = CHECK_IDS) -> list[Report]:
    return [run_check(cid, ctx) for cid in checks]

