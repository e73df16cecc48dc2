"""Reference routes that only the tests run, kept out of `wh3.ncalg`.

- `row_member(oracle, e, degree)`: membership by exact elimination on the raw
  rows w1 * r * w2, independent of the rules.  When every relation is
  homogeneous each homogeneous component of e meets the rows of its own
  length; the residual is the echelon's canonical remainder, so for
  homogeneous relations it is the normal form under `completion(degree)`.
- `rewrite(rules, e, strategy, rng)`: unmemoized rewriting that takes the
  rightmost or a random redex instead of the leftmost one.
- `leftmost_steps(rules, e)`: the normal form with its count of rewrite steps.
- `all_pairs_ambiguities(rules, fresh)`: the ambiguities between rule left
  sides found by comparing every pair letter by letter, in the order that
  `wh3.ncalg._ambiguities` must keep.
- `algebra_tensor(a, b)`: the tensor A (x) B written out as one flat
  presentation, which `orient` orients whole; `wh3.ncalg.TensorAlgebra`
  normalizes the same algebra leg by leg.
- `random_omega_mutation(rng)`: a random single-entry corruption of the
  braiding matrix, for the negative controls.
- `two_pass_span_compare(a, b)`: the span comparison that eliminates both
  lists and reduces each list's relations modulo the other span, whatever
  the ranks; `wh3.ncalg.span_compare` skips the second pass once the spans
  are known to be equal.
- `whole_product_yang_baxter(ctx)`: the braid equation compared on both
  27x27 products built whole; `wh3.verify.check_yang_baxter` builds them row
  by row and stops at the first differing row.
- `gcd_combine(a, b, op)`: `a op b` of two stored scalar representations by
  cancelling one GCD of the combined numerator and denominator;
  `wh3.scalars._combine` cancels by Henrici's cross-cancellation.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from wh3 import catalog, ncalg, scalars, verify
from wh3.linalg import ScalarEchelon, add_into
from wh3.ncalg import (DegreeBoundError, Element, MembershipReport, PresentationSpec,
                       RewriteBudgetError, Span, SpanComparison, algebra_map, tensor_alphabet)
from wh3.reports import Report, timed_report
from wh3.scalars import Scalar


@functools.lru_cache(maxsize=16)
def _row_echelon(oracle, length: int) -> ScalarEchelon:
    """The exact echelon of the oracle's raw rows for words of length `length`."""
    ech = ScalarEchelon()
    for row in sorted(oracle._row_vectors(length), key=lambda r: max(r, default=(-1, ()))):
        ech.insert(row)
    return ech


def row_member(oracle, e: Element, degree: int) -> MembershipReport:
    """Whether e lies in the span of the raw rows of length at most degree, exactly."""
    if e.degree() > degree:
        raise DegreeBoundError(f"element degree {e.degree()} exceeds bound {degree}")
    if e.is_zero:
        return MembershipReport(True, True, "trivial", "exact", degree)
    alphabet, key = oracle.pres.alphabet, oracle.pres.alphabet.word_key
    if oracle.homogeneous:
        parts: dict = {}  # length -> the component of e
        for w, c in e.terms.items():
            parts.setdefault(len(w), {})[key(w)] = c
    else:
        parts = {degree: {key(w): c for w, c in e.terms.items()}}
    rank, residual = 0, {}
    for length, vec in parts.items():
        ech = _row_echelon(oracle, length)
        rank += ech.rank
        residual.update((w, c) for (_, w), c in ech.reduce(vec).items())
    return MembershipReport(not residual, True, "linear-algebra", "exact", degree,
                            span_rank=rank,
                            residual=Element(alphabet, residual) if residual else None)


def rewrite(rules, e: Element, strategy: str, rng: random.Random | None = None) -> Element:
    """The normal form reached by always rewriting the rightmost or a random redex.

    Nothing is memoized; more than `ncalg.REWRITE_BUDGET` steps raise RewriteBudgetError.
    """
    lengths = sorted({len(lhs) for lhs in rules.rules})
    steps = 0
    work = list(e.terms.items())
    result: dict = {}
    while work:
        word, coeff = work.pop()
        positions = [(i, word[i:i + length]) for i in range(len(word))
                     for length in lengths
                     if i + length <= len(word) and word[i:i + length] in rules.rules]
        if not positions:
            add_into(result, {word: coeff})
            continue
        if strategy == "rightmost":
            i, lhs = positions[-1]
        elif strategy == "random":
            i, lhs = (rng or random).choice(positions)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        steps += 1
        if steps > ncalg.REWRITE_BUDGET:
            raise RewriteBudgetError("rewrite budget exceeded")
        prefix, suffix = word[:i], word[i + len(lhs):]
        for w, c in rules.rules[lhs].terms.items():
            work.append((prefix + w + suffix, coeff * c))
    return Element(rules.alphabet, result)


def leftmost_steps(rules, e: Element) -> tuple[Element, int]:
    """`rules.normalize(e)` and the rewrite steps it took past the memo."""
    counter = [0]
    terms: dict = {}
    for w, c in e.terms.items():
        add_into(terms, rules.normalize_word(w, counter).terms, c)
    return Element(rules.alphabet, terms), counter[0]


def all_pairs_ambiguities(rules, fresh=None):
    """Every overlap and inclusion ambiguity, by a scan of all pairs of left sides.

    Yields (word, (0, a), (pos_b, b)) by a, then by b, both in rule order, and
    for one pair its overlaps by growing k before its inclusions by growing
    position; with fresh, only the pairs with a or b in fresh.
    """
    items = list(rules)
    for a in items:
        for b in items:
            if fresh is not None and a not in fresh and b not in fresh:
                continue
            # overlap: a proper suffix of a equals a proper prefix of b
            for k in range(1, min(len(a), len(b))):
                if a[len(a) - k:] == b[:k]:
                    yield a + b[k:], (0, a), (len(a) - k, b)
            # inclusion: b occurs strictly inside a
            if len(b) < len(a):
                for i in range(len(a) - len(b) + 1):
                    if a[i:i + len(b)] == b:
                        yield a, (0, a), (i, b)


def algebra_tensor(a: PresentationSpec, b: PresentationSpec) -> PresentationSpec:
    """Two-sided tensor: union alphabet, union relations, commuting cross pairs.

    All A-generators are ranked below all B-generators (`tensor_alphabet`);
    every cross pair commutes (even-even and even-odd alike).
    """
    alphabet = tensor_alphabet(a.alphabet, b.alphabet)
    offset = len(a.alphabet)
    relations = [algebra_map(r, alphabet) for r in (*a.relations, *b.relations)]
    one = Scalar.one()
    for ga in range(len(a.alphabet)):
        for gb in range(offset, len(alphabet)):
            relations.append(Element(alphabet, {(ga, gb): one, (gb, ga): -one}))
    return PresentationSpec(f"{a.name}(x){b.name}", alphabet, relations)


def random_omega_mutation(rng: random.Random) -> tuple:
    """A random single-entry corruption of the braiding matrix (for controls)."""
    cells = list(catalog.omega().nonzero_cells())
    row_pair, col_pair, value = cells[rng.randrange(len(cells))]
    offset = Scalar.from_fraction(rng.choice((1, 2, -1)))
    return (row_pair, col_pair, value + offset)


def two_pass_span_compare(a, b) -> SpanComparison:
    """Exact row-space comparison of two relation lists, both residual passes always run."""
    rel_a, rel_b = [r for r in a if not r.is_zero], [r for r in b if not r.is_zero]
    span_a, span_b = Span(rel_a), Span(rel_b)
    b_not_in_a = next((res for r in rel_b if (res := span_a.residual(r))), None)
    a_not_in_b = next((res for r in rel_a if (res := span_b.residual(r))), None)
    verdict = {
        (False, False): "equal",
        (False, True): "A_subset_B",
        (True, False): "B_subset_A",
        (True, True): "incomparable",
    }[(a_not_in_b is not None, b_not_in_a is not None)]
    return SpanComparison(verdict, span_a.rank, span_b.rank, a_not_in_b or b_not_in_a)


def whole_product_yang_baxter(ctx) -> Report:
    """The ybe report from both 27x27 products of each braiding, built whole."""
    inp = ctx.bound
    with timed_report("ybe") as report:
        for variant, (C, _) in inp.braidings.items():
            C1, C2 = verify._braid_legs(C)
            lhs, rhs = (C1 @ C2 @ C1).rows, (C2 @ C1 @ C2).rows
            cell = None
            for r in set(lhs) | set(rhs):
                lrow = lhs.get(r, {})
                rrow = rhs.get(r, {})
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


def gcd_combine(a, b, op: str) -> Scalar:
    """The Scalar `a op b` (op one of + - * /) from the reduced fractions of both sides."""
    (n1, d1), (n2, d2) = scalars._parts(a), scalars._parts(b)
    if op == "*":
        numer, denom = scalars._mul_terms(n1, n2), scalars._mul_terms(d1, d2)
    elif op == "/":
        numer, denom = scalars._mul_terms(n1, d2), scalars._mul_terms(d1, n2)
    elif d1 == d2:
        numer, denom = scalars._add_terms(n1, n2, op == "-"), d1
    else:
        numer = scalars._add_terms(scalars._mul_terms(n1, d2), scalars._mul_terms(n2, d1),
                                   op == "-")
        denom = scalars._mul_terms(d1, d2)
    if not numer:
        return Scalar.zero()
    _, numer, denom = scalars._cofactors(numer, denom)
    if denom[max(denom)] < 0:
        numer, denom = scalars._negate(numer), scalars._negate(denom)
    if len(denom) == 1:
        ((m0, m1, m2), dc), = denom.items()
        return Scalar({(e0 - m0, e1 - m1, e2 - m2): scalars._canon(Fraction(c, dc))
                       for (e0, e1, e2), c in numer.items()})
    return Scalar((numer, denom))
