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
"""

from __future__ import annotations

import functools
import random

from wh3 import catalog, ncalg
from wh3.linalg import ScalarEchelon, add_into
from wh3.ncalg import (DegreeBoundError, Element, MembershipReport, PresentationSpec,
                       RewriteBudgetError, algebra_map, tensor_alphabet)
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
