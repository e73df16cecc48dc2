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
"""

from __future__ import annotations

import functools
import random

from wh3.linalg import ScalarEchelon, add_into
from wh3.ncalg import DegreeBoundError, Element, MembershipReport, RewriteBudgetError


@functools.lru_cache(maxsize=16)
def _row_echelon(oracle, length: int) -> ScalarEchelon:
    """The exact echelon of the oracle's raw rows for words of length `length`."""
    ech = ScalarEchelon()
    for row in sorted(oracle._row_vectors(length), key=lambda r: max(r, default=-1)):
        ech.insert(row)
    return ech


def row_member(oracle, e: Element, degree: int) -> MembershipReport:
    """Whether e lies in the span of the raw rows of length at most degree, exactly."""
    if e.degree() > degree:
        raise DegreeBoundError(f"element degree {e.degree()} exceeds bound {degree}")
    if e.is_zero:
        return MembershipReport(True, True, "trivial", "exact", degree)
    alphabet = oracle.pres.alphabet
    if oracle.homogeneous:
        parts: dict = {}  # length -> the component of e
        for w, c in e.terms.items():
            parts.setdefault(len(w), {})[w] = c
    else:
        parts = {degree: e.terms}
    rank, residual = 0, {}
    for length, terms in parts.items():
        ech = _row_echelon(oracle, length)
        rank += ech.rank
        residual.update(alphabet.decode_terms(
            ech.reduce(alphabet.encode_terms(terms, length)), length))
    return MembershipReport(not residual, True, "linear-algebra", "exact", degree,
                            span_rank=rank,
                            residual=Element(alphabet, residual) if residual else None)


def rewrite(rules, e: Element, strategy: str, rng: random.Random | None = None) -> Element:
    """The normal form reached by always rewriting the rightmost or a random redex.

    Nothing is memoized; more than `rules.budget` steps raise RewriteBudgetError.
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
        if steps > rules.budget:
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
