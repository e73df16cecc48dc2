"""Free graded noncommutative algebra with quadratic rewriting.

Elements are finite scalar combinations of words over a ranked alphabet.
Quadratic presentations are oriented into monic, strictly deg-lex-decreasing
rewrite rules; normal forms, overlap (diamond) analysis with completion to a
degree bound, graded derivations and ideal membership are built on top.
Every test of linear span over Q(q, u, s) goes through one `Span` of a
relation list: its rank, which relations depend on earlier ones, and the
residual of an element, zero exactly when the element lies in the span
(`span_compare` is two of them).

Normalization is linear and subtracts explicit ideal elements, so NF(e) = 0
certifies that e lies in the ideal.  For confluent rules Bergman's diamond
lemma makes the normal words a basis of the quotient, so NF(e) != 0 certifies
the converse.  Other rules are completed to degree d (every ambiguity of
length <= d resolved); for homogeneous relations the normal words of length
<= d are then a basis of the quotient in those degrees, and the normal form
decides membership exactly again.  `algebra(pres)` returns the one object
per presentation content that holds the rules, the certificate, the
completions and the caches.

A tensor algebra A (x) B orients nothing of its own: its rules are A's, B's
and b*a -> a*b, so its normal words are an A-normal word followed by a
B-normal word.  `TensorAlgebra(left, right, alphabet)` takes the two legs'
algebra objects and the tensor alphabet (`tensor_alphabet`), and computes
normal forms, the certificate and the completions from the legs.
`algebra_tensor` writes the same algebra out as one flat presentation.
"""

from __future__ import annotations

import itertools
import random
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import (
    DEFAULT_PRIME,
    DEFAULT_SEED,
    ModEchelon,
    ScalarEchelon,
    add_into,
    eval_vec_mod,
    with_modular_retries,
)
from .scalars import PARAMETERS, Scalar, format_scalar

__all__ = [
    "Generator",
    "Alphabet",
    "EMPTY_ALPHABET",
    "Element",
    "PresentationSpec",
    "RuleSystem",
    "RewriteBudgetError",
    "InconsistentPresentationError",
    "DegreeBoundError",
    "DerivationError",
    "orient",
    "overlap_resolve",
    "ConfluenceReport",
    "derivation_apply",
    "MembershipOracle",
    "MembershipReport",
    "TensorRules",
    "TensorAlgebra",
    "algebra",
    "Span",
    "span_compare",
    "SpanComparison",
    "algebra_map",
    "algebra_tensor",
    "tensor_alphabet",
    "specialize",
    "presentation_to_json",
    "presentation_from_json",
]

DEFAULT_REWRITE_BUDGET = 2_000_000
DEFAULT_MEMBERSHIP_DEGREE = 4
MEMBERSHIP_ROW_CAP = 400_000
ALGEBRA_CACHE_SIZE = 32


class RewriteBudgetError(RuntimeError):
    """The rewrite step cap was exceeded (non-terminating or explosive system)."""


class InconsistentPresentationError(ValueError):
    """A presentation cannot be oriented into a sound quadratic rule system."""


class DegreeBoundError(ValueError):
    """A degree-bounded computation was asked to exceed its bound."""


class DerivationError(ValueError):
    """A derivation was applied to a generator without an assigned image."""


# ---------------------------------------------------------------------------
# alphabet and elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Generator:
    name: str
    parity: int = 0  # 1 for odd (one-form) generators
    rank: int = 0
    weight: int = 1  # order weight; straightening tables need some letters lighter


class Alphabet:
    """An ordered list of generators; rank equals position.

    Words are compared by weighted deg-lex: total generator weight first,
    then lexicographically by rank.  With all weights 1 this is plain
    deg-lex; the catalog algebras give their third-index generators weight 1
    against 2 for the others (reversed for derivatives) so that every printed
    relation table orients into strictly decreasing rules.
    """

    def __init__(self, generators: Sequence[Generator]):
        gens = tuple(generators)
        for rank, gen in enumerate(gens):
            if gen.rank != rank:
                raise ValueError(f"generator {gen.name!r} has rank {gen.rank}, expected {rank}")
            if gen.weight < 1:
                raise ValueError("generator weights must be positive")
        if len({g.name for g in gens}) != len(gens):
            raise ValueError("generator names must be unique")
        self.generators = gens
        self._by_name = {g.name: g for g in gens}
        self.parities = tuple(g.parity for g in gens)
        self.weights = tuple(g.weight for g in gens)

    @staticmethod
    def build(specs: Sequence[tuple]) -> "Alphabet":
        gens = []
        for rank, spec in enumerate(specs):
            name, parity = spec[0], spec[1]
            weight = spec[2] if len(spec) > 2 else 1
            gens.append(Generator(name, parity, rank, weight))
        return Alphabet(tuple(gens))

    def word_key(self, word: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        return (sum(self.weights[g] for g in word), word)

    def encode(self, word: tuple[int, ...], max_len: int, at: int = 0) -> int:
        """The integer of a word of length <= max_len, ordered exactly as word_key.

        Total weight, then the letters as base-(n+1) digits rank + 1 padded
        with 0 to max_len digits, so a prefix sorts below its extensions.
        With at > 0 the digits start at letter position at: the codes of the
        consecutive pieces of a word add up to the code of the word.
        """
        if at + len(word) > max_len:
            raise ValueError(f"word of length {len(word)} at {at} exceeds length {max_len}")
        base, weights = len(self.generators) + 1, self.weights
        weight = digits = 0
        for g in word:
            weight += weights[g]
            digits = digits * base + g + 1
        return weight * base ** max_len + digits * base ** (max_len - at - len(word))

    def decode(self, code: int, max_len: int) -> tuple[int, ...]:
        """The word that encode(word, max_len) numbers code."""
        base = len(self.generators) + 1
        digits = code % base ** max_len
        letters = []
        while digits:
            digits, digit = divmod(digits, base)
            if digit:  # 0 is padding
                letters.append(digit - 1)
        return tuple(reversed(letters))

    def encode_terms(self, terms: Mapping[tuple[int, ...], object], max_len: int) -> dict:
        """An echelon vector: every word of terms encoded for max_len."""
        return {self.encode(w, max_len): c for w, c in terms.items()}

    def decode_terms(self, vec: Mapping[int, object], max_len: int) -> dict:
        """The words and coefficients of an echelon vector built by encode_terms."""
        return {self.decode(k, max_len): c for k, c in vec.items()}

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def rank_of(self, name: str):
        gen = self._by_name.get(name)
        return None if gen is None else gen.rank

    def format_word(self, word: tuple[int, ...]) -> str:
        if not word:
            return "1"
        return "*".join(self.generators[g].name for g in word)

    def compatible_with(self, other: "Alphabet") -> bool:
        return self is other or (
            self.names() == other.names()
            and self.parities == other.parities
            and self.weights == other.weights
        )


EMPTY_ALPHABET = Alphabet(())


class Element:
    """A noncommutative polynomial: a finite map word -> nonzero Scalar."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        self.alphabet = alphabet
        self.terms = {w: c for w, c in (terms or {}).items() if not c.is_zero}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(alphabet: Alphabet) -> "Element":
        return Element(alphabet)

    @staticmethod
    def from_scalar(alphabet: Alphabet, value) -> "Element":
        if isinstance(value, (int, Fraction)):
            value = Scalar.from_fraction(value)
        return Element(alphabet, {(): value})

    @staticmethod
    def from_word(alphabet: Alphabet, word: tuple[int, ...], coeff=None) -> "Element":
        coeff = Scalar.one() if coeff is None else coeff
        return Element(alphabet, {tuple(word): coeff})

    @staticmethod
    def generator(alphabet: Alphabet, name: str) -> "Element":
        rank = alphabet.rank_of(name)
        if rank is None:
            raise ValueError(f"unknown generator {name!r}")
        return Element.from_word(alphabet, (rank,))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Element"):
        if not self.alphabet.compatible_with(other.alphabet):
            raise ValueError("elements live over different alphabets")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.alphabet, add_into(dict(self.terms), other.terms))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return Element(self.alphabet, _product(self.terms, other.terms))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value) -> "Element":
        if isinstance(value, (int, Fraction)):
            value = Scalar.from_fraction(value)
        if value.is_zero:
            return Element(self.alphabet)
        return Element(self.alphabet, {w: c * value for w, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.alphabet.compatible_with(other.alphabet) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- structure -----------------------------------------------------------

    def lead_word(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero element has no lead word")
        return max(self.terms, key=self.alphabet.word_key)

    def degree(self) -> int:
        """Maximal word length (0 for the zero element)."""
        return max((len(w) for w in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        lengths = {len(w) for w in self.terms}
        return len(lengths) <= 1

    def scalar_value(self):
        """The coefficient of the empty word if no generator occurs, else None."""
        if not self.terms:
            return Scalar.zero()
        if set(self.terms) == {()}:
            return self.terms[()]
        return None

    def coefficient(self, word: tuple[int, ...]) -> Scalar:
        return self.terms.get(tuple(word), Scalar.zero())

    def map_coefficients(self, fn) -> "Element":
        return Element(self.alphabet, {w: fn(c) for w, c in self.terms.items()})

    def substitute_params(self, bindings: Mapping[str, object]) -> "Element":
        return self.map_coefficients(lambda c: c.substitute(bindings))

    # -- formatting ----------------------------------------------------------

    def format(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            coeff = self.terms[word]
            if coeff.leading_sign() < 0:
                sign, body_scalar = "-", -coeff
            else:
                sign, body_scalar = "+", coeff
            body = _format_coefficient(body_scalar, bool(word))
            word_str = self.alphabet.format_word(word)
            if not word:
                text = body if body else "1"
            elif body:
                text = f"{body}*{word_str}"
            else:
                text = word_str
            pieces.append((sign, text))
        sign, text = pieces[0]
        out = text if sign == "+" else f"-{text}"
        for sign, text in pieces[1:]:
            out += f" {sign} {text}"
        return out

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Element({self.format()!r})"


def _product(left: Mapping, right: Mapping) -> dict:
    """The terms of the product of two term dicts: words concatenate."""
    out: dict = {}
    for w1, c1 in left.items():
        add_into(out, {w1 + w2: c2 for w2, c2 in right.items()}, c1)
    return out


def _format_coefficient(value: Scalar, has_word: bool) -> str:
    """Render a (sign-positive) coefficient; empty string means an implicit 1."""
    if has_word and value.is_one:
        return ""
    text = format_scalar(value)
    if has_word and (" " in text or "/" in text):
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# presentations and rewriting
# ---------------------------------------------------------------------------


@dataclass
class PresentationSpec:
    """An alphabet together with a list of relations (elements that vanish)."""

    name: str
    alphabet: Alphabet
    relations: list[Element] = dc_field(default_factory=list)

    def nonzero_relations(self) -> list[Element]:
        return [r for r in self.relations if not r.is_zero]

    def all_homogeneous(self) -> bool:
        return all(r.is_homogeneous() for r in self.nonzero_relations())


class RuleSystem:
    """Oriented rewrite rules lhs -> rhs with every rhs word deg-lex below lhs."""

    def __init__(self, alphabet: Alphabet, rules: Mapping[tuple[int, ...], Element],
                 budget: int = DEFAULT_REWRITE_BUDGET):
        self.alphabet = alphabet
        self.rules = dict(rules)
        self.budget = budget
        key = alphabet.word_key
        for lhs, rhs in self.rules.items():
            if len(lhs) < 2:
                raise ValueError("rule left sides must have length >= 2")
            for w in rhs.terms:
                if key(w) >= key(lhs):
                    raise ValueError(
                        f"rule {self.alphabet.format_word(lhs)} has non-decreasing right side"
                    )
        self._lhs_lengths = sorted({len(l) for l in self.rules}) or [2]
        self._nf_cache: dict[tuple[int, ...], Element] = {}

    def __len__(self) -> int:
        return len(self.rules)

    def find_redex(self, word: tuple[int, ...]):
        """Leftmost (then shortest) rule occurrence in word, or None."""
        for i in range(len(word)):
            for length in self._lhs_lengths:
                if i + length > len(word):
                    break
                cand = word[i : i + length]
                if cand in self.rules:
                    return i, cand
        return None

    def normalize_word(self, word: tuple[int, ...], counter: list[int] | None = None) -> Element:
        """Normal form of a single word (leftmost strategy, memoized)."""
        cache = self._nf_cache
        cached = cache.get(word)
        if cached is not None:
            return cached
        budget = self.budget
        stack = [tuple(word)]
        while stack:
            current = stack[-1]
            if current in cache:
                stack.pop()
                continue
            redex = self.find_redex(current)
            if redex is None:
                cache[current] = Element.from_word(self.alphabet, current)
                stack.pop()
                continue
            i, lhs = redex
            rhs = self.rules[lhs]
            prefix, suffix = current[:i], current[i + len(lhs):]
            children = [prefix + w + suffix for w in rhs.terms]
            missing = [c for c in children if c not in cache]
            if missing:
                stack.extend(missing)
                continue
            if counter is not None:
                counter[0] += 1
                if counter[0] > budget:
                    raise RewriteBudgetError(
                        f"rewrite budget exceeded at word {self.alphabet.format_word(current)}"
                    )
            total: dict = {}
            for w, c in rhs.terms.items():
                add_into(total, cache[prefix + w + suffix].terms, c)
            cache[current] = Element(self.alphabet, total)
            stack.pop()
        return cache[word]

    def normalize(self, e: Element, strategy: str = "leftmost",
                  rng: random.Random | None = None, with_steps: bool = False):
        """Normal form of an element; linear in the element by construction."""
        if strategy == "leftmost":
            counter = [0]
            terms: dict = {}
            for w, c in e.terms.items():
                add_into(terms, self.normalize_word(w, counter).terms, c)
            out = Element(self.alphabet, terms)
            return (out, counter[0]) if with_steps else out
        return self._normalize_strategy(e, strategy, rng, with_steps)

    def _normalize_strategy(self, e: Element, strategy: str,
                            rng: random.Random | None, with_steps: bool):
        """Unmemoized rewriting with a configurable redex choice (for tests)."""
        steps = 0
        work = [(w, c) for w, c in e.terms.items()]
        result: dict[tuple[int, ...], Scalar] = {}
        while work:
            word, coeff = work.pop()
            positions = []
            for i in range(len(word)):
                for length in self._lhs_lengths:
                    if i + length <= len(word) and word[i : i + length] in self.rules:
                        positions.append((i, word[i : i + length]))
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
            if steps > self.budget:
                raise RewriteBudgetError("rewrite budget exceeded")
            rhs = self.rules[lhs]
            prefix, suffix = word[:i], word[i + len(lhs):]
            for w, c in rhs.terms.items():
                work.append((prefix + w + suffix, coeff * c))
        out = Element(self.alphabet, result)
        return (out, steps) if with_steps else out

    def extended(self, extra_rules: Mapping[tuple[int, ...], Element]) -> "RuleSystem":
        merged = dict(self.rules)
        merged.update(extra_rules)
        return RuleSystem(self.alphabet, merged, self.budget)


class TensorRules:
    """The rules of a tensor A (x) B applied leg by leg: A's, B's and b*a -> a*b.

    The alphabet is the one `tensor_alphabet` builds: A's letters at their
    own ranks, then B's shifted by len(A).  Every ambiguity between a
    commutation and a leg rule resolves, so a word is congruent to its A
    letters followed by its B letters, and A-normal times B-normal words
    are irreducible; for confluent legs they are the normal words (Bergman's
    diamond lemma).  `normalize` sorts the terms by the B normal words of
    their B letters and normalizes the summed A part of each once.  It
    caches nothing of its own: only the legs' normal-form caches fill.
    """

    def __init__(self, alphabet: Alphabet, left: RuleSystem, right: RuleSystem):
        self.alphabet = alphabet
        self.legs = (left, right)
        self.offset = len(left.alphabet)

    def normalize(self, e: Element) -> Element:
        """Normal form of an element: each B normal word after its A normal form."""
        left, right = self.legs
        offset = self.offset
        by_b: dict = {}  # B word -> the A words before it
        for word, coeff in e.terms.items():
            a_word = tuple(g for g in word if g < offset)
            b_word = tuple(g - offset for g in word if g >= offset)
            add_into(by_b.setdefault(b_word, {}), {a_word: coeff})
        counter = [0]
        parts: dict = {}  # B normal word -> the A words before it
        for b_word, a_terms in by_b.items():
            for v, c in right.normalize_word(b_word, counter).terms.items():
                add_into(parts.setdefault(v, {}), a_terms, c)
        out: dict = {}
        for v, a_terms in parts.items():
            tail = tuple(g + offset for g in v)
            nf = left.normalize(Element(left.alphabet, a_terms))
            out.update((u + tail, c) for u, c in nf.terms.items())
        return Element(self.alphabet, out)


# ---------------------------------------------------------------------------
# orientation
# ---------------------------------------------------------------------------


def orient(pres: PresentationSpec, budget: int = DEFAULT_REWRITE_BUDGET) -> RuleSystem:
    """Gaussian-reduce the relation span and read off monic decreasing rules.

    The relation vectors are brought to reduced row-echelon form with the
    deg-lex-maximal word of each row as pivot, so no rule's tail holds a
    left side and the rules do not depend on how the relations were written
    down.  Degenerate outcomes (a forced constant, a degree-1 pivot, or a
    monomial forced to vanish that was not presented as a monomial
    relation) are reported as errors rather than silently accepted.
    """
    alphabet = pres.alphabet
    original_monomials = set()
    echelon = ScalarEchelon()
    for rel in pres.relations:
        if rel.is_zero:
            continue
        if rel.degree() > 2:
            raise InconsistentPresentationError(
                f"relation of degree {rel.degree()} > 2 cannot be oriented: {rel}"
            )
        if len(rel.terms) == 1:
            original_monomials.add(rel.lead_word())
        echelon.insert(alphabet.encode_terms(rel.terms, 2))
    echelon.interreduce()
    rules: dict[tuple[int, ...], Element] = {}
    for code in sorted(echelon.rows):
        lead = alphabet.decode(code, 2)
        row = alphabet.decode_terms(echelon.rows[code], 2)
        if len(lead) == 0:
            raise InconsistentPresentationError("presentation forces a nonzero constant to vanish")
        if len(lead) == 1:
            name = alphabet.generators[lead[0]].name
            raise InconsistentPresentationError(
                f"rank collapse: presentation forces a degree-1 relation led by {name}"
            )
        tail = {w: -c for w, c in row.items()}
        if not tail and lead not in original_monomials:
            raise InconsistentPresentationError(
                f"inconsistent presentation: forces {alphabet.format_word(lead)} = 0"
            )
        rules[lead] = Element(alphabet, tail)
    return RuleSystem(alphabet, rules, budget)


# ---------------------------------------------------------------------------
# overlap analysis / bounded completion
# ---------------------------------------------------------------------------


@dataclass
class OverlapDefect:
    lhs_a: tuple[int, ...]
    lhs_b: tuple[int, ...]
    word: tuple[int, ...]
    difference: Element


@dataclass
class ConfluenceReport:
    confluent: bool
    overlaps_checked: int
    unresolved: list[OverlapDefect]
    rules_added: list[tuple[int, ...]]
    system: RuleSystem


def _ambiguities(rules: Mapping[tuple[int, ...], Element]):
    """All overlap and inclusion ambiguities between rule left sides.

    Each is yielded once, as (word, (pos_a, lhs_a), (pos_b, lhs_b)) with two
    distinct rule occurrences: an overlap is one per (a, b, k) and puts b at
    len(a) - k > 0, and an inclusion needs b shorter than a.
    """
    items = list(rules)
    for a in items:
        for b in items:
            # overlap: a proper suffix of a equals a proper prefix of b
            for k in range(1, min(len(a), len(b))):
                if a[len(a) - k :] == b[:k]:
                    word = a + b[k:]
                    yield word, (0, a), (len(a) - k, b)
            # inclusion: b occurs strictly inside a
            if len(b) < len(a):
                for i in range(len(a) - len(b) + 1):
                    if a[i : i + len(b)] == b:
                        yield a, (0, a), (i, b)


def overlap_resolve(rs: RuleSystem, complete_up_to: int | None = None) -> ConfluenceReport:
    """Check every overlap ambiguity; optionally complete up to a degree bound.

    For each word admitting two rule applications, both reduction paths are
    normalized and compared.  With complete_up_to = d, ambiguity words longer
    than d are skipped and every nonzero difference is oriented into a new
    rule (its deg-lex-maximal word becomes the left side), iterating until
    every ambiguity of length <= d resolves.  A difference led by a word of
    length <= 1 puts a constant or a generator into the ideal: that rank
    collapse raises InconsistentPresentationError naming the element.
    """
    system = rs
    added: list[tuple[int, ...]] = []
    overlaps_checked = 0
    while True:
        unresolved: list[OverlapDefect] = []
        for word, (pos_a, lhs_a), (pos_b, lhs_b) in _ambiguities(system.rules):
            if complete_up_to is not None and len(word) > complete_up_to:
                continue
            overlaps_checked += 1
            path_a = _apply_rule_at(system, word, pos_a, lhs_a)
            path_b = _apply_rule_at(system, word, pos_b, lhs_b)
            diff = system.normalize(path_a) - system.normalize(path_b)
            if not diff.is_zero:
                unresolved.append(OverlapDefect(lhs_a, lhs_b, word, diff))
        if not unresolved or complete_up_to is None:
            break
        new_rules = {}
        for defect in unresolved:
            lead = defect.difference.lead_word()
            if len(lead) < 2:
                raise InconsistentPresentationError(
                    f"rank collapse: the ambiguity {system.alphabet.format_word(defect.word)} "
                    f"puts {defect.difference} into the ideal"
                )
            inv = defect.difference.terms[lead].inverse()
            tail = {
                w: -(c * inv) for w, c in defect.difference.terms.items() if w != lead
            }
            new_rules[lead] = Element(system.alphabet, tail)
        added.extend(new_rules)
        system = system.extended(new_rules)
    return ConfluenceReport(
        confluent=not unresolved,
        overlaps_checked=overlaps_checked,
        unresolved=unresolved,
        rules_added=added,
        system=system,
    )


def _apply_rule_at(system: RuleSystem, word, pos, lhs) -> Element:
    prefix, suffix = word[:pos], word[pos + len(lhs):]
    # the rule's words are distinct, so their substitutions are too
    return Element(system.alphabet,
                   {prefix + w + suffix: c for w, c in system.rules[lhs].terms.items()})


# ---------------------------------------------------------------------------
# graded derivations
# ---------------------------------------------------------------------------


def derivation_apply(images: Mapping[str, Element], e: Element) -> Element:
    """Extend generator images to a graded derivation (Leibniz with sign).

    The sign on the right factor is (-1)^k with k the number of odd letters
    to the left of the letter being differentiated.
    """
    alphabet = e.alphabet
    ranked: dict[int, Element] = {}
    for name, img in images.items():
        rank = alphabet.rank_of(name)
        if rank is None:
            raise DerivationError(f"image given for unknown generator {name!r}")
        ranked[rank] = img
    out: dict = {}
    for word, coeff in e.terms.items():
        parity = 0
        for i, g in enumerate(word):
            img = ranked.get(g)
            if img is None:
                raise DerivationError(
                    f"no derivation image assigned for generator "
                    f"{alphabet.generators[g].name!r}"
                )
            prefix, suffix = word[:i], word[i + 1:]
            add_into(out, {prefix + w + suffix: c for w, c in img.terms.items()},
                     -coeff if parity else coeff)
            parity ^= alphabet.parities[g]
    return Element(alphabet, out)


# ---------------------------------------------------------------------------
# ideal membership
# ---------------------------------------------------------------------------


@dataclass
class MembershipReport:
    member: bool
    certain: bool
    route: str  # "trivial" | "reduction" | "certificate" | "linear-algebra"
    mode: str  # "exact" | "modular"
    degree: int
    span_rank: int = 0
    residual: Element | None = None
    prime: int | None = None
    seed: int | None = None
    point: tuple[int, int, int] | None = None
    support: tuple[tuple[int, ...], ...] = ()  # residual words over GF(p), at point
    note: str = ""


class MembershipOracle:
    """The algebra of one presentation: rules, confluence certificate, membership.

    Holds the oriented rules (with their normal-form cache), the confluence
    certificate, the completions and the echelons of the raw rows, each
    computed on first need.  Obtain shared instances through `algebra(pres)`.

    `member(e, degree, mode)` has two routes:

    - mode "exact": the normal form of e under `completion(degree)`.  Zero is
      a member, exactly (route "reduction").  Nonzero is an exact non-member
      (route "certificate") when the rules are confluent or the relations
      homogeneous; otherwise the verdict is not certain and its note starts
      "undecided:".  No rows are built.
    - modes "rows" and "modular": elimination on the raw rows w1 * r * w2,
      exactly or over GF(p), independent of the rules.  Their columns are
      the words' `Alphabet.encode` integers for length degree; when every
      relation is homogeneous the ideal is graded, and each homogeneous
      component of e meets the rows of its own length instead (`span_rank`
      adds up their ranks).  Residuals are decoded back to words.  A
      modular verdict is never certain: an unlucky point can drop the rank
      of the rows or of the residual.  So a modular non-member is checked
      again at the next point of the seed, the note names both points and
      starts "undecided:" if they disagree, and `support` holds the
      residual's words at the first point (its GF(p) values are not
      coefficients over Q(q, u, s)).  Both residuals
      are the echelon's canonical remainders: they lie on the non-pivot
      words and do not depend on the order of the rows.  For homogeneous
      relations, such as tt's, the non-pivot words are the normal words of
      `completion(degree)`: the exact residual is the normal form there,
      and the support is its set of words (at a point that drops neither
      the rank nor a coefficient).

    Completions start from the largest cached completion below their
    degree.  A completion that puts a constant or a generator into the
    ideal raises InconsistentPresentationError ("rank collapse: ..."), each
    time it or a higher completion is asked for, like the orientation error.
    """

    def __init__(self, pres: PresentationSpec):
        self.pres = pres
        self.homogeneous = pres.all_homogeneous()
        try:
            self.rules, self.orientation_error = orient(pres), None
        except InconsistentPresentationError as err:
            self.rules, self.orientation_error = None, err
        self._confluence: ConfluenceReport | None = None
        self._completions: dict = {}
        self._echelons: dict = {}

    def rule_system(self) -> RuleSystem:
        """The oriented rules; raises the orientation error if there are none."""
        if self.rules is None:
            raise self.orientation_error
        return self.rules

    @property
    def confluence(self) -> ConfluenceReport:
        """Overlap analysis of the rules (computed once); raises if unoriented."""
        if self._confluence is None:
            self._confluence = overlap_resolve(self.rule_system())
        return self._confluence

    def completion(self, degree: int) -> RuleSystem:
        """The rules with every ambiguity of length <= degree resolved (cached).

        Confluent rules are their own completion.  Otherwise the completion
        starts from the largest cached completion below degree, a valid start
        since its added rules are ideal elements.  Raises the orientation
        error, or the rank collapse that this or a lower completion met.
        """
        if degree not in self._completions:
            below = [d for d in self._completions if d < degree]
            start = self._completions[max(below)] if below else self.rules
            try:
                if isinstance(start, InconsistentPresentationError):
                    raise start
                self._completions[degree] = start if self.confluence.confluent \
                    else overlap_resolve(start, complete_up_to=degree).system
            except InconsistentPresentationError as err:
                self._completions[degree] = err
        found = self._completions[degree]
        if isinstance(found, InconsistentPresentationError):
            raise found
        return found

    # -- row generation ------------------------------------------------------

    def _row_vectors(self, degree: int, point=None):
        """Yield the raw spanning rows w1*r*w2 on encoded words.

        w1*r*w2 is r with w1 and w2 concatenated to each of its words, so a
        row is r's own coefficients, exact or evaluated once per relation at
        the modular point, on the sums of the codes of the three pieces
        (`Alphabet.encode` with at).  A row can repeat another (the padded
        monomial relation xi1^2 gives xi1^3 twice); the echelon reduces the
        repeat to zero.  Only their echelons are cached: an object shared for
        the whole run would otherwise keep every degree-4 row alive.
        """
        alphabet = self.pres.alphabet
        encode = alphabet.encode
        n = len(alphabet)
        relations = self.pres.nonzero_relations()
        homogeneous = self.homogeneous

        def pads(rel):
            rdeg = rel.degree()
            if rdeg > degree:
                return ()
            return [degree - rdeg] if homogeneous else range(degree - rdeg + 1)

        # w1 * r * w2 with len(w1) + len(w2) = pad: (pad + 1) * n^pad products
        count = sum((pad + 1) * n ** pad for rel in relations for pad in pads(rel))
        if count > MEMBERSHIP_ROW_CAP:
            raise DegreeBoundError(
                f"membership row cap exceeded at degree {degree}: "
                f"{count} products > {MEMBERSHIP_ROW_CAP}"
            )
        for rel in relations:
            if not pads(rel):
                continue
            words = list(rel.terms)
            # raises ScalarModularError at a point where a denominator vanishes
            values = rel.terms if point is None else eval_vec_mod(rel.terms, point)
            row_values = [values.get(w) for w in words]  # None where zero mod p
            for pad in pads(rel):
                for left_len in range(pad + 1):
                    mids = [encode(w, degree, left_len) for w in words]
                    # w2 after each word of r, wherever that word ends
                    rights = [[encode(w2, degree, left_len + len(w)) for w in words]
                              for w2 in itertools.product(range(n), repeat=pad - left_len)]
                    for w1 in itertools.product(range(n), repeat=left_len):
                        left = encode(w1, degree)
                        for right in rights:
                            codes = [left + mid + r for mid, r in zip(mids, right)]
                            yield {k: v for k, v in zip(codes, row_values) if v}

    def _echelon(self, degree: int, point=None) -> ScalarEchelon:
        """The cached echelon of the rows: exact, or over GF(p) at a modular point.

        The rows enter in ascending order of their lead column, as in F4 and
        structured sparse elimination, not in generation order: a row is then
        reduced against short rows with low leads instead of filled-in ones.
        The pivot set and rank do not depend on the order.  A row that
        vanished mod p sorts first and is still inserted.
        """
        key = (degree, point)
        ech = self._echelons.get(key)
        if ech is None:
            ech = ScalarEchelon() if point is None else ModEchelon(point.prime)
            for row in sorted(self._row_vectors(degree, point), key=lambda r: max(r, default=-1)):
                ech.insert(row)
            self._echelons[key] = ech
        return ech

    # -- the oracle ----------------------------------------------------------

    def member(self, e: Element, degree: int | None = None, mode: str = "exact",
               prime: int = DEFAULT_PRIME, seed: int = DEFAULT_SEED) -> MembershipReport:
        if mode not in ("exact", "rows", "modular"):
            raise ValueError(f"unknown membership mode {mode!r}")
        if degree is None:
            degree = max(e.degree(), DEFAULT_MEMBERSHIP_DEGREE)
        if e.degree() > degree:
            raise DegreeBoundError(f"element degree {e.degree()} exceeds bound {degree}")
        if e.is_zero:
            return MembershipReport(True, True, "trivial", "exact", degree)
        if mode == "exact":
            nf = self.completion(degree).normalize(e)
            if nf.is_zero:
                return MembershipReport(True, True, "reduction", "exact", degree,
                                        note="normal form vanishes: explicit ideal decomposition")
            if self.confluence.confluent or self.homogeneous:
                return MembershipReport(False, True, "certificate", "exact", degree, residual=nf,
                                        note="nonzero normal form under confluent or "
                                             f"homogeneous rules completed to degree {degree}")
            return MembershipReport(False, False, "reduction", "exact", degree, residual=nf,
                                    note="undecided: nonzero normal form under rules completed "
                                         f"to degree {degree}, neither confluent nor homogeneous")
        alphabet = self.pres.alphabet
        if self.homogeneous:
            parts: dict = {}  # length -> the component of e
            for w, c in e.terms.items():
                parts.setdefault(len(w), {})[w] = c
        else:
            parts = {degree: e.terms}

        def remainder(point=None):
            """The echelons' total rank and e's remainder on words, exact or at point."""
            rank, out = 0, {}
            for length, terms in parts.items():
                ech = self._echelon(length, point)
                vec = alphabet.encode_terms(terms, length)
                rank += ech.rank
                out.update(alphabet.decode_terms(
                    ech.reduce(vec if point is None else eval_vec_mod(vec, point)), length))
            return rank, out

        if mode == "rows":
            rank, residual = remainder()
            return MembershipReport(
                member=not residual,
                certain=True,
                route="linear-algebra",
                mode="exact",
                degree=degree,
                span_rank=rank,
                residual=Element(alphabet, residual) if residual else None,
            )

        point, (rank, residual) = with_modular_retries(remainder, prime, seed)
        report = MembershipReport(
            member=not residual,
            # a point can drop the rank of the rows (a false non-member) or of
            # the residual (a false member): neither verdict is certain
            certain=False,
            route="linear-algebra",
            mode="modular",
            degree=degree,
            span_rank=rank,
            prime=point.prime,
            seed=point.seed,
            point=point.values,
        )
        if residual:
            # a non-member is rechecked at the next independent point
            report.support = tuple(sorted(residual, key=alphabet.word_key))
            second, (_, second_residual) = with_modular_retries(
                remainder, prime, seed, point.attempt + 1)
            first_at = f"(q, u, s) = {point.values} (attempt {point.attempt})"
            second_at = f"{second.values} (attempt {second.attempt})"
            report.note = (f"not a member at two GF({point.prime}) points: {first_at} and {second_at}"
                           if second_residual else
                           f"undecided: not a member at {first_at} but a member at {second_at}")
        return report


class TensorAlgebra(MembershipOracle):
    """The algebra A (x) B of two algebra objects, over the tensor alphabet.

    The alphabet is `tensor_alphabet` of the legs' alphabets, or one with
    its letters renamed: the legs' letters keep their ranks, parities and
    weights, so one algebra can be both legs.  It orients nothing and
    keeps no normal forms of its own: only the legs' caches fill.  Its
    rules are the `TensorRules` of the legs' rules, and `completion(degree)`
    those of the legs' completions: no ambiguity of a commutation b*a -> a*b
    needs a new rule, so completing the tensor adds exactly the legs' new
    rules.  Its confluence certificate joins the legs' certificates, with
    their unresolved overlaps moved into the tensor alphabet.  It is
    homogeneous when both legs are.  Membership is by normal forms only
    (mode "exact"): it builds no rows.
    """

    def __init__(self, left: MembershipOracle, right: MembershipOracle, alphabet: Alphabet):
        self.legs = (left, right)
        letters = [(g.parity, g.weight) for leg in self.legs for g in leg.pres.alphabet]
        if [(g.parity, g.weight) for g in alphabet] != letters:
            raise ValueError("the tensor alphabet does not list the legs' letters in order")
        self.alphabet = alphabet
        self.homogeneous = left.homogeneous and right.homogeneous
        failed = next((leg for leg in self.legs if leg.rules is None), None)
        self.rules = None if failed else TensorRules(alphabet, left.rules, right.rules)
        self.orientation_error = failed and failed.orientation_error
        self._confluence = None

    @property
    def confluence(self) -> ConfluenceReport:
        """The legs' overlap analyses joined (computed once); raises if unoriented."""
        if self._confluence is None:
            reports = [leg.confluence for leg in self.legs]
            unresolved = []
            for report, shift in zip(reports, (0, self.rules.offset)):
                for d in report.unresolved:
                    lhs_a, lhs_b, word = (tuple(g + shift for g in w)
                                          for w in (d.lhs_a, d.lhs_b, d.word))
                    terms = {tuple(g + shift for g in w): c for w, c in d.difference.terms.items()}
                    unresolved.append(OverlapDefect(lhs_a, lhs_b, word,
                                                    Element(self.alphabet, terms)))
            self._confluence = ConfluenceReport(
                confluent=not unresolved,
                overlaps_checked=sum(r.overlaps_checked for r in reports),
                unresolved=unresolved,
                rules_added=[],
                system=self.rules,
            )
        return self._confluence

    def completion(self, degree: int) -> TensorRules:
        """The TensorRules of the legs' completions to degree (cached in the legs).

        Raises a leg's orientation error or rank collapse, the left leg's first.
        """
        return TensorRules(self.alphabet, *(leg.completion(degree) for leg in self.legs))

    def member(self, e: Element, degree: int | None = None,
               mode: str = "exact") -> MembershipReport:
        """Membership by the normal form under the completed legs; other modes raise."""
        if mode != "exact":
            raise ValueError(f"a tensor algebra decides membership by normal forms only, "
                             f"not in mode {mode!r}")
        return super().member(e, degree)


_ALGEBRAS: OrderedDict = OrderedDict()


def _content_key(pres: PresentationSpec) -> tuple:
    """Generator names, parities and weights, and relation terms."""
    return (
        tuple((g.name, g.parity, g.weight) for g in pres.alphabet),
        tuple(frozenset(r.terms.items()) for r in pres.relations),
    )


def algebra(pres: PresentationSpec) -> MembershipOracle:
    """The shared MembershipOracle for a presentation's content.

    Keyed on the generator names, parities and weights and on the relation
    terms, so equal presentations built anywhere share one object, while a
    binding or any changed coefficient gives another.  A flat presentation of
    a tensor (`algebra_tensor`) gets an oracle that orients it whole; a
    `TensorAlgebra` is built from its legs' objects instead.  The least
    recently used of more than ALGEBRA_CACHE_SIZE objects is dropped.
    """
    key = _content_key(pres)
    found = _ALGEBRAS.get(key)
    if found is not None:
        _ALGEBRAS.move_to_end(key)
        return found
    found = _ALGEBRAS[key] = MembershipOracle(pres)
    if len(_ALGEBRAS) > ALGEBRA_CACHE_SIZE:
        _ALGEBRAS.popitem(last=False)
    return found


# ---------------------------------------------------------------------------
# span comparison
# ---------------------------------------------------------------------------


class Span:
    """The exact span over Q(q, u, s) of a list of relations over one alphabet.

    The relations enter one `ScalarEchelon` in list order, their words
    encoded for max_len (default: the largest relation length), so every
    element tested against the span must be that short.  `dependent` lists
    the indices of the relations that are zero or already in the span of the
    earlier ones; a residual does not depend on the list order.  Relations
    or tested elements over another alphabet raise ValueError.
    """

    def __init__(self, relations: Sequence[Element], max_len: int | None = None):
        self.alphabet = relations[0].alphabet if relations else None
        for rel in relations:
            self._check(rel)
        self.max_len = max((r.degree() for r in relations), default=0) \
            if max_len is None else max_len
        self._echelon = ScalarEchelon()
        self.dependent = [idx for idx, rel in enumerate(relations) if self._echelon.insert(
            rel.alphabet.encode_terms(rel.terms, self.max_len)) is None]

    def _check(self, e: Element):
        if self.alphabet is not None and not self.alphabet.compatible_with(e.alphabet):
            raise ValueError("span of relations over different alphabets")

    @property
    def rank(self) -> int:
        return self._echelon.rank

    def residual(self, e: Element) -> Element:
        """The canonical remainder of e: zero iff e lies in the span, order-free."""
        self._check(e)
        vec = self._echelon.reduce(e.alphabet.encode_terms(e.terms, self.max_len))
        return Element(e.alphabet, e.alphabet.decode_terms(vec, self.max_len))


@dataclass
class SpanComparison:
    verdict: str  # equal | A_subset_B | B_subset_A | incomparable
    rank_a: int
    rank_b: int
    witness: Element | None = None


def span_compare(a: Sequence[Element] | PresentationSpec,
                 b: Sequence[Element] | PresentationSpec) -> SpanComparison:
    """Exact row-space comparison of two relation lists over a common alphabet.

    The witness is the residual of the first relation of a outside the span
    of b, else of the first relation of b outside the span of a.
    """
    rel_a = a.nonzero_relations() if isinstance(a, PresentationSpec) else [r for r in a if not r.is_zero]
    rel_b = b.nonzero_relations() if isinstance(b, PresentationSpec) else [r for r in b if not r.is_zero]
    max_len = max((r.degree() for r in itertools.chain(rel_a, rel_b)), default=0)
    span_a, span_b = Span(rel_a, max_len), Span(rel_b, max_len)
    b_not_in_a = next((res for r in rel_b if (res := span_a.residual(r))), None)
    a_not_in_b = next((res for r in rel_a if (res := span_b.residual(r))), None)
    verdict = {
        (False, False): "equal",
        (False, True): "A_subset_B",
        (True, False): "B_subset_A",
        (True, True): "incomparable",
    }[(a_not_in_b is not None, b_not_in_a is not None)]
    return SpanComparison(verdict, span_a.rank, span_b.rank, a_not_in_b or b_not_in_a)


# ---------------------------------------------------------------------------
# algebra maps, tensor products and specialization
# ---------------------------------------------------------------------------


def algebra_map(e: Element, target: Alphabet, images: Mapping[str, object] = {}) -> Element:
    """The algebra homomorphism sending each generator to its image over target.

    images[name] is an Element over target or a scalar: 0 deletes every word
    containing the letter, 1 drops the letter.  A generator without an image
    goes to the generator of target with the same name.  Images of names
    outside e's alphabet are ignored.
    """
    # per source rank: None (the word dies), a target word, or an Element
    letters: list = []
    for g in e.alphabet:
        image = images.get(g.name)
        if image is None:
            rank = target.rank_of(g.name)
            if rank is None:
                raise ValueError(f"generator {g.name!r} has no image and is missing "
                                 f"from the target alphabet")
            letters.append((rank,))
            continue
        if not isinstance(image, Element):
            image = Element.from_scalar(target, image)
        elif not image.alphabet.compatible_with(target):
            raise ValueError(f"image of {g.name!r} lives over another alphabet")
        if image.is_zero:
            letters.append(None)
        elif len(image.terms) == 1 and next(iter(image.terms.values())).is_one:
            letters.append(next(iter(image.terms)))
        else:
            letters.append(image)
    out: dict[tuple[int, ...], Scalar] = {}
    for word, coeff in e.terms.items():
        piece = {(): coeff}
        for g in word:
            image = letters[g]
            if image is None:
                break
            if isinstance(image, tuple):
                piece = {w + image: c for w, c in piece.items()}
            else:
                piece = _product(piece, image.terms)
        else:
            add_into(out, piece)
    return Element(target, out)


def tensor_alphabet(a: Alphabet, b: Alphabet) -> Alphabet:
    """A's letters at their own ranks, then B's shifted by len(A); names must differ."""
    overlap = set(a.names()) & set(b.names())
    if overlap:
        raise ValueError(f"generator name collision in tensor: {sorted(overlap)}")
    return Alphabet.build([(g.name, g.parity, g.weight) for g in (*a, *b)])


def algebra_tensor(a: PresentationSpec, b: PresentationSpec) -> PresentationSpec:
    """Two-sided tensor: union alphabet, union relations, commuting cross pairs.

    All A-generators are ranked below all B-generators (`tensor_alphabet`);
    every cross pair commutes (even-even and even-odd alike).  The result is
    a flat presentation, which `orient` orients whole; `TensorAlgebra`
    normalizes the same algebra leg by leg.
    """
    alphabet = tensor_alphabet(a.alphabet, b.alphabet)
    offset = len(a.alphabet)
    relations = [algebra_map(r, alphabet) for r in (*a.relations, *b.relations)]
    one = Scalar.one()
    for ga in range(len(a.alphabet)):
        for gb in range(offset, len(alphabet)):
            relations.append(Element(alphabet, {(ga, gb): one, (gb, ga): -one}))
    return PresentationSpec(f"{a.name}(x){b.name}", alphabet, relations)


def specialize(pres: PresentationSpec, bindings: Mapping[str, object]) -> PresentationSpec:
    """Specialize parameters (to scalars) and/or generators (to 0 or 1).

    Generator -> 0 deletes every word containing it; generator -> 1 removes
    the letter from each word.  Relations that collapse to zero are kept (as
    zero elements) so downstream checks can see which inputs became trivial.
    """
    param_bindings: dict[str, object] = {}
    images: dict[str, object] = {}
    for key, value in bindings.items():
        if key in PARAMETERS:
            param_bindings[key] = value
        elif pres.alphabet.rank_of(key) is not None:
            if not (value == 0 or value == 1):
                raise ValueError(f"generator {key!r} may only be bound to 0 or 1")
            images[key] = value
        else:
            raise ValueError(f"unknown symbol {key!r} in specialization")
    kept = [g for g in pres.alphabet if g.name not in images]
    new_alphabet = Alphabet.build([(g.name, g.parity, g.weight) for g in kept])
    relations = [
        algebra_map(rel.substitute_params(param_bindings) if param_bindings else rel,
                    new_alphabet, images)
        for rel in pres.relations
    ]
    return PresentationSpec(f"{pres.name}|specialized", new_alphabet, relations)


# ---------------------------------------------------------------------------
# algebra-definition files
# ---------------------------------------------------------------------------


def presentation_to_json(pres: PresentationSpec) -> dict:
    """Algebra-definition document: generators, relation strings, order.

    The optional per-generator "weight" key records the straightening order
    weight when it is not 1, so re-imported algebras orient identically.
    """
    generators = []
    for g in pres.alphabet:
        doc = {"name": g.name, "parity": "odd" if g.parity else "even", "rank": g.rank}
        if g.weight != 1:
            doc["weight"] = g.weight
        generators.append(doc)
    return {
        "name": pres.name,
        "generators": generators,
        "relations": [r.format() for r in pres.relations],
        "order": list(pres.alphabet.names()),
    }


def presentation_from_json(doc: Mapping) -> PresentationSpec:
    """The presentation of an algebra-definition document.

    A missing key raises KeyError, and a document of the wrong shape raises
    ValueError naming the key: "generators" must be a list of objects with
    distinct names and distinct integer ranks, each "parity" "even" or "odd"
    and each "weight" a positive integer, "relations" a list of strings and
    "order", if given, the list of the names in rank order.
    """
    from . import exprs

    if not isinstance(doc, Mapping):
        raise ValueError("the document must be a JSON object")
    gens = doc["generators"]
    if not isinstance(gens, list) or not all(isinstance(g, Mapping) for g in gens):
        raise ValueError('"generators" must be a list of objects')
    ranked = {}
    for g in gens:
        name, rank = g["name"], g["rank"]
        if not isinstance(name, str) or not exprs.NAME_RE.fullmatch(name):
            raise ValueError(f"generator name {name!r} is not a name of the expression grammar")
        if name in PARAMETERS:
            raise ValueError(f"generator name {name!r} is reserved for a parameter")
        if type(rank) is not int:
            raise ValueError(f'generator {name!r}: "rank" must be an integer, not {rank!r}')
        if rank in ranked:
            raise ValueError(f'generators {ranked[rank][0]!r} and {name!r} share "rank" {rank}')
        parity, weight = g.get("parity", "even"), g.get("weight", 1)
        if parity not in ("even", "odd"):
            raise ValueError(f'generator {name!r}: "parity" must be "even" or "odd", not {parity!r}')
        if type(weight) is not int or weight < 1:
            raise ValueError(f'generator weights must be positive integers: "weight" of {name!r} '
                             f'is {weight!r}')
        ranked[rank] = (name, 1 if parity == "odd" else 0, weight)
    specs = [ranked[rank] for rank in sorted(ranked)]
    order = doc.get("order")
    if order and order != [name for name, _, _ in specs]:
        raise ValueError("order list disagrees with generator ranks")
    alphabet = Alphabet.build(specs)
    texts = doc["relations"]
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ValueError('"relations" must be a list of strings')
    relations = [exprs.parse_element(text, alphabet) for text in texts]
    return PresentationSpec(doc.get("name", "algebra"), alphabet, relations)
