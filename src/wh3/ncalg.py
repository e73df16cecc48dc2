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
completions and the caches.  When a normal form vanishes, the same object
writes the element out as an explicit sum of products c * w1 * r * w2 of
the relations (`MembershipOracle.decomposition`), which a reader can
multiply out without this module.

Overlap analysis and completion check each ambiguity once.
`_ambiguities` finds the overlaps and inclusions between left sides through
an index of their proper prefixes and a lookup of their shorter subwords,
in the order of a scan of all pairs.  `overlap_resolve` is the one
completion loop, a pair queue: a later round checks only the ambiguities
that involve a rule the previous round added and normalizes that round's
defects once more, and a completion goes on from the certificate or from a
lower completion instead of checking their ambiguities again.

A tensor algebra A (x) B orients nothing of its own: its rules are A's, B's
and b*a -> a*b, so its normal words are an A-normal word followed by a
B-normal word.  `TensorAlgebra(left, right, alphabet)` takes the two legs'
algebra objects and the tensor alphabet (`tensor_alphabet`), and computes
normal forms, the confluence flag and the completions from the legs.
"""

from __future__ import annotations

import heapq
import itertools
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
    "tensor_alphabet",
    "specialize",
    "presentation_to_json",
    "presentation_from_json",
]

REWRITE_BUDGET = 2_000_000  # rewrite steps per normalize call
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
        """The word's place in the order, (weight, word); an echelon's column for it."""
        return (sum(self.weights[g] for g in word), word)

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

    def __init__(self, alphabet: Alphabet, rules: Mapping[tuple[int, ...], Element]):
        self.alphabet = alphabet
        self.rules = dict(rules)
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
        budget = REWRITE_BUDGET
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

    def normalize(self, e: Element) -> Element:
        """Normal form of an element; linear in the element by construction."""
        counter = [0]
        terms: dict = {}
        for w, c in e.terms.items():
            add_into(terms, self.normalize_word(w, counter).terms, c)
        return Element(self.alphabet, terms)

    def extended(self, extra_rules: Mapping[tuple[int, ...], Element]) -> "RuleSystem":
        merged = dict(self.rules)
        merged.update(extra_rules)
        return RuleSystem(self.alphabet, merged)


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


def orient(pres: PresentationSpec) -> RuleSystem:
    """Gaussian-reduce the relation span and read off monic decreasing rules.

    The relation vectors are brought to reduced row-echelon form with the
    deg-lex-maximal word of each row as pivot, so no rule's tail holds a
    left side and the rules do not depend on how the relations were written
    down.  Degenerate outcomes (a forced constant, a degree-1 pivot, or a
    monomial forced to vanish that was not presented as a monomial
    relation) are reported as errors rather than silently accepted.
    """
    alphabet, key = pres.alphabet, pres.alphabet.word_key
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
        echelon.insert({key(w): c for w, c in rel.terms.items()})
    echelon.interreduce()
    rules: dict[tuple[int, ...], Element] = {}
    for (_, lead), row in sorted(echelon.rows.items()):
        if len(lead) == 0:
            raise InconsistentPresentationError("presentation forces a nonzero constant to vanish")
        if len(lead) == 1:
            name = alphabet.generators[lead[0]].name
            raise InconsistentPresentationError(
                f"rank collapse: presentation forces a degree-1 relation led by {name}"
            )
        tail = {w: -c for (_, w), c in row.items()}
        if not tail and lead not in original_monomials:
            raise InconsistentPresentationError(
                f"inconsistent presentation: forces {alphabet.format_word(lead)} = 0"
            )
        rules[lead] = Element(alphabet, tail)
    return RuleSystem(alphabet, rules)


# ---------------------------------------------------------------------------
# overlap analysis / bounded completion
# ---------------------------------------------------------------------------


@dataclass
class OverlapDefect:
    lhs_a: tuple[int, ...]
    lhs_b: tuple[int, ...]
    word: tuple[int, ...]
    difference: Element
    pos_b: int  # where lhs_b applies in word; lhs_a applies at 0
    # the rule counts of the systems that normalized the two paths, then
    # the difference again, in turn: each is a prefix of the final rules
    systems: tuple[int, ...]


@dataclass
class ConfluenceReport:
    confluent: bool
    overlaps_checked: int
    unresolved: list[OverlapDefect]
    rules_added: list[tuple[int, ...]]
    system: RuleSystem
    checked_up_to: int | None = None  # the completion's length bound; None: every length
    # every rule the completion added to the base rules -> the defect it was oriented from
    sources: dict = dc_field(default_factory=dict)


def _ambiguities(rules: Mapping[tuple[int, ...], Element], fresh=None):
    """All overlap and inclusion ambiguities between rule left sides.

    Each is yielded once, as (word, (pos_a, lhs_a), (pos_b, lhs_b)) with two
    distinct rule occurrences: an overlap is one per (a, b, k) and puts b at
    len(a) - k > 0, and an inclusion needs b shorter than a.  They come in
    the order of a scan of all pairs: by a, then by b, both in rule order,
    and for one pair its overlaps by growing k before its inclusions by
    growing position.  With fresh (some of the left sides), only the
    ambiguities that involve a fresh rule are yielded.  No pair is compared
    letter by letter: an index of the left sides' proper prefixes finds the
    b that overlap the end of a, and a lookup of each shorter subword of a
    finds those inside it.
    """
    lhs = list(rules)
    order = {b: idx for idx, b in enumerate(lhs)}
    prefixes: dict = {}  # proper prefix -> the indices of the left sides it starts
    for idx, b in enumerate(lhs):
        for k in range(1, len(b)):
            prefixes.setdefault(b[:k], []).append(idx)
    fresh_idx = None if fresh is None else {order[b] for b in fresh}
    for ia, a in enumerate(lhs):
        n = len(a)
        # (b, 0, k) for an overlap and (b, 1, i) for an inclusion sort in scan order
        found = [(ib, 0, k) for k in range(1, n) for ib in prefixes.get(a[n - k:], ())]
        found += [(ib, 1, i) for m in range(1, n) for i in range(n - m + 1)
                  if (ib := order.get(a[i:i + m])) is not None]
        if fresh_idx is not None and ia not in fresh_idx:
            found = [hit for hit in found if hit[0] in fresh_idx]
        found.sort()
        for ib, inclusion, at in found:
            b = lhs[ib]
            if inclusion:
                yield a, (0, a), (at, b)
            else:
                yield a + b[at:], (0, a), (n - at, b)


def overlap_resolve(rs: RuleSystem, complete_up_to: int | None = None,
                    checked: ConfluenceReport | None = None) -> ConfluenceReport:
    """Check every overlap ambiguity once; optionally complete up to a degree bound.

    For each word admitting two rule applications, both reduction paths are
    normalized and compared.  With complete_up_to = d, ambiguity words longer
    than d are skipped and every nonzero difference is oriented into a new
    rule (its deg-lex-maximal word becomes the left side), in rounds until
    every ambiguity of length <= d resolves.  A difference led by a word of
    length <= 1 puts a constant or a generator into the ideal: that rank
    collapse raises InconsistentPresentationError naming the element.

    The rounds keep a pair queue, as Buchberger completion does (Gebauer and
    Moeller, 1988): an ambiguity that resolves stays resolvable when ideal
    elements are added as rules (Bergman's diamond lemma), so it is checked
    once.  A later round checks only the ambiguities that involve a rule the
    previous round added, and normalizes each defect of that round once more
    under the extended rules instead of deriving it again from both paths.
    Each round takes its ambiguities in the order `_ambiguities` yields them
    from all the rules, so a lead word met twice keeps the later defect's
    rule and a collapse names the first ambiguity a full scan meets.

    checked, given with complete_up_to, is an earlier report whose system is
    rs: its ambiguities up to checked.checked_up_to are not checked again,
    and its unresolved defects are oriented first and carried like a round's.

    The report records where each added rule comes from, and rewrites
    nothing for it: `sources` maps the rule to the defect it was oriented
    from, and each defect lists the rule counts of the systems that
    normalized it.  Rules are only appended, so each such system is a
    prefix of the final rules, and `MembershipOracle.decomposition` can
    retrace every rule as a combination of the relations.
    """
    bound = complete_up_to
    if checked is not None and (bound is None or checked.system is not rs):
        raise ValueError("a checked report resumes a completion of its own rules")
    system, added, count = rs, [], 0
    defects: list[OverlapDefect] = []
    fresh: dict = {}
    sources: dict = {}
    settled = 0  # every ambiguity of the rules before fresh up to this length is checked
    if checked is not None:
        defects = [d for d in checked.unresolved if len(d.word) <= bound]
        settled = bound if checked.checked_up_to is None else checked.checked_up_to
        sources.update(checked.sources)
    while True:
        carried = defects
        if carried:
            fresh = _defect_rules(system, carried, sources)
            added.extend(fresh)
            system = system.extended(fresh)
            settled = bound
        if fresh:
            scan = _ambiguities(system.rules, fresh)
        else:
            scan = (amb for amb in _ambiguities(system.rules) if len(amb[0]) > settled)
        order = {lhs: idx for idx, lhs in enumerate(system.rules)}
        work = [(d.word, d.lhs_a, d.pos_b, d.lhs_b, d) for d in carried]
        work += [(word, a, pos, b, None) for word, (_, a), (pos, b) in scan
                 if bound is None or len(word) <= bound]
        work.sort(key=lambda item: _scan_position(order, *item[:4]))
        defects = []
        size = len(system)
        for word, lhs_a, pos_b, lhs_b, earlier in work:
            if earlier is None:
                diff, systems = _path_difference(system, word, lhs_a, pos_b, lhs_b), (size,)
            else:
                diff, systems = system.normalize(earlier.difference), earlier.systems + (size,)
            if not diff.is_zero:
                defects.append(OverlapDefect(lhs_a, lhs_b, word, diff, pos_b, systems))
        count += len(work)
        if not defects or bound is None:
            break
    return ConfluenceReport(
        confluent=not defects,
        overlaps_checked=count,
        unresolved=defects,
        rules_added=added,
        system=system,
        checked_up_to=bound,
        sources=sources,
    )


def _scan_position(order: Mapping, word, lhs_a, pos_b, lhs_b) -> tuple:
    """Where `_ambiguities` yields an ambiguity, for the rules' order of left sides."""
    if len(word) == len(lhs_a):  # an inclusion, by growing position
        return order[lhs_a], order[lhs_b], 1, pos_b
    return order[lhs_a], order[lhs_b], 0, -pos_b  # an overlap, by growing k


def _defect_rules(system: RuleSystem, defects: Sequence[OverlapDefect], sources: dict) -> dict:
    """Each defect's difference as a monic rule; a lead of length <= 1 is a rank collapse.

    A lead met twice keeps the later defect's rule; sources records which.
    """
    new_rules = {}
    for defect in defects:
        lead = defect.difference.lead_word()
        if len(lead) < 2:
            raise InconsistentPresentationError(
                f"rank collapse: the ambiguity {system.alphabet.format_word(defect.word)} "
                f"puts {defect.difference} into the ideal")
        inv = defect.difference.terms[lead].inverse()
        tail = {w: -(c * inv) for w, c in defect.difference.terms.items() if w != lead}
        new_rules[lead] = Element(system.alphabet, tail)
        sources[lead] = defect
    return new_rules


def _path(system: RuleSystem, word, pos, lhs) -> Element:
    """word with the rule for lhs applied at pos."""
    prefix, suffix = word[:pos], word[pos + len(lhs):]
    # the rule's words are distinct, so their substitutions are too
    return Element(system.alphabet,
                   {prefix + w + suffix: c for w, c in system.rules[lhs].terms.items()})


def _path_difference(system: RuleSystem, word, lhs_a, pos_b, lhs_b) -> Element:
    """The normal form of word with lhs_a rewritten at 0 minus that with lhs_b at pos_b."""
    return (system.normalize(_path(system, word, 0, lhs_a))
            - system.normalize(_path(system, word, pos_b, lhs_b)))


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


def _descending_key(weights: tuple[int, ...], word: tuple[int, ...]) -> tuple:
    """A min-heap key that pops words in descending `Alphabet.word_key` order."""
    # word_key negated: every weight is at least 1, so no word is a prefix of
    # another word of its weight, and negating each letter reverses their order
    return -sum(weights[g] for g in word), tuple(-g for g in word)


def _trace(system: RuleSystem, terms: Mapping) -> tuple[dict, dict]:
    """The rewrite steps that take terms to their normal form under system.

    Words are visited in descending order and each is rewritten once, at its
    leftmost redex (`RuleSystem.find_redex`), so the normal form is the one
    `normalize` reaches.  Returns (steps, normal form terms): steps maps
    (prefix, lhs, suffix) to c, and terms minus their normal form is the sum
    of c * prefix * (lhs - rhs) * suffix.
    """
    weights = system.alphabet.weights
    todo = dict(terms)
    heap = [(_descending_key(weights, w), w) for w in todo]
    heapq.heapify(heap)
    steps, normal = {}, {}
    while heap:
        word = heapq.heappop(heap)[1]
        coeff = todo.pop(word, None)
        if coeff is None:  # cancelled, or pushed twice
            continue
        redex = system.find_redex(word)
        if redex is None:
            normal[word] = coeff
            continue
        i, lhs = redex
        prefix, suffix = word[:i], word[i + len(lhs):]
        steps[(prefix, lhs, suffix)] = coeff
        for w, c in system.rules[lhs].terms.items():
            child = prefix + w + suffix
            if child not in todo:
                heapq.heappush(heap, (_descending_key(weights, child), child))
            add_into(todo, {child: c}, coeff)
    return steps, normal


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
    certificate, the completions, the rules written out over the relations
    and the echelons of the raw rows, each computed on first need.  Obtain
    shared instances through `algebra(pres)`.

    `normal_form(e)` is the normal form of e under the rules completed to
    e's own degree, and at least to degree 3 for rules that are neither
    confluent nor homogeneous; it decides e for confluent or homogeneous
    rules.  Other rules can still put a lower-degree element into the ideal
    through a longer ambiguity, so their nonzero normal form is not a
    verdict.

    `member(e, degree)` decides by that normal form, under
    `completion(degree)` when a degree is given.  Zero is a member, exactly
    (route "reduction").  Nonzero is an exact non-member (route
    "certificate") when the rules are confluent or the relations
    homogeneous; otherwise the verdict is not certain and its note starts
    "undecided:".  It builds no rows.

    `modular_member(e, degree, prime, seed)` is the GF(p) route of `wh3
    member --mode modular`, which no verification check takes: elimination
    on the raw rows w1 * r * w2 up to length degree (e's degree by
    default), independent of the rules, with the words' `word_key` as
    columns.  When every relation is homogeneous the ideal is graded, and
    each homogeneous component of e meets the rows of its own length
    instead (`span_rank` adds up their ranks).  The verdict is never
    certain: an unlucky point can drop the rank of the rows or of the
    residual.  So a non-member is checked again at the next point of the
    seed, the note names both points and starts "undecided:" if they
    disagree, and `support` holds the residual's words at the first point
    (its GF(p) values are not coefficients over Q(q, u, s)).  The residual
    is the echelon's canonical remainder: it lies on the non-pivot words and
    does not depend on the order of the rows.  For homogeneous relations,
    such as tt's, the non-pivot words are the normal words of
    `completion(degree)`, so the support is the normal form's set of words
    (at a point that drops neither the rank nor a coefficient).

    `decomposition(e)` writes a member whose normal form vanishes out as an
    explicit sum of products c * w1 * r * w2 of the relations, which can be
    multiplied out without this module.

    Completions go on from what is already settled: from the largest cached
    completion below their degree, checking only its longer ambiguities, or
    from the certificate, orienting its unresolved defects and checking no
    other ambiguity of the base rules again.  A completion that puts a
    constant or a generator into the ideal raises
    InconsistentPresentationError ("rank collapse: ..."), each time it or a
    higher completion is asked for, like the orientation error.
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
        self._combinations: dict | None = None  # base rule -> {relation index: coefficient}
        self._rule_steps: dict = {}  # completion rule -> (its source defect, its steps)

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

    @property
    def confluent(self) -> bool:
        """Whether every overlap of the rules resolves; raises if unoriented."""
        return self.confluence.confluent

    def completion(self, degree: int) -> RuleSystem:
        """The rules with every ambiguity of length <= degree resolved (cached).

        Every ambiguity of the quadratic rules has length 3, so below degree 3,
        and for confluent rules, the completion is the rules.  Otherwise
        `overlap_resolve` goes on from what is settled: from the largest
        cached completion below degree, checking only its longer ambiguities,
        or from the certificate, whose unresolved defects are oriented first
        and whose other ambiguities are not checked again.  Raises the
        orientation error, or the rank collapse that this or a lower
        completion met.
        """
        rules = self.rule_system()
        if degree < 3 or self.confluent:
            return rules
        if degree not in self._completions:
            below = [d for d in self._completions if d < degree]
            start = self._completions[max(below)] if below else self.confluence
            try:
                if isinstance(start, InconsistentPresentationError):
                    raise start
                self._completions[degree] = overlap_resolve(start.system, degree, checked=start)
            except InconsistentPresentationError as err:
                self._completions[degree] = err
        found = self._completions[degree]
        if isinstance(found, InconsistentPresentationError):
            raise found
        return found.system

    def normal_form(self, e: Element) -> Element:
        """The normal form of e under the rules completed to e's degree.

        Rules that are neither confluent nor homogeneous are completed to at
        least degree 3, the length of every ambiguity of quadratic rules, so
        a rank collapse is met whatever e's degree.  Exact for confluent or
        homogeneous rules; for others a nonzero normal form decides nothing.
        Raises the orientation error or a rank collapse, like `completion`.
        """
        return self.completion(self._normal_form_degree(e.degree())).normalize(e)

    def _normal_form_degree(self, degree: int) -> int:
        """The completion `normal_form` uses for an element of degree."""
        return degree if self.homogeneous else max(degree, 3)

    # -- ideal decompositions ------------------------------------------------

    def decomposition(self, e: Element) -> dict | None:
        """e as a sum of products c * w1 * r * w2 of the presentation's relations.

        Returns {(w1, index of r in pres.relations, w2): c}, or None when the
        normal form of e under the rules completed to e's degree is not
        zero.  The rewriting of e is traced (`_trace`), and each rule it used
        is written out in turn, highest first: a base rule is the combination
        of relations its echelon row is (`_base_combinations`), and a rule
        the completion added is the defect it was oriented from, the two
        one-step paths of its ambiguity followed by the traces that
        normalized it (`ConfluenceReport.sources`), over its lead
        coefficient.  Those traces use only the rules before it, and each
        added rule is derived once, on first need.  Raises like `completion`.
        """
        degree = e.degree()
        system = self.completion(degree)
        steps, normal = _trace(system, e.terms)
        if normal:
            return None
        sources = {} if system is self.rules else self._completions[degree].sources
        rules = list(system.rules)
        index = {lhs: idx for idx, lhs in enumerate(rules)}
        prefixes: dict = {}

        def prefix(size: int) -> RuleSystem:
            """The first size rules: the system that normalized a defect."""
            if size not in prefixes:
                prefixes[size] = RuleSystem(system.alphabet,
                                            dict(itertools.islice(system.rules.items(), size)))
            return prefixes[size]

        pending: dict = {}  # rule index -> {(w1, w2): c}, each c * w1 * (lhs - rhs) * w2

        def spread(occurrences: Mapping, coeff=None, w1=(), w2=()):
            for (u1, lhs, u2), c in occurrences.items():
                add_into(pending.setdefault(index[lhs], {}), {(w1 + u1, u2 + w2): c}, coeff)

        spread(steps)
        base = self._base_combinations()
        out: dict = {}
        for idx in range(len(rules) - 1, -1, -1):
            lhs = rules[idx]
            for (w1, w2), c in pending.pop(idx, {}).items():
                if lhs in base:
                    add_into(out, {(w1, r, w2): a for r, a in base[lhs].items()}, c)
                else:
                    spread(self._defect_steps(sources[lhs], lhs, prefix), c, w1, w2)
        return out

    def _base_combinations(self) -> dict:
        """Each base rule lhs -> rhs as lhs - rhs = {relation index: coefficient}.

        One echelon over the relations, each with a tag column (-1, -index)
        of its own ranked below every word's (weight >= 0, word), an earlier
        relation's above a later one's: its reduced rows on words are the
        rules (`orient`), and their tag columns say which relations they
        combine.
        """
        if self._combinations is None:
            rules, key = self.rule_system(), self.pres.alphabet.word_key
            echelon = ScalarEchelon()
            for idx, rel in enumerate(self.pres.relations):
                if not rel.is_zero:
                    echelon.insert({**{key(w): c for w, c in rel.terms.items()},
                                    (-1, -idx): Scalar.one()})
            echelon.interreduce()
            self._combinations = {
                lhs: {-idx: c for (tag, idx), c in echelon.rows[key(lhs)].items() if tag < 0}
                for lhs in rules.rules}
        return self._combinations

    def _defect_steps(self, defect: OverlapDefect, lhs: tuple, prefix) -> dict:
        """The completion rule for lhs as rewrite steps over the rules before it."""
        cached = self._rule_steps.get(lhs)
        if cached is not None and cached[0] is defect:
            return cached[1]
        word, lhs_a, pos_b, lhs_b = defect.word, defect.lhs_a, defect.pos_b, defect.lhs_b
        one = Scalar.one()
        first, *later = defect.systems
        system = prefix(first)
        # word minus each one-step path, then each path minus its normal form
        steps = {((), lhs_a, word[len(lhs_a):]): -one,
                 (word[:pos_b], lhs_b, word[pos_b + len(lhs_b):]): one}
        trace_a, normal_a = _trace(system, _path(system, word, 0, lhs_a).terms)
        trace_b, normal_b = _trace(system, _path(system, word, pos_b, lhs_b).terms)
        add_into(steps, trace_a, -one)
        add_into(steps, trace_b)
        difference = add_into(normal_a, normal_b, -one)
        for size in later:  # the difference normalized again under a longer prefix
            trace, difference = _trace(prefix(size), difference)
            add_into(steps, trace, -one)
        inverse = difference[lhs].inverse()
        steps = {key: c * inverse for key, c in steps.items()}
        self._rule_steps[lhs] = (defect, steps)
        return steps

    # -- membership ----------------------------------------------------------

    def member(self, e: Element, degree: int | None = None) -> MembershipReport:
        """Whether e lies in the ideal, by its normal form at degree or at e's own."""
        bound = e.degree() if degree is None else degree
        if e.degree() > bound:
            raise DegreeBoundError(f"element degree {e.degree()} exceeds bound {bound}")
        if e.is_zero:
            return MembershipReport(True, True, "trivial", "exact", bound)
        nf = self.normal_form(e) if degree is None else self.completion(degree).normalize(e)
        if nf.is_zero:
            return MembershipReport(True, True, "reduction", "exact", bound,
                                    note="normal form vanishes: explicit ideal decomposition")
        if self.confluent or self.homogeneous:
            return MembershipReport(False, True, "certificate", "exact", bound, residual=nf,
                                    note="nonzero normal form under confluent or "
                                         f"homogeneous rules completed to degree {bound}")
        completed = bound if degree is not None else self._normal_form_degree(bound)
        return MembershipReport(False, False, "reduction", "exact", bound, residual=nf,
                                note="undecided: nonzero normal form under rules completed "
                                     f"to degree {completed}, neither confluent nor homogeneous")

    # -- the GF(p) route of `wh3 member --mode modular` ----------------------

    def modular_member(self, e: Element, degree: int | None = None,
                       prime: int = DEFAULT_PRIME, seed: int = DEFAULT_SEED) -> MembershipReport:
        """Whether e lies in the span of the raw rows over GF(p), at a point of the seed."""
        bound = e.degree() if degree is None else degree
        if e.degree() > bound:
            raise DegreeBoundError(f"element degree {e.degree()} exceeds bound {bound}")
        if e.is_zero:
            return MembershipReport(True, True, "trivial", "exact", bound)
        alphabet, key = self.pres.alphabet, self.pres.alphabet.word_key
        if self.homogeneous:
            parts: dict = {}  # length -> the component of e
            for w, c in e.terms.items():
                parts.setdefault(len(w), {})[key(w)] = c
        else:
            parts = {bound: {key(w): c for w, c in e.terms.items()}}

        def remainder(point):
            """The echelons' total rank and e's remainder on words at point."""
            rank, out = 0, {}
            for length, vec in parts.items():
                ech = self._echelon(length, point)
                rank += ech.rank
                out.update((w, c) for (_, w), c in ech.reduce(eval_vec_mod(vec, point)).items())
            return rank, out

        point, (rank, residual) = with_modular_retries(remainder, prime, seed)
        report = MembershipReport(
            member=not residual,
            # a point can drop the rank of the rows (a false non-member) or of
            # the residual (a false member): neither verdict is certain
            certain=False,
            route="linear-algebra",
            mode="modular",
            degree=bound,
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

    def _row_vectors(self, degree: int, point=None):
        """Yield the raw spanning rows w1*r*w2, on the words' `word_key` columns.

        A row is r's own coefficients, exact or evaluated once per relation
        at the modular point, on the words w1 + w + w2.  A row can repeat
        another (the padded monomial relation xi1^2 gives xi1^3 twice); the
        echelon reduces the repeat to zero.  Only their echelons are cached:
        an object shared for the whole run would otherwise keep every
        degree-4 row alive.
        """
        key = self.pres.alphabet.word_key
        n = len(self.pres.alphabet)
        relations = self.pres.nonzero_relations()

        def pads(rel):
            rdeg = rel.degree()
            if rdeg > degree:
                return ()
            return [degree - rdeg] if self.homogeneous else range(degree - rdeg + 1)

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
            # raises ScalarModularError at a point where a denominator vanishes
            values = rel.terms if point is None else eval_vec_mod(rel.terms, point)
            for pad in pads(rel):
                for left_len in range(pad + 1):
                    for w1 in itertools.product(range(n), repeat=left_len):
                        for w2 in itertools.product(range(n), repeat=pad - left_len):
                            yield {key(w1 + w + w2): v for w, v in values.items()}

    def _echelon(self, degree: int, point) -> ModEchelon:
        """The cached echelon of the rows over GF(p) at a modular point.

        The rows enter in ascending order of their lead column, as in F4 and
        structured sparse elimination, not in generation order: a row is then
        reduced against short rows with low leads instead of filled-in ones.
        The pivot set and rank do not depend on the order.  A row that
        vanished mod p sorts first and is still inserted.
        """
        key = (degree, point)
        ech = self._echelons.get(key)
        if ech is None:
            ech = ModEchelon(point.prime)
            for row in sorted(self._row_vectors(degree, point),
                              key=lambda r: max(r, default=(-1, ()))):
                ech.insert(row)
            self._echelons[key] = ech
        return ech


class TensorAlgebra(MembershipOracle):
    """The algebra A (x) B of two algebra objects, over the tensor alphabet.

    The alphabet is `tensor_alphabet` of the legs' alphabets, or one with
    its letters renamed: the legs' letters keep their ranks, parities and
    weights, so one algebra can be both legs.  It orients nothing and
    keeps no normal forms of its own: only the legs' caches fill.  Its
    rules are the `TensorRules` of the legs' rules, and `completion(degree)`
    those of the legs' completions: no ambiguity of a commutation b*a -> a*b
    needs a new rule, so completing the tensor adds exactly the legs' new
    rules.  It is confluent when both legs are, and homogeneous when both
    legs are; it keeps no overlap report of its own.  `normal_form(e)`
    decides a tensor of homogeneous legs at its bidegree: the quotient is
    then bigraded, so each leg is completed only to the longest part of e's
    words in it.  With an inhomogeneous leg it completes both legs in step
    to e's total degree.
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

    @property
    def confluence(self) -> ConfluenceReport:
        raise AttributeError("a tensor algebra keeps no overlap report; its legs do")

    @property
    def confluent(self) -> bool:
        """Whether both legs' rules are confluent; raises a leg's orientation error."""
        return all(leg.confluent for leg in self.legs)

    def completion(self, degree: int) -> TensorRules:
        """The TensorRules of the legs' completions to degree (cached in the legs).

        The legs are completed in step, one degree at a time and an
        inhomogeneous leg first, so a rank collapse is met at the lowest degree
        where it occurs, before the other leg is completed to it: a
        homogeneous quadratic leg never collapses, since every defect it meets
        is homogeneous of length >= 3.  Raises a leg's error.
        """
        legs = sorted(self.legs, key=lambda leg: leg.homogeneous)
        for step in range(2, degree + 1):
            for leg in legs:
                leg.completion(step)
        return TensorRules(self.alphabet, *(leg.completion(degree) for leg in self.legs))

    def normal_form(self, e: Element) -> Element:
        """The normal form of e, at its bidegree when both legs are homogeneous."""
        if not self.homogeneous:
            return super().normal_form(e)
        offset = self.rule_system().offset
        a = max((sum(g < offset for g in w) for w in e.terms), default=0)
        b = max((sum(g >= offset for g in w) for w in e.terms), default=0)
        left, right = self.legs
        return TensorRules(self.alphabet, left.completion(a), right.completion(b)).normalize(e)

    def modular_member(self, e: Element, degree: int | None = None,
                       prime: int = DEFAULT_PRIME, seed: int = DEFAULT_SEED) -> MembershipReport:
        """Raises: a tensor keeps no raw rows; `member` decides by normal forms."""
        raise ValueError("a tensor algebra decides membership by normal forms only, "
                         "not in mode 'modular'")


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
    binding or any changed coefficient gives another.  A `TensorAlgebra` is
    built from its legs' objects instead.  The least recently used of more
    than ALGEBRA_CACHE_SIZE objects is dropped.
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

    The relations enter one `ScalarEchelon` in list order, on the words'
    `word_key` columns, and stay in `relations`, so one elimination serves
    every comparison the span takes part in.  `dependent` lists the indices
    of the relations that are zero or already in the span of the earlier
    ones; a residual does not depend on the list order.  Relations or tested
    elements over another alphabet raise ValueError.
    """

    def __init__(self, relations: Sequence[Element]):
        self.relations = list(relations)
        self.alphabet = relations[0].alphabet if relations else None
        for rel in relations:
            self._check(rel)
        self._echelon = ScalarEchelon()
        self.dependent = [idx for idx, rel in enumerate(relations) if self._echelon.insert(
            {rel.alphabet.word_key(w): c for w, c in rel.terms.items()}) is None]

    def _check(self, e: Element):
        if self.alphabet is not None and not self.alphabet.compatible_with(e.alphabet):
            raise ValueError("span of relations over different alphabets")

    @property
    def rank(self) -> int:
        return self._echelon.rank

    def residual(self, e: Element) -> Element:
        """The canonical remainder of e: zero iff e lies in the span, order-free."""
        self._check(e)
        vec = self._echelon.reduce({e.alphabet.word_key(w): c for w, c in e.terms.items()})
        return Element(e.alphabet, {w: c for (_, w), c in vec.items()})

    def outside(self, other: "Span") -> Element | None:
        """The residual here of the first relation of other outside this span, or None."""
        return next((res for r in other.relations if (res := self.residual(r))), None)


@dataclass
class SpanComparison:
    verdict: str  # equal | A_subset_B | B_subset_A | incomparable
    rank_a: int
    rank_b: int
    witness: Element | None = None


def span_compare(a: Span | Sequence[Element], b: Span | Sequence[Element]) -> SpanComparison:
    """Exact row-space comparison of two relation lists over a common alphabet.

    Either side may be a prebuilt `Span`, so a list compared twice is
    eliminated once.  b's relations are reduced modulo span(a) first; when
    they all lie in it and the ranks agree, the spans are equal and a's
    relations are not reduced modulo span(b).  The witness is the residual
    of the first relation of a outside the span of b, else of the first
    relation of b outside the span of a.
    """
    span_a, span_b = (s if isinstance(s, Span) else Span(s) for s in (a, b))
    b_not_in_a = span_a.outside(span_b)
    if b_not_in_a is None and span_a.rank == span_b.rank:
        return SpanComparison("equal", span_a.rank, span_b.rank)
    a_not_in_b = span_b.outside(span_a)
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
