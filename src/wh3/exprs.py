"""Shared expression grammar for scalars and noncommutative elements.

One grammar serves the CLI, the algebra-definition files and the catalog's
own relation tables: integer literals, the parameters q, u, s, generator
names, ``+ - * /`` and ``^`` with integer exponents of at most
`MAX_EXPONENT` in size, and parentheses.
Products are written explicitly (``q*x1*x2``); generator order is preserved
left to right.  Division and negative exponents are only defined for
scalar-valued subexpressions.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass

from .ncalg import EMPTY_ALPHABET, Element
from .scalars import PARAMETERS, Scalar, ScalarDivisionError

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "UnknownSymbolError",
    "NAME_RE",
    "MAX_EXPONENT",
    "parse_scalar",
    "parse_element",
]


class ExprError(ValueError):
    """Base class for expression parsing failures; carries a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprSyntaxError(ExprError):
    pass


class UnknownSymbolError(ExprError):
    def __init__(self, name: str, position: int, candidates=()):
        suggestion = difflib.get_close_matches(name, list(candidates), n=1, cutoff=0.5)
        hint = f"; did you mean {suggestion[0]!r}?" if suggestion else ""
        super().__init__(f"unknown symbol {name!r}{hint}", position)
        self.name = name
        self.suggestion = suggestion[0] if suggestion else None


# the largest size of an exponent after ``^`` (the catalog's largest is 24):
# a power is expanded by repeated products, so x1^100000000 would not end
MAX_EXPONENT = 1000

# a parameter or generator name; algebra files may declare no other
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(rf"\s*(?:(?P<num>\d+)|(?P<name>{NAME_RE.pattern})|(?P<op>[-+*/^()]))")


@dataclass
class _Token:
    kind: str  # num | name | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", bad_at)
        if match.lastgroup == "num":
            tokens.append(_Token("num", match.group("num"), match.start("num")))
        elif match.lastgroup == "name":
            tokens.append(_Token("name", match.group("name"), match.start("name")))
        else:
            tokens.append(_Token("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


def _integer(tok: _Token) -> int:
    """The value of an integer literal, one within Python's int-to-str digit limit."""
    try:
        return int(tok.text)
    except ValueError:
        raise ExprSyntaxError(f"integer literal of {len(tok.text)} digits is too long",
                              tok.pos) from None


class _Parser:
    """Recursive-descent parser producing an Element over a fixed alphabet."""

    def __init__(self, text: str, alphabet):
        self.alphabet = alphabet
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token helpers ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str):
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}", tok.pos)

    # -- grammar ------------------------------------------------------------

    def parse(self):
        try:
            value = self.expr()
        except RecursionError:
            raise ExprSyntaxError("expression nested too deeply", self.peek().pos) from None
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.factor()
                if tok.text == "*":
                    value = value * rhs
                else:
                    value = value * self._invert(rhs, tok.pos)
            else:
                return value

    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            value = self.factor()
            return value if tok.text == "+" else -value
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent = self._integer_exponent()
            return self._pow(base, exponent, tok.pos)
        return base

    def _integer_exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            if tok.text == "-":
                sign = -1
            tok = self.peek()
        if tok.kind != "num":
            raise ExprSyntaxError("expected integer exponent", tok.pos)
        self.advance()
        exponent = _integer(tok)
        if exponent > MAX_EXPONENT:
            raise ExprSyntaxError(f"exponent {exponent} is larger than {MAX_EXPONENT}", tok.pos)
        return sign * exponent

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return self._scalar_element(Scalar.from_fraction(_integer(tok)))
        if tok.kind == "name":
            return self._name(tok)
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ExprSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)

    # -- semantics ----------------------------------------------------------

    def _scalar_element(self, value: Scalar):
        return Element.from_scalar(self.alphabet, value)

    def _name(self, tok: _Token):
        if tok.text in PARAMETERS:
            return self._scalar_element(Scalar.param(tok.text))
        rank = self.alphabet.rank_of(tok.text)
        if rank is None:
            candidates = list(PARAMETERS) + list(self.alphabet.names())
            raise UnknownSymbolError(tok.text, tok.pos, candidates)
        return Element.from_word(self.alphabet, (rank,))

    def _invert(self, value, pos: int):
        coeff = value.scalar_value()
        if coeff is None:
            raise ExprSyntaxError("cannot divide by a generator-valued expression", pos)
        if coeff.is_zero:
            raise ExprSyntaxError("division by zero", pos)
        return self._scalar_element(coeff.inverse())

    def _pow(self, base, exponent: int, pos: int):
        coeff = base.scalar_value()
        if coeff is not None:
            try:
                return self._scalar_element(coeff**exponent)
            except ScalarDivisionError:
                raise ExprSyntaxError("zero scalar raised to a negative power", pos)
        if exponent < 0:
            raise ExprSyntaxError("negative exponent on a generator-valued expression", pos)
        result = self._scalar_element(Scalar.one())
        for _ in range(exponent):
            result = result * base
        return result


def parse_element(text: str, alphabet):
    """Parse an expression into an Element over the given alphabet."""
    return _Parser(text, alphabet).parse()


def parse_scalar(text: str) -> Scalar:
    """Parse a parameter-only expression into a Scalar."""
    element = _Parser(text, EMPTY_ALPHABET).parse()
    value = element.scalar_value()
    assert value is not None  # empty alphabet admits only scalar values
    return value
