"""Parser for the polynomial expression grammar.

Accepted input: integer literals, variables t1..td, the operators + - * ^
(with ^ taking a non-negative integer literal exponent), and parentheses.
Whitespace is ignored.  There is no implicit multiplication: write 2*t1,
not 2t1.

parse -> serialize -> parse is a fixed point: the canonical string emitted
by MultiPoly.serialize always parses back to the same polynomial.
"""

from __future__ import annotations

import re

from .errors import PolyParseError
from .multipoly import MultiPoly

DEFAULT_MAX_EXPONENT = 4096

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|t(\d+)|([+\-*^()]))")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, object, int]] = []
        self._scan()
        self.index = 0

    def _scan(self):
        pos = 0
        text = self.text
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise PolyParseError(f"unexpected character {stripped[0]!r}", at)
            if m.group(1) is not None:
                self.tokens.append(("int", int(m.group(1)), m.start(1)))
            elif m.group(2) is not None:
                self.tokens.append(("var", int(m.group(2)), m.start(2) - 1))
            else:
                self.tokens.append((m.group(3), None, m.start(3)))
            pos = m.end()
        self.tokens.append(("end", None, len(text)))

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str, num_vars: int):
        self.toks = _Tokenizer(text)
        self.num_vars = num_vars

    def parse(self) -> MultiPoly:
        value = self.expr()
        kind, _, pos = self.toks.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {kind!r}", pos)
        return value

    def expr(self) -> MultiPoly:
        value = self.term()
        while True:
            kind, _, _ = self.toks.peek()
            if kind == "+":
                self.toks.advance()
                value = value + self.term()
            elif kind == "-":
                self.toks.advance()
                value = value - self.term()
            else:
                return value

    def term(self) -> MultiPoly:
        value = self.unary()
        while self.toks.peek()[0] == "*":
            self.toks.advance()
            value = value * self.unary()
        return value

    def unary(self) -> MultiPoly:
        kind, _, _ = self.toks.peek()
        if kind == "-":
            self.toks.advance()
            return -self.unary()
        if kind == "+":
            self.toks.advance()
            return self.unary()
        return self.power()

    def power(self) -> MultiPoly:
        base = self.atom()
        if self.toks.peek()[0] == "^":
            self.toks.advance()
            kind, value, pos = self.toks.advance()
            if kind != "int":
                raise PolyParseError("exponent must be a non-negative integer literal", pos)
            if value > DEFAULT_MAX_EXPONENT:
                raise PolyParseError(
                    f"exponent {value} exceeds the configured bound {DEFAULT_MAX_EXPONENT}", pos
                )
            return base**value
        return base

    def atom(self) -> MultiPoly:
        kind, value, pos = self.toks.advance()
        if kind == "int":
            return MultiPoly.const(self.num_vars, value)
        if kind == "var":
            if not 1 <= value <= self.num_vars:
                raise PolyParseError(
                    f"variable t{value} exceeds num_vars={self.num_vars}", pos
                )
            return MultiPoly.variable(self.num_vars, value)
        if kind == "(":
            inner = self.expr()
            kind2, _, pos2 = self.toks.advance()
            if kind2 != ")":
                raise PolyParseError("expected ')'", pos2)
            return inner
        raise PolyParseError(f"expected a value, found {kind!r}", pos)


def parse_poly(text: str, num_vars: int) -> MultiPoly:
    """Parse an expression in t1..t<num_vars> into canonical MultiPoly form."""
    if num_vars < 0:
        raise ValueError("num_vars must be non-negative")
    return _Parser(text, num_vars).parse()
