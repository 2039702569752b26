"""Parser for the polynomial expression grammar.

Accepted input: integer literals, variables t1..td, the operators + - * ^
(^ takes a literal exponent 0..4096, refused past the cost budget by its
power_cost before it expands), and parentheses.  Whitespace is ignored.
There is no implicit multiplication: write 2*t1, not 2t1.

parse -> serialize -> parse is a fixed point: the canonical string emitted
by MultiPoly.serialize always parses back to the same polynomial.
"""

from __future__ import annotations

import math
import re

from .errors import PolyParseError
from .multipoly import MultiPoly
from .resultants import check_budget

DEFAULT_MAX_EXPONENT = 4096

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|t(\d+)|([+\-*^()]))")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
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
            check_budget(power_cost(base, value))
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


def power_cost(base: MultiPoly, e: int) -> float:
    """Work of base**e in cost_estimate's units, before any: twice a squaring
    of base^k, k = ceil(e/2): n^2 term products of 10 units plus W^1.585/32,
    for n = min(C(k+T-1, T-1), prod(k*deg_i + 1)) terms, T those of base, and
    W = k*log2(sum |c|)/64 words per coefficient.  On a 2-core host, 0.8-2.2
    times the time of (1+t1+t2)^e, e = 20..80 (0.009-1.0 s), (1+t1)^e, e =
    300..4000 (0.05-26 s), and (1000003+t1)^e, e = 100..400 (0.01-0.5 s); 5.9
    times at (7+t1^3-2*t2^2+t1*t2)^40 (1.6 s), whose terms n overcounts."""
    coeffs, k = base.term_dict().values(), (e + 1) // 2
    degrees = math.prod(k * base.degree_in(i) + 1 for i in range(1, base.num_vars + 1))
    n = min(math.comb(k + len(coeffs) - 1, len(coeffs) - 1), degrees) if coeffs else 1
    words = k * math.log2(max(2, sum(map(abs, coeffs)))) / 64
    try:
        return 2 * n * n * (10 + words**1.585 / 32)
    except OverflowError:  # past the float range
        return math.inf


def parse_poly(text: str, num_vars: int) -> MultiPoly:
    """Parse an expression in t1..t<num_vars> into canonical MultiPoly form."""
    if num_vars < 0:
        raise ValueError("num_vars must be non-negative")
    return _Parser(text, num_vars).parse()
