"""Parser for the polynomial expression grammar.

Accepted input: integer literals, variables t1..td, the operators + - * ^
(^ takes a literal exponent 0..4096), and parentheses.  Whitespace is
ignored.  A chain of factors joined by * is parsed whole, its powers
unexpanded, and refused past the cost budget by its chain_cost (the powers'
power_cost and the products') before any of them is taken.
There is no implicit multiplication: write 2*t1, not 2t1.

parse -> serialize -> parse is a fixed point: the canonical string emitted
by MultiPoly.serialize always parses back to the same polynomial.
"""

from __future__ import annotations

import functools
import math
import operator
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
        """A chain of factors joined by *: every factor is parsed first, its
        power unexpanded, and the chain's powers and products are charged
        to the budget together (chain_cost) before the first is taken."""
        factors = [self.unary()]
        while self.toks.peek()[0] == "*":
            self.toks.advance()
            factors.append(self.unary())
        # unpowered monomials multiply one term at a time: nothing to charge
        if any(e is not None or len(base.term_dict()) > 1 for _, base, e in factors):
            check_budget(chain_cost([(base, e) for _, base, e in factors]))
        value = functools.reduce(operator.mul, (base if e is None else base**e for _, base, e in factors))
        return -value if sum(negated for negated, _, _ in factors) % 2 else value

    def unary(self) -> tuple:
        """(negated, base, exponent or None): a signed factor, its power
        unexpanded."""
        kind, _, _ = self.toks.peek()
        if kind in ("-", "+"):
            self.toks.advance()
            negated, base, e = self.unary()
            return negated != (kind == "-"), base, e
        return (False, *self.power())

    def power(self) -> tuple:
        base = self.atom()
        if self.toks.peek()[0] != "^":
            return base, None
        self.toks.advance()
        kind, value, pos = self.toks.advance()
        if kind != "int":
            raise PolyParseError("exponent must be a non-negative integer literal", pos)
        if value > DEFAULT_MAX_EXPONENT:
            raise PolyParseError(
                f"exponent {value} exceeds the configured bound {DEFAULT_MAX_EXPONENT}", pos
            )
        return base, value

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
    of base^k, k = ceil(e/2), each _product_cost with _shape's bounds.  On
    a 2-core host, 0.8-2.2 times the time of (1+t1+t2)^e, e = 20..80
    (0.009-1.0 s), (1+t1)^e, e = 300..4000 (0.05-26 s), and
    (1000003+t1)^e, e = 100..400 (0.01-0.5 s); 5.9 times at
    (7+t1^3-2*t2^2+t1*t2)^40 (1.6 s), whose terms n overcounts."""
    n, _, bits = _shape(base, (e + 1) // 2)
    return 2 * _product_cost(n, n, bits)


def chain_cost(factors) -> float:
    """Work of the product of the factors (base, e), base**e or base for
    e None, in cost_estimate's units, before any: each power's power_cost,
    and the _product_cost of the running product by each next factor, by
    _shape's bounds.  A product has at most min(n_a*n_b, prod(deg_a,i +
    deg_b,i + 1)) terms, and its coefficients at most the product of the
    factors' norms.  On a 2-core host, the product of two expanded
    (1+t1+t2)^100 took 33 s; its _product_cost is 2.8e8 units (41 s)."""
    total = sum(power_cost(base, e) for base, e in factors if e is not None)
    n, degrees, bits = _shape(*factors[0])
    for base, e in factors[1:]:
        n_b, degrees_b, bits_b = _shape(base, e)
        bits += bits_b
        total += _product_cost(n, n_b, bits)
        degrees = [a + b for a, b in zip(degrees, degrees_b)]
        n = min(n * n_b, math.prod(d + 1 for d in degrees))
    return total


def _shape(base: MultiPoly, e: int | None) -> tuple:
    """(terms, degrees, bits): bounds on base**e (base for e None) before it
    expands.  For T terms of base, at most min(C(e+T-1, T-1),
    prod(e*deg_i + 1)) terms, degree e*deg_i in t_i, and coefficients of at
    most e*log2(sum |c|) bits."""
    terms, e = base.term_dict(), 1 if e is None else e
    degrees = [e * d for d in map(max, zip(*terms))] if terms else [0] * base.num_vars
    n = min(math.comb(e + len(terms) - 1, len(terms) - 1), math.prod(d + 1 for d in degrees)) if terms else 1
    return n, degrees, e * math.log2(max(2, sum(map(abs, terms.values()))))


def _product_cost(n_a: int, n_b: int, bits: float) -> float:
    """Work of a product of n_a by n_b terms whose coefficients reach `bits`
    bits: n_a*n_b term products of 10 units plus W^1.585/32 for W = bits/64
    words; power_cost and chain_cost share it."""
    try:
        return n_a * n_b * (10 + (bits / 64) ** 1.585 / 32)
    except OverflowError:  # past the float range
        return math.inf


def parse_poly(text: str, num_vars: int) -> MultiPoly:
    """Parse an expression in t1..t<num_vars> into canonical MultiPoly form."""
    if num_vars < 0:
        raise ValueError("num_vars must be non-negative")
    return _Parser(text, num_vars).parse()
