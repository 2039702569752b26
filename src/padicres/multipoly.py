"""Sparse multivariate polynomials with arbitrary-precision integer coefficients.

A polynomial in d variables t1, ..., td is stored as a mapping from exponent
vectors (length-d tuples of non-negative ints) to nonzero int coefficients;
the zero polynomial has an empty mapping.  Instances are immutable after
construction and every operation is a pure function, so values can be shared
across threads freely.

Canonical term order is graded lexicographic (total degree first, ties broken
lexicographically on the exponent vector), descending.  ``serialize`` emits
terms in that order, so equal polynomials always produce byte-identical
strings, independent of construction history and platform.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Sequence, Tuple

from .errors import ExactDivisionError

Exponent = Tuple[int, ...]


def _grlex_key(exp: Exponent):
    return (sum(exp), exp)


class MultiPoly:
    __slots__ = ("num_vars", "_terms", "_hash")

    def __init__(self, num_vars: int, terms: Dict[Exponent, int] | None = None):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        clean: Dict[Exponent, int] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != num_vars:
                    raise ValueError(
                        f"exponent vector {exp} has length {len(exp)}, expected {num_vars}"
                    )
                if any(e < 0 or not isinstance(e, int) for e in exp):
                    raise ValueError(f"exponents must be non-negative integers: {exp}")
                coeff = int(coeff)
                if coeff:
                    clean[exp] = clean.get(exp, 0) + coeff
                    if clean[exp] == 0:
                        del clean[exp]
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "MultiPoly":
        return cls(num_vars)

    @classmethod
    def const(cls, num_vars: int, value: int) -> "MultiPoly":
        if value == 0:
            return cls(num_vars)
        return cls(num_vars, {(0,) * num_vars: int(value)})

    @classmethod
    def _of_terms(cls, num_vars: int, terms: Dict[Exponent, int]) -> "MultiPoly":
        """A polynomial that owns `terms` as given, without the checks of
        __init__: the caller builds exponent tuples of length num_vars and
        nonzero int coefficients."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "num_vars", num_vars)
        object.__setattr__(poly, "_terms", terms)
        object.__setattr__(poly, "_hash", None)
        return poly

    @classmethod
    def one(cls, num_vars: int) -> "MultiPoly":
        return cls.const(num_vars, 1)

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "MultiPoly":
        """The variable t<index>, 1-based to match the t1..td naming."""
        if not 1 <= index <= num_vars:
            raise ValueError(f"variable index {index} out of range 1..{num_vars}")
        exp = [0] * num_vars
        exp[index - 1] = 1
        return cls(num_vars, {tuple(exp): 1})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[Tuple[Exponent, int]]:
        """Terms in canonical (graded-lex descending) order."""
        for exp in sorted(self._terms, key=_grlex_key, reverse=True):
            yield exp, self._terms[exp]

    def term_dict(self) -> Dict[Exponent, int]:
        return dict(self._terms)

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(exp) for exp in self._terms)

    def degree_in(self, index: int) -> int:
        """Degree in t<index> (1-based); -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(exp[index - 1] for exp in self._terms)

    def constant_value(self) -> int:
        """The value of a constant polynomial (raises if non-constant)."""
        if not self._terms:
            return 0
        if len(self._terms) == 1:
            exp, coeff = next(iter(self._terms.items()))
            if not any(exp):
                return coeff
        raise ValueError("polynomial is not constant")

    def content(self) -> int:
        """gcd of all coefficients (non-negative; 0 for the zero polynomial)."""
        g = 0
        for coeff in self._terms.values():
            g = math.gcd(g, coeff)
        return g

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.num_vars == other.num_vars and self._terms == other._terms
        if isinstance(other, int):
            if other == 0:
                return self.is_zero
            return self._terms == {(0,) * self.num_vars: other}
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num_vars, tuple(sorted(self._terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.num_vars != self.num_vars:
                raise ValueError("mixing polynomials with different num_vars")
            return other
        if isinstance(other, int):
            return MultiPoly.const(self.num_vars, other)
        return None

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            s = out.get(exp, 0) + coeff
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return MultiPoly(self.num_vars, out)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.num_vars, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            if other == 0:
                return MultiPoly(self.num_vars)
            return MultiPoly(
                self.num_vars, {e: c * other for e, c in self._terms.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: Dict[Exponent, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, 0) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return MultiPoly(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.one(self.num_vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def divexact(self, other: "MultiPoly") -> "MultiPoly":
        """Exact quotient self/other; raises ExactDivisionError if not exact."""
        other = self._coerce(other)
        if other is None or other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return MultiPoly(self.num_vars)
        lead_exp = max(other._terms, key=_grlex_key)
        lead_c = other._terms[lead_exp]
        rem = dict(self._terms)
        out: Dict[Exponent, int] = {}
        while rem:
            exp = max(rem, key=_grlex_key)
            coeff = rem[exp]
            q, r = divmod(coeff, lead_c)
            diff = tuple(a - b for a, b in zip(exp, lead_exp))
            if r != 0 or any(e < 0 for e in diff):
                raise ExactDivisionError(
                    f"{self.serialize()} is not divisible by {other.serialize()}"
                )
            out[diff] = q
            for bexp, bc in other._terms.items():
                k = tuple(d + b for d, b in zip(diff, bexp))
                s = rem.get(k, 0) - q * bc
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        return MultiPoly(self.num_vars, out)

    # -- evaluation and variable plumbing ------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        """Exact value at an integer point (length must equal num_vars)."""
        if len(point) != self.num_vars:
            raise ValueError(
                f"point has length {len(point)}, expected {self.num_vars}"
            )
        total = 0
        for exp, coeff in self._terms.items():
            term = coeff
            for x, e in zip(point, exp):
                if e:
                    term *= x**e
            total += term
        return total

    def coeffs_in_last_var(self) -> list:
        """View as a univariate polynomial in t_d: list of MultiPoly coefficients
        in the remaining d-1 variables, index = degree in t_d."""
        if self.num_vars == 0:
            raise ValueError("no variables to split off")
        deg = self.degree_in(self.num_vars)
        buckets: list = [dict() for _ in range(deg + 1)] if deg >= 0 else []
        for exp, coeff in self._terms.items():
            buckets[exp[-1]][exp[:-1]] = coeff
        return [MultiPoly(self.num_vars - 1, b) for b in buckets]

    # -- canonical serialization ---------------------------------------------

    def serialize(self) -> str:
        """Deterministic canonical form, re-parseable by parse_poly."""
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in self.terms():
            mono = "*".join(
                f"t{i + 1}^{e}" if e > 1 else f"t{i + 1}"
                for i, e in enumerate(exp)
                if e
            )
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            parts.append((coeff < 0, body))
        first_neg, first_body = parts[0]
        pieces = [("-" if first_neg else "") + first_body]
        for neg, body in parts[1:]:
            pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    def __str__(self) -> str:
        return self.serialize()

    def __repr__(self) -> str:
        return f"MultiPoly({self.num_vars}, '{self.serialize()}')"
