"""Dense univariate polynomials over int or MultiPoly coefficients.

UniPoly holds a coefficient tuple indexed by degree, trailing entry nonzero;
the zero polynomial is the empty tuple.  Coefficients are either Python ints
or MultiPoly values in the remaining variables (the t_i-elimination view used
by the resultant engine); the two kinds are never mixed inside one polynomial.

Includes the p-power cyclotomic polynomials and the substitution t -> 1 + s
from which the structural route reads the lambda invariant.
"""

from __future__ import annotations

import math
from typing import Iterable

from .multipoly import MultiPoly


def _is_zero(c) -> bool:
    return c == 0


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        out = list(self.coeffs)
        if len(other.coeffs) > len(out):
            out.extend([other.coeffs[0] * 0] * (len(other.coeffs) - len(out)))
        for i, c in enumerate(other.coeffs):
            out[i] = out[i] - c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [a[0] * 0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if _is_zero(ca):
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return UniPoly(out)

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly((1,)) if not self.coeffs or isinstance(self.coeffs[0], int) else UniPoly((MultiPoly.one(self.coeffs[0].num_vars),))
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    # -- evaluation and substitutions ----------------------------------------

    def evaluate(self, x):
        """Horner evaluation; x may be an int or MultiPoly over the same ring."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return 0 if acc is None else acc

    def shift_one(self) -> "UniPoly":
        """Return g(s) = f(1 + s), exactly (integer coefficients)."""
        acc = UniPoly()
        one_plus_s = UniPoly((1, 1))
        for c in reversed(self.coeffs):
            acc = acc * one_plus_s + UniPoly((c,))
        return acc

    def content(self) -> int:
        """gcd of integer coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g

    # -- division ------------------------------------------------------------

    def pseudo_rem(self, other: "UniPoly") -> "UniPoly":
        """Pseudo-remainder: lc(other)^(deg self - deg other + 1) * self mod other."""
        if other.is_zero:
            raise ZeroDivisionError("pseudo-division by zero")
        m, n = self.degree(), other.degree()
        if m < n:
            return self
        lead = other.lc()
        rem = list(self.coeffs)
        for i in range(m, n - 1, -1):
            c = rem[i]
            rem = [lead * a for a in rem]
            if not _is_zero(c):
                for j, b in enumerate(other.coeffs):
                    rem[i - n + j] = rem[i - n + j] - c * b
        return UniPoly(rem[:n])

    # -- presentation ----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self[i]
            if _is_zero(c):
                continue
            if isinstance(c, MultiPoly):
                body = f"({c.serialize()})"
                neg = False
            else:
                neg = c < 0
                body = str(abs(c))
            if i > 0:
                var = "t" if i == 1 else f"t^{i}"
                body = var if body == "1" else f"{body}*{var}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly('{self}')"


def cyclotomic(p: int, j: int) -> UniPoly:
    """The p^j-th cyclotomic polynomial.

    Phi_1 = t - 1; for j >= 1, Phi_{p^j}(t) = sum_{k<p} t^(k*p^(j-1)), and the
    product over j = 0..n telescopes to t^(p^n) - 1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if j < 0:
        raise ValueError("j must be non-negative")
    if j == 0:
        return UniPoly((-1, 1))
    step = p ** (j - 1)
    coeffs = [0] * ((p - 1) * step + 1)
    for k in range(p):
        coeffs[k * step] = 1
    return UniPoly(coeffs)


def power_minus_one(n: int) -> UniPoly:
    """t^n - 1."""
    coeffs = [0] * (n + 1)
    coeffs[0] = -1
    coeffs[n] = 1
    return UniPoly(coeffs)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every 64-bit input and then some."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
