"""The 2-adic Whitehead log norms the CLI computes, and the truncated ring
Z_p[zeta_{p^m}] mod p^K (CycloPadic) that the tests hold them to.

Production: level_log_valuation and level_log_norm, which `whitehead` and
`twopart` run, on _Slots, one integer per element (its phi residues mod
2^P in fixed-width slots), so that a product is one big-int product, a
fold and a mask.  The argument takes no ring product (_packed_argument),
the series is summed by Horner's rule (_packed_log_series), and the norm
is the resultant engine's packed 2-power tower (graeffe_norm).  Their
budget prices (level_log_valuation_cost, level_log_norm_cost,
_Slots.cost) read the precisions they run at.

Reference: a CycloPadic is a residue vector of length phi(p^m) modulo p^K,
read as a polynomial in zeta reduced mod Phi_{p^m}; the power basis is an
integral basis, so integral elements are exactly the representable ones.
Its products are the resultant engine's mul_mod_phi.  invert_unit,
pi_valuation (from residues, with no norm), _into_convergence (the
squaring device, log x = log(x^(p^s)) / p^s), _log_series (by
Paterson-Stockmeyer, as the tests run it at a few hundred terms) and
norm_lift share no algorithm with the packed route.  The benchmark's
tracer (perfbench/tracing.py) looks up CycloPadic.norm_lift, __mul__,
__rmul__, log_with_shift and level_log_norm by name.
"""

from __future__ import annotations

import math
from typing import Tuple

from .errors import DegenerateValueError, InvariantError, PrecisionExhaustedError
from .padic import vp, vp_split
from .resultants import (
    cyclotomic_norm,
    graeffe_bytes,
    graeffe_norm,
    mul_mod_phi,
    phi_degree,
    reduce_mod_phi,
    repeat_digit,
)
from .unipoly import is_prime


class CycloPadic:
    __slots__ = ("p", "level", "prec", "coeffs")

    def __init__(self, p: int, level: int, prec: int, coeffs):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if level < 1:
            raise ValueError("level must be >= 1")
        if prec < 1:
            raise ValueError("precision must be >= 1")
        deg = phi_degree(p, level)
        cs = list(coeffs)
        if len(cs) > deg:
            cs = reduce_mod_phi(cs, p, level)
        cs += [0] * (deg - len(cs))
        mod = p**prec
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "coeffs", tuple(c % mod for c in cs))

    def __setattr__(self, name, value):
        raise AttributeError("CycloPadic is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, x: int, p: int, level: int, prec: int) -> "CycloPadic":
        return cls(p, level, prec, [x])

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "CycloPadic"):
        if (self.p, self.level) != (other.p, other.level):
            raise ValueError("level/prime mismatch between operands")
        if self.prec != other.prec:
            raise ValueError("precision mismatch between operands")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycloPadic.from_int(other, self.p, self.level, self.prec)
        self._check(other)
        return CycloPadic(
            self.p, self.level, self.prec,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycloPadic.from_int(other, self.p, self.level, self.prec)
        self._check(other)
        return CycloPadic(
            self.p, self.level, self.prec,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloPadic(self.p, self.level, self.prec, [a * other for a in self.coeffs])
        self._check(other)
        return CycloPadic(
            self.p, self.level, self.prec,
            mul_mod_phi(self.coeffs, other.coeffs, self.p, self.level),
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CycloPadic":
        if n < 0:
            return self.invert_unit() ** (-n)
        result = CycloPadic.from_int(1, self.p, self.level, self.prec)
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloPadic):
            return (
                (self.p, self.level, self.prec) == (other.p, other.level, other.prec)
                and self.coeffs == other.coeffs
            )
        return NotImplemented

    @property
    def is_zero_at_precision(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- field structure -------------------------------------------------------

    def norm_lift(self) -> int:
        """Exact integer norm of the canonical lift; = Nm(x) mod p^prec."""
        return cyclotomic_norm(self.p, self.level, self.coeffs)

    def invert_unit(self) -> "CycloPadic":
        """Inverse of a pi-adic unit, by Newton steps mod p plus Hensel doubling.

        x = x(1) (mod pi) and the residue field is F_p, so x is a unit exactly
        when p does not divide x(1).  Mod p, Phi_{p^m} = (t - 1)^phi, so from
        y = x(1)^(-1) the error 1 - xy lies in (t - 1) and squares under each
        step y <- y(2 - xy): (phi - 1).bit_length() steps make it vanish.
        """
        p, level, prec = self.p, self.level, self.prec
        at_one = sum(self.coeffs) % p
        if at_one == 0:
            raise ValueError("not a unit (positive pi-adic valuation)")
        x1 = CycloPadic(p, level, 1, self.coeffs)
        two = CycloPadic.from_int(2, p, level, 1)
        y = CycloPadic.from_int(pow(at_one, -1, p), p, level, 1)
        for _ in range((phi_degree(p, level) - 1).bit_length()):
            y = y * (two - x1 * y)
        k = 1
        while k < prec:
            k = min(2 * k, prec)
            y = CycloPadic(p, level, k, y.coeffs)
            xk = CycloPadic(p, level, k, self.coeffs)
            y = y * (CycloPadic.from_int(2, p, level, k) - xk * y)
        return y

    def __str__(self) -> str:
        body = " + ".join(
            f"{c}*z^{i}" if i else str(c) for i, c in enumerate(self.coeffs) if c
        )
        return f"({body or '0'}) mod (Phi_{self.p}^{self.level}, {self.p}^{self.prec})"

    def __repr__(self) -> str:
        return f"CycloPadic{self}"


def pi_valuation(x: CycloPadic) -> int:
    """v_pi of the canonical lift of x, an integer (v_pi(p) = phi(p^m) by
    total ramification), read off residues (residue_valuation).

    This is v_pi of every element congruent to x mod p^prec, not only of the
    lift: x != 0 mod p^prec gives c < prec and an order below phi, so
    v_pi(x) < prec*phi = v_pi(p^prec).  Raises PrecisionExhaustedError only
    for x = 0 mod p^prec."""
    if not any(x.coeffs):
        raise PrecisionExhaustedError("value indistinguishable from 0 at this precision")
    return residue_valuation(dict(enumerate(x.coeffs)), x.p, phi_degree(x.p, x.level))


def residue_valuation(coeffs: dict, p: int, phi: int) -> int:
    """v_pi of the nonzero element sum_e coeffs[e] zeta^e of Z[zeta_(p^m)],
    phi = phi(p^m), given reduced mod Phi_(p^m) (every e < phi): with p^c
    the largest power of p dividing every coefficient, c*phi plus the order
    of t - 1 in x/p^c mod p, since pi = 1 - zeta and Phi_(p^m) = (t - 1)^phi
    mod p."""
    c = vp(math.gcd(*coeffs.values()), p)
    scale = p**c
    return c * phi + _order_at_one({e: r for e, a in coeffs.items() if (r := a // scale % p)}, p)


def _order_at_one(residues: dict, p: int) -> int:
    """The multiplicity of t = 1 as a root of the nonzero polynomial
    sum_e residues[e] t^e over F_p, given by its nonzero coefficients, base-p
    digit by digit: over F_p, (t - 1)^q = t^q - 1 for q = p^i.  The least q
    with g != 0 mod t^q - 1 bounds the order from above, so g may be
    replaced by that remainder (at p = 2, one integer of q bits for
    _order_at_one_f2); then, from the next lower q down, the digit at q
    counts the exact divisions by t^q - 1 (at most p - 1), after which the
    order is below q and g is again replaced by its remainder mod t^q - 1.
    Each step is O(terms * p), and there are O(p log_p(order)) of them."""
    q = 1
    if p == 2:
        while True:
            g = 0
            for e in residues:
                g ^= 1 << e % q
            if g:
                return _order_at_one_f2(g)
            q *= 2
    while not (g := _wrap(residues, q, p)):
        q *= p
    order = 0
    while q > 1:
        q //= p
        while not (rest := _wrap(g, q, p)):
            # the quotient's block h is the sum of g's blocks above it
            quotient = {}
            for e, a in g.items():
                for i in range(e % q, e - q + 1, q):
                    quotient[i] = quotient.get(i, 0) + a
            g, order = quotient, order + q
        g = rest
    return order


def _wrap(coeffs: dict, q: int, p: int) -> dict:
    """sum_e coeffs[e] t^e mod (t^q - 1, p), as its nonzero coefficients."""
    rest = {}
    for e, a in coeffs.items():
        rest[e % q] = rest.get(e % q, 0) + a
    return {e: a % p for e, a in rest.items() if a % p}


# ---------------------------------------------------------------------------
# logarithms
# ---------------------------------------------------------------------------

_MAX_SQUARINGS = 64


def log_with_shift(x: CycloPadic) -> Tuple[CycloPadic, int]:
    """(z, s) with log(x) = z / p^s for a unit x; z integral.

    For p = 2 squares until v_pi(y - 1) > v_pi(2) = phi (the documented safe
    region), so s squarings contribute the /2^s.  If squaring drives y to
    exactly 1 at the working precision, x is (indistinguishable from) a
    torsion unit and DegenerateValueError is raised; more than _MAX_SQUARINGS
    maps raise PrecisionExhaustedError.
    """
    y, s, t = _into_convergence(x)
    return _log_series(y, t), s


def _into_convergence(x: CycloPadic) -> Tuple[CycloPadic, int, int]:
    """(y, s, t): y = x^(p^s) for the least s with t = v_pi(y - 1) past the
    convergence threshold of the log series (v_pi(2) = phi for p = 2).  Each
    t is exact whenever y - 1 != 0 at the working precision (pi_valuation),
    so s and t do not depend on the precision; y - 1 = 0 raises
    DegenerateValueError."""
    p = x.p
    deg = phi_degree(p, x.level)
    threshold = deg if p == 2 else max(deg // (p - 1), 1) - 1
    y = x
    s = 0
    while True:
        diff = y - 1
        if diff.is_zero_at_precision:
            raise DegenerateValueError(
                "torsion unit: argument collapses to 1 under p-power maps; log is 0"
            )
        t = pi_valuation(diff)
        if t > threshold:
            return y, s, t
        y = y * y if p == 2 else y**p
        s += 1
        if s > _MAX_SQUARINGS:
            raise PrecisionExhaustedError("log argument will not enter the convergence region")


def _log_series(y: CycloPadic, t: int) -> CycloPadic:
    """log y mod p^prec at y = 1 + w, v_pi(w) = t > v_pi(p), from the terms
    k = 1..r before the tail is negligible mod p^prec.

    y mod p^prec fixes log y mod p^prec: changing w by d in p^prec Z[zeta]
    changes w^k/k by sum_i C(k-1, i-1) w^(k-i) d^i/i, and
    v_p(d^i/i) >= i*prec - v_p(i) >= prec.  The sum is taken mod
    p^(prec + L), L the largest p-part a of an index k, as
    sum (-1)^(k+1) p^(L-a) (k/p^a)^(-1) w^k, which is p^L times the sum of
    the w^k/k mod p^(prec + L), and then divided by p^L exactly, by
    Paterson-Stockmeyer: the baby steps w^0..w^(b-1) and w^b, b about
    sqrt(r), scalar sums of the baby steps for each block of b
    coefficients, and Horner's rule in w^b over the blocks, so about
    2 sqrt(r) ring products instead of r.  A sum that p^L does not divide
    (t overstates v_pi(w)) raises PrecisionExhaustedError.
    """
    p, level, prec = y.p, y.level, y.prec
    deg = phi_degree(p, level)
    r, loss = _series_terms(p, deg, t, prec)
    work = prec + loss
    scalars = _series_scalars(p, r, loss, p**work)
    w = CycloPadic(p, level, work, (y - 1).coeffs)
    b = math.isqrt(r + 1)
    powers = [CycloPadic.from_int(1, p, level, work), w]
    while len(powers) <= b:
        powers.append(powers[-1] * w)
    giant = powers.pop()
    total = None
    for start in reversed(range(0, r + 1, b)):
        acc = [0] * deg
        for c, power in zip(scalars[start:start + b], powers):
            if c:
                acc = [s + c * e for s, e in zip(acc, power.coeffs)]
        block = CycloPadic(p, level, work, acc)
        total = block if total is None else total * giant + block
    scale = p**loss
    if any(c % scale for c in total.coeffs):
        raise PrecisionExhaustedError("inexact division in cyclotomic log series")
    return CycloPadic(p, level, prec, [c // scale for c in total.coeffs])


def _series_terms(p: int, deg: int, t: int, prec: int) -> Tuple[int, int]:
    """(r, L) for the log series mod p^prec at v_pi(w) = t: the number r of
    terms before the tail is negligible, and L = max v_p(k) over k <= r, the
    digits its divisions by k lose."""
    r = 1
    while not _tail_negligible(r + 1, t, deg, deg * prec):
        r += 1
    return r, max(vp(k, p) for k in range(1, r + 1))


def _series_scalars(p: int, r: int, loss: int, mod: int) -> list:
    """The coefficients (-1)^(k+1) p^(L-a) (k/p^a)^(-1) of w^k, a = v_p(k),
    for k = 0..r (0 at k = 0), each reduced mod p^(prec + L): a packed sum
    of them times residues then stays within its slots."""
    scalars = [0]
    for k in range(1, r + 1):
        a = vp(k, p)
        c = p ** (loss - a) * pow(k // p**a, -1, mod)
        scalars.append((c if k % 2 else -c) % mod)
    return scalars


def _tail_negligible(k: int, t: int, deg: int, target: int) -> bool:
    """True when every term from index k on has pi-valuation >= target.

    Uses v_p(k') <= bit_length(k'), so the bound k'*t - deg*bit_length(k')
    suffices; within one bit-length plateau it grows with k', so only the
    plateau left edges need checking, and once doubling gains 2^(b-1)*t >= deg
    the edges grow too.
    """
    b = k.bit_length()
    if k * t - deg * b < target:
        return False
    while True:
        b += 1
        edge = max(k, 1 << (b - 1))
        if edge * t - deg * b < target:
            return False
        if (1 << (b - 1)) * t >= deg:
            return True


# ---------------------------------------------------------------------------
# the Whitehead log quantities
# ---------------------------------------------------------------------------


# the cheap pass's first precision; it doubles only while y - 1 vanishes
_VALUATION_PREC = 32


def estimated_log_valuation(m: int, level: int) -> int:
    """An estimate of t = v_pi(u^(2^s) - 1) for the Whitehead argument u at
    level >= 2, with k = 2m + 1: (level + v_2(k^2 - 1) - 2) phi + 2.  It
    equals t at every level 2..11 for every odd k <= 259; it sizes work
    before the valuation pass (level_log_norm, level_log_norm_cost), and no
    value depends on it."""
    return (level + vp(4 * m * (m + 1), 2) - 2) * phi_degree(2, level) + 2


def _series_prec(digits: int, t: int, n: int) -> int:
    """digits + ceil(t/n): level_log_norm's series precision at t = v_pi(y - 1)."""
    return digits - (-t // n)


def level_log_valuation_cost(level: int) -> float:
    """level_log_valuation's work, in cost_estimate's units: level + 1
    _Slots products at _VALUATION_PREC digits."""
    return (level + 1) * _Slots.cost(phi_degree(2, level), _VALUATION_PREC)


def level_log_norm_cost(m: int, level: int, digits: int) -> float:
    """level_log_norm's work, in cost_estimate's units: level squarings, 8
    more _Slots products and 2 sqrt(r) for r = phi P / t series terms, at
    the estimated t and P = _series_prec.  It still counts the fitted
    Paterson-Stockmeyer products, not _packed_log_series' r - 1."""
    n = phi_degree(2, level)
    t = estimated_log_valuation(m, level)
    prec = _series_prec(digits, t, n)
    return (level + 2 * math.sqrt(n * prec / t) + 8) * _Slots.cost(n, prec)


def _check_argument(m: int, level: int) -> None:
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if level < 2:
        raise DegenerateValueError("level 1 roots (+-1) are excluded from the product")
    if m == 0:
        raise DegenerateValueError("torsion unit: the argument is zeta^(-1); log is 0")


def level_log_valuation(m: int, level: int) -> Tuple[int, int]:
    """(s, t) for the Whitehead argument u at a primitive 2^level-th root:
    s squarings carry u into the log's convergence region, and
    t = v_pi(u^(2^s) - 1) > phi.

    No series and no norm: since t > phi = v_pi(2), every term w^k/k (k >= 2)
    of log(1 + w) has v_pi > t, so v_pi(log u^(2^s)) = t and the level's sum
    of nu is t - s*phi.  s and t are exact at any precision where y - 1 does
    not vanish, so the pass starts at _VALUATION_PREC digits and doubles
    while it vanishes.  That ends for every m >= 1 at level >= 2, where u is
    no root of unity: with N = m(1 + zeta) + 1, u = zeta^(-1) N / conj(N),
    and at zeta = exp(2 pi i / 2^level), N = 1 + 2m cos(pi / 2^level)
    exp(i pi / 2^level) has its argument strictly between 0 and
    pi / 2^level, so N / conj(N) = exp(2i arg N) is no 2^level-th root of
    unity, as every root of unity in Q(zeta) is.  The torsion cases, level 1
    (u = -1) and m = 0 (u = zeta^(-1)), raise DegenerateValueError.

    The pass is _into_convergence on _Slots, which the tests hold it to.
    """
    _check_argument(m, level)
    return _packed_convergence(m, level, _VALUATION_PREC)[2:]


def level_log_norm(m: int, level: int, digits: int) -> Tuple[int, int, int]:
    """Norm data of log(u) at one cyclotomic level for the Whitehead family:
    (s, nu, unit), with s and nu = t - s*phi the shift and the level's sum
    of nu from level_log_valuation, and unit the unit part of Nm(log u)
    mod 2^digits.

    The series runs once, at P = digits + ceil(t/phi):

    - y = u^(2^s) mod 2^P fixes z = log y mod 2^P (_packed_log_series), and
      v_pi(z) = t (see level_log_valuation), so z / 2^e is integral for
      e = t // phi, known mod 2^(P - e), and Nm(z / 2^e) = Nm(log u) times
      a power of 2 has the same unit part and v_2 = t - e*phi < phi.
    - Let x = z / 2^e be known as x + d, d in 2^Q Z[zeta].  Every term of
      Nm(x + d) - Nm(x) is a product of one conjugate of d and phi - 1
      conjugates of x or d, so it has v_pi >= Q*phi + (phi - 1)(t - e*phi),
      and the unit part of Nm(x + d) equals that of Nm(x) mod
      2^(Q - ceil((t - e*phi)/phi)).  With Q = P - e that is
      2^(P - ceil(t/phi)) = 2^digits.

    Every step runs on _Slots with no element unpacked: the valuation pass
    starts at the P that estimated_log_valuation predicts (at least
    _VALUATION_PREC) and runs again at P only when its precision falls
    short; e is divided out by a zero test of the low bits of every slot
    and one shift, and x goes into the packed tower norm as it is.
    """
    _check_argument(m, level)
    n = phi_degree(2, level)
    guess = _series_prec(digits, estimated_log_valuation(m, level), n)
    ring, y, s, t = _packed_convergence(m, level, max(_VALUATION_PREC, guess))
    prec = _series_prec(digits, t, n)
    if ring.prec < prec:
        ring, y, s, t = _packed_convergence(m, level, prec)
    ring, z = _packed_log_series(ring, y, t, prec)
    shift = t // n
    if z & repeat_digit((1 << shift) - 1, ring.size, n):
        raise InvariantError(f"log at level {level} is not divisible by 2^{shift}")
    size = graeffe_bytes(prec - shift, n)
    v, unit = vp_split(graeffe_norm(_restride(z >> shift, n, ring.size, size), n, size), 2)
    if v != t - shift * n:
        raise InvariantError(f"norm of log at level {level} has v_2 {v}, not {t - shift * n}")
    return s, t - s * n, unit % 2**digits


class _Slots:
    """Z/2^prec [zeta_{2n}], n = phi a power of 2, with each element one
    integer: its n residues in [0, 2^prec), residue i in the 8*size bits
    from 8*size*i up (slot i).  With w = 8*size >= 2 prec + bit_length(n)
    + 2, each slot of a product x y is a sum of at most n products x_i y_j,
    at most one of them with x_0, so it stays below (n + 1) 2^(2 prec)
    <= 2^(w-2), as fold needs, also when slot 0 of x is below 2^(prec+1),
    as in x + c for residues x and a scalar c (_packed_log_series)."""

    __slots__ = ("n", "prec", "size", "bits", "low", "mask", "offset")

    def __init__(self, n: int, prec: int):
        self.n, self.prec = n, prec
        self.size = size = (2 * prec + n.bit_length() + 9) // 8
        self.bits = 8 * size * n
        self.low = (1 << self.bits) - 1
        self.mask = repeat_digit((1 << prec) - 1, size, n)
        # 0 mod 2^prec, and above every slot of a product's high half
        self.offset = repeat_digit(1 << (8 * size - 1), size, n)

    def mul(self, x: int, y: int) -> int:
        """x y: one product, then fold."""
        return self.fold(x * y)

    @staticmethod
    def cost(n: int, prec: int) -> float:
        """One product's work in cost_estimate's units: 5 units per slot (its
        masks, folds and byte columns) plus W^1.585 / 150 for
        W = n (2 prec + 16) / 64 words."""
        words = n * (2 * prec + 16) / 64
        return words**1.585 / 150 + 5 * n

    def fold(self, value: int) -> int:
        """value, 2n slots each below 2^(w-2), reduced mod t^n + 1 (the
        slots from n up subtracted from those below, over the offset), then
        each slot mod 2^prec by the mask."""
        return ((value & self.low) + self.offset - (value >> self.bits)) & self.mask

    def minus_one(self, x: int) -> int:
        """x - 1, which touches only slot 0."""
        return x - 1 if x & ((1 << self.prec) - 1) else x + (1 << self.prec) - 1

    def valuation(self, x: int) -> int:
        """v_pi(x) for x != 0, as pi_valuation reads it: the content 2^c
        from the lowest bit set in any slot (the slots ORed into one by
        folding halves), plus the order of t + 1 in the slots' bits c, read
        as one polynomial over F_2 (the byte holding bit c of each slot,
        translated to '0' or '1')."""
        fold, bits = x, self.bits
        while bits > 8 * self.size:
            bits //= 2
            fold = (fold >> bits) | (fold & ((1 << bits) - 1))
        c = (fold & -fold).bit_length() - 1
        column = x.to_bytes(self.bits // 8, "little")[c // 8 :: self.size]
        return c * self.n + _order_at_one_f2(int(column.translate(_BIT_CHARS[c % 8])[::-1], 2))


# _BIT_CHARS[i] maps a byte to b"1" when its bit i is set, else to b"0"
_BIT_CHARS = [bytes(48 + (byte >> i & 1) for byte in range(256)) for i in range(8)]


def _order_at_one_f2(g: int) -> int:
    """_order_at_one at p = 2 for the nonzero polynomial g over F_2 given as
    an integer, bit i the coefficient of t^i.  Over F_2, (t + 1)^q = t^q + 1
    for q = 2^i, and at most one division by each is exact, highest q
    first.  The XOR scan h = sum_{i >= 0} g >> (i q), taken in doubling
    shifts, holds in its low q bits the remainder of g mod t^q + 1 (the XOR
    of g's blocks of q bits) and above them the quotient: h + t^q h = t^q g."""
    order = 0
    deg = g.bit_length() - 1
    q = 1 << deg.bit_length() >> 1
    while q:
        h, shift = g, q
        while shift <= deg:
            h ^= h >> shift
            shift <<= 1
        if not h & ((1 << q) - 1):
            g, deg, order = h >> q, deg - q, order + q
        q >>= 1
    return order


def _restride(x: int, n: int, old: int, new: int) -> int:
    """The n slots of x moved from `old` to `new` bytes each, byte column by
    byte column; every slot must fit both widths."""
    if old == new:
        return x
    source, target = x.to_bytes(n * old, "little"), bytearray(n * new)
    for i in range(min(old, new)):
        target[i::new] = source[i::old]
    return int.from_bytes(target, "little")


def _packed_argument(m: int, level: int, ring: _Slots) -> int:
    """The Whitehead argument (m*zeta + m + 1) / (m*zeta + m + zeta) at a
    primitive 2^level-th root, mod 2^ring.prec, with no ring product: with
    a = m, b = m + 1 and 2n = 2^level, the sum telescopes to the odd integer
    (a + b*zeta) S = a^(2n) - (-b)^(2n) = c for
    S = sum_{k<2n} a^(2n-1-k) (-b)^k zeta^k, so c^(-1) S inverts the
    denominator.  S is built over 2n slots by doubling,
    S_2j = a^j S_j + (-b)^j zeta^j S_j, each step masked; c^(-1) S times
    (m + 1) + m*zeta (the shift by one slot wraps the top slot to slot 0,
    as zeta^(2n) = 1) is reduced mod t^n + 1 (_Slots.fold)."""
    n, prec, size = ring.n, ring.prec, ring.size
    w, order, mod = 8 * size, 2 * ring.n, 1 << ring.prec
    a, b = m, m + 1
    c = (pow(a, order, mod) - pow(-b, order, mod)) % mod
    full = repeat_digit(mod - 1, size, order)
    total, span, pa, pb = 1, 1, a % mod, -b % mod
    while span < order:
        total = (pa * total + (pb * total << (w * span))) & (full >> (w * (order - 2 * span)))
        pa, pb, span = pa * pa % mod, pb * pb % mod, 2 * span
    top = total >> (w * (order - 1))
    turned = ((total ^ (top << (w * (order - 1)))) << w) | top
    inverse = pow(c, -1, mod)
    return ring.fold(((m + 1) * inverse % mod) * total + (m * inverse % mod) * turned)


def _packed_convergence(m: int, level: int, prec: int):
    """(ring, y, s, t): _into_convergence on the Whitehead argument in
    _Slots at `prec` digits, y = u^(2^s) mod 2^prec; the precision doubles
    while y - 1 vanishes (level_log_valuation)."""
    n = phi_degree(2, level)
    while True:
        ring = _Slots(n, prec)
        y = _packed_argument(m, level, ring)
        s = 0
        while True:
            w = ring.minus_one(y)
            if not w:
                break
            t = ring.valuation(w)
            if t > n:
                return ring, y, s, t
            if s == _MAX_SQUARINGS:
                raise PrecisionExhaustedError("log argument will not enter the convergence region")
            y = ring.mul(y, y)
            s += 1
        prec *= 2


def _packed_log_series(ring: _Slots, y: int, t: int, prec: int):
    """(series ring, z): _log_series's sum, at its work precision and with
    its scalars c_k, on slots, z with slots below 2^prec in the series
    ring's width; y's residues may be known past prec.  Horner's rule,
    T = c_r w, then T = (T + c_k) w for k = r - 1 down to 1, takes r - 1
    products, each with slot 0 of T + c_k below 2^(work+1) (_Slots' bound);
    r <= 8 at the precisions the CLI admits, where Paterson-Stockmeyer
    saves at most 3.  The division by 2^L is a zero test of the low L bits
    of every slot, then one shift."""
    n = ring.n
    r, loss = _series_terms(2, n, t, prec)
    work = prec + loss
    mod = 1 << work
    scalars = _series_scalars(2, r, loss, mod)
    series = _Slots(n, work)
    if ring.prec > work:
        y &= repeat_digit(mod - 1, ring.size, n)
    w = series.minus_one(_restride(y, n, ring.size, series.size))
    total = scalars[r] * w & series.mask
    for c in reversed(scalars[1:r]):
        total = series.mul(total + c, w)
    if total & repeat_digit((1 << loss) - 1, series.size, n):
        raise PrecisionExhaustedError("inexact division in cyclotomic log series")
    return series, total >> loss
