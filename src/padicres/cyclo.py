"""Truncated arithmetic in Z_p[zeta_{p^m}] modulo p^K.

An element is a residue vector of length phi(p^m) = p^(m-1)(p-1) modulo p^K,
read as a polynomial in zeta reduced mod Phi_{p^m}; the power basis is an
integral basis, so integral elements are exactly the representable ones.
The constructor reduces any longer coefficient list mod Phi_{p^m}, and
products are the resultant engine's mul_mod_phi, the one Z[zeta_{p^m}]
product, which its odd-p tower norms use too.

The extension is totally ramified with uniformizer pi = 1 - zeta and
v_pi(p) = phi(p^m).  pi-adic valuations need no norm: the content p^c of the
coefficients gives c*phi, and since Phi_{p^m} = (t - 1)^phi mod p, the rest
is the order of t - 1 in the residues of x/p^c mod p, exact for the
canonical lift.  Unit-ness is the case c = 0, order 0: x = x(1) (mod pi)
and the residue field is F_p, so x is a unit exactly when p does not divide
x(1), the sum of its coefficients.

The 2-adic logarithm follows the squaring device: square until
v_pi(y - 1) > v_pi(2), take the series (by Paterson-Stockmeyer, in about
2 sqrt(r) products for r terms), and remember the number s of squarings
(log x = series / 2^s).  The series of y mod p^K is log y mod p^K.
Torsion units collapse to exactly 1 under squaring and are reported as
degenerate rather than silently given log 0 at some precision.

CycloPadic, log_with_shift and cyclo_log are the general ring.  The
2-adic Whitehead log norms, which the CLI runs, take a second storage of
the same residues: one integer per element, its phi residues mod 2^P in
slots of a fixed byte width (_Slots), so that a product is one big-int
product, a fold and a mask, and no level unpacks to a list.  They read
s and t = v_pi(y - 1) first (level_log_valuation), and run the series
once, at F + ceil(t/phi) digits for the unit part of the norm mod 2^F,
on the squarings of that same pass when its precision covers those
digits; the unit goes into the resultant engine's packed 2-power tower
(graeffe_norm) as it is (level_log_norm).  Their argument takes no ring
product: with n = p^m, (a + b*zeta) sum_{k<n} a^(n-1-k) (-b)^k zeta^k is
the integer a^n - (-b)^n, so a linear denominator is inverted by n scalar
products and one integer inverse (whitehead_log_argument; on slots,
_packed_argument builds the sum by doubling).  The CycloPadic route to
the same quantities is the oracle the packed one is tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

from .errors import DegenerateValueError, InvariantError, PrecisionExhaustedError
from .multipoly import MultiPoly
from .padic import vp, vp_split
from .resultants import (
    conjugate,
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

    @classmethod
    def zeta(cls, p: int, level: int, prec: int) -> "CycloPadic":
        return cls(p, level, prec, [0, 1])

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

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycloPadic.from_int(other, self.p, self.level, self.prec)
        self._check(other)
        return CycloPadic(
            self.p, self.level, self.prec,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __neg__(self):
        return CycloPadic(self.p, self.level, self.prec, [-a for a in self.coeffs])

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
        if isinstance(other, int):
            return self == CycloPadic.from_int(other, self.p, self.level, self.prec)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.level, self.prec, self.coeffs))

    @property
    def is_zero_at_precision(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- field structure -------------------------------------------------------

    def galois(self, a: int) -> "CycloPadic":
        """The automorphism zeta -> zeta^a, a coprime to p."""
        if a % self.p == 0:
            raise ValueError("a must be coprime to p")
        return CycloPadic(self.p, self.level, self.prec, conjugate(self.coeffs, a, self.p, self.level))

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
    total ramification), read off residues: with p^c the largest power of p
    dividing every coefficient, v_pi(x) = c*phi + the order of t - 1 in
    x/p^c mod p, since pi = 1 - zeta and Phi_{p^m} = (t - 1)^phi mod p.

    This is v_pi of every element congruent to x mod p^prec, not only of the
    lift: x != 0 mod p^prec gives c < prec and an order below phi, so
    v_pi(x) < prec*phi = v_pi(p^prec).  Raises PrecisionExhaustedError only
    for x = 0 mod p^prec."""
    p = x.p
    content = math.gcd(*x.coeffs)
    if content == 0:
        raise PrecisionExhaustedError("value indistinguishable from 0 at this precision")
    c = vp(content, p)
    scale = p**c
    return c * phi_degree(p, x.level) + _order_at_one([a // scale % p for a in x.coeffs], p)


def _order_at_one(residues, p: int) -> int:
    """The multiplicity of t = 1 as a root of a nonzero polynomial over F_p,
    given by its coefficients, base-p digit by digit from the highest: over
    F_p, (t - 1)^q = t^q - 1 for q = p^i, so the digit at q counts the exact
    divisions by t^q - 1 (at most p - 1, or the digit above would be
    larger): at most p (log_p deg + 1) divisions, each O(deg)."""
    g = list(residues)
    while not g[-1]:
        g.pop()
    q = 1
    while q * p < len(g):
        q *= p
    order = 0
    while q:
        quotient = _divide_by_power_minus_one(g, q, p)
        if quotient is None:
            q //= p
        else:
            g, order = quotient, order + q
    return order


def _divide_by_power_minus_one(g, q: int, p: int):
    """g / (t^q - 1) over F_p, or None when it does not divide g: in blocks
    of q coefficients, g_k = h_(k-q) - h_k makes each block of the quotient
    h the sum of the blocks of g above it, and the remainder their sum."""
    blocks = [g[i:i + q] for i in range(0, len(g), q)]
    blocks[-1] = blocks[-1] + [0] * (q - len(blocks[-1]))
    acc = [0] * q
    quotient = []
    for block in reversed(blocks):
        acc = [(a + b) % p for a, b in zip(acc, block)]
        quotient.append(acc)
    if any(quotient.pop()):
        return None
    return [c for block in reversed(quotient) for c in block]


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


def cyclo_log(x: CycloPadic) -> CycloPadic:
    """log(x) as a ring element; requires the result to be integral.

    Computed as log(x^(p^s)) / p^s with exact coefficient division; raises
    PrecisionExhaustedError when the shift cannot be divided out.
    """
    z, s = log_with_shift(x)
    if s == 0:
        return z
    scale = x.p**s
    if any(c % scale for c in z.coeffs):
        raise PrecisionExhaustedError("log(x) is not integral; use log_with_shift")
    return CycloPadic(z.p, z.level, max(z.prec - s, 1), [c // scale for c in z.coeffs])


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


def whitehead_log_argument(m: int, p: int, level: int, prec: int) -> CycloPadic:
    """(m*zeta + m + 1) / (m*zeta + m + zeta) at a primitive p^level-th root,
    with no ring product.

    With a = m, b = m + 1 and n = p^level, the sum telescopes:
    (a + b*zeta) * sum_{k<n} a^(n-1-k) (-b)^k zeta^k = a^n - (-b*zeta)^n,
    which is c = a^n - (-b)^n as zeta^n = 1.  So the denominator's inverse
    is that length-n list times c^(-1) mod p^prec, reduced mod Phi_{p^level}
    by the constructor, and the numerator (m + 1) + m*zeta multiplies it by
    a shift and an add.  c = (a + b)^n mod p, so c is a unit exactly when
    the denominator is (invert_unit's test), as always at p = 2, where
    a + b = 2m + 1.  Inverses mod p^prec are unique, so this equals
    numer * denom.invert_unit().
    """
    mod = p**prec
    n = p**level
    a, b = m, m + 1
    c = (pow(a, n, mod) - pow(-b, n, mod)) % mod
    if c % p == 0:
        raise ValueError("not a unit (positive pi-adic valuation)")
    powers_of_a = [1] * n
    for k in range(1, n):
        powers_of_a[k] = powers_of_a[k - 1] * a % mod
    scale = pow(c, -1, mod)
    inverse = []
    for k in range(n):
        inverse.append(powers_of_a[n - 1 - k] * scale % mod)
        scale = scale * -b % mod
    # times (m + 1) + m*zeta, with zeta * zeta^(n-1) = 1
    return CycloPadic(p, level, prec, [(m + 1) * x + m * y for x, y in zip(inverse, inverse[-1:] + inverse[:-1])])


def nu_zeta(m: int, level: int) -> Fraction:
    """nu_zeta = v_2(log((m*zeta+m+1)/(m*zeta+m+zeta))), normalized to Q_2
    (v_pi / phi(2^level)); the same for every primitive root at the level.

    level 1 (zeta = -1) is excluded by the defining product, and m = 0 makes
    the argument the torsion unit zeta^(-1); both raise DegenerateValueError.
    """
    s, t = level_log_valuation(m, level)
    return Fraction(t, phi_degree(2, level)) - s


# the cheap pass's first precision; it doubles only while y - 1 vanishes
_VALUATION_PREC = 32


def estimated_log_valuation(m: int, level: int) -> int:
    """An estimate of t = v_pi(u^(2^s) - 1) for the Whitehead argument u at
    level >= 2, with k = 2m + 1: (level + v_2(k^2 - 1) - 2) phi + 2.  It
    equals t at every level 2..11 for every odd k <= 259; it sizes work
    before the valuation pass (level_log_norm, links.closed_form_cost),
    and no value depends on it."""
    return (level + vp(4 * m * (m + 1), 2) - 2) * phi_degree(2, level) + 2


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

    The pass runs on _Slots, one packed integer per element: it is
    _into_convergence on whitehead_log_argument, which the tests hold it
    to.
    """
    _check_argument(m, level)
    return _packed_convergence(m, level, _VALUATION_PREC)[2:]


def level_log_norm(m: int, level: int, digits: int) -> Tuple[int, int, int]:
    """Norm data of log(u) at one cyclotomic level for the Whitehead family:
    (s, nu, unit), with s and nu = t - s*phi the shift and the level's sum
    of nu from level_log_valuation, and unit the unit part of Nm(log u)
    mod 2^digits.

    The series runs once, at P = digits + ceil(t/phi):

    - y = u^(2^s) mod 2^P fixes z = log y mod 2^P (_log_series), and
      v_pi(z) = t (see level_log_valuation), so z / 2^e is integral for
      e = t // phi, known mod 2^(P - e), and Nm(z / 2^e) = Nm(log u) times
      a power of 2 has the same unit part and v_2 = t - e*phi < phi.
    - Let x = z / 2^e be known as x + d, d in 2^Q Z[zeta].  Every term of
      Nm(x + d) - Nm(x) is a product of one conjugate of d and phi - 1
      conjugates of x or d, so it has v_pi >= Q*phi + (phi - 1)(t - e*phi),
      and the unit part of Nm(x + d) equals that of Nm(x) mod
      2^(Q - ceil((t - e*phi)/phi)).  With Q = P - e that is
      2^(P - ceil(t/phi)) = 2^digits.

    Every step runs on _Slots, and no element is unpacked: the valuation
    pass starts at the P that estimated_log_valuation predicts (at least
    _VALUATION_PREC), so its y = u^(2^s) serves the series whenever its
    precision covers the P that t gives, and only otherwise are the s
    squarings taken again at P.  The series is _log_series on slots
    (_packed_log_series), e is divided out by a zero test of the low bits
    of every slot and one shift, and x goes into the packed tower norm
    (graeffe_norm) as it is.  The CycloPadic route (whitehead_log_argument,
    _into_convergence, _log_series, norm_lift) is the oracle the tests hold
    it to.
    """
    _check_argument(m, level)
    n = phi_degree(2, level)
    guess = digits - (-estimated_log_valuation(m, level) // n)
    ring, y, s, t = _packed_convergence(m, level, max(_VALUATION_PREC, guess))
    prec = digits - (-t // n)
    if ring.prec < prec:
        ring = _Slots(n, prec)
        y = _packed_argument(m, level, ring)
        for _ in range(s):
            y = ring.mul(y, y)
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
    from 8*size*i up (slot i).  The width covers a sum of max(n, count)
    products of two residues below 2^(w-2), w = 8*size:
    w >= 2 prec + bit_length(max(n, count)) + 2."""

    __slots__ = ("n", "prec", "size", "bits", "low", "mask", "offset")

    def __init__(self, n: int, prec: int, count: int = 1):
        self.n, self.prec = n, prec
        self.size = size = (2 * prec + max(n, count).bit_length() + 9) // 8
        self.bits = 8 * size * n
        self.low = (1 << self.bits) - 1
        self.mask = repeat_digit((1 << prec) - 1, size, n)
        # 0 mod 2^prec, and above every slot of a product's high half
        self.offset = repeat_digit(1 << (8 * size - 1), size, n)

    def mul(self, x: int, y: int) -> int:
        """x y: one product, then fold."""
        return self.fold(x * y)

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
    """whitehead_log_argument(m, 2, level, ring.prec) on the ring's slots.
    The sum S = sum_{k<2n} a^(2n-1-k) (-b)^k zeta^k is built over 2n slots
    by doubling, S_2j = a^j S_j + (-b)^j zeta^j S_j, each step masked; then
    c^(-1) S is multiplied by (m + 1) + m*zeta (the shift by one slot wraps
    the top slot to slot 0, as zeta^(2n) = 1) and reduced mod
    Phi_{2n} = t^n + 1 (_Slots.fold)."""
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
    """(series ring, z): _log_series of y at `prec` digits on slots, z with
    slots below 2^prec in the series ring's width.  y's residues may be
    known past prec.  Each block of Paterson-Stockmeyer is the sum of its
    scalars, reduced mod 2^work, times the packed baby steps, then one slot
    mask; the division by 2^L is a zero test of the low L bits of every
    slot, then one shift."""
    n = ring.n
    r, loss = _series_terms(2, n, t, prec)
    work = prec + loss
    mod = 1 << work
    scalars = _series_scalars(2, r, loss, mod)
    b = math.isqrt(r + 1)
    series = _Slots(n, work, b)
    if ring.prec > work:
        y &= repeat_digit(mod - 1, ring.size, n)
    w = series.minus_one(_restride(y, n, ring.size, series.size))
    powers = [1, w]
    while len(powers) <= b:
        powers.append(series.mul(powers[-1], w))
    giant = powers.pop()
    total = None
    for start in reversed(range(0, r + 1, b)):
        block = 0
        for c, power in zip(scalars[start:start + b], powers):
            if c:
                block += c * power
        block &= series.mask
        total = block if total is None else (series.mul(total, giant) + block) & series.mask
    if total & repeat_digit((1 << loss) - 1, series.size, n):
        raise PrecisionExhaustedError("inexact division in cyclotomic log series")
    return series, total >> loss


def evaluate_at_unity(f: MultiPoly, p: int, level: int, exps, prec: int) -> CycloPadic:
    """f(zeta^e1, ..., zeta^ed) in Z_p[zeta_{p^level}] mod p^prec.

    Lower-level roots enter through zeta_{p^a} = zeta_{p^level}^(p^(level-a)),
    so one ambient level suffices for a whole tuple.
    """
    if len(exps) != f.num_vars:
        raise ValueError("one exponent per variable required")
    order = p**level
    out = [0] * order
    for exp, coeff in f.terms():
        e = sum(a * b for a, b in zip(exp, exps)) % order
        out[e] += coeff
    return CycloPadic(p, level, prec, out)
