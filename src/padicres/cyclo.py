"""Truncated arithmetic in Z_p[zeta_{p^m}] modulo p^K.

An element is a residue vector of length phi(p^m) = p^(m-1)(p-1) modulo p^K,
read as a polynomial in zeta reduced mod Phi_{p^m}; the power basis is an
integral basis, so integral elements are exactly the representable ones.

The extension is totally ramified with uniformizer pi = 1 - zeta and
v_pi(p) = phi(p^m).  pi-adic valuations are computed over the integers, as
v_p of the resultant of the representing polynomial with Phi_{p^m} (the
field norm), never inside the truncated ring, so no precision is lost there.

The 2-adic logarithm follows the squaring device: square until
v_pi(y - 1) > v_pi(2), take the series, and remember the number s of
squarings (log x = series / 2^s).  Torsion units collapse to exactly 1
under squaring and are reported as degenerate rather than silently given
log 0 at some precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import DegenerateValueError, PrecisionExhaustedError
from .multipoly import MultiPoly
from .padic import vp
from .resultants import resultant_prs
from .unipoly import UniPoly, cyclotomic, is_prime


def phi_degree(p: int, m: int) -> int:
    """phi(p^m) for m >= 1."""
    return p ** (m - 1) * (p - 1)


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
            raise ValueError(f"coefficient vector longer than phi(p^m) = {deg}")
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
        deg = phi_degree(p, level)
        if deg == 1:
            # only (p, m) = (2, 1): Phi_2 = x + 1, zeta = -1
            return cls(p, level, prec, [-1])
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
        a, b = self.coeffs, other.coeffs
        out = [0] * (2 * len(a) - 1)
        for i, ca in enumerate(a):
            if ca:
                for k, cb in enumerate(b):
                    if cb:
                        out[i + k] += ca * cb
        return CycloPadic(
            self.p, self.level, self.prec,
            _reduce_mod_phi(out, self.p, self.level, self.prec),
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

    def at_precision(self, prec: int) -> "CycloPadic":
        if prec > self.prec:
            raise PrecisionExhaustedError("cannot raise precision")
        return CycloPadic(self.p, self.level, prec, self.coeffs)

    # -- field structure -------------------------------------------------------

    def lift_poly(self) -> UniPoly:
        """Canonical integer lift as a polynomial in zeta."""
        return UniPoly(self.coeffs)

    def galois(self, a: int) -> "CycloPadic":
        """The automorphism zeta -> zeta^a, a coprime to p."""
        order = self.p**self.level
        if a % self.p == 0:
            raise ValueError("a must be coprime to p")
        out = [0] * order
        for i, c in enumerate(self.coeffs):
            if c:
                out[(i * a) % order] += c
        return CycloPadic(
            self.p, self.level, self.prec,
            _reduce_mod_phi(out, self.p, self.level, self.prec),
        )

    def norm_lift(self) -> int:
        """Exact integer norm of the canonical lift; = Nm(x) mod p^prec."""
        lift = self.lift_poly()
        if lift.is_zero:
            return 0
        return resultant_prs(cyclotomic(self.p, self.level), lift)

    def invert_unit(self) -> "CycloPadic":
        """Inverse of a pi-adic unit, by mod-p inversion plus Hensel doubling."""
        if pi_valuation(self) != 0:
            raise ValueError("not a unit (positive pi-adic valuation)")
        p, level, prec = self.p, self.level, self.prec
        phi = cyclotomic(p, level)
        inv = _invert_mod_p(list(self.coeffs), phi, p)
        y = CycloPadic(p, level, 1, inv)
        k = 1
        while k < prec:
            k = min(2 * k, prec)
            y = CycloPadic(p, level, k, y.coeffs)
            xk = CycloPadic(p, level, k, self.coeffs)
            y = y * (CycloPadic.from_int(2, p, level, k) - xk * y)
        result = y
        return result

    def __str__(self) -> str:
        body = " + ".join(
            f"{c}*z^{i}" if i else str(c) for i, c in enumerate(self.coeffs) if c
        )
        return f"({body or '0'}) mod (Phi_{self.p}^{self.level}, {self.p}^{self.prec})"

    def __repr__(self) -> str:
        return f"CycloPadic{self}"


def _reduce_mod_phi(coeffs, p: int, level: int, prec: int):
    """Reduce a dense coefficient list modulo Phi_{p^level}, then mod p^prec."""
    deg = phi_degree(p, level)
    step = p ** (level - 1)
    out = list(coeffs)
    for i in range(len(out) - 1, deg - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            # zeta^deg = -(zeta^((p-2)*step) + ... + zeta^step + 1)
            for k in range(p - 1):
                out[i - deg + k * step] -= c
    mod = p**prec
    return [c % mod for c in out[:deg]]


def _invert_mod_p(coeffs, phi: UniPoly, p: int):
    """Inverse of coeffs modulo (phi, p) by extended Euclid in F_p[x]."""
    a = [c % p for c in phi.coeffs]
    b = [c % p for c in coeffs]
    # extended gcd: maintain r0 = s0*phi + t0*b (t's tracked only)
    r0, r1 = a, _trim(b)
    t0, t1 = [0], [1]
    while _deg(r1) > 0 or (_deg(r1) == 0 and _deg(r0) > 0):
        q, r = _divmod_fp(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, _sub_fp(t0, _mul_fp(q, t1, p), p)
        if not r1:
            break
    if _deg(r0) != 0:
        raise ValueError("element is not invertible mod p")
    c = pow(r0[0], -1, p)
    return [x * c % p for x in t0]


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _deg(c):
    return len(c) - 1


def _mul_fp(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for k, cb in enumerate(b):
                out[i + k] = (out[i + k] + ca * cb) % p
    return _trim(out)


def _sub_fp(a, b, p):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _divmod_fp(a, b, p):
    a = list(a)
    q = [0] * max(1, len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i] * inv % p
        if c:
            q[i - len(b) + 1] = c
            for k, cb in enumerate(b):
                a[i - len(b) + 1 + k] = (a[i - len(b) + 1 + k] - c * cb) % p
    return _trim(q), _trim(a[: len(b) - 1])


def pi_valuation(x: CycloPadic) -> int:
    """v_pi(x), an integer (v_pi(p) = phi(p^m) by total ramification)."""
    n = x.norm_lift()
    if n == 0:
        raise PrecisionExhaustedError("value indistinguishable from 0 at this precision")
    v = vp(n, x.p)
    if v >= x.prec:
        raise PrecisionExhaustedError(
            f"pi-adic valuation >= precision ({v} >= {x.prec})"
        )
    return v


# ---------------------------------------------------------------------------
# logarithms
# ---------------------------------------------------------------------------


def log_with_shift(x: CycloPadic, max_squarings: int = 64) -> Tuple[CycloPadic, int]:
    """(z, s) with log(x) = z / p^s for a unit x; z integral.

    For p = 2 squares until v_pi(y - 1) > v_pi(2) = phi (the documented safe
    region), so s squarings contribute the /2^s.  If squaring drives y to
    exactly 1 at the working precision, x is (indistinguishable from) a
    torsion unit and DegenerateValueError is raised.
    """
    p = x.p
    deg = phi_degree(p, x.level)
    threshold = deg if p == 2 else max(deg // (p - 1), 1) - 1
    y = x
    s = 0
    while True:
        diff = y - CycloPadic.from_int(1, p, x.level, x.prec)
        if diff.is_zero_at_precision:
            raise DegenerateValueError(
                "torsion unit: argument collapses to 1 under p-power maps; log is 0"
            )
        try:
            t = pi_valuation(diff)
        except PrecisionExhaustedError:
            # v_pi(y-1) >= prec: a valid lower bound, and (for prec beyond
            # the threshold) proof that y sits deep in the convergence region
            if x.prec > threshold:
                t = x.prec
                break
            raise
        if t > threshold:
            break
        y = y * y if p == 2 else y**p
        s += 1
        if s > max_squarings:
            raise PrecisionExhaustedError("log argument will not enter the convergence region")
    z = _log_series(y, t)
    return z, s


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
    """Sum of the log series at y = 1 + w, v_pi(w) = t > v_pi(p); the result
    precision reflects the exact divisions by the p-parts of the indices."""
    p, level, prec = y.p, y.level, y.prec
    deg = phi_degree(p, level)
    w = y - CycloPadic.from_int(1, p, level, prec)
    target = deg * prec
    total = CycloPadic.from_int(0, p, level, prec)
    loss = 0
    k = 1
    wk = w
    mod = p**prec
    while True:
        if k > 1 and _tail_negligible(k, t, deg, target):
            break
        a = _vp_or_zero(k, p)
        kk = k // p**a
        coeffs = list(wk.coeffs)
        if a:
            pa = p**a
            if any(c % pa for c in coeffs):
                raise PrecisionExhaustedError("inexact division in cyclotomic log series")
            coeffs = [c // pa for c in coeffs]
            loss = max(loss, a)
        inv_kk = pow(kk, -1, mod)
        term = CycloPadic(p, level, prec, [c * inv_kk for c in coeffs])
        total = total + (term if k % 2 == 1 else -term)
        k += 1
        wk = wk * w
    out_prec = max(prec - loss, 1)
    return total.at_precision(out_prec)


def _vp_or_zero(k: int, p: int) -> int:
    return vp(k, p) if k % p == 0 else 0


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
    """(m*zeta + m + 1) / (m*zeta + m + zeta) at a primitive p^level-th root."""
    z = CycloPadic.zeta(p, level, prec)
    numer = z * m + (m + 1)
    denom = z * m + z + m
    return numer * denom.invert_unit()


def nu_zeta(m: int, level: int, prec: int, p: int = 2) -> Fraction:
    """nu_zeta = v_2(log((m*zeta+m+1)/(m*zeta+m+zeta))), normalized to Q_2
    (v_pi / phi(2^level)); the same for every primitive root at the level.

    level 1 (zeta = -1) is excluded by the defining product, and m = 0 makes
    the argument the torsion unit zeta^(-1); both raise DegenerateValueError.
    """
    if p != 2:
        raise ValueError("nu_zeta is a 2-adic quantity")
    if level < 2:
        raise DegenerateValueError("level 1 roots (+-1) are excluded from the product")
    u = whitehead_log_argument(m, p, level, prec)
    z, s = log_with_shift(u)
    n = z.norm_lift()
    if n == 0 or vp(n, 2) >= z.prec:
        raise PrecisionExhaustedError("norm of log indistinguishable from 0; raise prec")
    deg = phi_degree(p, level)
    return Fraction(vp(n, 2), deg) - s


def level_log_norm(m: int, level: int, prec: int) -> Tuple[int, int, int]:
    """Norm data of log(u) at one cyclotomic level for the Whitehead family.

    Returns (norm_of_series, shift s, available residue precision): the true
    Nm(log u) is norm_of_series / 2^(s*phi), so the summed nu over the level's
    primitive roots is v_2(norm_of_series) - s*phi, and the unit part of
    Nm(log u) equals the unit part of norm_of_series.
    """
    u = whitehead_log_argument(m, 2, level, prec)
    z, s = log_with_shift(u)
    n = z.norm_lift()
    if n == 0 or vp(n, 2) >= z.prec:
        raise PrecisionExhaustedError("norm of log indistinguishable from 0; raise prec")
    return n, s, z.prec


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
    return CycloPadic(p, level, prec, _reduce_mod_phi(out, p, level, prec))
