"""Exact resultants and iterated p-power cyclic resultants: the engine.

* cyclic_resultant: r_{n1..nd}(f) and its masked variants.  Each variable
  but t_1 is eliminated against one cyclotomic factor Phi_{p^j} at a time
  (phi_resultant_last_var: the norm of f(t', zeta_{p^j}), with the remaining
  variables t' Kronecker-packed into one integer), what is left in t_1 is
  one coefficient list, and the factors multiply back together by resultant
  multiplicativity (_factors, which a limit window also walks).  When
  swapping variables with equal masks fixes f, the tuples that differ by
  such swaps have equal factors, and one final norm serves each orbit.
* resultant_phi_int: the final univariate Res(Phi_{p^j}, g), one per
  factor.
* _product: the one product of Z[zeta_{p^j}], with a step: step 1 is
  mul_mod_phi, step p the Z[zeta^p] part, reduced at level j - 1.  Below a
  fitted size (_product_plan) it is schoolbook on the coefficient pairs
  whose exponents sum to a multiple of the step; above it, one Kronecker
  product per residue class of the step, reduced mod Phi on the packed
  integer (a fold of its top digits onto those below).  The odd-p tower
  norm and CycloPadic share it.
* cyclotomic_norm: the norm of g(zeta_{p^j}) that every step above takes,
  down the cyclotomic tower one level at a time, or by a closed form when g
  is linear; CycloPadic.norm_lift shares it.  At p = 2 the whole tower runs
  on one packed integer (graeffe_norm), which the 2-adic Whitehead log
  norms enter directly: a level is the Dandelin-Graeffe root-squaring step
  x(t) x(-t) = E(s)^2 - s O(s)^2, s = t^2, with E and O cut from the
  packed x by a digit bias and an even-digit mask, squared, and folded mod
  s^h + 1 (the even/odd split of Harvey's multipoint Kronecker
  substitution); the digit width doubles per level, from a first width
  that covers the whole tower, and large levels re-measure their digits
  and pack them tighter.  At odd p a level is the product of the p
  conjugates of x (p - 1 at level 1) by Itoh and Tsujii's addition chain,
  about log2(p) products by mul_mod_phi, whose last product is taken only
  on the fixed subring Z[zeta^p], by _product at step p.  As soon as x is
  linear (always at p = 3, level 1) the closed form finishes.  A level
  whose x has degree D < phi(p^(j-1)) is instead the Graeffe step
  G_p(x)(s) = lc^p prod (s - alpha_i^p), already reduced, by scaled
  Newton power sums or by the chain in the smallest ring that holds it, as
  a fitted cost picks (_graeffe_level).  No packed product is unpacked
  before its reduction.

The oracles this engine is tested against (the Sylvester determinant, the
subresultant PRS, the literal baseline and the root product modulo primes)
live in `oracles`, which shares no code with it.

Sign conventions follow the Sylvester determinant with the first argument's
coefficient rows on top.  Elimination order is t_d first, then t_{d-1}, and
so on.

A cost budget guards runaway work: check_budget refuses, before any work,
a task whose estimate exceeds cost_budget() (10^9 units of about 0.15 us,
or the positive integer in the PADIC_RES_BUDGET environment variable).
cyclic_resultant checks its request's cost_estimate, and a limit window,
which computes every level in one walk of its top level's index tuples,
the cost_estimate of that top level; `whitehead` adds the closed form's
log norms to its window, and the literal baseline has its own degree
budget.  The estimates charge every tuple and every dense level, so they
over-charge f that swaps of variables fix and the sparse levels of the
odd-p tower.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import FrozenSet, Sequence, Tuple

from .errors import BudgetExceededError, InvariantError
from .multipoly import MultiPoly

# re-exported: the benchmark's tracer (perfbench/tracing.py) looks these
# two oracles up here
from .oracles import complex_root_product, cyclic_resultant_baseline  # noqa: F401
from .unipoly import UniPoly, is_prime

COST_BUDGET_DEFAULT = 10**9


def cost_budget() -> int:
    """Largest cost estimate the fast path accepts: PADIC_RES_BUDGET, a
    positive decimal integer, or COST_BUDGET_DEFAULT when it is unset or
    empty; any other value is refused, not replaced."""
    raw = os.environ.get("PADIC_RES_BUDGET", "")
    if raw and not (raw.isascii() and raw.isdigit() and int(raw) > 0):
        raise ValueError(f"PADIC_RES_BUDGET must be a positive decimal integer, got {raw!r}")
    return int(raw) if raw else COST_BUDGET_DEFAULT


# ---------------------------------------------------------------------------
# cyclotomic-factor resultants
# ---------------------------------------------------------------------------


def resultant_phi_int(p: int, j: int, g: UniPoly) -> int:
    """Res(Phi_{p^j}, g) for integer g: the norm of g(zeta_{p^j}) to Q."""
    return cyclotomic_norm(p, j, g.coeffs)


def cyclotomic_norm(p: int, j: int, coeffs) -> int:
    """N(g(zeta)) from Q(zeta_{p^j}) to Q, g given by integer coefficients;
    equals Res(Phi_{p^j}, g), since Phi_{p^j} is monic.  Any g goes down the
    tower (_tower_norm; at p = 2 packed once, graeffe_norm), except that
    g = a + b*t mod Phi_{p^j} takes the closed form N(a + b*zeta) =
    (-1)^n sum_{i<p} (-a)^(i*q) b^(n-i*q), with n = phi(p^j) and
    q = p^(j-1), in about 2p big-int products (_linear_norm).
    """
    if not j:
        return sum(coeffs)
    x = reduce_mod_phi(coeffs, p, j)
    if not any(x):
        return 0
    # N(2^k y) = 2^(k*n) N(y): a shared power of two (in the elimination, a
    # monomial shared by the packed variables) leaves before the norm
    low = 0
    for c in x:
        low |= c
    k = (low & -low).bit_length() - 1
    if k:
        x = [c >> k for c in x]
    n = phi_degree(p, j)
    if not any(x[2:]):
        return _linear_norm(p, j, x[0], x[1] if n > 1 else 0) << (k * n)
    return _tower_norm(p, j, x) << (k * n)


def _tower_norm(p: int, j: int, x) -> int:
    """N(x(zeta_{p^j})), x reduced mod Phi_{p^j}, one level at a time: at
    p = 2 on one packed integer (graeffe_norm); at odd p by _level_norm,
    or by _graeffe_level when x is sparse for its level, until x is linear
    (always so at p = 3, level 1), which _linear_norm finishes.  Each odd
    level is checked: every conjugate of x is x(1) mod pi, so the norm y to
    level j-1 has y(1) = x(1) mod p, and the norm to Q is an integer."""
    if p == 2:
        size = graeffe_bytes(max(map(abs, x)).bit_length(), len(x))
        return graeffe_norm(_pack(x, size, 1 << (8 * size - 1)), len(x), size)
    for level in range(j, 1, -1):
        degree = max(i for i, c in enumerate(x) if c)
        if degree < phi_degree(p, level - 1):
            y = _graeffe_level(p, x[: degree + 1])
        else:
            y = _level_norm(p, level, x)
        if (sum(y) - sum(x)) % p:
            raise InvariantError(f"norm from level {level} is not x(1) mod {p}")
        x = y
        if not any(x[2:]):
            return _linear_norm(p, level - 1, x[0], x[1] if len(x) > 1 else 0)
    y = _level_norm(p, 1, x)
    if any(y[1:]):
        raise InvariantError("norm from level 1 is not an integer")
    return y[0]


def _graeffe_level(p: int, x) -> list:
    """The norm of x(zeta) from Z[zeta_{p^j}] to Z[zeta_{p^(j-1)}], odd p,
    for x of degree D < phi(p^(j-1)), as D + 1 coefficients: the Graeffe
    step G_p(x)(s) = prod_{k<p} x(w^k t) = lc^p prod_i (s - alpha_i^p),
    s = t^p, w a primitive p-th root of 1 and alpha_i the roots of x.  The
    conjugates of zeta over Q(zeta^p) are the zeta w^k, and
    prod_k (zeta w^k - alpha) = zeta^p - alpha^p for odd p, so the norm is
    G_p(x)(zeta^p), and G_p(x), of degree D < phi(p^(j-1)), is already
    reduced.  It is the same polynomial in every ring Z[zeta_{p^J}], J >= 2,
    with D < phi(p^(J-1)), so it is taken by whichever of two routes costs
    less: the scaled power sums (_power_sum_graeffe), or _level_norm in the
    smallest such ring."""
    degree, ring = len(x) - 1, 2
    while phi_degree(p, ring - 1) <= degree:
        ring += 1
    if _power_sums_pay(p, degree, max(map(abs, x)).bit_length() + degree.bit_length(), phi_degree(p, ring)):
        return _power_sum_graeffe(p, x)
    return _level_norm(p, ring, x)[: degree + 1]


def _power_sums_pay(p: int, degree: int, bits: int, n: int) -> bool:
    """Whether _power_sum_graeffe costs less than _level_norm in a ring of n
    digits, for x of the degree with coefficients of about `bits` bits.
    The power sums take p D^2 products, the largest of D and p D words of
    `bits` bits; the chain takes about log2(p) + 1 products of n digits
    whose width grows to p * bits.  Fitted on a 2-core host, in units of
    about 0.3 us, with mul_mod_phi's schoolbook products, which make small
    rings cheaper: on the 330 sparse levels of the benchmark's res-large
    and windows passes (seeds 1 to 10) it picks the slower route by more
    than 20% on none, and on 110 random x of degree up to 30 with 2 to 200
    bits at p = 3, 5 and 7 on 4, losing 0.6% of their total time against
    the faster route of each."""
    words = n * p * bits / 64
    return p * degree**2 * (1 + p * (degree * bits / 64) ** 2 / 400) < 2 * n * p * math.log2(p) + words**1.585 / 40


def _power_sum_graeffe(p: int, x) -> list:
    """G_p(x) = lc^p prod_i (s - alpha_i^p) for x = sum a_i t^i of degree D,
    lc = a_D, by Newton's identities on scaled power sums.  With P_k the
    k-th power sum of the alpha_i, Q_k = lc^k P_k is an integer, and
    multiplying Newton's identity a_D P_k + sum_{i=1}^{min(k-1,D)} a_(D-i)
    P_(k-i) + [k <= D] k a_(D-k) = 0 by lc^(k-1) gives
    Q_k = -sum_i a_(D-i) lc^(i-1) Q_(k-i) - [k <= D] k a_(D-k) lc^(k-1).
    The power sums of the alpha_i^p are the P_(pm), so with
    F_m = lc^(pm) e_m, e_m their elementary symmetric functions, Newton
    gives m F_m = sum_{i=1}^m (-1)^(i-1) F_(m-i) Q_(pi), and the coefficient
    of s^(D-m) is (-1)^m F_m / lc^(p(m-1)).  Both divisions are exact, as
    the F_m and the coefficients are integers; one that is not raises
    InvariantError."""
    degree, lc = len(x) - 1, x[-1]
    scaled = [0] + [x[degree - i] * lc ** (i - 1) for i in range(1, degree + 1)]
    sums = [0]
    for k in range(1, p * degree + 1):
        total = k * scaled[k] if k <= degree else 0
        for i in range(1, min(k - 1, degree) + 1):
            total += scaled[i] * sums[k - i]
        sums.append(-total)
    out, elementary, scale = [0] * degree + [lc**p], [1], 1
    for m in range(1, degree + 1):
        total = 0
        for i in range(1, m + 1):
            term = elementary[m - i] * sums[p * i]
            total += term if i % 2 else -term
        value, rest = divmod(total, m)
        coeff, remainder = divmod(value, scale)
        if rest or remainder:
            raise InvariantError("a power-sum Graeffe step left a remainder")
        elementary.append(value)
        out[degree - m] = -coeff if m % 2 else coeff
        scale *= out[-1]
    return out


def graeffe_bytes(bits: int, n: int) -> int:
    """Bytes per digit at the top of graeffe_norm's tower for n digits of at
    most `bits` bits.  A level's digits are at most M' = 2 n M^2 for digits
    at most M over n of them, before and after its fold, and the width
    doubles per level, so the first width is the largest
    (bit_length(M_i) + 1) / 2^i down the tower."""
    width, i = bits + 1, 0
    while n > 1:
        bits = 2 * bits + n.bit_length()
        n //= 2
        i += 1
        width = max(width, -(-(bits + 1) >> i))
    return -(-width // 8)


def graeffe_norm(value: int, n: int, size: int) -> int:
    """N(x(zeta_{2n})) to Q, n a power of 2, for x given by its n balanced
    digits of 8*size bits packed in `value`, size >= graeffe_bytes of their
    bit length.  A level is the Dandelin-Graeffe root-squaring step: with
    x(t) = E(t^2) + t O(t^2), the norm to Z[zeta_n] is x(t) x(-t) =
    E(s)^2 - s O(s)^2 in s = t^2, reduced mod s^h + 1, h = n/2.  The bias
    and an even-digit mask give E(B^2), B = 2^(8*size), the same mask on
    the biased value shifted down one digit gives O(B^2), and after the
    squarings one split folds the digits from h up onto those below: h
    digits of twice the width, so the value never leaves the packed
    integer.  Where the squarings outweigh one pass over the digits
    (_remeasure), the digits are unpacked and packed again at the width
    their largest one needs, which drops the first width's spare bits.
    The last level's integer is the norm, checked against x(1) mod 2:
    every conjugate of x is x(1) mod pi."""
    parity = ((value + _bias(n, size)) & repeat_digit(1, size, n)).bit_count() & 1
    while n > 1:
        h, w = n // 2, 8 * size
        even = repeat_digit((1 << w) - 1, 2 * size, h)
        half = repeat_digit(1 << (w - 1), 2 * size, h)
        biased = value + half + (half << w)
        e, o = (biased & even) - half, ((biased >> w) & even) - half
        low, high = _split(e * e - (o * o << (2 * w)), 2 * w * h)
        value, n, size = low - high, h, 2 * size
        if n > 1 and _remeasure(n, size):
            digits = _unpack(value, n, size)
            tight = graeffe_bytes(max(map(abs, digits)).bit_length(), n)
            if tight < size:
                size = tight
                value = _pack(digits, size, 1 << (8 * size - 1))
    if (value ^ parity) & 1:
        raise InvariantError("norm from the 2-power tower is not x(1) mod 2")
    return value


def _remeasure(n: int, size: int) -> bool:
    """Whether a level of graeffe_norm re-measures its n digits of 8*size
    bits: when the share of its two squarings (n*size/8 words each, at
    about 24 ns per Karatsuba unit) that the bound's bit_length(n) spare
    bits per digit take outweighs one unpack and pack (about 0.8 us per
    digit).  The gain is in the first width's slack, which lasts down the
    tower, so it pays at many small digits and never at few wide ones."""
    return (n * size / 8) ** 1.585 * n.bit_length() > 160 * n * size


def _level_norm(p: int, j: int, x) -> list:
    """The norm of x from Z[zeta_{p^j}] to Z[zeta_{p^(j-1)}], odd p, x given
    by phi(p^j) coefficients: the product of the conjugates sigma^k(x) over
    the cyclic Galois group, k < p with sigma: zeta -> zeta^(1 + p^(j-1))
    for j >= 2, and k < p - 1 with sigma: zeta -> zeta^g, g a primitive
    root mod p, at j = 1.  The partial products y_m = prod_{k<m} sigma^k(x)
    follow the binary digits of p - 1 (Itoh and Tsujii's addition chain):
    y_2m = y_m sigma^m(y_m) and y_(m+1) = y_m sigma^m(x), each one
    mul_mod_phi.  At j = 1, y_(p-1) is the norm.  For j >= 2 the last
    product y_p = y_(p-1) sigma^(p-1)(x) lies in Z[zeta^p] and is taken
    there only (_product at step p): phi(p^(j-1)) coefficients."""
    order = p**j
    sigma = _primitive_root(p) if j == 1 else 1 + order // p
    y, m = x, 1
    for bit in bin(p - 1)[3:]:
        y = mul_mod_phi(y, conjugate(y, pow(sigma, m, order), p, j), p, j)
        m *= 2
        if bit == "1":
            y = mul_mod_phi(y, conjugate(x, pow(sigma, m, order), p, j), p, j)
            m += 1
    return y if j == 1 else _product(y, conjugate(x, pow(sigma, m, order), p, j), p, j, p)


def _primitive_root(p: int) -> int:
    """The least primitive root mod the odd prime p: the least g with
    g^((p-1)/r) != 1 mod p for every prime r dividing p - 1."""
    primes, rest, r = [], p - 1, 2
    while r * r <= rest:
        if rest % r == 0:
            primes.append(r)
            while rest % r == 0:
                rest //= r
        r += 1
    if rest > 1:
        primes.append(rest)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // r, p) != 1 for r in primes))


def _linear_norm(p: int, j: int, a: int, b: int) -> int:
    """N(a + b*zeta_{p^j}) = (-1)^n b^n Phi_{p^j}(-a/b), j >= 1, which is
    (-1)^n * sum_{i<p} (-a)^(i*q) * b^(n-i*q), n = phi(p^j), q = p^(j-1),
    since Phi_{p^j} has only the p terms t^(i*q); summed by Horner's rule in
    (-a)^q with the powers of b^q."""
    q = p ** (j - 1)
    x, y = (-a) ** q, b**q
    total = power = 1
    for _ in range(p - 1):
        power *= y
        total = total * x + power
    return -total if q * (p - 1) % 2 else total


def conjugate(coeffs, a: int, p: int, j: int) -> list:
    """The automorphism zeta -> zeta^a (a coprime to p) of Z[zeta_{p^j}], on
    at most p^j coefficients, reduced mod Phi_{p^j}."""
    order = p**j
    z = [0] * order
    for i, c in enumerate(coeffs):
        z[i * a % order] = c
    return reduce_mod_phi(z, p, j)


def phi_degree(p: int, j: int) -> int:
    """phi(p^j), the degree of Phi_{p^j}: p^(j-1)(p-1), and 1 at j = 0."""
    return p ** (j - 1) * (p - 1) if j else 1


def mul_mod_phi(a, b, p: int, j: int) -> list:
    """a(zeta) b(zeta) in Z[zeta_{p^j}], j >= 1, for at most p^j integer
    coefficients each, as phi(p^j) coefficients: _product at step 1."""
    return _product(a, b, p, j, 1)


def _product(a, b, p: int, j: int, step: int) -> list:
    """The coefficients of a(t) b(t) at the multiples of step, read in
    s = t^step and reduced mod Phi_{p^i}(s): at step 1, i = j, the product
    in Z[zeta_{p^j}]; at step p, i = j - 1 >= 1, as Phi_{p^j}(t) =
    Phi_{p^(j-1)}(t^p), the Z[zeta^p] part of a b, which is a b itself when
    it lies in Z[zeta^p], as a level norm's last product does.  Schoolbook
    below a fitted size (_product_plan); above it, with a = sum_{r<step}
    t^r A_r(t^step) and b likewise, A_0 B_0 + s sum_{r>=1} A_r B_(step-r)
    by step Kronecker products, reduced on the packed integer (_fold)."""
    size, operands = _product_plan(a, b, step)
    level = j if step == 1 else j - 1
    if operands:
        return reduce_mod_phi(_schoolbook(*operands, step), p, level)
    half = 1 << (8 * size - 1)
    if step == 1:
        return _fold(_pack(a, size, half) * _pack(b, size, half), p, level, size)
    xs = [_pack(a[r::step], size, half) for r in range(step)]
    ys = [_pack(b[r::step], size, half) for r in range(step)]
    value = xs[0] * ys[0] + (sum(xs[r] * ys[step - r] for r in range(1, step)) << (8 * size))
    return _fold(value, p, level, size)


def _product_plan(a, b, step: int):
    """(size, operands) for the coefficients of a b at the multiples of
    step: the bytes per digit of a Kronecker product (every digit holds
    c + 2^(w-1), w = 8*size, and is at most 4 max|a| max|b|
    min(len(a), len(b))), and, when _schoolbook costs less, its operands,
    the one with fewer nonzero coefficients first, else None.  It takes a
    row per nonzero coefficient of the sparser operand, of a step-th of the
    other's products each; the Kronecker route packs and unpacks about
    len(a) + len(b) digits and takes step products of len * w / step bits.
    Fitted on a 2-core host, in units of about 0.08 us, to the products of
    one res-large and one windows pass and to dense, shorter and sparse
    operands at p = 3 to 13 of 1 to 3,000 bits: 4% slower in total than
    the faster route of each."""
    rows, nonzero_b = len(a) - a.count(0), len(b) - b.count(0)
    if rows > nonzero_b:
        a, b, rows = b, a, nonzero_b
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    size = (max(top_a, top_b, 4 * top_a * top_b * min(len(a), len(b))).bit_length() + 8) // 8
    schoolbook = 16 * rows + rows * len(b) / step * (1 + top_a.bit_length() * top_b.bit_length() / 65536)
    words = sorted((len(a) * size / (8 * step), len(b) * size / (8 * step)))
    kronecker = 120 + 40 * step + 2 * (len(a) + len(b)) * (1 + size / 8) + step * words[0] ** 0.585 * words[1] / 8
    return size, (a, b) if schoolbook < kronecker else None


def _schoolbook(a, b, step: int) -> list:
    """The coefficients of a b at the exponents 0, step, 2 step, ..., one
    product per pair of coefficients whose exponents sum to a multiple of
    step: each nonzero coefficient of a, the operand with fewer of them
    (_product_plan), meets the class of b's exponents that completes it."""
    classes = [b[r::step] for r in range(step)]
    out = [0] * ((len(a) + len(b) - 2) // step + 1)
    for i, c in enumerate(a):
        if c:
            r = -i % step
            for k, d in enumerate(classes[r], (i + r) // step):
                out[k] += c * d
    return out


def _fold(value: int, p: int, j: int, size: int) -> list:
    """The packed polynomial value, of degree below 2 p^j with digits of
    8*size bits, reduced mod t^(p^j) - 1 (the digits from p^j up are added
    onto those below), then mod Phi_{p^j} = sum_{k<p} t^(k*q), q = p^(j-1)
    (the top q digits are subtracted from each of the p-1 blocks of q
    digits below them), and unpacked: phi(p^j) coefficients."""
    order = p**j
    q = order // p
    w = 8 * size
    low, high = _split(value, w * order)
    low, top = _split(low + high, w * (order - q))
    for k in range(p - 1):
        low -= top << (w * q * k)
    return _unpack(low, order - q, size)


def reduce_mod_phi(coeffs, p: int, j: int) -> list:
    """Integer coefficients reduced mod t^(p^j) - 1, then mod Phi_{p^j}(t) =
    sum_{k<p} t^(k*p^(j-1)), j >= 1: phi(p^j) coefficients."""
    order = p**j
    deg = order - order // p
    x = list(coeffs[:order]) + [0] * (order - len(coeffs))
    for i in range(order, len(coeffs)):
        x[i % order] += coeffs[i]
    return [c - t for c, t in zip(x, x[deg:] * (p - 1))]


def _split(value: int, bits: int):
    """value = low + 2^bits * high with low the balanced residue,
    -2^(bits-1) <= low < 2^(bits-1): the digits below and from `bits` up,
    when every balanced digit of value fits its width."""
    low = value & ((1 << bits) - 1)
    if low >> (bits - 1):
        return low - (1 << bits), (value >> bits) + 1
    return low, value >> bits


def _pack(coeffs, size: int, half: int) -> int:
    digits = b"".join((c + half).to_bytes(size, "little") for c in coeffs)
    return int.from_bytes(digits, "little") - _bias(len(coeffs), size)


def _bias(n: int, size: int) -> int:
    """sum_{i<n} 2^(w-1) * 2^(w*i), w = 8*size: the offset of n digits."""
    return repeat_digit(1 << (8 * size - 1), size, n)


def repeat_digit(digit: int, size: int, n: int) -> int:
    """sum_{i<n} digit * 2^(w*i), w = 8*size, for 0 <= digit < 2^w: n equal
    packed digits, as masks and offsets."""
    return int.from_bytes(digit.to_bytes(size, "little") * n, "little")


def _unpack(value: int, n: int, size: int) -> list:
    """The n balanced digits c_i, |c_i| < 2^(w-1), of value = sum c_i 2^(w*i),
    w = 8*size; a value outside their range breaks the packing's bound."""
    try:
        packed = (value + _bias(n, size)).to_bytes(n * size, "little")
    except OverflowError:
        raise InvariantError(f"a packed value does not fit {n} digits of {8 * size} bits") from None
    half = 1 << (8 * size - 1)
    return [int.from_bytes(packed[i : i + size], "little") - half for i in range(0, n * size, size)]


def phi_resultant_last_var(f: MultiPoly, p: int, j: int) -> MultiPoly:
    """Res(Phi_{p^j}(t_d), f), eliminating the last variable of f.

    f has d >= 2 variables (in one, the resultant is a final norm,
    resultant_phi_int).  It is one integer norm: the other variables are
    packed by Kronecker substitution t_i = 2^(w*S_i) into one int per
    t_d-coefficient, the norm is taken by cyclotomic_norm, and its balanced
    base-2^w digits are the coefficients.  The result has degree at most
    D_i = n*deg_{t_i} f in t_i (n = phi(p^j)), so the strides
    S_i = prod_{k<i} (D_k + 1) keep the digits apart; each coefficient is at
    most ||f||_1^n, which the digit width w of _digit_size covers.  Packing
    is a ring homomorphism, so no intermediate value needs a bound.  When
    deg_{t_d} f >= n, f is first reduced mod Phi_{p^j}(t_d) on its terms
    (_reduce_last_var), so at most n t_d-coefficients are packed (at n = 1
    the one left is the result); the bound stays that of f, since
    f(t', zeta) is unchanged.
    """
    d = f.num_vars
    if d < 2:
        raise ValueError("an elimination needs at least two variables")
    if f.is_zero:
        return MultiPoly.zero(d - 1)
    terms = f.term_dict()
    degrees = [max(column) for column in zip(*terms)]
    n = phi_degree(p, j)
    bounds = [n * e + 1 for e in degrees[:-1]]
    strides = [math.prod(bounds[:i]) for i in range(d)]
    size = _digit_size(f, n)
    if degrees[-1] >= n:
        # f(t', zeta) is unchanged: pack only the n coefficients left
        terms = _reduce_last_var(terms, p, j)
        if n == 1:  # Res(t - zeta, f) = f(t', zeta), zeta = +-1
            return MultiPoly._of_terms(d - 1, {exp[:-1]: c for exp, c in terms.items()})
        if not terms:
            return MultiPoly.zero(d - 1)
        degrees[-1] = max(exp[-1] for exp in terms)
    places = {exp: size * sum(e * s for e, s in zip(exp[:-1], strides)) for exp in terms}
    # one digit array per occurring t_d-exponent, split by sign so no digit
    # carries, up to the highest occupied digit
    length = max(places.values()) + size
    digits = collections.defaultdict(lambda: (bytearray(length), bytearray(length)))
    for exp, c in terms.items():
        at = places[exp]
        digits[exp[-1]][c < 0][at : at + size] = abs(c).to_bytes(size, "little")
    coeffs = [0] * (degrees[-1] + 1)
    for e, (pos, neg) in digits.items():
        coeffs[e] = int.from_bytes(pos, "little") - int.from_bytes(neg, "little")
    value = cyclotomic_norm(p, j, coeffs)
    # unpack only the digits between the lowest and the highest nonzero one
    w = 8 * size
    low = ((value & -value).bit_length() - 1) // w if value else 0
    high = min(strides[-1], value.bit_length() // w + 2)
    values = _unpack(value >> (w * low), high - low, size)
    # the digits are the result's terms: its exponents lie below the bounds
    # and only nonzero digits are kept, so the result skips __init__'s checks
    result = {}
    for at, c in enumerate(values, low):
        if c:
            exp = []
            for bound in bounds:
                at, e = divmod(at, bound)
                exp.append(e)
            result[tuple(exp)] = c
    return MultiPoly._of_terms(d - 1, result)


def _reduce_last_var(terms: dict, p: int, j: int) -> dict:
    """f's terms with its last exponent reduced mod t^(p^j) - 1, then mod
    Phi_{p^j} = sum_{k<p} t^(k*q), q = p^(j-1): t^((p-1)q + r) is
    -sum_{k<p-1} t^(k*q + r).  j >= 0; the terms that cancel are dropped."""
    order = p**j
    q = order // p
    top = order - q
    reduced = {}
    for exp, c in terms.items():
        rest, e = exp[:-1], exp[-1] % order
        if e < top:
            spots = (e,)
        else:
            spots, c = range(e - top, e, q), -c
        for spot in spots:
            key = rest + (spot,)
            reduced[key] = reduced.get(key, 0) + c
    return {exp: c for exp, c in reduced.items() if c}


def _univariate(f: MultiPoly) -> UniPoly:
    """f in one variable as its coefficient list."""
    terms = f.term_dict()
    coeffs = [0] * (max((e for e, in terms), default=-1) + 1)
    for (e,), c in terms.items():
        coeffs[e] = c
    return UniPoly(coeffs)


def _digit_size(f: MultiPoly, n: int) -> int:
    """Bytes per digit for a norm of n factors f(t', zeta): each coefficient
    of the norm is at most ||f||_1^n < 2^(w-1), w = 8*size."""
    norm = sum(abs(c) for c in f.term_dict().values())
    return (n * norm.bit_length() + 8) // 8


# ---------------------------------------------------------------------------
# iterated cyclic resultants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclicResultantRequest:
    """One masked iterated resultant: which prime, which levels, which
    cyclotomic indices per variable.

    The full mask {0..n_i} realizes r_{n1..nd}(f); dropping j=0 everywhere
    realizes r'; arbitrary masks realize elimination against any divisor of
    t^(p^n) - 1 that is a product of Phi_{p^j} factors.
    """

    f: MultiPoly
    p: int
    levels: Tuple[int, ...]
    factor_mask: Tuple[FrozenSet[int], ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if len(self.levels) != self.f.num_vars:
            raise ValueError("levels length must equal the number of variables")
        if any(n < 1 for n in self.levels):
            raise ValueError("levels must be positive")
        if len(self.factor_mask) != self.f.num_vars:
            raise ValueError("factor_mask length must equal the number of variables")
        for mask, n in zip(self.factor_mask, self.levels):
            if not mask:
                raise ValueError("every variable needs a nonempty factor set")
            if any(j < 0 or j > n for j in mask):
                raise ValueError(f"mask {set(mask)} escapes 0..{n}")

    @classmethod
    def full(cls, f: MultiPoly, p: int, levels: Sequence[int]) -> "CyclicResultantRequest":
        levels = tuple(levels)
        return cls(f, p, levels, tuple(frozenset(range(n + 1)) for n in levels))

    @classmethod
    def rprime(cls, f: MultiPoly, p: int, levels: Sequence[int]) -> "CyclicResultantRequest":
        levels = tuple(levels)
        return cls(f, p, levels, tuple(frozenset(range(1, n + 1)) for n in levels))

    @classmethod
    def custom(cls, f: MultiPoly, p: int, levels: Sequence[int], masks) -> "CyclicResultantRequest":
        return cls(f, p, tuple(levels), tuple(frozenset(m) for m in masks))


def _factors(f: MultiPoly, p: int, masks):
    """(index tuple, factor) for every tuple (j_1, ..., j_d) the masks
    select: the product of f over its primitive p^(j_i)-th roots.  Each
    variable but t_1 is eliminated once per index in its mask
    (phi_resultant_last_var), and each result recurses on the other masks,
    so each elimination runs once per index prefix.  What is left in t_1
    becomes one coefficient list, and each factor is then one final norm
    (resultant_phi_int).  A factor that vanishes, an elimination or a final
    norm, yields (its trailing indices, 0) once for its whole subtree.  Its
    key, the largest of those indices and 1, is the first diagonal level
    the subtree reaches, so every diagonal value from there on is 0, and
    the walk yields no tuple with a key as large after it.

    Variables whose swap fixes f and whose masks agree form blocks
    (_swap_blocks).  Swapping t_a and t_b carries the roots of a tuple onto
    those of the tuple with j_a and j_b swapped, so the two factors are
    equal: only a tuple whose indices do not decrease within any block is
    computed, an elimination whose trailing indices already decrease within
    a block is skipped, and each computed factor is yielded for every
    rearrangement of its tuple within the blocks, all with the same key.
    So every selected tuple is still yielded, and a factor 0 ends the same
    levels."""
    if not masks:
        return iter([((), f.constant_value())])
    links, orbit = _swap_blocks(f, masks)
    return _walk(_univariate(f) if len(masks) == 1 else f, p, masks, (), 1, [math.inf], links, orbit)


def _swap_blocks(f: MultiPoly, masks):
    """(links, orbit) for the blocks of variables whose swaps fix f, among
    those with equal masks (when the swaps (a b) and (b c) fix f, so does
    (a c), so comparing with each block's first variable partitions them).
    links[i] is the offset, in the trailing index
    tuple of variable i, of the next variable of its block, or -1; orbit
    lists the permutations of the positions within the blocks, empty when
    every block is a single variable."""
    d, terms = len(masks), f.term_dict()
    blocks = []
    for i in range(d):
        for block in blocks:
            swap = list(range(d))
            swap[block[0]], swap[i] = i, block[0]
            swapped = operator.itemgetter(*swap)  # d >= 2, so it returns a tuple
            # (a i) fixes f iff it carries each term to one of equal coefficient
            if masks[block[0]] == masks[i] and all(terms.get(swapped(e)) == c for e, c in terms.items()):
                block.append(i)
                break
        else:
            blocks.append([i])
    links = [-1] * d
    for block in blocks:
        for a, b in zip(block, block[1:]):
            links[a] = b - a - 1
    orbit = []
    for perms in itertools.product(*map(itertools.permutations, blocks)):
        sigma = list(range(d))
        for block, perm in zip(blocks, perms):
            for a, b in zip(block, perm):
                sigma[a] = b
        orbit.append(sigma)
    return links, orbit if len(orbit) > 1 else []


def _walk(g, p: int, masks, index: Tuple[int, ...], top: int, bound: list, links, orbit):
    """_factors' walk below one index prefix: g is a UniPoly when one mask
    is left, else a MultiPoly; top is the key of index, and bound[0] the
    least key a vanishing factor has reached so far, shared by the whole
    walk (a module-level generator, so a walk leaves no reference cycle).
    The index of the variable being eliminated stays at most that of the
    next variable of its block (links)."""
    link = links[len(masks) - 1]
    cap = index[link] if link >= 0 else math.inf
    for j in sorted(masks[-1]):
        key = max(top, j)
        if key >= bound[0] or j > cap:
            return
        if len(masks) == 1:
            value = resultant_phi_int(p, j, g)
            if not value:
                bound[0] = key
            if orbit:
                tuples = (j,) + index
                for sigma in dict.fromkeys(tuple(tuples[k] for k in sigma) for sigma in orbit):
                    yield sigma, value
            else:
                yield (j,) + index, value
            continue
        h = phi_resultant_last_var(g, p, j)
        if h.is_zero:
            bound[0] = key
            yield (j,) + index, 0
        else:
            yield from _walk(
                _univariate(h) if len(masks) == 2 else h, p, masks[:-1], (j,) + index, key, bound, links, orbit
            )


def cost_estimate(req: CyclicResultantRequest) -> float:
    """Work of cyclic_resultant(req), estimated before doing any, in units
    of about 0.15 us.  It over-charges: 4.3, 6.2 and 7.0 times the measured
    time of the zero-case window of 5+t1+t2+t1*t2 at p = 2, K = 9, 10 and
    11, 3.1 times at d = 3 (5+t1+t2+2*t1*t2+t3, K = 6), on a 2-core host.
    Eliminating a variable against Phi_{p^j} (n = phi(p^j) roots) multiplies
    the other degrees and the coefficient bits by n.  It packs f (10 units per
    possible term), unpacks one digit per possible term of its result, and
    takes the norm of a result-sized integer of W words (_norm_cost), at
    half the units, or one product if f is linear in the eliminated variable
    mod Phi.  The final norm touches p^j coefficients and takes the norm of
    n * bits / 64 words, or one product of that size if g is linear
    (cyclotomic_norm's closed form).  The terms follow _factors' walk of the
    masks' index tuples (_cost).
    Every tuple is charged, and every odd-p level as a dense one in the full
    ring, so f that swaps of variables fix (one final norm per orbit) and
    the sparse levels of a small-degree g (_graeffe_level) are charged more
    than they cost; charging them less would admit requests the budget
    refuses today, such as `whitehead -k 5 -p 3 -K 8`.
    Small levels are still charged as Kronecker products, though
    mul_mod_phi takes them by schoolbook products where those cost less,
    and a level whose x turns linear is still charged its products.
    """
    return masks_cost(req.f, req.p, req.factor_mask)


def masks_cost(f: MultiPoly, p: int, masks) -> float:
    """cost_estimate of f's resultant over the masks.  A diagonal window
    walks the index tuples of its top level once, so this of the top
    level's masks is its charge too (limits.window_cost).  A zero f costs
    nothing: its first elimination or norm is 0.  An estimate past
    cost_budget() is inf, as the walk stops there (_cost); every other one
    is the whole walk's."""
    if f.is_zero:
        return 0.0
    degrees = tuple((i, e) for i in range(f.num_vars) if (e := f.degree_in(i + 1)))
    bits = math.log2(max(2, sum(abs(c) for _, c in f.terms())))
    try:
        return _cost(degrees, bits, p, masks, len(masks) - 1, {}, cost_budget())
    except OverflowError:  # levels past the float range
        return math.inf


def _cost(degrees, bits: float, p: int, masks, last: int, memo: dict, cap: int) -> float:
    """The cost of _factors' walk below an index prefix that leaves the
    variables 0..last: it depends only on last and the degrees and bits the
    prefix's eliminations left, so memo, one per masks_cost call, holds it
    once per such state, polynomially many in d, not (K + 1)^d prefixes.
    degrees holds (variable, degree) for the variables of nonzero degree
    only (a degree 0 adds a factor 1), so a state's work does not grow with d.
    The walk returns inf as soon as a running total passes cap: every term
    is >= 0 and a float sum of such terms is never below any of them, so
    the whole walk's total would pass it too, and an estimate at or under
    cap is never cut."""
    state = (last, degrees, bits)
    if state in memo:
        return memo[state]
    top = degrees[-1][1] if degrees and degrees[-1][0] == last else 0
    others = degrees[:-1] if top else degrees
    packed = 10 * (top + 1) * math.prod(e + 1 for _, e in others)
    total = 0.0
    for j in masks[last]:
        n = phi_degree(p, j)
        if not last:
            words = n * bits / 64
            norm = _norm_cost(p, j, words) if min(top, n - 1) > 1 else words**1.585
            total += max(top + 1, p**j) + norm
        else:
            rest = tuple((i, n * e) for i, e in others)
            digits = math.prod(e + 1 for _, e in rest)
            words = digits * (n * bits / 64 + 1)
            norm = _norm_cost(p, j, words) if min(top, n - 1) > 1 else words**1.585
            total += packed + digits + norm / 2 + _cost(rest, n * bits, p, masks, last - 1, memo, cap)
        if total > cap:
            return math.inf
    memo[state] = total
    return total


def _norm_cost(p: int, j: int, words: float) -> float:
    """Karatsuba units of a tower norm from level j of a W-word element: at
    p = 2 one root-squaring step per level, two squarings of W/2 words; at
    odd p, j*(p-1) products of W words.  The addition chain (_level_norm)
    takes about log2(p) + 1 products per level, but the partial products
    grow to p times the coefficient bits of x along it, so the chain costs
    more than log2(p) products of W words; j*(p-1) charges 1.2 to 3.3
    times the measured time (5+t1+t2+t1*t2, full mask, at p = 3, 5 and 7,
    levels (6,5), (4,3) and (3,3), on a 2-core host: 0.35-0.49, 0.25-0.40
    and 0.86-1.33 s measured, 1.16, 0.61 and 1.57 s estimated)."""
    if p == 2:
        return 2 * j * (words / 2) ** 1.585
    return j * (p - 1) * words**1.585


def cyclic_resultant(req: CyclicResultantRequest) -> int:
    """The masked iterated cyclic resultant, by cyclotomic factorization.

    Equal to the literal iterated resultant with the divisor polynomials
    prod_{j in mask} Phi_{p^j}(t_i): every first argument is monic, so the
    value is the product of f over the selected root-of-unity tuples and the
    factorization is exact, signs included.  Each elimination runs once per
    prefix (j_d, ..., j_i) of trailing indices, and the first zero factor
    ends the product.
    """
    check_budget(cost_estimate(req))
    # a product per last index first: the large product then meets one
    # value per index, not one per factor
    groups = {}
    for index, factor in _factors(req.f, req.p, req.factor_mask):
        if factor == 0:
            return 0
        last = index[-1:]
        groups[last] = groups.get(last, 1) * factor
    return math.prod(groups.values())


def check_budget(cost: float) -> None:
    """Refuse, before any work, a task whose estimated cost (in
    cost_estimate's units, summed over its parts) exceeds cost_budget()."""
    cap = cost_budget()
    if cost > cap:
        raise BudgetExceededError(f"estimated cost {cost:.3g} exceeds the budget {cap}")
