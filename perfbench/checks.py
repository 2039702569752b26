"""Independent checks of the program's outputs.

Nothing here imports padicres.  Polynomials are dicts {exponent tuple:
coefficient}, the form in which the workloads generate them before they
render them to the strings the program parses.

* Masked cyclic resultants and |H_1| orders are compared modulo primes
  q = 1 (mod p^N), q > 2^30, as the product of f over the masked p-power
  roots of unity in F_q; the sign comes from the real root tuples, since
  the other tuples pair up with their complex conjugates.
* Odd-p twisted-Whitehead limits are recomputed from the closed forms with
  omega(x) = x^(p^(K-1)) mod p^K.
* Iwasawa e-values come from det(C^(p^n) - I) for the companion matrix C;
  lambda is the Weierstrass degree of (f / p^mu)(1 + s) mod p.
* Two-part exponents come from sympy's resultants (sympy is not a
  dependency of the package, so it is imported only here, lazily).

Every checker raises CheckError with a reason when an output is wrong.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache

Q_FLOOR = 2**30
Q_COUNT = 2


class CheckError(AssertionError):
    pass


def require(condition: bool, reason: str):
    if not condition:
        raise CheckError(reason)


# ---------------------------------------------------------------------------
# integers
# ---------------------------------------------------------------------------


def vp(x: int, p: int) -> int:
    if x == 0:
        raise ValueError("v_p(0)")
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def nonp(x: int, p: int) -> int:
    return abs(x) // p ** vp(x, p)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10^24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def check_primes(p: int, top: int) -> tuple:
    """Q_COUNT pairs (q, w): q prime, q = 1 mod p^top, q > 2^30, and w of
    exact multiplicative order p^top in F_q."""
    order = p**top
    found = []
    k = Q_FLOOR // order + 1
    while len(found) < Q_COUNT:
        q = k * order + 1
        k += 1
        if not is_prime(q):
            continue
        for g in range(2, q):
            w = pow(g, (q - 1) // order, q)
            if pow(w, order // p, q) != 1:
                found.append((q, w))
                break
    return tuple(found)


# ---------------------------------------------------------------------------
# masked products over p-power roots of unity
# ---------------------------------------------------------------------------


def evaluate(poly: dict, point) -> int:
    total = 0
    for exp, c in poly.items():
        term = c
        for x, e in zip(point, exp):
            term *= x**e
        total += term
    return total


def _roots(p: int, mask, top: int, q: int, w: int):
    roots = []
    for j in sorted(mask):
        if j == 0:
            roots.append(1)
            continue
        wj = pow(w, p ** (top - j), q)
        roots.extend(pow(wj, a, q) for a in range(p**j) if a % p)
    return roots


def masked_product_mod(poly: dict, p: int, masks, q: int, w: int, top: int) -> int:
    """prod of poly over the masked root tuples, in F_q (w of order p^top)."""
    per_var = [_roots(p, m, top, q, w) for m in masks]
    # evaluate in the last variable at the end: poly = sum_e g_e(x') x_d^e
    last_exps = sorted({e[-1] for e in poly})
    head = {}
    for exp, c in poly.items():
        head.setdefault(exp[-1], {})[exp[:-1]] = c
    total = 1
    for prefix in itertools.product(*per_var[:-1]):
        coeffs = []
        for e in last_exps:
            acc = 0
            for exp, c in head[e].items():
                term = c
                for x, k in zip(prefix, exp):
                    term = term * pow(x, k, q)
                acc += term
            coeffs.append((e, acc % q))
        for y in per_var[-1]:
            v = 0
            for e, c in coeffs:
                v += c * pow(y, e, q)
            total = total * (v % q) % q
            if total == 0:
                return 0
    return total


def masked_sign(poly: dict, p: int, masks) -> int:
    """Sign of the masked product over complex roots of unity: the product
    of the signs at the real tuples (entries +1 and, for p = 2, -1)."""
    real = []
    for m in masks:
        vals = []
        if 0 in m:
            vals.append(1)
        if p == 2 and 1 in m:
            vals.append(-1)
        real.append(vals)
    sign = 1
    for point in itertools.product(*real):
        v = evaluate(poly, point)
        if v == 0:
            return 0
        sign *= 1 if v > 0 else -1
    return sign


def rprime_masks(levels):
    return [frozenset(range(1, n + 1)) for n in levels]


def full_masks(levels):
    return [frozenset(range(n + 1)) for n in levels]


def check_resultant(value: int, poly: dict, p: int, levels, masks):
    """value must equal the masked iterated cyclic resultant of poly."""
    top = max(levels)
    sign = masked_sign(poly, p, masks)
    if value == 0:
        residues = [masked_product_mod(poly, p, masks, q, w, top) for q, w in check_primes(p, top)]
        require(sign == 0 or all(r == 0 for r in residues), "value 0 but the product is nonzero")
        return
    require(sign != 0, "value nonzero but f vanishes at a real root tuple")
    require((value > 0) == (sign > 0), f"the value's sign is not {sign}")
    for q, w in check_primes(p, top):
        r = masked_product_mod(poly, p, masks, q, w, top)
        require(value % q == r, f"value mod {q} is {value % q}, expected {r}")


def check_h1(out: dict, sublinks: dict, p: int, levels):
    """linkh1 output: |H_1| = prod over sublinks S of |R'_S|, with R'_S the
    j>=1-masked resultant of Delta_S at the levels of S."""
    order = int(out["order"])
    top = max(levels)
    factors = []
    for subset, poly in sublinks.items():
        sub_levels = [levels[i - 1] for i in subset]
        factors.append((poly, masked_sign(poly, p, rprime_masks(sub_levels)), rprime_masks(sub_levels)))
    if any(sign == 0 for _, sign, _ in factors) or order == 0:
        for q, w in check_primes(p, top):
            r = 1
            for poly, _, masks in factors:
                r = r * masked_product_mod(poly, p, masks, q, w, top) % q
            require(r == 0 and order == 0, "order and the masked products disagree on vanishing")
        return
    for q, w in check_primes(p, top):
        r = 1
        for poly, sign, masks in factors:
            r = r * sign * masked_product_mod(poly, p, masks, q, w, top) % q
        require(order % q == r, f"order mod {q} is {order % q}, expected {r}")
    e = vp(order, p)
    require(out["p_exponent"] == e, f"p_exponent {out['p_exponent']} != {e}")
    require(int(out["nonp"]) == order // p**e, "nonp is not order / p^p_exponent")


# ---------------------------------------------------------------------------
# p-adic closed forms
# ---------------------------------------------------------------------------

_PADIC = re.compile(r"^(\d+)\^(\d+) \* (\d+) mod (\d+)\^(\d+)$")


def padic_residue(text: str, p: int):
    """(residue, precision) of a printed 'p^v * u mod p^K' value."""
    m = _PADIC.match(text)
    require(m is not None, f"unreadable p-adic value {text!r}")
    base, v, u, base2, prec = (int(x) for x in m.groups())
    require(base == base2 == p, f"{text!r} is not a {p}-adic value")
    return p**v * u % p**prec, prec


def omega(x: int, p: int, K: int) -> int:
    """Teichmuller representative of the unit x, mod p^K."""
    return pow(x, p ** (K - 1), p**K)


def whitehead_odd_limit(k: int, p: int, K: int) -> int:
    """The paper's limit of the non-p parts of |H_1| for L_k at odd p, mod p^K."""
    mod = p**K
    if k % 2 == 0:
        t = nonp(k // 2, p)
        return t * pow(omega(t, p, K), -1, mod) % mod
    return omega(2, p, K) * pow(2, -1, mod) % mod


def check_whitehead_odd(out: dict, k: int, p: int, K: int):
    expected = whitehead_odd_limit(k, p, K)
    digits = out["compared_digits"]
    require(out["agree"] is True, "whitehead reports disagreement")
    require(digits == K, f"compared_digits {digits} != K = {K}")
    closed, prec = padic_residue(out["closed_form"], p)
    require(prec >= K and closed % p**K == expected, f"closed form {out['closed_form']} != {expected} mod {p}^{K}")
    empirical, eprec = padic_residue(out["empirical"], p)
    require(eprec >= K and empirical % p**K == expected, f"empirical {out['empirical']} != {expected} mod {p}^{K}")
    require(out["closed_form_residue"] == expected % p**digits, "closed_form_residue is wrong")


def check_whitehead_2adic(out: dict, floor: int):
    digits = out["compared_digits"]
    require(out["agree"] is True, "whitehead reports disagreement")
    require(digits >= floor, f"compared_digits {digits} below the floor {floor}")
    closed, cprec = padic_residue(out["closed_form"], 2)
    empirical, eprec = padic_residue(out["empirical"], 2)
    require(min(cprec, eprec) >= digits, "compared digits exceed a printed precision")
    mod = 2**digits
    require(closed % mod == empirical % mod, f"closed form and empirical limit differ mod 2^{digits}")
    require(out["closed_form_residue"] == closed % mod, "closed_form_residue is wrong")


# ---------------------------------------------------------------------------
# limit windows and Iwasawa invariants
# ---------------------------------------------------------------------------


def check_climit(out: dict, poly: dict, p: int, K: int):
    ones = (1,) * len(next(iter(poly)))
    zero = evaluate(poly, ones) % p == 0
    require(out["zero_limit"] is zero, f"zero_limit {out['zero_limit']} but p | f(1..1) is {zero}")
    window = out["window"]
    require([row[0] for row in window] == list(range(1, K + 1)), "window levels are not 1..K")
    for (lo, _, r_lo), (_, _, r_hi) in zip(window, window[1:]):
        require((r_hi - r_lo) % p**lo == 0, f"non-p residues at levels {lo}, {lo + 1} differ mod {p}^{lo}")
    for level, _, r in window:
        require(r % p != 0 and 0 < r < p**level, f"level {level}: {r} is no non-p residue")


def _companion_power_minus_one(coeffs, n):
    """det(C^n - I) for the companion matrix C of the polynomial, as a Fraction."""
    d = len(coeffs) - 1
    lc = Fraction(coeffs[-1])
    c = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d):
        c[i][i - 1] = Fraction(1)
    for i in range(d):
        c[i][d - 1] = -Fraction(coeffs[i]) / lc

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(d)) for j in range(d)] for i in range(d)]

    result = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    while n:
        if n & 1:
            result = mul(result, c)
        n >>= 1
        if n:
            c = mul(c, c)
    m = [[result[i][j] - (i == j) for j in range(d)] for i in range(d)]
    det = Fraction(1)
    for col in range(d):
        pivot = next((r for r in range(col, d) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, d):
            factor = m[r][col] / m[col][col]
            for j in range(col, d):
                m[r][j] -= factor * m[col][j]
    return det


def iwasawa_e_values(coeffs, p: int, n_max: int):
    """v_p(Res(t^(p^n) - 1, f)) for n = 1..n_max, f given low degree first."""
    lc = coeffs[-1]
    values = []
    for n in range(1, n_max + 1):
        det = _companion_power_minus_one(coeffs, p**n)
        require(det != 0, "f has a p-power root of unity as a root")
        values.append(p**n * vp(lc, p) + vp(det.numerator, p) - vp(det.denominator, p))
    return values


def check_iwasawa(out: dict, coeffs, p: int, n_max: int):
    e = iwasawa_e_values(coeffs, p, n_max)
    require(out["e_values"] == e, f"e_values {out['e_values']} != {e}")
    mu = vp(math.gcd(*coeffs), p)
    # (f / p^mu)(1 + s): lambda is the first index with a p-unit coefficient
    shifted = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for r in range(i + 1):
            shifted[r] += c // p**mu * math.comb(i, r)
    lam = next(i for i, c in enumerate(shifted) if c % p)
    require((out["lambda"], out["mu"]) == (lam, mu), f"(lambda, mu) {(out['lambda'], out['mu'])} != {(lam, mu)}")
    lo, hi = out["verified_window"]
    require(hi == n_max and lo >= 1, f"verified window {out['verified_window']}")
    for n in range(lo, hi + 1):
        require(e[n - 1] == lam * n + mu * p**n + out["nu"], f"law fails at level {n}")
    require(out["agree"] is True, "iwasawa routes disagree")


# ---------------------------------------------------------------------------
# the 2-part exponent identity
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def twopart_exponent(k: int, n: int) -> int:
    """v_2 |H_1| of the (2^n, 2^n) cover of L_k: v_2 of the iterated resultant
    of Delta_k against (t^(2^n) - 1) / (t - 1) in both variables, by sympy."""
    import sympy

    t1, t2 = sympy.symbols("t1 t2")
    delta = sum(c * t1**a * t2**b for (a, b), c in whitehead_poly(k).items())
    q1 = sum(t1**i for i in range(2**n))
    q2 = sum(t2**i for i in range(2**n))
    inner = sympy.resultant(q2, sympy.expand(delta), t2)
    value = int(sympy.resultant(q1, sympy.expand(inner), t1))
    require(value != 0, "the cover is not a rational homology sphere")
    return vp(value, 2)


def check_twopart(out: dict, k: int, n_max: int):
    rows = out["rows"]
    require([r[0] for r in rows] == list(range(1, n_max + 1)), "twopart rows are not 1..n_max")
    for n, exact, predicted in rows:
        expected = twopart_exponent(k, n)
        require(exact == expected, f"level {n}: v_2 {exact} != {expected}")
        require(predicted == exact, f"level {n}: predicted {predicted} != {exact}")
    require(out["ok"] is True, "twopart reports failure")


def whitehead_poly(k: int) -> dict:
    """Alexander polynomial of the k-twisted Whitehead link, as in the paper."""
    if k % 2:
        m = (k - 1) // 2
        return {(0, 0): 1 + m, (1, 0): -m, (0, 1): -m, (1, 1): 1 + m}
    m = k // 2
    return {(0, 0): m, (1, 1): m, (1, 0): -m, (0, 1): -m}
