"""Exact resultants and iterated p-power cyclic resultants.

Three independent routes to the same values:

* sylvester_resultant: the defining determinant, computed fraction-free
  (Bareiss) over the integers or over a sparse polynomial ring; the baseline
  everything else is tested against.
* resultant_prs: subresultant polynomial-remainder-sequence fast path for
  integer univariate pairs; agrees with the determinant exactly, sign
  included.
* cyclic_resultant: the production path for r_{n1..nd}(f) and its masked
  variants: each variable is eliminated against one cyclotomic factor
  Phi_{p^j} at a time (degrees stay phi(p^j) instead of p^n), and the
  factors multiply back together by resultant multiplicativity.

Sign conventions follow the Sylvester determinant with the first argument's
coefficient rows on top.  Elimination order is t_d first, then t_{d-1}, and
so on.

A level budget guards runaway degrees: cyclic_resultant refuses p^n above
`budget` (default 4096, overridable via the PADIC_RES_BUDGET environment
variable), and the literal baseline has its own much smaller default.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Sequence, Tuple

from .errors import BudgetExceededError, ExactDivisionError, OracleMismatchError
from .multipoly import MultiPoly
from .unipoly import UniPoly, cyclotomic, is_prime, power_minus_one

BASELINE_BUDGET_DEFAULT = 256


def level_budget() -> int:
    """Largest p^n degree the fast path will touch per variable."""
    raw = os.environ.get("PADIC_RES_BUDGET", "")
    try:
        return max(int(raw), 2)
    except ValueError:
        return 4096


# ---------------------------------------------------------------------------
# fraction-free linear algebra
# ---------------------------------------------------------------------------


def _is_zero(x) -> bool:
    return x == 0


def _divexact(a, b):
    if isinstance(b, int):
        if b == 1:
            return a
        if b == -1:
            return -a
        if isinstance(a, int):
            q, r = divmod(a, b)
            if r:
                raise ExactDivisionError(f"{a} not divisible by {b}")
            return q
        return a.divexact(MultiPoly.const(a.num_vars, b))
    if isinstance(a, int):
        return MultiPoly.const(b.num_vars, a).divexact(b)
    return a.divexact(b)


def bareiss_det(rows):
    """Determinant by fraction-free Gaussian elimination.

    Entries are ints or MultiPoly values over one common ring; every interior
    division is exact by the Bareiss identity.
    """
    n = len(rows)
    if n == 0:
        return 1
    mat = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if _is_zero(mat[k][k]):
            for r in range(k + 1, n):
                if not _is_zero(mat[r][k]):
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return mat[k][k] * 0
        piv = mat[k][k]
        for i in range(k + 1, n):
            row_i = mat[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = _divexact(row_i[j] * piv - lead * mat[k][j], prev)
            row_i[k] = lead * 0
        prev = piv
    last = mat[n - 1][n - 1]
    return -last if sign < 0 else last


def sylvester_matrix(f: UniPoly, g: UniPoly):
    """The (m+n) x (m+n) Sylvester matrix, f's coefficient rows on top."""
    m, n = f.degree(), g.degree()
    size = m + n
    zero = f.lc() * 0 if isinstance(f.lc(), MultiPoly) else (g.lc() * 0 if isinstance(g.lc(), MultiPoly) else 0)

    def lift(c):
        if isinstance(zero, MultiPoly) and isinstance(c, int):
            return MultiPoly.const(zero.num_vars, c)
        return c

    rows = []
    for i in range(n):
        row = [zero] * size
        for k in range(m + 1):
            row[i + k] = lift(f[m - k])
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for k in range(n + 1):
            row[i + k] = lift(g[n - k])
        rows.append(row)
    return rows


def sylvester_resultant(f: UniPoly, g: UniPoly):
    """Res(f, g) as the Sylvester determinant (Bareiss elimination)."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    if f.degree() == 0 and g.degree() == 0:
        one = f.lc() * 0 + 1
        return one
    return bareiss_det(sylvester_matrix(f, g))


# ---------------------------------------------------------------------------
# subresultant PRS
# ---------------------------------------------------------------------------


def resultant_prs(f: UniPoly, g: UniPoly):
    """Res(f, g) by the subresultant PRS; equals sylvester_resultant exactly."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    A, B = f, g
    s = 1
    if A.degree() < B.degree():
        if A.degree() % 2 == 1 and B.degree() % 2 == 1:
            s = -1
        A, B = B, A
    if B.degree() == 0:
        base = B.lc() ** A.degree() if A.degree() else B.lc() * 0 + 1
        return s * base
    gg = 1
    h = 1
    while True:
        delta = A.degree() - B.degree()
        if A.degree() % 2 == 1 and B.degree() % 2 == 1:
            s = -s
        R = A.pseudo_rem(B)
        A = B
        divisor = gg * h**delta
        B = UniPoly([_divexact(c, divisor) for c in R.coeffs])
        gg = A.lc()
        if delta > 0:
            h = _divexact(gg**delta, h ** (delta - 1)) if delta > 1 else gg
        if B.is_zero:
            return s * 0 if isinstance(gg, int) else gg * 0
        if B.degree() == 0:
            q = A.degree()
            final = _divexact(B.lc() ** q, h ** (q - 1)) if q > 1 else B.lc() ** q
            return s * final if isinstance(final, int) else (-final if s < 0 else final)


# ---------------------------------------------------------------------------
# cyclotomic-factor resultants
# ---------------------------------------------------------------------------

_MODCOMP_MAX_DEG = 24


def resultant_phi_int(p: int, j: int, g: UniPoly) -> int:
    """Res(Phi_{p^j}, g) for integer g, choosing the cheapest exact route."""
    if g.is_zero:
        return 0
    if j == 0:
        return g.evaluate(1)
    phi = cyclotomic(p, j)
    n = phi.degree()
    m = g.degree()
    if m == 0:
        return g[0] ** n
    if m == 1:
        a, b = g[1], g[0]
        return sum(
            (-1) ** (n + k) * c * b**k * a ** (n - k)
            for k, c in enumerate(phi.coeffs)
            if c
        )
    if m > _MODCOMP_MAX_DEG or n <= 4 * m:
        if m >= n:
            _, r = g.divmod_monic(phi)
            if r.is_zero:
                return 0
            g = r
        return resultant_prs(phi, g)
    return _resultant_phi_modcomp(p, j, g, phi)


def _resultant_phi_modcomp(p: int, j: int, g: UniPoly, phi: UniPoly) -> int:
    # Res(Phi, g) = (-1)^(n*m) * lc(g)^n * prod_{g(a)=0} Phi(a); Phi(a) is
    # evaluated through t^(p^(j-1)) mod g so the p^j-degree never materializes.
    n, m = phi.degree(), g.degree()
    u = _powmod_frac(p ** (j - 1), g)
    acc = [Fraction(0)] * m
    acc[0] = Fraction(1)
    power = [Fraction(0)] * m
    power[0] = Fraction(1)
    for _ in range(p - 1):
        power = _mulmod_frac(power, u, g)
        acc = [x + y for x, y in zip(acc, power)]
    # acc = Phi(t) mod g, as Fractions
    denom = 1
    for c in acc:
        denom = denom * c.denominator // _gcd(denom, c.denominator)
    h = UniPoly([int(c * denom) for c in acc])
    if h.is_zero:
        return 0
    res_gh = resultant_prs(g, h)
    lc = g.lc()
    num = (-1) ** (n * m) * lc**n * res_gh
    den = lc ** h.degree() * denom**m
    return _divexact(num, den)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def _mulmod_frac(a, b, g: UniPoly):
    m = g.degree()
    out = [Fraction(0)] * (2 * m - 1)
    for i, ca in enumerate(a):
        if ca:
            for k, cb in enumerate(b):
                if cb:
                    out[i + k] += ca * cb
    lead = Fraction(g.lc())
    for i in range(len(out) - 1, m - 1, -1):
        c = out[i]
        if c:
            q = c / lead
            for k in range(m + 1):
                out[i - m + k] -= q * g[k]
    return out[:m]


def _powmod_frac(e: int, g: UniPoly):
    m = g.degree()
    result = [Fraction(0)] * m
    result[0] = Fraction(1)
    base = [Fraction(0)] * m
    if m > 1:
        base[1] = Fraction(1)
    else:
        # t mod g for linear g = a*t + b is -b/a
        base[0] = Fraction(-g[0], g[1])
    while e:
        if e & 1:
            result = _mulmod_frac(result, base, g)
        e >>= 1
        if e:
            base = _mulmod_frac(base, base, g)
    return result


def phi_resultant_last_var(f: MultiPoly, p: int, j: int) -> MultiPoly:
    """Res(Phi_{p^j}(t_d), f), eliminating the last variable of f."""
    d = f.num_vars
    if d == 0:
        raise ValueError("no variable to eliminate")
    if f.is_zero:
        return MultiPoly.zero(d - 1)
    phi = cyclotomic(p, j)
    n = phi.degree()
    coeffs = f.coeffs_in_last_var()
    m = len(coeffs) - 1
    if d == 1:
        g = UniPoly([c.constant_value() for c in coeffs])
        return MultiPoly.const(0, resultant_phi_int(p, j, g))
    if m == 0:
        return coeffs[0] ** n
    if m == 1:
        b, a = coeffs
        total = MultiPoly.zero(d - 1)
        for k, c in enumerate(phi.coeffs):
            if not c:
                continue
            term = b**k * a ** (n - k) * c
            total = total + (-term if (n + k) % 2 else term)
        return total
    fU = UniPoly(coeffs)
    if m >= n:
        _, fU = fU.divmod_monic(phi)
        if fU.is_zero:
            return MultiPoly.zero(d - 1)
    # subresultant PRS over the remaining polynomial ring: one pseudo-division
    # collapses Phi's degree to deg_t(f), so phi(p^j) never materializes
    value = resultant_prs(phi, fU)
    if isinstance(value, int):
        return MultiPoly.const(d - 1, value)
    return value


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

    def is_full(self) -> bool:
        return all(mask == frozenset(range(n + 1)) for mask, n in zip(self.factor_mask, self.levels))


def _masked_product(f: MultiPoly, p: int, masks) -> int:
    # eliminate the last variable once per index j in its mask, then recurse
    # on each result with the remaining masks; a zero factor ends the product
    if not masks:
        return f.constant_value()
    total = 1
    for j in sorted(masks[-1]):
        g = phi_resultant_last_var(f, p, j)
        value = 0 if g.is_zero else _masked_product(g, p, masks[:-1])
        if value == 0:
            return 0
        total *= value
    return total


def cyclic_resultant(req: CyclicResultantRequest, budget: int | None = None) -> int:
    """The masked iterated cyclic resultant, by cyclotomic factorization.

    Equal to the literal iterated resultant with the divisor polynomials
    prod_{j in mask} Phi_{p^j}(t_i): every first argument is monic, so the
    value is the product of f over the selected root-of-unity tuples and the
    factorization is exact, signs included.  Each elimination runs once per
    prefix (j_d, ..., j_i) of trailing indices.
    """
    cap = budget if budget is not None else level_budget()
    if any(req.p**n > cap for n in req.levels):
        raise BudgetExceededError(
            f"p^n = {req.p}^{max(req.levels)} exceeds the degree budget {cap}"
        )
    return _masked_product(req.f, req.p, req.factor_mask)


def cyclic_resultant_baseline(req: CyclicResultantRequest, budget: int = BASELINE_BUDGET_DEFAULT) -> int:
    """Oracle route: literal iterated Sylvester determinants, no factorization.

    Full masks use t^(p^n) - 1 itself; partial masks use the explicit divisor
    polynomial prod_{j in mask} Phi_{p^j}.  Degree-guarded: the product of
    the p^(n_i) with deg f must stay within `budget`.
    """
    degree_load = 1
    for n in req.levels:
        degree_load *= req.p**n
    degree_load *= max(1, req.f.total_degree())
    if degree_load > budget:
        raise BudgetExceededError(
            f"baseline degree load {degree_load} exceeds budget {budget}"
        )
    divisors = []
    for n, mask in zip(req.levels, req.factor_mask):
        if mask == frozenset(range(n + 1)):
            divisors.append(power_minus_one(req.p**n))
        else:
            d = UniPoly((1,))
            for j in sorted(mask):
                d = d * cyclotomic(req.p, j)
            divisors.append(d)
    g = req.f
    for idx in range(len(req.levels) - 1, -1, -1):
        if g.is_zero:
            return 0
        coeffs = g.coeffs_in_last_var()
        if g.num_vars == 1:
            gU = UniPoly([c.constant_value() for c in coeffs])
        else:
            gU = UniPoly(coeffs)
        value = sylvester_resultant(divisors[idx], gU)
        if g.num_vars == 1:
            return value if isinstance(value, int) else value.constant_value()
        g = value
    return g.constant_value()


# ---------------------------------------------------------------------------
# complex-float root-product oracle
# ---------------------------------------------------------------------------


def _mask_roots(p: int, mask, mp):
    roots = []
    for j in sorted(mask):
        if j == 0:
            roots.append(mp.mpc(1))
            continue
        order = p**j
        for a in range(1, order):
            if a % p == 0:
                continue
            roots.append(mp.e ** (2j * mp.pi * a / order))
    return roots


def complex_root_product(req: CyclicResultantRequest) -> int:
    """Independent float route: multiply f over the selected root-of-unity
    tuples at high complex precision and round; the rounding error must stay
    below 0.25 or the precision doubles (three attempts, then a hard error).
    """
    import mpmath

    height = sum(abs(c) for _, c in req.f.terms())
    count = 1
    for n, mask in zip(req.levels, req.factor_mask):
        size = sum(1 if j == 0 else req.p**j - req.p ** (j - 1) for j in mask)
        count *= size
    bits = int(count * max(1.0, mpmath.log(max(height, 2), 2)) + 64)
    for _ in range(3):
        with mpmath.workprec(bits):
            per_var = [_mask_roots(req.p, mask, mpmath.mp) for mask in req.factor_mask]
            total = mpmath.mpc(1)
            for point in itertools.product(*per_var):
                value = mpmath.mpc(0)
                for exp, coeff in req.f.terms():
                    term = mpmath.mpc(coeff)
                    for z, e in zip(point, exp):
                        if e:
                            term *= z**e
                    value += term
                total *= value
            guess = mpmath.nint(mpmath.re(total))
            err = abs(total - guess)
            if err < 0.25:
                return int(guess)
        bits *= 2
    raise OracleMismatchError("complex root product would not settle on an integer")
