"""p-adic limit estimation for iterated cyclic resultants.

The raw masked sequence at diagonal levels (K,...,K) determines its limit
modulo p^K: raising any level multiplies the value by norms from p-power
cyclotomic fields that are 1 mod the relevant p-power, so consecutive
diagonal values agree mod p^(level).  _diagonal computes the whole
diagonal window 1..K; _certify re-verifies those congruences inside the
window instead of taking them on faith, and reports how many digits are
certified.  limit_estimate certifies one polynomial's window, and
links.h1_nonp_limit the window of homology orders, a product over
sublinks, through the same _certify.
Level k is the product of one cyclotomic factor per index tuple with every
index <= k, so level k shares every factor of level k - 1: the window walks
the tuples of level K once, computing each factor once, and takes the
levels as prefix products.  Its budget, the cost estimates of levels 1..K
summed, walks the same tuples once too (window_cost).

The zero/nonzero dichotomy is read from level 1: every masked factor
f(zeta_1,...,zeta_d) has the same residue as f(1,...,1) in the residue
field, so p divides one masked resultant iff it divides all of them iff
p | f(1,...,1) (zero_limit_predicate).  In the zero case the raw limit is
exactly 0 and the p-valuations grow without plateau; the non-p parts still
satisfy the same congruences and are certified separately.

Iwasawa invariants come by two independent routes: an exact fit of
v_p = lambda*n + mu*p^n + nu on trailing levels, and the structural count
(mu from the content; lambda, the roots a with |a|_p = 1, |a-1|_p < 1, as
the Weierstrass degree of f(1+s): Washington, GTM 83, Thm 7.3).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Tuple

from .errors import VanishingResultantError, WindowTooShortError
from .multipoly import MultiPoly
from .padic import PadicApprox, nonp_part, teichmuller, vp, vp_split
from .resultants import (
    CyclicResultantRequest,
    _factors,
    check_budget,
    cost_estimate,
    cyclic_resultant,
    masks_cost,
)
from .unipoly import UniPoly, is_prime


def zero_limit_predicate(f: MultiPoly, p: int) -> bool:
    """True iff the limit of the (masked) cyclic resultants is 0."""
    return f.evaluate((1,) * f.num_vars) % p == 0


def _masks(levels, mask: str) -> tuple:
    """The index sets of the masked resultant at `levels`: 0..n per level n
    for 'r', 1..n for 'rprime'."""
    if mask not in ("r", "rprime"):
        raise ValueError(f"mask must be 'r' or 'rprime', got {mask!r}")
    return tuple(range(mask == "rprime", n + 1) for n in levels)


def _request(f: MultiPoly, p: int, levels, mask: str) -> CyclicResultantRequest:
    return CyclicResultantRequest.custom(f, p, levels, _masks(levels, mask))


def _window_masks(p: int, K: int, d: int, mask: str) -> tuple:
    """The masks of the diagonal level (K,...,K) in d variables; level k's
    masks are these cut at k."""
    if K < 1:
        raise ValueError("K must be >= 1")
    masks = _masks((K,) * d, mask)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return masks


def window_cost(f: MultiPoly, p: int, K: int, mask: str) -> float:
    """cost_estimate summed over the window's levels (1,...,1) to (K,...,K),
    in one weighted walk of level K's index tuples (masks_cost)."""
    return masks_cost(f, p, _window_masks(p, K, f.num_vars, mask), K)


@dataclass(frozen=True)
class LimitEstimate:
    value: PadicApprox
    nonp_value: PadicApprox
    certified_digits: int | None  # None = the raw value is exact
    nonp_certified_digits: int
    levels_used: Tuple[int, ...]
    stabilized: bool
    degenerate: bool
    # (level, v_p, nonp residue mod p^level) per diagonal level; v_p is -1
    # on levels where the masked resultant is exactly 0
    window: Tuple[Tuple[int, int, int], ...]


def limit_estimate(f: MultiPoly, p: int, K: int, mask: str = "r") -> LimitEstimate:
    """Limit of the masked resultant sequence and of its non-p parts, mod p^K.

    Diagonal values at levels (k,...,k) are computed for k = 1..K and
    certified (_certify).  The window is refused before any work when its
    levels' cost estimates sum past cost_budget() (window_cost).
    """
    check_budget(window_cost(f, p, K, mask))
    return _certify(_diagonal(f, p, K, mask), p, K, f.num_vars)


def _certify(diag: list, p: int, K: int, d: int) -> LimitEstimate:
    """The limit mod p^K of a diagonal diag[k-1] at levels (k,...,k), k =
    1..K, in d variables, and of its non-p parts: the value at (K,...,K)
    is the limit, and the window's consecutive congruences (raw and non-p)
    are verified rather than assumed.  The limit is exactly 0 when p
    divides the level-1 value (then p divides every level's).  A value
    that vanishes is a distinguished degenerate outcome: the whole tail is
    exactly 0, and so is its non-p part."""
    if any(v == 0 for v in diag):
        # a masked resultant vanishes identically: the sequence (and its
        # non-p part, since nonp(0) = 0) is exactly 0 from that level on
        return LimitEstimate(
            value=PadicApprox.zero(p, K),
            nonp_value=PadicApprox.zero(p, K),
            certified_digits=None,
            nonp_certified_digits=K,
            levels_used=(K,) * d,
            stabilized=False,
            degenerate=True,
            window=tuple(
                (k + 1, vp(v, p) if v else -1, nonp_part(v, p) % p ** (k + 1))
                for k, v in enumerate(diag)
            ),
        )
    zero_case = diag[0] % p == 0
    vals, units = zip(*(vp_split(v, p) for v in diag))
    raw_ok = all(
        (diag[k] - diag[k - 1]) % p**k == 0 for k in range(1, K)
    )
    nonp_ok_to = K
    for k in range(1, K):
        if (units[k] - units[k - 1]) % p**k != 0:
            nonp_ok_to = k
            break
    stabilized = vals[-1] == vals[-2] if K >= 2 else not zero_case
    window = tuple(
        (k + 1, vals[k], units[k] % p ** (k + 1)) for k in range(K)
    )
    if zero_case:
        value = PadicApprox.zero(p, K)
        certified: int | None = None
    else:
        value = PadicApprox.from_int(diag[-1], p, K)
        certified = K if raw_ok else max(1, K - 1)
    nonp_value = PadicApprox.from_int(units[-1], p, K)
    return LimitEstimate(
        value=value,
        nonp_value=nonp_value,
        certified_digits=certified,
        nonp_certified_digits=nonp_ok_to,
        levels_used=(K,) * d,
        stabilized=stabilized,
        degenerate=False,
        window=window,
    )


def _diagonal(f: MultiPoly, p: int, K: int, mask: str) -> list:
    """The masked resultants at levels (1,...,1) to (K,...,K), K >= 1:
    acc[k] collects the factors whose largest index is k (index 0 joins
    level 1), and the levels are the prefix products of acc.  Every
    diagonal value is formed here: a limit window's, each sublink's of a
    homology order (links._h1_diagonal) and the Iwasawa fit's."""
    acc = [1] * (K + 1)
    for index, factor in _factors(f, p, _window_masks(p, K, f.num_vars, mask)):
        acc[max((1, *index))] *= factor
    return list(itertools.accumulate(acc[1:], operator.mul))


def sign_of(f: MultiPoly, p: int, levels, mask: str = "r") -> int:
    """Predicted sign of the masked resultant, without the big computation.

    Full mask: sign(f(1,...,1)) for odd p, sign of the level-(1,...,1) value
    for p = 2.  Mask without j=0: +1 for odd p, sign(f(-1,...,-1)) for p = 2.
    """
    d = f.num_vars
    if mask == "r":
        if p != 2:
            s = f.evaluate((1,) * d)
        else:
            s = cyclic_resultant(CyclicResultantRequest.full(f, 2, (1,) * d))
    elif mask == "rprime":
        if p != 2:
            return 1
        s = f.evaluate((-1,) * d)
    else:
        raise ValueError(f"mask must be 'r' or 'rprime', got {mask!r}")
    if s == 0:
        raise VanishingResultantError("sign undefined: the deciding value is 0")
    return 1 if s > 0 else -1


# ---------------------------------------------------------------------------
# Iwasawa-type growth invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IwasawaInvariants:
    lam: int
    mu: int
    nu: int
    verified_window: Tuple[int, int]  # inclusive level range where the law held exactly
    e_values: Tuple[int, ...]  # v_p of the full-mask resultant at levels 1..n_max

    def predicts(self, n: int, p: int) -> int:
        return self.lam * n + self.mu * p**n + self.nu


def iwasawa_fit(f: UniPoly, p: int, n_max: int = 5) -> IwasawaInvariants:
    """Fit v_p(full-mask resultant at level n) = lambda*n + mu*p^n + nu.

    Requires the law to hold exactly on at least the final three levels up to
    n_max; the verified window is extended backwards as far as it holds.
    The valuations are read from one diagonal walk (_diagonal, levels 1 to
    n_max).  Refused before any work when the cost_estimate of the
    full-mask resultant at level n_max, whose factors these are, exceeds
    cost_budget().
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if n_max < 3:
        raise WindowTooShortError("need n_max >= 3 for a three-level window")
    g = MultiPoly(1, {(i,): c for i, c in enumerate(f.coeffs) if c})
    check_budget(cost_estimate(CyclicResultantRequest.full(g, p, (n_max,))))
    diag = _diagonal(g, p, n_max, "r")
    if not diag[-1]:
        n = diag.index(0) + 1
        raise VanishingResultantError(
            f"Phi_{p}^j divides f for some j <= {n}: cyclic resultants vanish from level {n} on"
        )
    e_values = [vp(v, p) for v in diag]
    mu = vp(f.content(), p)
    resid = [e - mu * p**n for n, e in zip(range(1, n_max + 1), e_values)]
    lam = resid[-1] - resid[-2]
    if lam < 0 or resid[-2] - resid[-3] != lam:
        raise WindowTooShortError(
            f"growth not linear on the last three levels (residuals {resid})"
        )
    nu = resid[-1] - lam * n_max
    start = n_max
    while start > 1 and resid[start - 2] == lam * (start - 1) + nu:
        start -= 1
    return IwasawaInvariants(lam, mu, nu, (start, n_max), tuple(e_values))


def lambda_mu_structural(f: UniPoly, p: int) -> Tuple[int, int]:
    """(lambda, mu) without any resultant: mu = v_p(content f), lambda the
    least i with h_i != 0 mod p^(mu+1) for h(s) = f(1+s), which keeps f's
    content (the shift is unitriangular) and has h(0) = f(1) != 0."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.evaluate(1) == 0:
        raise VanishingResultantError("f(1) = 0: the resultants vanish")
    mu = vp(f.content(), p)
    return next(i for i, c in enumerate(f.shift_one().coeffs) if c % p ** (mu + 1)), mu


# ---------------------------------------------------------------------------
# closed-form limit for f = a*t1^n + g (g free of t1)
# ---------------------------------------------------------------------------


def closed_form_limit(
    a: int,
    n: int,
    g: MultiPoly | int,
    p: int,
    K: int,
    verify: bool = False,
    verify_levels: int | None = None,
) -> PadicApprox:
    """Exact p-adic limit of the full-mask cyclic resultants of
    f = a*t1^n + g, where g does not involve t1.

    With f(1,...,1) a p-unit the limit is the Teichmuller value
    omega_p(f(1,...,1)) for odd p and omega_2(g(1,...,1) - a) for p = 2
    whenever g carries at least one variable; with p | f(1,...,1) the limit
    is exactly 0.  In the univariate case (g constant, f in t1 alone) there
    is no outer limit to project onto a root of unity, and the value is
    (omega_p(g) - omega_p(-a))^(p^(v_p(n))) instead.

    verify=True recomputes the limit empirically via limit_estimate and
    asserts agreement on all mutually certified digits.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(g, int):
        g = MultiPoly.const(0, g)
    d = g.num_vars + 1
    g1 = g.evaluate((1,) * g.num_vars)
    f1 = a + g1
    if f1 % p == 0:
        result = PadicApprox.zero(p, K)
    elif d >= 2:
        if p != 2:
            result = teichmuller(f1, p, K)
        else:
            # omega_2(g(1,..,1) - a) with omega_2 = 1 on odds; g1 - a is odd here
            result = PadicApprox.from_int(1, 2, K, exact=True)
    else:
        v = vp(n, p)
        if p == 2:
            base = (1 if g1 % 2 else 0) - (1 if a % 2 else 0)
            result = PadicApprox.from_int(base ** (2**v), 2, K, exact=True)
        else:
            base = teichmuller(g1, p, K) + teichmuller(a, p, K)
            result = base ** (p**v)
    if verify:
        fpoly = MultiPoly(d, {(n,) + (0,) * (d - 1): a}) + g.embed(
            d, list(range(2, g.num_vars + 2))
        )
        levels = verify_levels if verify_levels is not None else min(K, 3)
        est = limit_estimate(fpoly, p, levels, mask="r")
        digits = levels if est.certified_digits is None else min(levels, est.certified_digits)
        if not est.value.eq_mod(result, digits):
            raise AssertionError(
                f"closed form {result} disagrees with estimate {est.value} mod {p}^{digits}"
            )
    return result


# ---------------------------------------------------------------------------
# multiple-sequence order invariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderInvarianceReport:
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def order_invariance_check(f: MultiPoly, p: int, levels, mask: str = "r") -> OrderInvarianceReport:
    """Two order-independence properties of the masked values.

    (i) permuting the variables of f together with the levels leaves the
    value unchanged exactly; (ii) raising the levels one variable at a time,
    in any order, from (1,...,1) to the target stays congruent to the target
    value mod p^(min of the not-yet-raised entries).  A failure report names
    the first counterexample (and would indicate an implementation bug).
    """
    d = f.num_vars
    levels = tuple(levels)
    if d <= 1:
        return OrderInvarianceReport(True, "univariate: trivially order-free")
    base = cyclic_resultant(_request(f, p, levels, mask))
    for perm in itertools.permutations(range(1, d + 1)):
        f_perm = f.permute_vars(perm)
        lv = [0] * d
        for i in range(d):
            lv[perm[i] - 1] = levels[i]
        other = cyclic_resultant(_request(f_perm, p, tuple(lv), mask))
        if other != base:
            return OrderInvarianceReport(
                False, f"permutation {perm}: {other} != {base}"
            )
    for order in itertools.permutations(range(d)):
        current = [1] * d
        for var in order:
            current[var] = levels[var]
            if tuple(current) == levels:
                break
            value = cyclic_resultant(_request(f, p, tuple(current), mask))
            pending = [current[i] for i in range(d) if current[i] < levels[i]]
            modulus = p ** min(pending)
            if (value - base) % modulus != 0:
                return OrderInvarianceReport(
                    False,
                    f"staircase {order} at {tuple(current)}: "
                    f"{value} != {base} mod {modulus}",
                )
    return OrderInvarianceReport(True)
