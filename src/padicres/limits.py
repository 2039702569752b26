"""p-adic limit estimation for iterated cyclic resultants.

The raw masked sequence at diagonal levels (K,...,K) determines its limit
modulo p^K: raising any level multiplies the value by norms from p-power
cyclotomic fields that are 1 mod the relevant p-power, so consecutive
diagonal values agree mod p^(level).  limit_estimate computes the whole
diagonal window 1..K, re-verifies those congruences inside the window
instead of taking them on faith, and reports how many digits are certified.

The zero/nonzero dichotomy is decided by f(1,...,1) mod p: every masked
factor f(zeta_1,...,zeta_d) has the same residue as f(1,...,1) in the
residue field, so p divides one masked resultant iff it divides all of them
iff p | f(1,...,1).  In the zero case the raw limit is exactly 0 and the
p-valuations grow without plateau; the non-p parts still satisfy the same
congruences and are certified separately.

Iwasawa invariants come by two independent routes: an exact fit of
v_p = lambda*n + mu*p^n + nu on trailing levels, and the structural count
(mu from the content, lambda from the Newton polygon of f(1+s): the
horizontal length under the negative slopes, i.e. roots with |a|_p = 1 and
|a-1|_p < 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple

from .errors import VanishingResultantError, WindowTooShortError
from .multipoly import MultiPoly
from .newton import newton_polygon
from .padic import PadicApprox, nonp_part, teichmuller, vp
from .resultants import CyclicResultantRequest, cyclic_resultant, resultant_phi_int
from .unipoly import UniPoly


def zero_limit_predicate(f: MultiPoly, p: int) -> bool:
    """True iff the limit of the (masked) cyclic resultants is 0."""
    return f.evaluate((1,) * f.num_vars) % p == 0


def _request(f: MultiPoly, p: int, levels, mask: str) -> CyclicResultantRequest:
    if mask == "r":
        return CyclicResultantRequest.full(f, p, levels)
    if mask == "rprime":
        return CyclicResultantRequest.rprime(f, p, levels)
    raise ValueError(f"mask must be 'r' or 'rprime', got {mask!r}")


@dataclass(frozen=True)
class LimitEstimate:
    value: PadicApprox
    nonp_value: PadicApprox | None
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

    Diagonal values at levels (k,...,k) are computed for k = 1..K; the value
    at (K,...,K) is the limit mod p^K, and the window's consecutive
    congruences (raw and non-p) are verified rather than assumed.  A masked
    resultant that vanishes identically is a distinguished degenerate
    outcome: the whole tail is exactly 0, and so is its non-p part.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    d = f.num_vars
    diag = []
    for k in range(1, K + 1):
        req = _request(f, p, (k,) * d, mask)
        diag.append(cyclic_resultant(req))
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
    zero_case = zero_limit_predicate(f, p)
    vals = [vp(v, p) for v in diag]
    units = [nonp_part(v, p) for v in diag]
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
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if n_max < 3:
        raise WindowTooShortError("need n_max >= 3 for a three-level window")
    factors = []
    for j in range(n_max + 1):
        r = resultant_phi_int(p, j, f)
        if r == 0:
            raise VanishingResultantError(
                f"Phi_{p}^{j} divides f: cyclic resultants vanish from level {j} on"
            )
        factors.append(r)
    e_values = []
    acc = vp(factors[0], p)
    for n in range(1, n_max + 1):
        acc += vp(factors[n], p)
        e_values.append(acc)
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
    """(lambda, mu) without any resultant: mu from the content, lambda as the
    number of roots of (f/p^mu)(1+s) with positive valuation, read off the
    Newton polygon."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.evaluate(1) == 0:
        raise VanishingResultantError("f(1) = 0: the resultants vanish")
    mu = vp(f.content(), p)
    g = f.divexact_scalar(p**mu) if mu else f
    h = g.shift_one()
    return newton_polygon(h, p).positive_valuation_root_count(), mu


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
