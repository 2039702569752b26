"""First-homology orders of branched p-power coverings of links.

For a d-component link in an integral homology 3-sphere, given the
multivariable Alexander polynomials of all sublinks, the classical
branched-covering formula expresses |H_1| of the abelian cover as a product
of Alexander evaluations over the characters of the deck group, divided by
|1 - xi(meridian)| over the single-component characters.  For the diagonal
covers (deck group (+) Z/p^{n_i}) the characters with support S contribute
exactly the j>=1-masked iterated resultant of Delta_S at levels (n_i)_{i in
S}, and the prefactor cancels against |G|; the cancellation is asserted,
not assumed.  Two independent exact routes are provided: the product of
masked resultants by the resultant engine (h1_order), and the character sum
evaluated modulo products of a few primes and recovered by the CRT
(character_oracle).

The twisted Whitehead family is built in, with the closed-form limits of
the non-p parts: m|m|_p / omega_p(m|m|_p) for k = 2m, omega_p(2)/2 for
k = 2m+1 at odd p, and for p = 2 the product of cyclotomic-log norm units
truncated at level lmax, which certifies lmax + 1 digits: every level-L
unit is a norm from Q_2(zeta_(2^L)), so 1 mod 2^L.  Their budget charges
are sums of the per-level prices that cyclo keeps beside the log norms.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from .cyclo import level_log_norm, level_log_norm_cost, level_log_valuation, level_log_valuation_cost, phi_degree
from .errors import BudgetExceededError, InvariantError, OracleMismatchError, PolyParseError
from .limits import (
    LimitEstimate,
    _certify,
    _diagonal,
    _level_vanishes,
    _orbit_valuations,
    _vanishes_later,
    orbit_cost,
    window_cost,
    window_levels,
)
from .multipoly import MultiPoly
from .oracles import modular_root_product
from .padic import PadicApprox, nonp_part, teichmuller, vp_split
from .parsing import parse_poly
from .resultants import CyclicResultantRequest, check_budget, cost_estimate, cyclic_resultant
from .unipoly import cyclotomic, is_prime


@dataclass(frozen=True)
class LinkSpec:
    d: int
    names: Tuple[str, ...]
    sublinks: Dict[FrozenSet[int], MultiPoly] = field(hash=False)
    ambient: str = "S3"
    name: str = ""

    def __post_init__(self):
        for subset in self.subsets():
            key = frozenset(subset)
            if key not in self.sublinks:
                raise ValueError(f"missing sublink entry for components {sorted(subset)}")
            poly = self.sublinks[key]
            if poly.num_vars != len(subset):
                raise ValueError(
                    f"sublink {sorted(subset)}: polynomial has {poly.num_vars} variables, expected {len(subset)}"
                )

    def subsets(self):
        """Every nonempty sublink as a sorted tuple of 1-based components,
        by size, then lexicographically."""
        for size in range(1, self.d + 1):
            yield from itertools.combinations(range(1, self.d + 1), size)

    def alexander(self, subset) -> MultiPoly:
        return self.sublinks[frozenset(subset)]


@dataclass(frozen=True)
class CoveringSpec:
    p: int
    levels: Tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if any(n < 1 for n in self.levels):
            raise ValueError("covering levels must be positive")

    def group_order(self) -> int:
        return self.p ** sum(self.levels)


@dataclass(frozen=True)
class H1Result:
    order: int  # 0 encodes infinite homology
    nonp_part: int
    p_exponent: int

    @property
    def rational_homology_sphere(self) -> bool:
        return self.order != 0


def load_link_spec(document: str) -> LinkSpec:
    """Parse and validate the link-spec JSON document.

    Schema: {"name": str, "components": d, "ambient": "S3",
             "names": [d strings] (optional),
             "sublinks": [{"indices": [sorted 1-based], "alexander": "<poly in t1..t|S|>"}]}
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("top-level document must be an object")
    d = data.get("components")
    if not isinstance(d, int) or d < 1:
        raise ValueError("'components' must be a positive integer")
    raw = data.get("sublinks")
    if not isinstance(raw, list):
        raise ValueError("'sublinks' must be a list")
    sublinks: Dict[FrozenSet[int], MultiPoly] = {}
    for pos, entry in enumerate(raw):
        path = f"sublinks[{pos}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: must be an object")
        indices = entry.get("indices")
        if (
            not isinstance(indices, list)
            or not indices
            or indices != sorted(indices)
            or len(set(indices)) != len(indices)
            or any(not isinstance(i, int) or not 1 <= i <= d for i in indices)
        ):
            raise ValueError(f"{path}: 'indices' must be a sorted list of distinct 1-based components")
        text = entry.get("alexander")
        if not isinstance(text, str):
            raise ValueError(f"{path}: 'alexander' must be a polynomial string")
        try:
            poly = parse_poly(text, len(indices))
        except PolyParseError as exc:
            raise ValueError(f"{path}.alexander: {exc}") from exc
        key = frozenset(indices)
        if key in sublinks:
            raise ValueError(f"{path}: duplicate sublink {indices}")
        sublinks[key] = poly
    names = data.get("names", [f"l{i}" for i in range(1, d + 1)])
    if not isinstance(names, list) or len(names) != d or any(not isinstance(x, str) for x in names):
        raise ValueError(f"'names' must be a list of {d} strings")
    name, ambient = data.get("name", ""), data.get("ambient", "S3")
    if not isinstance(name, str) or not isinstance(ambient, str):
        raise ValueError("'name' and 'ambient' must be strings")
    return LinkSpec(d=d, names=tuple(names), sublinks=sublinks, ambient=ambient, name=name)


# ---------------------------------------------------------------------------
# built-in fixtures
# ---------------------------------------------------------------------------


def whitehead_delta(k: int) -> MultiPoly:
    """Alexander polynomial of the k-twisted Whitehead link.

    k = 2m+1 (m >= 0): (1+m) - m(t1+t2) + (1+m)t1t2;
    k = 2m   (m >= 1): m(1 + t1t2 - t1 - t2).
    """
    if k < 1:
        raise ValueError("k must be >= 1 (the even family needs m >= 1)")
    if k % 2:
        m = (k - 1) // 2
        return MultiPoly(
            2, {(0, 0): 1 + m, (1, 0): -m, (0, 1): -m, (1, 1): 1 + m}
        )
    m = k // 2
    return MultiPoly(2, {(0, 0): m, (1, 1): m, (1, 0): -m, (0, 1): -m})


def whitehead_link_spec(k: int) -> LinkSpec:
    """The k-twisted Whitehead link: proper sublinks are unknots (Delta = 1)."""
    one = MultiPoly.one(1)
    return LinkSpec(
        d=2,
        names=("l1", "l2"),
        sublinks={
            frozenset({1}): one,
            frozenset({2}): one,
            frozenset({1, 2}): whitehead_delta(k),
        },
        name=f"twisted Whitehead L_{k}",
    )


def trefoil_spec() -> LinkSpec:
    """The trefoil knot as a 1-component link, Delta = t^2 - t + 1."""
    return LinkSpec(
        d=1,
        names=("l1",),
        sublinks={frozenset({1}): parse_poly("t1^2 - t1 + 1", 1)},
        name="trefoil",
    )


# ---------------------------------------------------------------------------
# homology orders
# ---------------------------------------------------------------------------


def _assert_prefactor_cancels(cov: CoveringSpec):
    # |G| / prod_{single-component xi} |1 - xi(meridian)|: each variable
    # contributes prod_{zeta != 1} (1 - zeta) = (t^{p^n}-1)/(t-1) at t=1 = p^n,
    # checked at every level n up to the largest
    prod = 1
    for n in range(1, max(cov.levels) + 1):
        prod *= cyclotomic(cov.p, n).evaluate(1)
        if prod != cov.p**n:
            raise OracleMismatchError(
                f"prefactor cancellation failed at level {n}: {prod} != {cov.p}^{n}"
            )


def _h1_factor(subset, delta: MultiPoly, p: int, value: int) -> int:
    """The factor of |H_1| that the masked resultant `value` of Delta_S
    gives: |value|, and 0 when it vanishes (the cover is not a rational
    homology sphere; 0 is the convention for infinite groups).  A nonzero
    value's sign is checked against its parity prediction: +1 for odd p,
    the sign of Delta_S(-1,...,-1) for p = 2 (no prediction when that
    vanishes)."""
    predicted = delta.evaluate((-1,) * delta.num_vars) if p == 2 else 1
    if value and predicted and (value > 0) != (predicted > 0):
        raise OracleMismatchError(f"sign of masked resultant for sublink {subset} contradicts the parity prediction")
    return abs(value)


def h1_order(link: LinkSpec, cov: CoveringSpec) -> H1Result:
    """|H_1| of the diagonal branched cover, as the product over nonempty
    sublinks S of |masked resultant of Delta_S at levels (n_i)_{i in S}|,
    each factor by _h1_factor's conventions (0 for a vanishing one).
    Refused before any work, the prefactor check included, when the
    sublinks' cost_estimate summed exceeds cost_budget()."""
    if len(cov.levels) != link.d:
        raise ValueError("covering levels must list one entry per component")
    requests = [CyclicResultantRequest.rprime(link.alexander(s), cov.p, [cov.levels[i - 1] for i in s]) for s in link.subsets()]
    check_budget(sum(map(cost_estimate, requests)))
    _assert_prefactor_cancels(cov)
    order = 1
    for subset, req in zip(link.subsets(), requests):
        order *= _h1_factor(subset, req.f, cov.p, cyclic_resultant(req))
        if not order:
            break
    p_exponent, unit = vp_split(order, cov.p) if order else (0, 0)
    return H1Result(order=order, nonp_part=unit, p_exponent=p_exponent)


def _h1_diagonal(link: LinkSpec, p: int, K: int) -> list:
    """The per-level factors of |H_1| of the diagonal covers at levels
    (1,...,1) to (K,...,K): the order at level k, as h1_order gives it, is
    the product of entries 0..k-1.  One diagonal walk per sublink
    (limits._diagonal) gives its per-level factors; a level's value has the
    running sign of the sublink's factors, so each factor passes through
    _h1_factor's conventions with that sign, and from a factor 0 on the
    sublink contributes 0."""
    factors = [1] * K
    for subset in link.subsets():
        delta = link.alexander(subset)
        sign = 1
        for k, factor in enumerate(_diagonal(delta, p, K, "rprime")):
            sign *= (factor > 0) - (factor < 0)
            factors[k] *= _h1_factor(subset, delta, p, sign * abs(factor))
    return factors


def nonp_limit_cost(link: LinkSpec, p: int, levels: int) -> float:
    """limits.window_cost, the top level's cost_estimate, of every
    sublink's diagonal walk up to level `levels`, summed."""
    return sum(window_cost(link.alexander(s), p, levels, "rprime") for s in link.subsets())


def h1_nonp_limit(link: LinkSpec, p: int, K: int) -> LimitEstimate:
    """p-adic limit of |H_1| and of its non-p parts along the diagonal
    covers, mod p^K, from the orders at levels 1..window_levels(K)
    (_nonp_limit).  Refused before any work when nonp_limit_cost of the
    levels walked exceeds cost_budget().
    """
    check_budget(nonp_limit_cost(link, p, window_levels(K)))
    return _nonp_limit(link, p, K)


def _nonp_limit(link: LinkSpec, p: int, K: int) -> LimitEstimate:
    """h1_nonp_limit without its budget check.  The orders at levels
    1..L = window_levels(K) (_h1_diagonal), certified once as one diagonal
    (limits._certify), give K <= L + 1 digits: each sublink's masked
    resultant satisfies the sharp congruence R_(k+1) = R_k mod p^(k+1) on
    non-p parts (limits), and so does its absolute value, since every factor
    of a level k + 1 >= 2 is a product of norms from Q(zeta_(p^(k+1))),
    which is totally imaginary, and so is positive.  A product over
    sublinks keeps the congruence.  When no order up to level L is 0, level
    K's is 0 iff some sublink's factor of level K vanishes
    (limits._level_vanishes), and the window then ends in that 0.  A
    one-variable sublink can still vanish at a later level, which
    limits._vanishes_later tests as limit_estimate does; then the orders
    are exactly 0 from there on, and _certify makes the estimate
    degenerate.
    """
    levels = window_levels(K)
    factors = _h1_diagonal(link, p, levels)
    deltas = [link.alexander(s) for s in link.subsets()]
    if levels < K and 0 not in factors and any(_level_vanishes(delta, p, K, "rprime") for delta in deltas):
        factors.append(0)
    later = 0 not in factors and any(_vanishes_later(delta, p, K, "rprime") for delta in deltas)
    return _certify(factors, p, K, link.d, later)


# ---------------------------------------------------------------------------
# the character-sum oracle (exact, by modular root products)
# ---------------------------------------------------------------------------

_MAX_ORACLE_GROUP = 4096  # largest deck group |G| the character oracle takes


def check_character_oracle(link: LinkSpec, cov: CoveringSpec) -> None:
    """Refuse levels that do not list one entry per component, as a
    ValueError, and a deck group larger than _MAX_ORACLE_GROUP, as a
    BudgetExceededError."""
    if len(cov.levels) != link.d:
        raise ValueError("covering levels must list one entry per component")
    size = cov.group_order()
    if size > _MAX_ORACLE_GROUP:
        raise BudgetExceededError(f"|G| = {size} exceeds the character oracle's budget {_MAX_ORACLE_GROUP}")


def character_oracle(link: LinkSpec, cov: CoveringSpec) -> H1Result:
    """|H_1| by the character sum, apart from the resultant engine.

    The characters of G = (+) Z/p^{n_i} with support S take every tuple of
    nontrivial p-power roots of unity at the levels of S, so their factors
    multiply to the product of Delta_S over those tuples, which
    modular_root_product computes exactly, modulo products of a few primes
    joined by the CRT.  The |1 - xi(meridian)| prefactor is computed the
    same way, as the product of 1 - zeta over each component's nontrivial
    roots, and must equal p^{n_i}, so that it cancels against
    |G| = prod p^{n_i}.  Refused first by check_character_oracle.
    """
    check_character_oracle(link, cov)
    one_minus_t = MultiPoly(1, {(0,): 1, (1,): -1})
    for n in cov.levels:
        prefactor = modular_root_product(one_minus_t, cov.p, [range(1, n + 1)])
        if prefactor != cov.p**n:
            raise OracleMismatchError(f"prefactor at level {n} is {prefactor}, not {cov.p}^{n}")
    order = 1
    for subset in link.subsets():
        masks = [range(1, cov.levels[i - 1] + 1) for i in subset]
        order *= abs(modular_root_product(link.alexander(subset), cov.p, masks))
    p_exponent, unit = vp_split(order, cov.p) if order else (0, 0)
    return H1Result(order=order, nonp_part=unit, p_exponent=p_exponent)


# ---------------------------------------------------------------------------
# twisted Whitehead closed forms
# ---------------------------------------------------------------------------


_GUARD_DIGITS = 14  # the digits past K that the 2-adic closed form works at


def closed_form_cost(k: int, p: int, K: int, truncation_level: int) -> float:
    """Work of whitehead_closed_form, in cost_estimate's units, before any:
    only the p = 2 product for odd k >= 3 costs, the level_log_norm_cost of
    levels 2..truncation_level at K + _GUARD_DIGITS digits, summed up to
    the first level past the float range (inf).  Fitted to
    whitehead_closed_form(k, 2, 4, L) for k = 3 and 31 on a 2-core host, in
    two sets of timings: 1.0-3.9 times the measured time at every L from
    10 to 17 (0.005 s to 5.4 s); the default budget admits L = 20 and
    refuses L = 21."""
    if p != 2 or k % 2 == 0 or k < 3:
        return 0.0
    m, digits = (k - 1) // 2, K + _GUARD_DIGITS
    try:
        return sum((level_log_norm_cost(m, level, digits) for level in range(2, truncation_level + 1)), 0.0)
    except OverflowError:  # levels past the float range
        return math.inf


def nu_sums_cost(n_max: int) -> float:
    """Work of level_log_valuation at levels 2..n_max, in cost_estimate's
    units, their level_log_valuation_cost summed (inf past the float range):
    3 to 25 times the measured time at each n_max from 14 to 18 for k = 3,
    5 and 11 on a 2-core host; with orbit_cost, it admits n_max <= 20."""
    try:
        return sum(level_log_valuation_cost(level) for level in range(2, n_max + 1))
    except OverflowError:  # levels past the float range
        return math.inf


def whitehead_cost(k: int, p: int, K: int, lmax: int) -> float:
    """The `whitehead` command's charge: closed_form_cost plus the window of
    window_levels(K) levels, which a degenerate closed form never runs."""
    window = 0.0 if whitehead_degenerate(k, p) else nonp_limit_cost(whitehead_link_spec(k), p, window_levels(K))
    return closed_form_cost(k, p, K, lmax) + window


def whitehead_degenerate(k: int, p: int) -> bool:
    """Whether whitehead_closed_form(k, p, ...) is degenerate: k = 1 at
    p = 2, where the log argument is a torsion unit."""
    return k == 1 and p == 2


@dataclass(frozen=True)
class WhiteheadLimit:
    value: PadicApprox | None
    achieved_digits: int
    degenerate: bool
    note: str = ""
    per_level: Tuple[Tuple[int, int, int], ...] = ()  # (level, sum of nu over the level, factor precision)


def whitehead_closed_form(k: int, p: int, K: int, truncation_level: int = 5) -> WhiteheadLimit:
    """Closed-form p-adic limit of the non-p parts of |H_1| for the k-twisted
    Whitehead link.

    k = 2m: m|m|_p / omega_p(m|m|_p), exact Teichmuller arithmetic.
    k = 2m+1, odd p: omega_p(2) / 2.
    k = 2m+1, p = 2: the infinite product over 2-power roots of unity of
    2^(-nu) log((m*zeta+m+1)/(m*zeta+m+zeta)), grouped per cyclotomic level
    into norm unit parts, worked at K + _GUARD_DIGITS digits and truncated at
    `truncation_level` = lmax >= 2 (level 1 is excluded from the product).
    It certifies min(K, lmax + 1) digits.  At level L write log u = pi^a eps
    in Q_2(zeta_(2^L)), pi = 1 - zeta and eps a unit: N(pi) = Phi_(2^L)(1)
    = 2, so the unit part of N(log u), which level_log_norm returns, is
    N(eps), and the norm group of Q_2(zeta_(2^L))/Q_2 is 2^Z x (1 + 2^L Z_2)
    (Neukirch, Algebraic Number Theory, ch. V), so N(eps) = 1 mod 2^L.  Every
    factor past lmax is then 1 mod 2^(lmax + 1), and so is the tail.  Each
    level's unit is checked against that congruence; a failure contradicts
    the theorem and raises InvariantError.  m = 0 makes the argument a
    torsion unit and is reported degenerate.  Refused before any work when
    closed_form_cost exceeds cost_budget().
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if truncation_level < 2:
        raise ValueError(f"truncation level must be >= 2, got {truncation_level}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    check_budget(closed_form_cost(k, p, K, truncation_level))
    if k % 2 == 0:
        m = k // 2
        t = nonp_part(m, p)
        value = PadicApprox.from_int(t, p, K, exact=True) * teichmuller(t, p, K).inverse()
        return WhiteheadLimit(value=value, achieved_digits=K, degenerate=False)
    m = (k - 1) // 2
    if p != 2:
        value = teichmuller(2, p, K) * PadicApprox.from_int(2, p, K, exact=True).inverse()
        return WhiteheadLimit(value=value, achieved_digits=K, degenerate=False)
    if whitehead_degenerate(k, p):
        return WhiteheadLimit(
            value=None,
            achieved_digits=0,
            degenerate=True,
            note="k = 1: the log argument is the torsion unit zeta^(-1); "
            "the product degenerates (and the covers stop being rational homology spheres)",
        )
    work = K + _GUARD_DIGITS
    product = pow(k, -1, 2**work)
    per_level = []
    for level in range(2, truncation_level + 1):
        _, nu_sum, unit = level_log_norm(m, level, work)
        if (unit - 1) % 2**level:
            raise InvariantError(
                f"the level-{level} log norm unit is not 1 mod 2^{level}: the norm group bound fails"
            )
        product = product * unit % 2**work
        per_level.append((level, nu_sum, work))
    return WhiteheadLimit(
        value=PadicApprox(2, work, 0, product),
        achieved_digits=min(K, truncation_level + 1),
        degenerate=False,
        per_level=tuple(per_level),
    )


@dataclass(frozen=True)
class TwoPartReport:
    k: int
    rows: Tuple[Tuple[int, int, int], ...]  # (level n, exact v_2, predicted exponent)
    ok: bool


def two_part_exponent_check(k: int, n_max: int) -> TwoPartReport:
    """Verify v_2(|H_1(S^3_{n,n})|) = n*2^n - 2n + 1 + sum of nu over the
    2-power roots zeta != +-1 of order <= 2^n, for n = 1..n_max >= 1.
    Refused before any work when limits.orbit_cost, summed over the
    sublinks, plus nu_sums_cost exceeds cost_budget().

    The per-level nu sums are t - s*phi from level_log_valuation, the
    valuation of the cyclotomic-log norms under the Q_2-normalized
    valuation.  The left side is exact and takes no norm: v_2 of the
    orders, a running sum over the levels of each sublink's orbit
    valuations (limits._orbit_valuations, levels (1,...,1) to
    (n_max,...,n_max)), since v_2 of a level's factor is the sum of
    v_pi(Delta_S(rep)) over its Galois orbits.  An order 0, a cover that is
    not a rational homology sphere, gives exponent 0, as in h1_order.  No
    value is formed, so the parity sign check of _h1_factor, which h1_order
    and the `whitehead` windows run, has nothing to check here.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("need odd k = 2m+1 with m >= 1")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    m = (k - 1) // 2
    link = whitehead_link_spec(k)
    deltas = [link.alexander(s) for s in link.subsets()]
    check_budget(sum(orbit_cost(delta, 2, n_max, "rprime") for delta in deltas) + nu_sums_cost(n_max))
    nu_sums = {}
    for level in range(2, n_max + 1):
        shift, t = level_log_valuation(m, level)
        nu_sums[level] = t - shift * phi_degree(2, level)
    levels = map(sum, zip(*(_orbit_valuations(delta, 2, n_max, "rprime") for delta in deltas)))
    _assert_prefactor_cancels(CoveringSpec(2, (n_max, n_max)))
    rows = []
    for n, exponent in enumerate(itertools.accumulate(levels), 1):
        predicted = n * 2**n - 2 * n + 1 + sum(nu_sums[lv] for lv in range(2, n + 1))
        # v_2(0) = inf: an order 0 from its level on gives exponent 0
        rows.append((n, exponent if exponent < math.inf else 0, predicted))
    ok = all(exact == predicted for _, exact, predicted in rows)
    return TwoPartReport(k=k, rows=tuple(rows), ok=ok)
