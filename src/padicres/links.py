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
evaluated in F_q for enough primes q and recovered by the CRT
(character_oracle).

The twisted Whitehead family is built in, with the closed-form limits of
the non-p parts: m|m|_p / omega_p(m|m|_p) for k = 2m, omega_p(2)/2 for
k = 2m+1 at odd p, and for p = 2 the truncated product of cyclotomic-log
norms whose achieved precision is measured, never assumed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from .cyclo import estimated_log_valuation, level_log_norm, level_log_valuation, phi_degree
from .errors import OracleMismatchError, PolyParseError
from .limits import LimitEstimate, _diagonal, _window, window_cost
from .multipoly import MultiPoly
from .oracles import modular_root_product
from .padic import PadicApprox, nonp_part, teichmuller, vp, vp_split
from .parsing import parse_poly
from .resultants import CyclicResultantRequest, check_budget, cyclic_resultant
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
    # contributes prod_{zeta != 1} (1 - zeta) = (t^{p^n}-1)/(t-1) at t=1 = p^n.
    for n in cov.levels:
        prod = 1
        for j in range(1, n + 1):
            prod *= cyclotomic(cov.p, j).evaluate(1)
        if prod != cov.p**n:
            raise OracleMismatchError(
                f"prefactor cancellation failed at level {n}: {prod} != {cov.p}^{n}"
            )


def _parity_sign(delta: MultiPoly) -> int:
    # sign of Delta_S(-1,...,-1): at p = 2 the sign of every j>=1-masked
    # resultant of Delta_S (0 when the deciding value vanishes)
    value = delta.evaluate((-1,) * delta.num_vars)
    return (value > 0) - (value < 0)


def _check_parity_sign(subset, delta: MultiPoly, p: int, value: int) -> None:
    """The sign of the nonzero masked resultant of Delta_S against its
    parity prediction: +1 for odd p, sign of Delta_S(-1,...,-1) for p = 2."""
    predicted = _parity_sign(delta) if p == 2 else 1
    if predicted and (value > 0) != (predicted > 0):
        raise OracleMismatchError(f"sign of masked resultant for sublink {subset} contradicts the parity prediction")


def h1_order(link: LinkSpec, cov: CoveringSpec) -> H1Result:
    """|H_1| of the diagonal branched cover, as the product over nonempty
    sublinks S of |masked resultant of Delta_S at levels (n_i)_{i in S}|.

    A vanishing factor means the cover is not a rational homology sphere;
    the order is then reported as 0 (the convention for infinite groups).
    Signs of the factors are cross-checked against the parity predictions
    (+1 for odd p, sign of Delta_S(-1,...,-1) for p = 2).
    """
    if len(cov.levels) != link.d:
        raise ValueError("covering levels must list one entry per component")
    _assert_prefactor_cancels(cov)
    order = 1
    for subset in link.subsets():
        delta = link.alexander(subset)
        levels = tuple(cov.levels[i - 1] for i in subset)
        value = cyclic_resultant(CyclicResultantRequest.rprime(delta, cov.p, levels))
        if value == 0:
            return H1Result(order=0, nonp_part=0, p_exponent=0)
        _check_parity_sign(subset, delta, cov.p, value)
        order *= abs(value)
    p_exponent, unit = vp_split(order, cov.p)
    return H1Result(order=order, nonp_part=unit, p_exponent=p_exponent)


def nonp_limit_cost(link: LinkSpec, p: int, K: int) -> float:
    """cost_estimate summed over every level of every sublink's window, one
    weighted walk per sublink (limits.window_cost)."""
    return sum(window_cost(link.alexander(s), p, K, "rprime") for s in link.subsets())


def h1_nonp_limit(link: LinkSpec, p: int, K: int) -> LimitEstimate:
    """p-adic limit of the non-p parts of |H_1| along the diagonal covers.

    The product over sublinks of the masked-resultant non-p limits; the
    certificates combine multiplicatively (weakest certified digit wins).
    Refused before any work when nonp_limit_cost exceeds cost_budget().
    """
    check_budget(nonp_limit_cost(link, p, K))
    return _nonp_limit(link, p, K)


def _nonp_limit(link: LinkSpec, p: int, K: int) -> LimitEstimate:
    """h1_nonp_limit without its budget check."""
    estimates = [_window(link.alexander(s), p, K, "rprime") for s in link.subsets()]
    if any(e.degenerate for e in estimates):
        # some cover is not a rational homology sphere: |H_1| = 0 by the
        # infinite-group convention, and its non-p part is 0 with it
        return LimitEstimate(
            value=PadicApprox.zero(p, K),
            nonp_value=PadicApprox.zero(p, K),
            certified_digits=None,
            nonp_certified_digits=K,
            levels_used=(K,) * link.d,
            stabilized=False,
            degenerate=True,
            window=(),
        )
    value = estimates[0].value
    nonp_value = estimates[0].nonp_value
    certified = estimates[0].certified_digits
    nonp_certified = estimates[0].nonp_certified_digits
    stabilized = all(e.stabilized for e in estimates)
    for e in estimates[1:]:
        value = value * e.value
        nonp_value = nonp_value * e.nonp_value
        if e.certified_digits is not None:
            certified = e.certified_digits if certified is None else min(certified, e.certified_digits)
        nonp_certified = min(nonp_certified, e.nonp_certified_digits)
    # homology orders take |.| per sublink factor; at p = 2 the factor signs
    # are the constant parity predictions, so flip them back in
    if p == 2:
        for subset in link.subsets():
            if _parity_sign(link.alexander(subset)) < 0:
                nonp_value = -nonp_value
                value = -value
    return LimitEstimate(
        value=value,
        nonp_value=nonp_value,
        certified_digits=certified,
        nonp_certified_digits=nonp_certified,
        levels_used=(K,) * link.d,
        stabilized=stabilized,
        degenerate=False,
        window=(),
    )


# ---------------------------------------------------------------------------
# the character-sum oracle (exact, in F_q)
# ---------------------------------------------------------------------------

_MAX_ORACLE_GROUP = 4096  # largest deck group |G| the character oracle takes


def character_oracle(link: LinkSpec, cov: CoveringSpec) -> H1Result:
    """|H_1| by the character sum, apart from the resultant engine.

    The characters of G = (+) Z/p^{n_i} with support S take every tuple of
    nontrivial p-power roots of unity at the levels of S, so their factors
    multiply to the product of Delta_S over those tuples, which
    modular_root_product computes exactly in F_q.  The |1 - xi(meridian)|
    prefactor is computed the same way, as the product of 1 - zeta over
    each component's nontrivial roots, and must equal p^{n_i}, so that it
    cancels against |G| = prod p^{n_i}.
    """
    if len(cov.levels) != link.d:
        raise ValueError("covering levels must list one entry per component")
    size = cov.group_order()
    if size > _MAX_ORACLE_GROUP:
        raise ValueError(f"|G| = {size} exceeds the oracle scale {_MAX_ORACLE_GROUP}")
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


def closed_form_cost(k: int, p: int, K: int, truncation_level: int) -> float:
    """Work of whitehead_closed_form, in cost_estimate's units, estimated
    before doing any: only the p = 2 product for odd k >= 3 costs.

    Level L runs its log series once, at P = K + 14 + ceil(t/phi) digits
    (level_log_norm), with t from estimated_log_valuation, and counts
    L squarings, 2 sqrt(r) series products for r = phi P / t terms and
    8 more, each of phi = 2^(L-1) coefficients of P bits: 5 units per
    coefficient (the per-slot work of the packed route's masks, folds and
    byte columns) plus W^1.585 / 150 for W = phi * (2P + 16) / 64 words.
    Fitted to whitehead_closed_form(k, 2, 4, L) for k = 3 and 31 on a
    2-core host, in two sets of timings: the estimate is 1.0-3.9 times the
    measured time at every L from 10 to 17 (0.005 s to 5.4 s), and the
    default budget admits L = 20 and refuses L = 21."""
    if p != 2 or k % 2 == 0 or k < 3:
        return 0.0
    total = 0.0
    try:
        for level in range(2, truncation_level + 1):
            phi = 2 ** (level - 1)
            t = estimated_log_valuation((k - 1) // 2, level)
            work = K + 14 - (-t // phi)
            words = phi * (2 * work + 16) / 64
            total += (level + 2 * math.sqrt(phi * work / t) + 8) * (words**1.585 / 150 + 5 * phi)
    except OverflowError:  # levels past the float range
        return math.inf
    return total


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
    into norm unit parts and truncated at `truncation_level` >= 2 (level 1
    is excluded from the product); the achieved precision is measured from
    the convergence of the level factors, worked at precision K + 14.  m = 0
    makes the argument a torsion unit and is reported degenerate.  Refused
    before any work when closed_form_cost exceeds cost_budget().
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
    work = K + 14
    units = []
    per_level = []
    for level in range(2, truncation_level + 1):
        _, nu_sum, unit = level_log_norm(m, level, work)
        units.append(unit)
        per_level.append((level, nu_sum, work))
    # measured tail estimate: distance of the last factors from 1
    tails = [work if u == 1 else vp(u - 1, 2) for u in units[-2:]]
    tail = tails[-1] if len(tails) < 2 else tails[-1] + max(0, tails[-1] - tails[-2])
    value = PadicApprox(2, work, 0, math.prod(units) * pow(k, -1, 2**work))
    achieved = min(K, tail)
    return WhiteheadLimit(
        value=value,
        achieved_digits=achieved,
        degenerate=False,
        note=f"product truncated at cyclotomic level {truncation_level}; "
        f"tail measured from the last factors",
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
    Refused before any work when nonp_limit_cost of the window exceeds
    cost_budget().

    The per-level nu sums are t - s*phi from level_log_valuation, the
    valuation of the cyclotomic-log norms under the Q_2-normalized
    valuation.  The left side is exact: v_2 of h1_order's
    product over sublinks, read from one diagonal walk per sublink
    (limits._diagonal, levels (1,...,1) to (n_max,...,n_max)) with
    h1_order's conventions: a vanishing factor gives exponent 0, and each
    factor's sign is checked against its parity prediction.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("need odd k = 2m+1 with m >= 1")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    m = (k - 1) // 2
    link = whitehead_link_spec(k)
    check_budget(nonp_limit_cost(link, 2, n_max))
    nu_sums = {}
    for level in range(2, n_max + 1):
        shift, t = level_log_valuation(m, level)
        nu_sums[level] = t - shift * phi_degree(2, level)
    diagonals = [(s, link.alexander(s), _diagonal(link.alexander(s), 2, n_max, "rprime")) for s in link.subsets()]
    rows = []
    ok = True
    for n in range(1, n_max + 1):
        _assert_prefactor_cancels(CoveringSpec(2, (n, n)))
        exact = 0
        for subset, delta, values in diagonals:
            if values[n - 1] == 0:
                exact = 0
                break
            _check_parity_sign(subset, delta, 2, values[n - 1])
            exact += vp(values[n - 1], 2)
        predicted = n * 2**n - 2 * n + 1 + sum(nu_sums[lv] for lv in range(2, n + 1))
        rows.append((n, exact, predicted))
        if exact != predicted:
            ok = False
    return TwoPartReport(k=k, rows=tuple(rows), ok=ok)
