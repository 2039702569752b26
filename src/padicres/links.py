"""First-homology orders of branched p-power coverings of links.

For a d-component link in an integral homology 3-sphere, given the
multivariable Alexander polynomials of all sublinks, the classical
branched-covering formula expresses |H_1| of the abelian cover as a product
of Alexander evaluations over the characters of the deck group, divided by
|1 - xi(meridian)| over the single-component characters.  For the diagonal
covers (deck group (+) Z/p^{n_i}) the characters with support S contribute
exactly the j>=1-masked iterated resultant of Delta_S at levels (n_i)_{i in
S}, and the prefactor cancels against |G|; the cancellation is asserted,
not assumed.  Two independent routes are provided: the exact product of
masked resultants (h1_order) and a literal complex-float character sum
(character_oracle).

The twisted Whitehead family is built in, with the closed-form limits of
the non-p parts: m|m|_p / omega_p(m|m|_p) for k = 2m, omega_p(2)/2 for
k = 2m+1 at odd p, and for p = 2 the truncated product of cyclotomic-log
norms whose achieved precision is measured, never assumed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from .cyclo import level_log_norm, phi_degree
from .errors import (
    DegenerateValueError,
    OracleMismatchError,
    PolyParseError,
    PrecisionExhaustedError,
)
from .limits import LimitEstimate, limit_estimate
from .multipoly import MultiPoly
from .padic import PadicApprox, nonp_part, teichmuller, vp
from .parsing import parse_poly
from .resultants import CyclicResultantRequest, cyclic_resultant
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
    names = tuple(data.get("names", [f"l{i}" for i in range(1, d + 1)]))
    return LinkSpec(
        d=d,
        names=names,
        sublinks=sublinks,
        ambient=data.get("ambient", "S3"),
        name=data.get("name", ""),
    )


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
        predicted = _parity_sign(delta) if cov.p == 2 else 1
        if predicted and (value > 0) != (predicted > 0):
            raise OracleMismatchError(
                f"sign of masked resultant for sublink {subset} contradicts the parity prediction"
            )
        order *= abs(value)
    return H1Result(
        order=order,
        nonp_part=nonp_part(order, cov.p),
        p_exponent=vp(order, cov.p),
    )


def h1_nonp_limit(link: LinkSpec, p: int, K: int) -> LimitEstimate:
    """p-adic limit of the non-p parts of |H_1| along the diagonal covers.

    The product over sublinks of the masked-resultant non-p limits; the
    certificates combine multiplicatively (weakest certified digit wins).
    """
    estimates = [limit_estimate(link.alexander(s), p, K, mask="rprime") for s in link.subsets()]
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
# the literal character-sum oracle (complex floats)
# ---------------------------------------------------------------------------


def character_oracle(link: LinkSpec, cov: CoveringSpec, max_group: int = 4096) -> H1Result:
    """Brute-force |H_1| via the full character sum at high float precision.

    Iterates every character of G = (+) Z/p^{n_i}, evaluates the Alexander
    polynomial of the character's support sublink at the corresponding roots
    of unity, divides by the |1 - xi| prefactor, and rounds; the rounding
    error must be < 0.25, with doubled precision on ambiguity.
    """
    import mpmath

    if len(cov.levels) != link.d:
        raise ValueError("covering levels must list one entry per component")
    size = cov.group_order()
    if size > max_group:
        raise ValueError(f"|G| = {size} exceeds the oracle scale {max_group}")
    height = max([1] + [sum(abs(c) for _, c in link.alexander(s).terms()) for s in link.subsets()])
    bits = int(size * max(1.0, mpmath.log(height, 2)) + 96)
    for _ in range(3):
        with mpmath.workprec(bits):
            orders = [cov.p**n for n in cov.levels]
            total = mpmath.mpf(1)
            denominator = mpmath.mpf(1)
            for char in itertools.product(*[range(o) for o in orders]):
                support = tuple(i + 1 for i, a in enumerate(char) if a)
                if not support:
                    continue  # trivial character: empty sublink, Delta = 1
                values = [
                    mpmath.e ** (2j * mpmath.pi * char[i - 1] / orders[i - 1])
                    for i in support
                ]
                if len(support) == 1:
                    denominator *= abs(1 - values[0])
                delta = link.alexander(support)
                acc = mpmath.mpc(0)
                for exp, coeff in delta.terms():
                    term = mpmath.mpc(coeff)
                    for z, e in zip(values, exp):
                        if e:
                            term *= z**e
                    acc += term
                total *= abs(acc)
            value = mpmath.mpf(size) / denominator * total
            guess = mpmath.nint(value)
            if abs(value - guess) < 0.25:
                order = int(guess)
                return H1Result(
                    order=order,
                    nonp_part=nonp_part(order, cov.p),
                    p_exponent=vp(order, cov.p) if order else 0,
                )
        bits *= 2
    raise OracleMismatchError("character sum would not settle on an integer")


# ---------------------------------------------------------------------------
# twisted Whitehead closed forms
# ---------------------------------------------------------------------------


def _level_log_norm_adaptive(m: int, level: int, extra: int):
    """level_log_norm with a level-calibrated working precision, doubling on
    exhaustion (valuations inside the squaring device grow with the level)."""
    prec = (level + 3) * 2 ** (level - 1) + 16 + extra
    for _ in range(4):
        try:
            return level_log_norm(m, level, prec)
        except PrecisionExhaustedError:
            prec *= 2
    raise PrecisionExhaustedError(
        f"cyclotomic level {level} would not stabilize below precision {prec}"
    )


@dataclass(frozen=True)
class WhiteheadLimit:
    value: PadicApprox | None
    achieved_digits: int
    degenerate: bool
    note: str = ""
    per_level: Tuple[Tuple[int, int, int], ...] = ()  # (level, sum of nu over the level, factor precision)


def whitehead_closed_form(
    k: int, p: int, K: int, truncation_level: int = 5, work_prec: int | None = None
) -> WhiteheadLimit:
    """Closed-form p-adic limit of the non-p parts of |H_1| for the k-twisted
    Whitehead link.

    k = 2m: m|m|_p / omega_p(m|m|_p), exact Teichmuller arithmetic.
    k = 2m+1, odd p: omega_p(2) / 2.
    k = 2m+1, p = 2: the infinite product over 2-power roots of unity of
    2^(-nu) log((m*zeta+m+1)/(m*zeta+m+zeta)), grouped per cyclotomic level
    into norm unit parts and truncated at `truncation_level`; the achieved
    precision is measured from the convergence of the level factors.  m = 0
    makes the argument a torsion unit and is reported degenerate.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k % 2 == 0:
        m = k // 2
        t = nonp_part(m, p)
        value = PadicApprox.from_int(t, p, K, exact=True) * teichmuller(t, p, K).inverse()
        return WhiteheadLimit(value=value, achieved_digits=K, degenerate=False)
    m = (k - 1) // 2
    if p != 2:
        value = teichmuller(2, p, K) * PadicApprox.from_int(2, p, K, exact=True).inverse()
        return WhiteheadLimit(value=value, achieved_digits=K, degenerate=False)
    if m == 0:
        return WhiteheadLimit(
            value=None,
            achieved_digits=0,
            degenerate=True,
            note="k = 1: the log argument is the torsion unit zeta^(-1); "
            "the product degenerates (and the covers stop being rational homology spheres)",
        )
    work = work_prec if work_prec is not None else K + 14
    factors = []
    per_level = []
    for level in range(2, truncation_level + 1):
        norm, shift, prec = _level_log_norm_adaptive(m, level, work)
        deg = phi_degree(2, level)
        v = vp(norm, 2)
        nu_sum = v - shift * deg
        unit = nonp_part(norm, 2)
        factor_prec = prec - v
        if factor_prec < 1:
            raise DegenerateValueError(
                f"working precision too small at level {level}; raise work_prec"
            )
        factors.append(PadicApprox.from_int(unit, 2, factor_prec))
        per_level.append((level, nu_sum, factor_prec))
    # measured tail estimate: distance of the last factors from 1
    tails = []
    for f in factors[-2:]:
        delta = (f.residue(f.prec) - 1) % 2**f.prec
        tails.append(f.prec if delta == 0 else vp(delta, 2))
    tail = tails[-1] if len(tails) < 2 else tails[-1] + max(0, tails[-1] - tails[-2])
    value = PadicApprox.from_int(1, 2, work, exact=True)
    for f in factors:
        value = value * f
    value = value * PadicApprox.from_int(k, 2, work, exact=True).inverse()
    achieved = min([K, tail] + [f.prec for f in factors])
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


def two_part_exponent_check(k: int, n_max: int, work_prec: int = 24) -> TwoPartReport:
    """Verify v_2(|H_1(S^3_{n,n})|) = n*2^n - 2n + 1 + sum of nu over the
    2-power roots zeta != +-1 of order <= 2^n, for n = 1..n_max.

    The per-level nu sums come from the cyclotomic-log norms under the
    Q_2-normalized valuation; the left side is the exact masked resultant.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("need odd k = 2m+1 with m >= 1")
    if n_max > 4:
        raise ValueError("n_max is capped at 4 (degree growth)")
    m = (k - 1) // 2
    link = whitehead_link_spec(k)
    nu_sums = {}
    for level in range(2, n_max + 1):
        norm, shift, _ = _level_log_norm_adaptive(m, level, work_prec)
        nu_sums[level] = vp(norm, 2) - shift * phi_degree(2, level)
    rows = []
    ok = True
    for n in range(1, n_max + 1):
        result = h1_order(link, CoveringSpec(2, (n, n)))
        exact = result.p_exponent
        predicted = n * 2**n - 2 * n + 1 + sum(nu_sums[lv] for lv in range(2, n + 1))
        rows.append((n, exact, predicted))
        if exact != predicted:
            ok = False
    return TwoPartReport(k=k, rows=tuple(rows), ok=ok)
