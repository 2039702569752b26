"""p-adic limit estimation for iterated cyclic resultants.

Level k of the diagonal, R_k, the masked resultant at (k,...,k), is the
product of one cyclotomic factor per index tuple with every index <= k, so
R_(k+1) is R_k times the factors whose largest index is k + 1 (index 0
joins level 1).  _diagonal walks the tuples of the top level once,
computing each factor once, and hands back these per-level factors; its
budget is the top level's cost estimate (window_cost).

The sharp congruence.  The Galois group of Q(zeta_(p^J)) acts freely on
the root tuples whose largest index is J, so a level-J factor is a product
of norms N(x) from Q(zeta_(p^J)) to Q, x = f(rep), one per orbit.  For
x != 0 write x = pi^a u in Z_p[zeta], with pi = 1 - zeta and u a unit:
N(pi) = Phi_(p^J)(1) = p, and N(u) lies in the norm group of
Q_p(zeta_(p^J))/Q_p, which is p^Z x (1 + p^J Z_p) (local class field
theory; Neukirch, Algebraic Number Theory, ch. V).  So the non-p part of
N(x) is N(u) = 1 mod p^J, and nonp(R_(k+1)) = nonp(R_k) mod p^(k+1); in the
unit case (p does not divide f(1,...,1), so every x is a unit) also
R_(k+1) = R_k mod p^(k+1).  Unless a factor vanishes, the limit is then
R_(K-1) mod p^K, raw in the unit case and on non-p parts always: a diagonal
of L levels certifies K <= L + 1 digits (_certify), which checks every
congruence inside the window, so a failure raises InvariantError instead of
shrinking the count.  A factor that vanishes makes the sequence exactly 0
from its level on; a window of K - 1 levels learns whether one of level K
does from _level_vanishes, without a norm, and a one-variable f whether a
later one does from _vanishes_later.  _certify builds every estimate from
per-level factors: limit_estimate's and links.h1_nonp_limit's windows, of
window_levels(K) = max(1, K - 1) levels, and the unit-case closed forms
in d >= 2 variables (below).
limit_estimate still reports rows 1..K: row K's residue is the running
non-p part mod p^K, by the sharp congruence, and its v_p is 0 in the unit
case and a sum of orbit valuations (below) in the zero case, unless taking
level K's norms is estimated to cost less.

Unit-case limits in d >= 2 variables, with no d-variable norm.  Let
G(f)(x^p) = prod_(eps in mu_p^d) f(eps x), the Graeffe step, so that the
full-mask R_k = G^k(f)(1,...,1).  (i) G(f) = f^(p^(d-1)) mod p: every eps
is 1 mod pi = 1 - zeta_p, so G(f)(x^p) = f(x)^(p^d) = f(x^p)^(p^(d-1))
mod pi by Frobenius, and both sides lie in Z[x].  (ii) A = B mod p^j,
j >= 1, gives G(A) = G(B) mod p^(j+1): for A = B + p^j h the first-order
term of G(A)(x^p) - G(B)(x^p) is p^j sum_eps (h c)(eps x), c(x) =
prod_(eta != 1) B(eta x), and sum_eps m(eps x) is p^d times the monomials
of m whose exponents are all divisible by p, a polynomial over Z[zeta_p];
the other terms carry p^(2j); and p^(j+1) Z[zeta_p] meets Z in p^(j+1) Z.
(iii) G(f^m) = G(f)^m.  So G(f) = f^(p^(d-1)) + p h, and k steps of (ii)
with (iii) give R_(k+1) = G^k(f^(p^(d-1)))(1) = R_k^(p^(d-1)) mod p^(k+1).
With the sharp congruence, R_k = L mod p^(k+1), the limit L is a unit with
L^(p^(d-1) - 1) = 1 and L = R_1 = f(1,...,1) mod p: L = omega_p(f(1,...,1))
at odd p, and 1 at p = 2, where p^(d-1) - 1 is odd and the roots of unity
of Z_2 are +-1 (padic.teichmuller's value at p = 2).  As factors, level 1
carries L and every later level 1, so row k of the window is (k, 0, L mod
p^k).
The prime mask: a full-mask tuple is 1 on the coordinates outside some set
S and a prime-mask tuple on S, so R_k(f) = prod_S R'_k(f_S), f_S setting
t_i = 1 for i not in S, and Moebius inversion over the subsets gives
R'_k(f) = prod_S R_k(f_S)^((-1)^(d - |S|)), with R_k(f_{}) = f(1,...,1)
exactly.  Each f_S has f_S(1,...,1) = f(1,...,1), so the limits are L for
|S| >= 2, the one-variable windows of the d polynomials f_{i} for |S| = 1,
and f(1,...,1) for S = {}; row k is their product mod p^k (_unit_limit).

Exact valuations with no norm.  Q_p(zeta_(p^k)) is totally ramified, so
v_p(N(x)) = v_pi(x), and v_p of a level's factor is a sum of v_pi(f(rep))
over Galois orbits, read from the content and the order of t - 1 of small
exact coefficients (_orbit_valuations).  One orbit walk, _orbit_values,
serves it (and so limit_estimate's top row in the zero case) and
_level_vanishes' zero test.  The 2-part exponents of the homology orders
(links.two_part_exponent_check) are read from it.

The zero/nonzero dichotomy is read from level 1: every masked factor
f(zeta_1,...,zeta_d) has the same residue as f(1,...,1) in the residue
field, so p divides one masked resultant iff it divides all of them iff
p | f(1,...,1) (zero_limit_predicate).  In the zero case the raw limit is
exactly 0 and the p-valuations grow without plateau; the non-p parts still
satisfy the same congruences and are certified separately.

Iwasawa invariants come by two independent routes: an exact fit of
v_p = lambda*n + mu*p^n + nu on trailing levels, whose v_p are running sums
over one walk's per-level factors, and the structural count
(mu from the content; lambda, the roots a with |a|_p = 1, |a-1|_p < 1, as
the Weierstrass degree of f(1+s): Washington, GTM 83, Thm 7.3).  The fit
stays on norms: from orbit valuations, e_n - e_(n-1) would be
mu phi(p^n) + lambda, read from the same content and order at t = 1 as the
structural count, and the two routes would no longer be independent.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Tuple

from .cyclo import residue_valuation
from .errors import InvariantError, VanishingResultantError, WindowTooShortError
from .multipoly import MultiPoly
from .padic import PadicApprox, teichmuller, vp, vp_split
from .resultants import _factors, check_budget, masks_cost, phi_degree
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
    """The charge of _diagonal(f, p, K, mask), one walk of level K's index
    tuples: the cost_estimate of level (K,...,K) (masks_cost)."""
    return masks_cost(f, p, _window_masks(p, K, f.num_vars, mask))


def window_levels(K: int) -> int:
    """The diagonal levels a window walks for K >= 1 digits: by the sharp
    congruence, levels 1..K - 1 fix K digits, and level 1 fixes the first."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return max(1, K - 1)


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

    In d >= 2 variables with p not dividing f(1,...,1) (the unit case), the
    limit is a closed form (_unit_limit), and no d-variable norm is taken.
    Otherwise the diagonal factors of levels (k,...,k), k = 1..window_levels(K),
    are computed and certified (_certify), and the window reports rows 1..K.
    For K >= 2, row K stands on a level-K factor with non-p part 1, as the
    sharp congruence makes it mod p^K, and v_p 0 in the unit case, else
    the sum over level K's orbits (_orbit_valuations), unless the estimates
    (window_cost of K levels against window_cost of K - 1 levels plus
    orbit_cost) find level K's norms cheaper.  The route taken is refused
    before any work when its estimate exceeds cost_budget().

    In one variable a later level that vanishes makes the sequence exactly
    0 from there on (_vanishes_later), and the estimate degenerate, with
    the window rows as computed.  An f in no variable has no sequence and
    raises ValueError.
    """
    if f.num_vars < 1:
        raise ValueError("limit_estimate needs f in at least one variable")
    _window_masks(p, K, f.num_vars, mask)  # K, the mask and p checked first
    if f.num_vars >= 2 and not zero_limit_predicate(f, p):
        return _unit_limit(f, p, K, mask)
    levels = window_levels(K)
    cost = window_cost(f, p, levels, mask)
    orbits = levels < K and zero_limit_predicate(f, p)
    if orbits:
        exact, cost = window_cost(f, p, K, mask), cost + orbit_cost(f, p, K, mask, first=K)
        if exact <= cost:
            levels, cost, orbits = K, exact, False
    check_budget(cost)
    factors = _diagonal(f, p, levels, mask)
    if levels < K:
        # a stand-in level-K factor: non-p part 1, as the sharp congruence
        # makes the real one's mod p^K, and the real v_p (inf: it vanishes)
        v = _orbit_valuations(f, p, K, mask, first=K)[-1] if orbits and 0 not in factors else 0
        factors.append(0 if v == math.inf else p**v)
    later = 0 not in factors and _vanishes_later(f, p, K, mask)
    return _certify(factors, p, K, f.num_vars, later)


def _unit_limit(f: MultiPoly, p: int, K: int, mask: str) -> LimitEstimate:
    """limit_estimate of f in d >= 2 variables with p not dividing
    f(1,...,1), by the closed forms of the module docstring: in the full
    mask the Teichmuller lift of f(1,...,1) (1 at p = 2), in the prime mask
    the product over S of the limits of R(f_S) to the power
    (-1)^(d - |S|), whose d factors with |S| = 1 come from the certified
    one-variable windows of f at t_j = 1 for j != i (_axis).  _certify
    takes the limit as the level-1 factor of K levels whose later factors
    are 1, so every v_p is 0 and row k is the limit mod p^k.  The budget
    charges the windows and the rows (unit_rows_cost) before any work."""
    d, one = f.num_vars, f.evaluate((1,) * f.num_vars)
    axes = [_axis(f, i) for i in range(d)] if mask == "rprime" else []
    levels = window_levels(K)
    check_budget(unit_rows_cost(p, K, d) + sum(window_cost(g, p, levels, "r") for g in axes))
    limit = teichmuller(one, p, K).residue(K)
    if axes:
        modulus, sign = p**K, (-1) ** d
        # the |S| >= 2 terms sum to the power (-1)^d (d - 1); S = {} is f(1,...,1)
        limit = pow(limit, sign * (d - 1), modulus) * pow(one, sign, modulus)
        for g in axes:
            axis = _certify(_diagonal(g, p, levels, "r"), p, K, 1)
            limit = limit * pow(axis.value.residue(K), -sign, modulus) % modulus
    return _certify([limit] + [1] * (K - 1), p, K, d)


def _axis(f: MultiPoly, i: int) -> MultiPoly:
    """f with t_j = 1 for every j != i + 1, in the one variable t_(i+1)."""
    terms: dict = {}
    for e, c in f.terms():
        terms[(e[i],)] = terms.get((e[i],), 0) + c
    return MultiPoly(1, terms)


def unit_rows_cost(p: int, K: int, d: int) -> float:
    """Work of _unit_limit's closed forms and rows, in cost_estimate's
    units, in O(1) arithmetic before any work.  With W(k) = k log2(p) / 64
    + 1 the words of p^k: at odd p the Teichmuller power, (K - 1) log2 p
    squarings and reductions mod p^K, W(K)^2 / 16 units each (the
    reduction is a schoolbook division); d + 2 modular powers and inverses
    mod p^K, W(K)^2 units each; and each row k reduced and printed in
    10 + W(k)^2 / 8 units (int to str is quadratic too).  Fitted on a
    2-core host to 1 to 3 times the measured `climit --format json` at
    p = 3 and 7, K = 1000 to 6000; the rows of the full mask at p = 2,
    where the limit is 1, are charged as if they were full-sized."""
    c = math.log2(p) / 64
    try:
        words = K * c + 1
        # sum of W(k)^2 over k = 1..K
        rows = c * c * K * (K + 1) * (2 * K + 1) / 6 + c * K * (K + 1) + K
        power = (K - 1) * math.log2(p) * words**2 / 16 if p != 2 else 0.0
        return power + (d + 2) * words**2 + 10 * K + rows / 8
    except OverflowError:  # digits past the float range
        return math.inf


def _vanishes_later(f: MultiPoly, p: int, K: int, mask: str) -> bool:
    """Whether a one-variable f, vanishing at no level up to K, vanishes
    at a later level: a factor of level j vanishes only when
    Phi_(p^j) | f, so phi(p^j) <= deg f, and _level_vanishes tests each
    such level j > K in turn.  False in more variables, where no such
    bound on the level is known."""
    if f.num_vars != 1:
        return False
    degree, j = f.degree_in(1), K + 1
    while phi_degree(p, j) <= degree:
        if _level_vanishes(f, p, j, mask):
            return True
        j += 1
    return False


def _certify(factors: list, p: int, K: int, d: int, vanishes_later: bool = False) -> LimitEstimate:
    """The limit mod p^K, 1 <= K <= L + 1, of a diagonal in d variables
    given by its L per-level factors, factors[k-1] = R_k / R_(k-1) (R_0 =
    1), and of its non-p parts; the one place a LimitEstimate is built.
    By the sharp congruence of the module docstring the limit is R_L mod
    p^K, raw in the unit case and on non-p parts always; the congruence is
    checked at every level k = 2..L, as the level-k factor's non-p part
    being 1 mod p^k (in the unit case the factor is its own non-p part, so
    that is the raw check too).  A failure contradicts a theorem, so it
    raises InvariantError, and no digit count follows from it.  The raw
    limit is exactly 0 when p divides R_1 (then p divides every level's
    value).  A factor 0, or vanishes_later (a later level's factor is 0),
    is the distinguished degenerate outcome: the tail is exactly 0, and so
    is its non-p part; the window keeps the rows as computed.  No R_k is
    formed: v_p is a running sum over the factors and the non-p part a
    running product mod p^max(K, L)."""
    levels = len(factors)
    if not 1 <= K <= levels + 1:
        raise ValueError(f"{levels} diagonal levels certify 1 to {levels + 1} digits, not {K}")
    modulus = p ** max(K, levels)
    window = []
    v, unit, last = 0, 1, 0
    for k, factor in enumerate(factors, 1):
        if not factor or not unit:
            # the value vanishes from this level on, and nonp(0) = 0
            unit = 0
            window.append((k, -1, 0))
            continue
        last, u = vp_split(factor, p)
        if k > 1 and (u - 1) % p**k:
            raise InvariantError(
                f"the non-p part of the level-{k} factor is not 1 mod {p}^{k}: "
                "the sharp congruence fails"
            )
        v += last
        unit = unit * u % modulus
        window.append((k, v, unit % p**k))
    degenerate = not unit or vanishes_later
    raw_zero = degenerate or factors[0] % p == 0
    nonp = PadicApprox.zero(p, K) if degenerate else PadicApprox.from_int(unit, p, K)
    # in the unit case every v_p is 0 and R_L is its own non-p part
    return LimitEstimate(
        value=PadicApprox.zero(p, K) if raw_zero else nonp,
        nonp_value=nonp,
        certified_digits=None if raw_zero else K,
        nonp_certified_digits=K,
        levels_used=(levels,) * d,
        stabilized=not degenerate and (last == 0 if levels >= 2 else not raw_zero),
        degenerate=degenerate,
        window=tuple(window),
    )


def _diagonal(f: MultiPoly, p: int, K: int, mask: str) -> list:
    """The per-level factors of the masked resultants at levels (1,...,1)
    to (K,...,K), K >= 1: entry k - 1 collects the factors whose largest
    index is k (index 0 joins level 1), so level k's value is the product
    of entries 0..k-1.  After a factor 0 the walk stops (_factors): the
    later entries hold what the walk had multiplied in before it, and every
    reader stops at the 0.  Every diagonal value is walked here: a limit
    window's, each sublink's of a homology order (links._h1_diagonal) and
    the Iwasawa fit's."""
    acc = [1] * (K + 1)
    for index, factor in _factors(f, p, _window_masks(p, K, f.num_vars, mask)):
        acc[max((1, *index))] *= factor
    return acc[1:]


def _level_vanishes(f: MultiPoly, p: int, k: int, mask: str) -> bool:
    """Whether f vanishes at a tuple of p-power roots of unity that the
    mask admits and whose largest index is k >= 2, given that it vanishes
    at none whose largest index is below k: whether R_k = 0 while
    R_(k-1) != 0, with no norm taken.  Every value f(zeta_1, ..., zeta_d)
    is f(1,...,1) mod pi, so none vanishes unless p | f(1,...,1); then
    _orbit_values enumerates the Galois orbits, pruned by its degree count,
    and one is 0 iff its reduced value has no nonzero coefficient."""
    if k < 2:
        raise ValueError(f"the vanishing test needs a level k >= 2, got {k}")
    if f.evaluate((1,) * f.num_vars) % p:
        return False
    return any(not any(value.values()) for _, value in _orbit_values(f, p, (k,), mask, True))


def _orbit_values(f: MultiPoly, p: int, levels, mask: str, prune: bool = False):
    """(k, value) for f at one representative of each Galois orbit of the
    tuples of p-power roots of unity that the mask admits and whose largest
    index is k, for each k >= 1 in levels.  value is {e: coefficient of
    zeta^e} reduced mod Phi_(p^k), every e < phi(p^k) (zero coefficients
    may remain).

    A representative is (z^c_1, ..., z^c_d), z = exp(2 pi i / p^k), whose
    first coordinate a of index k has c_a = 1 and each other c_i is a unit
    times p^(k - j_i), j_i its index.  Its value sums the coefficients of f
    by monomial z^e, e mod p^k; since Phi_(p^k)(x) = Phi_p(x^q),
    q = p^(k-1), z^e for e >= (p-1) q is minus the sum of z^(e - i q),
    i = 1..p-1.  There are at most d p^((d-1)k) representatives
    (_orbit_count), each O(terms of f * p).

    With prune, a degree count skips the orbits where no value can vanish
    first (_level_vanishes' premise): let m be the largest index of the
    other coordinates; z has degree p^(k-m) over Q(zeta_(p^m)) (phi(p^k)
    when m = 0), so it is a root of f(..., t_a, ...) over that field only
    if deg_(t_a) f reaches that degree, or if that polynomial is 0, when f
    also vanishes with t_a at index max(m, 1) < k."""
    d = f.num_vars
    low = mask == "rprime"
    for k in levels:
        n, q = p**k, p ** (k - 1)
        top = n - q
        for a in range(d):
            # each term as (its t_a exponent, the others', its coefficient)
            rows = [(e[a], e[:a] + e[a + 1 :], coeff) for e, coeff in f.term_dict().items()]
            degree = f.degree_in(a + 1)
            ranges = [range(low, k if i < a else k + 1) for i in range(d) if i != a]
            for indices in itertools.product(*ranges):
                m = max(indices, default=0)
                if prune and degree < (p ** (k - m) if m else top):
                    continue
                # lists, not tuples built from generators: those are resized
                # as they fill, and CPython's tuple free lists keep some of
                # every size left over
                units = [[p ** (k - j) * u for u in range(1, p**j) if u % p] or [0] for j in indices]
                for c in itertools.product(*units):
                    value = {}
                    for base, rest, coeff in rows:
                        e = (base + sum(map(operator.mul, rest, c))) % n
                        if e < top:
                            value[e] = value.get(e, 0) + coeff
                        else:
                            for r in range(e - top, top, q):
                                value[r] = value.get(r, 0) - coeff
                    yield k, value


def _orbit_valuations(f: MultiPoly, p: int, K: int, mask: str, first: int = 1) -> list:
    """v_p of the per-level factors of _diagonal(f, p, K, mask), with no
    norm, at levels first..K (the entries below first are 0):
    Q_p(zeta_(p^k)) is totally ramified, so v_p(N(x)) = v_pi(x), and a
    level-k factor's v_p is the sum of v_pi(f(rep)) over the
    representatives of _orbit_values (residue_valuation), plus
    v_p(f(1,...,1)) at level 1 for the tuple of indices 0 in the full mask.
    A factor 0 gives v_p = inf at its level
    and ends the walk, and the later entries are 0.  Every conjugate of
    f(rep) is f(1,...,1) mod pi, so v_pi(f(rep)) = 0 iff p does not divide
    f(1,...,1); each representative is checked against that, and a failure
    raises InvariantError."""
    one = f.evaluate((1,) * f.num_vars)
    out = [0] * K
    if mask == "r" and first == 1:
        if not one:
            return [math.inf] + out[1:]
        out[0] = vp(one, p)
    for k, value in _orbit_values(f, p, range(first, K + 1), mask):
        if not any(value.values()):
            out[k - 1] = math.inf
            return out
        v = residue_valuation(value, p, phi_degree(p, k))
        if (v == 0) != (one % p != 0):
            raise InvariantError(f"v_pi = {v} at level {k}, but f(1,...,1) = {one}")
        out[k - 1] += v
    return out


def orbit_cost(f: MultiPoly, p: int, K: int, mask: str, first: int = 1) -> float:
    """Work of _orbit_valuations(f, p, K, mask, first), in cost_estimate's
    units, estimated before doing any in O(K d) arithmetic: the
    representatives of levels first..K (_orbit_count) times the terms of
    f, 20 units each.
    Fitted on a 2-core host: 14 units measured for Whitehead polynomials
    at p = 2 (K = 8 to 14), 14 to 18 for unit-case f at p = 2 to 7, and 31
    to 41 for zero-case f at p = 3, where the order at t = 1 of a value
    takes more steps."""
    try:
        count = sum(_orbit_count(p, float(k), f.num_vars, mask) for k in range(first, K + 1))
    except OverflowError:  # levels past the float range
        return math.inf
    return 20 * count * len(f.term_dict())


def _orbit_count(p: int, k: int, d: int, mask: str) -> int:
    """The Galois orbits of level k in d variables: with a the first
    coordinate of index k, sum_(a<d) N(k-1)^a N(k)^(d-1-a), N(j) the roots
    of unity of order dividing p^j that the mask admits (p^j in the full
    mask, p^j - 1 without 1)."""
    below, upto = p ** (k - 1) - (mask == "rprime"), p**k - (mask == "rprime")
    return sum(below**a * upto ** (d - 1 - a) for a in range(d))


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
    Each e_n is a running sum of v_p over the per-level factors of one
    diagonal walk (_diagonal, levels 1 to n_max), so no level's value is
    formed.  Refused before any work when its window_cost exceeds
    cost_budget().
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if n_max < 3:
        raise WindowTooShortError("need n_max >= 3 for a three-level window")
    g = MultiPoly(1, {(i,): c for i, c in enumerate(f.coeffs) if c})
    check_budget(window_cost(g, p, n_max, "r"))
    factors = _diagonal(g, p, n_max, "r")
    if 0 in factors:
        n = factors.index(0) + 1
        raise VanishingResultantError(
            f"Phi_{p}^j divides f for some j <= {n}: cyclic resultants vanish from level {n} on"
        )
    e_values = list(itertools.accumulate(vp(x, p) for x in factors))
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
