"""Reference checks and fixtures that only the tests use.

No command or documented library call reaches this code, so the package
does not ship it: the paper's sign rule (sign_of) and order invariance
(order_invariance_check), the closed-form limit that conftest.py's
closed_form_check holds the norm windows to (closed_form_limit), Q_2's
normalization of the Whitehead log valuations (nu_zeta), random
polynomials, and the variable maps and monic division the tests build
inputs with.  Each reference computes its value without the route it
checks: closed_form_limit never calls limits._unit_limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence

from padicres.cyclo import level_log_valuation
from padicres.errors import VanishingResultantError
from padicres.limits import _masks
from padicres.multipoly import Exponent, MultiPoly
from padicres.padic import PadicApprox, teichmuller, vp
from padicres.resultants import CyclicResultantRequest, cyclic_resultant, phi_degree
from padicres.unipoly import UniPoly, _is_zero


def request(f: MultiPoly, p: int, levels, mask: str) -> CyclicResultantRequest:
    """The masked resultant of f at `levels`, mask 'r' or 'rprime'."""
    return CyclicResultantRequest.custom(f, p, levels, _masks(levels, mask))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def random_multipoly(rng, num_vars: int, max_terms: int, max_exp: int, max_coeff: int) -> MultiPoly:
    """Uniform-ish random sparse polynomial for randomized tests."""
    terms: Dict[Exponent, int] = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(num_vars))
        coeff = rng.randint(-max_coeff, max_coeff)
        if coeff:
            terms[exp] = terms.get(exp, 0) + coeff
    return MultiPoly(num_vars, terms)


def permute_vars(f: MultiPoly, perm: Sequence[int]) -> MultiPoly:
    """Apply t_i -> t_{perm[i-1]} (perm is a 1-based permutation of 1..d)."""
    if sorted(perm) != list(range(1, f.num_vars + 1)):
        raise ValueError("perm must be a permutation of 1..num_vars")
    out: Dict[Exponent, int] = {}
    for exp, coeff in f.term_dict().items():
        new = [0] * f.num_vars
        for i, e in enumerate(exp):
            new[perm[i] - 1] = e
        out[tuple(new)] = coeff
    return MultiPoly(f.num_vars, out)


def embed(f: MultiPoly, num_vars: int, positions: Sequence[int]) -> MultiPoly:
    """Re-home into a larger ring: variable i goes to slot positions[i-1] (1-based)."""
    if len(positions) != f.num_vars:
        raise ValueError("positions must list one slot per variable")
    out: Dict[Exponent, int] = {}
    for exp, coeff in f.term_dict().items():
        new = [0] * num_vars
        for i, e in enumerate(exp):
            new[positions[i] - 1] = e
        out[tuple(new)] = coeff
    return MultiPoly(num_vars, out)


def divmod_monic(f: UniPoly, other: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Division by a monic int-coefficient polynomial; exact over any ring."""
    if other.is_zero or other.lc() != 1:
        raise ValueError("divisor must be monic")
    n = other.degree()
    rem = list(f.coeffs)
    if len(rem) <= n:
        return UniPoly(), f
    quo = [rem[0] * 0] * (len(rem) - n)
    for i in range(len(rem) - 1, n - 1, -1):
        c = rem[i]
        if _is_zero(c):
            continue
        quo[i - n] = c
        for j, b in enumerate(other.coeffs[:-1]):
            rem[i - n + j] = rem[i - n + j] - c * b
        rem[i] = c * 0
    return UniPoly(quo), UniPoly(rem[:n])


# ---------------------------------------------------------------------------
# paper statements
# ---------------------------------------------------------------------------


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


def closed_form_limit(a: int, n: int, g: MultiPoly | int, p: int, K: int) -> PadicApprox:
    """Exact p-adic limit of the full-mask cyclic resultants of
    f = a*t1^n + g, where g does not involve t1.

    With f(1,...,1) a p-unit and g carrying at least one variable, this is
    the rule of every unit case in two or more variables (the limits module
    docstring), limit_estimate's too: omega_p(f(1,...,1)) for odd p and 1
    for p = 2; with p | f(1,...,1) the limit is exactly 0.  In the
    univariate case (g constant, f in t1 alone) there is no outer limit to
    project onto a root of unity, and the value is
    (omega_p(g) - omega_p(-a))^(p^(v_p(n))) instead.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(g, int):
        g = MultiPoly.const(0, g)
    g1 = g.evaluate((1,) * g.num_vars)
    f1 = a + g1
    if f1 % p == 0:
        return PadicApprox.zero(p, K)
    if g.num_vars:
        return teichmuller(f1, p, K)
    v = vp(n, p)
    if p == 2:
        base = (1 if g1 % 2 else 0) - (1 if a % 2 else 0)
        return PadicApprox.from_int(base ** (2**v), 2, K, exact=True)
    return (teichmuller(g1, p, K) + teichmuller(a, p, K)) ** (p**v)


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
    base = cyclic_resultant(request(f, p, levels, mask))
    for perm in itertools.permutations(range(1, d + 1)):
        f_perm = permute_vars(f, perm)
        lv = [0] * d
        for i in range(d):
            lv[perm[i] - 1] = levels[i]
        other = cyclic_resultant(request(f_perm, p, tuple(lv), mask))
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
            value = cyclic_resultant(request(f, p, tuple(current), mask))
            pending = [current[i] for i in range(d) if current[i] < levels[i]]
            modulus = p ** min(pending)
            if (value - base) % modulus != 0:
                return OrderInvarianceReport(
                    False,
                    f"staircase {order} at {tuple(current)}: "
                    f"{value} != {base} mod {modulus}",
                )
    return OrderInvarianceReport(True)


# ---------------------------------------------------------------------------
# the Whitehead log quantities
# ---------------------------------------------------------------------------


def nu_zeta(m: int, level: int) -> Fraction:
    """nu_zeta = v_2(log((m*zeta+m+1)/(m*zeta+m+zeta))), normalized to Q_2
    (v_pi / phi(2^level)); the same for every primitive root at the level.

    level 1 (zeta = -1) is excluded by the defining product, and m = 0 makes
    the argument the torsion unit zeta^(-1); both raise DegenerateValueError.
    """
    s, t = level_log_valuation(m, level)
    return Fraction(t, phi_degree(2, level)) - s
