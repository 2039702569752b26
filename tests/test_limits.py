import ast
import dataclasses
import itertools
import math
import operator
import random
from pathlib import Path

import pytest

from padicres.errors import InvariantError, VanishingResultantError, WindowTooShortError
from padicres import resultants
from padicres.limits import (
    LimitEstimate,
    _certify,
    _diagonal,
    _level_vanishes,
    _orbit_count,
    _orbit_valuations,
    _orbit_values,
    _vanishes_later,
    iwasawa_fit,
    lambda_mu_structural,
    limit_estimate,
    orbit_cost,
    window_cost,
    window_levels,
    zero_limit_predicate,
)
from padicres.multipoly import MultiPoly
from padicres.oracles import modular_root_product
from padicres.padic import PadicApprox, nonp_part, teichmuller, vp
from padicres.parsing import parse_poly
from padicres.resultants import CyclicResultantRequest, cost_estimate, cyclic_resultant
from padicres.unipoly import UniPoly
from reference import order_invariance_check, random_multipoly, request as _request, sign_of


def window_requests(f, p, K, mask):
    """The requests of the diagonal window, levels (1,...,1) to (K,...,K)."""
    return [_request(f, p, (k,) * f.num_vars, mask) for k in range(1, K + 1)]


def whitehead(k):
    if k % 2:
        m = (k - 1) // 2
        return MultiPoly(2, {(0, 0): 1 + m, (1, 0): -m, (0, 1): -m, (1, 1): 1 + m})
    m = k // 2
    return MultiPoly(2, {(0, 0): m, (1, 1): m, (1, 0): -m, (0, 1): -m})


def test_zero_limit_predicate_examples():
    assert zero_limit_predicate(parse_poly("t1 + t2 - 2", 2), 5)
    for m in range(0, 3):
        odd = whitehead(2 * m + 1)
        assert odd.evaluate((1, 1)) == 2
        assert not zero_limit_predicate(odd, 3)
        assert zero_limit_predicate(odd, 2)


def test_limit_estimate_two_var_constant_family():
    # f = 2 - t1 in Z[t1, t2]: limit is the Teichmuller value of f(1,1) = 1
    est = limit_estimate(parse_poly("2 - t1", 2), 7, 2)
    assert est.value.residue(2) == 1
    assert est.certified_digits == 2 and est.stabilized and not est.degenerate


def test_limit_estimate_univariate_family_differs():
    # same expression read in one variable: limit is omega_7(2) - 1
    est = limit_estimate(parse_poly("2 - t1", 1), 7, 2)
    target = teichmuller(2, 7, 2) - PadicApprox.from_int(1, 7, 2, exact=True)
    assert est.value.eq_mod(target, 2)
    assert est.value.residue(2) == 29


def test_limit_estimate_rprime_example():
    est = limit_estimate(parse_poly("1 + t1*t2", 2), 3, 2, mask="rprime")
    assert est.value.residue(2) == 4  # omega_3(2)/2 = 8 * 5 = 4 mod 9
    target = teichmuller(2, 3, 2) * PadicApprox.from_int(2, 3, 2, exact=True).inverse()
    assert est.value.eq_mod(target, 2)


def test_limit_estimate_forced_zero():
    est = limit_estimate(parse_poly("t1 + t2 - 2", 2), 5, 2)
    assert est.value.is_exact_zero and est.certified_digits is None
    assert est.nonp_value is not None  # non-p parts still converge


def test_limit_estimate_degenerate_vanishing():
    # 1 + t1t2 at p = 2 vanishes at levels >= (2,2): distinguished outcome
    est = limit_estimate(parse_poly("1 + t1*t2", 2), 2, 3, mask="rprime")
    assert est.degenerate
    assert est.value.is_exact_zero and est.nonp_value.is_exact_zero


def test_certified_digit_soundness_random():
    rng = random.Random(200)
    done = 0
    while done < 200:
        d = rng.choice([1, 2])
        f = random_multipoly(rng, d, 4, 3, 9)
        if f.is_zero:
            continue
        p = rng.choice([2, 3])
        K = 2
        big = cyclic_resultant(CyclicResultantRequest.full(f, p, (K + 1,) * d))
        small = cyclic_resultant(CyclicResultantRequest.full(f, p, (K,) * d))
        if small == 0:
            assert big == 0
        else:
            assert (big - small) % p**K == 0
        done += 1


def test_unit_equivalence_exhaustive_univariate():
    # p | value at one level <=> at all levels <=> p | f(1), over a small box
    for p in (2, 3):
        for c0, c1, c2 in itertools.product(range(-2, 3), repeat=3):
            f = MultiPoly(1, {(0,): c0, (1,): c1, (2,): c2})
            if f.is_zero:
                continue
            divisible = [
                cyclic_resultant(CyclicResultantRequest.full(f, p, (n,))) % p == 0
                for n in (1, 2, 3)
            ]
            assert all(divisible) == any(divisible) == (f.evaluate((1,)) % p == 0)


def test_nonp_plateau_spot_check():
    # f = t - 2: non-p parts are the values themselves; v_p plateaus at 0
    f = parse_poly("t1 - 2", 1)
    for p in (3, 5):
        est = limit_estimate(f, p, 3)
        assert est.stabilized
        assert all(v == 0 for _, v, _ in est.window)
        assert est.nonp_certified_digits == 3


def test_sign_predictions_match_exact_values():
    rng = random.Random(201)
    done = 0
    while done < 40:
        d = rng.choice([1, 2])
        f = random_multipoly(rng, d, 4, 2, 9)
        if f.is_zero:
            continue
        p = rng.choice([2, 3, 5])
        levels = tuple(rng.randint(1, 2) for _ in range(d))
        for mask in ("r", "rprime"):
            value = cyclic_resultant(
                CyclicResultantRequest.full(f, p, levels)
                if mask == "r"
                else CyclicResultantRequest.rprime(f, p, levels)
            )
            if value == 0:
                continue
            try:
                predicted = sign_of(f, p, levels, mask)
            except VanishingResultantError:
                continue
            assert predicted == (1 if value > 0 else -1), (f.serialize(), p, levels, mask)
        done += 1


def test_sign_examples():
    for k in (1, 2, 3, 4, 5):
        assert sign_of(whitehead(k), 2, (2, 2), "rprime") == 1
    f = parse_poly("t1 - 3", 1)
    assert sign_of(f, 5, (1,), "r") == -1
    assert cyclic_resultant(CyclicResultantRequest.full(f, 5, (1,))) == -(3**5 - 1)
    assert sign_of(parse_poly("2 - t1", 1), 3, (1,), "r") == 1


def test_iwasawa_fit_examples():
    inv = iwasawa_fit(UniPoly((-6, 1)), 5, 5)  # t - (1+p), p = 5
    assert (inv.lam, inv.mu, inv.nu) == (1, 0, 1)
    assert inv.e_values == (2, 3, 4, 5, 6)
    inv = iwasawa_fit(UniPoly((-6, 3)), 3, 5)  # 3*(t-2), p = 3
    assert (inv.lam, inv.mu, inv.nu) == (0, 1, 0)
    inv = iwasawa_fit(UniPoly((-2, 1)), 7, 4)  # t - 2, p = 7
    assert (inv.lam, inv.mu, inv.nu) == (0, 0, 0)
    assert inv.verified_window[1] - inv.verified_window[0] >= 2


def test_iwasawa_fit_guards():
    with pytest.raises(VanishingResultantError):
        iwasawa_fit(UniPoly((-1, 1)), 3, 5)  # t - 1 vanishes at every level
    with pytest.raises(WindowTooShortError):
        iwasawa_fit(UniPoly((-2, 1)), 3, 2)


def test_lambda_mu_structural_examples():
    assert lambda_mu_structural(UniPoly((-6, 1)), 5) == (1, 0)
    assert lambda_mu_structural(UniPoly((-2, 1)), 3) == (0, 0)
    f = UniPoly((-6, 1)) * UniPoly((-26, 1))  # (t-(1+p))(t-(1+p^2)), p=5
    assert lambda_mu_structural(f, 5) == (2, 0)
    fit = iwasawa_fit(f, 5, 5)
    assert (fit.lam, fit.mu) == (2, 0)
    with pytest.raises(VanishingResultantError):
        lambda_mu_structural(UniPoly((-1, 1)), 3)


def test_fit_and_structural_agree_random():
    rng = random.Random(202)
    done = 0
    while done < 40:
        deg = rng.randint(1, 5)
        f = UniPoly(
            [rng.randint(-15, 15) for _ in range(deg)]
            + [rng.choice([1, -1]) * rng.randint(1, 15)]
        )
        if f.is_zero or f.evaluate(1) == 0:
            continue
        p = rng.choice([2, 3, 5])
        try:
            fit = iwasawa_fit(f, p, 5)
        except (VanishingResultantError, WindowTooShortError):
            continue
        assert (fit.lam, fit.mu) == lambda_mu_structural(f, p)
        done += 1


def test_lambda_mu_structural_by_construction():
    # f(t) = p^mu * h(t - 1) with h(s) = s^lam * (1 + p*a(s)) + p*b(s),
    # deg b < lam and b(0) != 0: h is distinguished of degree lam up to a
    # unit, and f(1) = p^mu * h(0) != 0 (p^(mu+1) * b(0), or at lam = 0
    # p^mu * (1 + p*a(0)))
    rng = random.Random(19)
    t_minus_one = UniPoly((-1, 1))
    for p in (2, 3, 5, 7):
        for lam in range(7):
            for mu in range(3):
                for _ in range(4):
                    a = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 3))])
                    b = [rng.randint(-9, 9) for _ in range(lam)]
                    if lam:
                        b[0] = rng.choice((1, -1)) * rng.randint(1, 9)
                    h = UniPoly((0,) * lam + (1,)) * (UniPoly((1,)) + a * UniPoly((p,)))
                    h = h + UniPoly([p * c for c in b])
                    f = UniPoly()
                    for c in reversed(h.coeffs):
                        f = f * t_minus_one + UniPoly((p**mu * c,))
                    assert lambda_mu_structural(f, p) == (lam, mu), (p, lam, mu, f)


def test_closed_form_limit_odd_p_multivariate(closed_form_check):
    value = closed_form_check(-1, 1, MultiPoly.const(1, 2), 7, 2, levels=2)
    assert value.residue(2) == 1  # omega_7(f(1,1)) = omega_7(1)


def test_closed_form_limit_zero_case(closed_form_check):
    value = closed_form_check(1, 2, MultiPoly.const(1, -1), 3, 3, levels=2)
    assert value.is_exact_zero


def test_closed_form_limit_p2_univariate(closed_form_check):
    value = closed_form_check(1, 1, 4, 2, 3, levels=3)
    assert value.residue(3) == 7  # the sign lift -1


def test_closed_form_limit_p2_multivariate_is_one(closed_form_check):
    g = MultiPoly(1, {(1,): 4})  # 4*t2 after embedding
    value = closed_form_check(1, 1, g, 2, 3, levels=3)
    assert value.residue(3) == 1


def test_closed_form_limit_random_verify(closed_form_check):
    rng = random.Random(203)
    done = 0
    while done < 12:
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        n = rng.randint(1, 4)
        gd = rng.choice([0, 1])
        g = random_multipoly(rng, gd, 3, 2, 5) if gd else MultiPoly.const(0, rng.randint(-5, 5))
        p = rng.choice([2, 3, 5])
        closed_form_check(a, n, g, p, 3, levels=3 if p < 5 else 2)
        done += 1


def test_window_walk_against_the_per_level_resultants():
    # one walk over the top level's tuples gives every level's value
    rng = random.Random(4412)
    # window depth per (p, d)
    depth = {
        (2, 1): 5, (2, 2): 4, (2, 3): 3,
        (3, 1): 4, (3, 2): 3, (3, 3): 2,
        (5, 1): 3, (5, 2): 2, (5, 3): 1,
        (7, 1): 2, (7, 2): 2, (7, 3): 1,
    }
    # vanishing factors: t1 = -1, zeta_1 zeta_2 = -1 and t1 = 1 from level
    # 1 on, Phi_4(t1) and Phi_9(t1) from level 2 on
    cases = [
        (parse_poly("(1+t1)*(5+t2)", 2), 2, 4, "r"),
        (parse_poly("1+t1*t2", 2), 2, 3, "rprime"),
        (parse_poly("t1-1", 1), 3, 3, "r"),
        (parse_poly("(1+t1^2)*(5+t2)", 2), 2, 4, "r"),
        (parse_poly("(1+t1^3+t1^6)*(4+t2+t3)", 3), 3, 2, "rprime"),
    ]
    for (p, d), K in depth.items():
        for mask in ("r", "rprime"):
            unit = zero = 0
            while unit < 2 or zero < 2:
                f = random_multipoly(rng, d, 4, 2, 6)
                if f.is_zero:
                    continue
                if zero_limit_predicate(f, p):
                    if zero == 2:
                        continue
                    zero += 1
                else:
                    if unit == 2:
                        continue
                    unit += 1
                cases.append((f, p, K, mask))
    degenerate = 0
    for f, p, K, mask in cases:
        values = [cyclic_resultant(req) for req in window_requests(f, p, K, mask)]
        assert list(itertools.accumulate(_diagonal(f, p, K, mask), operator.mul)) == values
        est = limit_estimate(f, p, K, mask)
        assert [row[1] for row in est.window] == [vp(v, p) if v else -1 for v in values]
        degenerate += est.degenerate
    assert degenerate >= 5


def test_window_eliminates_once_per_index_prefix(monkeypatch):
    # a d = 2 rprime window of depth K: K eliminations of t2, and K final
    # norms in t1 after each, or only those with j1 <= j2 when swapping t1
    # and t2 fixes f, as it fixes every Whitehead polynomial; none past a
    # zero factor
    calls = []
    elimination, final = resultants.phi_resultant_last_var, resultants.resultant_phi_int

    def counting_elimination(f, p, j):
        calls.append((f.num_vars, j))
        return elimination(f, p, j)

    def counting_final(p, j, g):
        calls.append((1, j))
        return final(p, j, g)

    monkeypatch.setattr(resultants, "phi_resultant_last_var", counting_elimination)
    monkeypatch.setattr(resultants, "resultant_phi_int", counting_final)
    from padicres import limits

    estimated = limits.orbit_cost
    for K in (1, 2, 5):
        # 2 divides f(1,1) = 8: up to K = 6 the estimates take level K's
        # norms, and with the orbit walk forced the window walks K - 1 levels
        for orbit_cost, L in ((estimated, K), (lambda *args, **kwargs: 0.0, window_levels(K))):
            monkeypatch.setattr(limits, "orbit_cost", orbit_cost)
            calls.clear()
            limit_estimate(parse_poly("4+t1+2*t2+t1*t2", 2), 2, K, mask="rprime")
            assert len(calls) == L + L * L
            assert sorted(calls) == sorted([(2, j) for j in range(1, L + 1)] + [(1, j) for j in range(1, L + 1)] * L)
        monkeypatch.setattr(limits, "orbit_cost", estimated)
        # 2 divides f(1,1) = 2, and up to K = 6 the estimates take level K's
        # norms over its orbits: the window walks K levels
        calls.clear()
        limit_estimate(whitehead(3), 2, K, mask="rprime")
        assert len(calls) == K + K * (K + 1) // 2
        assert sorted(calls) == sorted([(2, j) for j in range(1, K + 1)] + [(1, i) for j in range(1, K + 1) for i in range(1, j + 1)])
    # a zero at level 1 ends the walk: t2 at index 0, then t1 at 0 and at 1,
    # where 1 + t1 vanishes
    calls.clear()
    assert limit_estimate(parse_poly("(1+t1)*(5+t2)", 2), 2, 6).degenerate
    assert calls == [(2, 0), (1, 0), (1, 1)]


WINDOW_COST_POLYS = {
    1: ["5+t1", "t1^3-t1+3", "2*t1^2-7"],
    2: ["5+t1+t2+t1*t2", "2-t1-t2+2*t1*t2", "3*t1^2*t2-t2^3+11"],
    3: ["5+t1+t2+t3", "2*t1*t3-t2^2+7", "1+t1*t2*t3-4*t3^2"],
}


def test_window_cost_is_the_top_level_estimate():
    # the window is one walk of level K's tuples, so it is charged as the
    # level-K request alone, with no weight for the levels below
    for d, texts in WINDOW_COST_POLYS.items():
        for f in (parse_poly(text, d) for text in texts):
            for p in (2, 3, 5, 7):
                for mask in ("r", "rprime"):
                    for K in range(1, 9):
                        top = cost_estimate(_request(f, p, (K,) * d, mask))
                        assert window_cost(f, p, K, mask) == pytest.approx(top, rel=1e-12), (f, p, mask, K)
    # levels past the float range are inf on both routes
    f = parse_poly("t1^3-t1+3", 1)
    for mask in ("r", "rprime"):
        assert window_cost(f, 7, 370, mask) == math.inf
        assert cost_estimate(_request(f, 7, (370,), mask)) == math.inf


def test_window_against_the_root_product_oracle():
    # every level of the walk's window against the product of f over the
    # level's root-of-unity tuples in F_q, which shares no code with it
    rng = random.Random(5519)
    depth = {
        (2, 1): 5, (2, 2): 4, (2, 3): 3,
        (3, 1): 4, (3, 2): 3, (3, 3): 2,
        (5, 1): 3, (5, 2): 2, (5, 3): 1,
        (7, 1): 2, (7, 2): 2, (7, 3): 1,
    }
    # vanishing factors at p = 2: t1 = -1 from level 1, Phi_4(t1) from
    # level 2, and zeta_1 zeta_2 = -1; in three variables, t1 = -1 with
    # t2^4 = -1 vanishes from level 3 on, and the walk meets it before the
    # level-2 tuples of t3's next index
    vanishing = [("(1+t1)*(5+t2)", 2, 4), ("(1+t1^2)*(5+t2)", 2, 4), ("1+t1*t2", 2, 4), ("3+t1+2*t2^4", 3, 3)]
    cases = [(parse_poly(text, d), 2, K, mask) for text, d, K in vanishing for mask in ("r", "rprime")]
    for (p, d), K in depth.items():
        for mask in ("r", "rprime"):
            for _ in range(2):
                f = random_multipoly(rng, d, 4, 2, 6)
                cases.append((f, p, K, mask))
    zeros = 0
    for f, p, K, mask in cases:
        diagonal = list(itertools.accumulate(_diagonal(f, p, K, mask), operator.mul))
        start = 0 if mask == "r" else 1
        for k in range(1, K + 1):
            oracle = modular_root_product(f, p, [set(range(start, k + 1))] * f.num_vars)
            assert diagonal[k - 1] == oracle, (f.serialize(), p, mask, k)
        zeros += diagonal[-1] == 0
    assert zeros >= 5


def test_order_invariance_examples():
    assert order_invariance_check(parse_poly("t1*t2 - 2", 2), 2, (2, 1))
    assert order_invariance_check(parse_poly("t1 - 2", 1), 3, (2,))
    assert order_invariance_check(whitehead(3), 3, (2, 2), "rprime")
    rep = order_invariance_check(whitehead(3), 3, (3, 2), "rprime")
    assert rep.ok and rep.detail == ""


def test_certificate_holds_at_deeper_uneven_levels():
    # the certified residue must match any strictly deeper level vector,
    # not just the diagonal used to compute it
    rng = random.Random(447)
    done = 0
    while done < 25:
        d = rng.choice([1, 2])
        f = random_multipoly(rng, d, 4, 3, 9)
        if f.is_zero:
            continue
        p = rng.choice([2, 3])
        K = rng.randint(1, 2)
        mask = rng.choice(["r", "rprime"])
        est = limit_estimate(f, p, K, mask=mask)
        if est.degenerate:
            continue
        deeper = tuple(K + rng.randint(1, 2) for _ in range(d))
        maker = (
            CyclicResultantRequest.full if mask == "r" else CyclicResultantRequest.rprime
        )
        deep = cyclic_resultant(maker(f, p, deeper))
        assert (deep - est.value.residue(K)) % p**K == 0
        if deep:
            digits = min(K, est.nonp_certified_digits)
            assert (nonp_part(deep, p) - est.nonp_value.residue(digits)) % p**digits == 0
        done += 1


def test_iwasawa_law_extrapolates_beyond_window(monkeypatch):
    monkeypatch.setenv("PADIC_RES_BUDGET", str(10**6))
    rng = random.Random(448)
    done = 0
    while done < 10:
        deg = rng.randint(1, 4)
        f = UniPoly([rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, -1]) * rng.randint(1, 9)])
        if f.is_zero or f.evaluate(1) == 0:
            continue
        p = rng.choice([2, 3])
        try:
            fit = iwasawa_fit(f, p, 5)
        except (VanishingResultantError, WindowTooShortError):
            continue
        g = MultiPoly(1, {(i,): c for i, c in enumerate(f.coeffs) if c})
        value = cyclic_resultant(CyclicResultantRequest.full(g, p, (6,)))
        assert vp(value, p) == fit.predicts(6, p)
        done += 1


def _shifted(f, p, zero):
    """f plus a constant that makes p | f(1,...,1) iff `zero`."""
    c = -f.evaluate((1,) * f.num_vars) % p
    if not zero:
        c += 1
    return f + MultiPoly.const(f.num_vars, c)


def test_k_digits_from_k_minus_one_levels_grid():
    # the sharp congruence R_(k+1) = R_k mod p^(k+1): the K digits that
    # levels 1..K-1 certify (with the level-K vanishing test) equal those of
    # the K-level window and of the level-K value itself, mod p^K
    # (p, d): K, as deep as a few seconds allow; three variables at p = 5
    # and 7 cost seconds per window already at K = 2
    rng = random.Random(2111)
    depth = {
        (2, 1): 6, (2, 2): 5, (2, 3): 3,
        (3, 1): 5, (3, 2): 3, (3, 3): 2,
        (5, 1): 4, (5, 2): 2,
        (7, 1): 3, (7, 2): 2,
    }
    # factors that vanish: from level 1 (t1 = -1), first at the level the
    # short window does not walk (zeta_1 zeta_2 = -1, zeta_1 = -zeta_2,
    # Phi_4(t1), Phi_9(t1)), and from a walked level on (Phi_4(t1) at K = 3)
    cases = [
        (parse_poly("(1+t1)*(5+t2)", 2), 2, 3, "r"),
        (parse_poly("1+t1*t2", 2), 2, 2, "rprime"),
        (parse_poly("t1+t2", 2), 2, 2, "rprime"),
        (parse_poly("1+t1^2", 1), 2, 2, "r"),
        (parse_poly("(1+t1^2)*(5+t2)", 2), 2, 3, "rprime"),
        (parse_poly("(1+t1^3+t1^6)*(4+t2+t3)", 3), 3, 2, "rprime"),
    ]
    for (p, d), K in depth.items():
        for mask in ("r", "rprime"):
            for zero in (True, False, True, False):
                f = _shifted(random_multipoly(rng, d, 4, 2 if d < 3 else 1, 5), p, zero)
                if f.total_degree() > 0:
                    cases.append((f, p, K, mask))
    degenerate = zero_limits = 0
    for f, p, K, mask in cases:
        d = f.num_vars
        for digits in range(1, K + 1):
            factors = _diagonal(f, p, max(1, digits - 1), mask)
            if digits > 1 and 0 not in factors and _level_vanishes(f, p, digits, mask):
                factors.append(0)
            short = _certify(factors, p, digits, d)
            full = limit_estimate(f, p, digits, mask)
            label = (f.serialize(), p, mask, digits)
            # in one variable the full window also sees a factor that first
            # vanishes past its levels: phi(p^j) <= deg f <= 2, so j <= 2
            later = d == 1 and not short.degenerate and 0 in _diagonal(f, p, 2, mask)
            assert full.degenerate == (short.degenerate or later), label
            if later:
                assert full.value.is_exact_zero and full.nonp_value.is_exact_zero, label
            else:
                assert short.certified_digits == full.certified_digits == (None if short.value.exact else digits), label
                assert str(short.value) == str(full.value) and str(short.nonp_value) == str(full.nonp_value), label
            value = math.prod(_diagonal(f, p, digits, mask))
            assert short.nonp_value.residue(digits) == nonp_part(value, p) % p**digits, label
            if not zero_limit_predicate(f, p):
                assert short.value.residue(digits) == value % p**digits, label
        degenerate += full.degenerate
        zero_limits += zero_limit_predicate(f, p) and not full.degenerate
    assert degenerate >= 6 and zero_limits >= 20


def test_broken_sharp_congruence_raises(monkeypatch):
    # a level-k factor whose non-p part is 1 mod p^(k-1) but not mod p^k
    # contradicts the theorem: InvariantError, never fewer digits.  The
    # window walks levels 1..K-1, so those are the ones checked
    from padicres import limits

    walk = limits._diagonal
    for f, p, K, mask in [
        (parse_poly("5+t1+t2+t1*t2", 2), 2, 4, "r"),
        (parse_poly("7-2*t2+t1-3*t1*t2", 2), 3, 3, "r"),
        (parse_poly("2-t1", 1), 5, 3, "rprime"),
    ]:
        assert limit_estimate(f, p, K, mask).nonp_certified_digits == K
        for level in range(2, K):

            def patched(g, q, n, m, level=level):
                factors = walk(g, q, n, m)
                factors[level - 1] *= 1 + q ** (level - 1)
                return factors

            monkeypatch.setattr(limits, "_diagonal", patched)
            with pytest.raises(InvariantError, match=f"level-{level} factor"):
                limit_estimate(f, p, K, mask)
            monkeypatch.setattr(limits, "_diagonal", walk)
    # in the zero case, with the orbit route forced, an orbit value of level
    # K that is a unit although p divides f(1,...,1) breaks the same theorem
    values = limits._orbit_values

    def corrupted(f, p, levels, mask, prune=False):
        walk = values(f, p, levels, mask, prune)
        k, _ = next(walk)
        yield k, {0: 1}
        yield from walk

    monkeypatch.setattr(limits, "orbit_cost", lambda *args, **kwargs: 0.0)
    monkeypatch.setattr(limits, "_orbit_values", corrupted)
    for f, p, K, mask in [(parse_poly("5+t1+t2+t1*t2", 2), 2, 4, "r"), (parse_poly("7-2*t2+t1-3*t1*t2", 2), 3, 3, "r")]:
        with pytest.raises(InvariantError, match=f"v_pi = 0 at level {K}"):
            limit_estimate(f, p, K, mask)


@pytest.mark.parametrize(
    "expr, p, j",
    [
        ("(1+t1^4)*(3+t1)", 2, 3),
        ("1+t1^4", 2, 3),
        ("(1+t1^8)*(1+t1+t1^2)", 2, 4),
        ("(1+t1^3+t1^6)*(2-t1)", 3, 2),
        ("(1+t1^9+t1^18)*(5+t1^2)", 3, 3),
    ],
)
@pytest.mark.parametrize("mask", ["r", "rprime"])
def test_univariate_window_sees_a_later_vanishing(expr, p, j, mask):
    # Phi_(p^j) | f: the sequence is exactly 0 from level j on, so a window
    # of K < j levels is degenerate, with its rows as computed
    f = parse_poly(expr, 1)
    for K in range(1, j):
        est = limit_estimate(f, p, K, mask)
        assert est.degenerate and not est.stabilized, (expr, K)
        assert est.value.is_exact_zero and est.nonp_value.is_exact_zero
        assert est.certified_digits is None and est.nonp_certified_digits == K
        assert [row[:2] for row in est.window] == [
            (k, vp(cyclic_resultant(_request(f, p, (k,), mask)), p)) for k in range(1, K + 1)
        ]
    assert cyclic_resultant(_request(f, p, (j,), mask)) == 0
    assert limit_estimate(f, p, j, mask).window[-1] == (j, -1, 0)


def test_univariate_window_without_a_later_vanishing_is_unchanged():
    # deg f reaches phi(8) = 4, but Phi_8 does not divide f
    f = parse_poly("3+t1^4", 1)
    est = limit_estimate(f, 2, 2)
    value = cyclic_resultant(_request(f, 2, (2,), "r"))
    assert not est.degenerate and est.nonp_value.residue(2) == nonp_part(value, 2) % 4


# the top row's equivalence grid: vanishing factors (Phi_8(t1 t2) from
# level 3, zeta_1 zeta_2 = -1, t1 = -1 from level 1, zeta_1 = zeta_2, and
# Phi_8 in one variable, alone and times 3 + t1) next to polynomials
# without them, with p dividing f(1,...,1) and not
TOP_ROW_POLYS = {
    1: ["1+t1^4", "(1+t1^4)*(3+t1)", "2-t1", "t1^3-t1+3", "6+t1^2"],
    2: ["1+t1^4*t2^4", "1+t1*t2", "(1+t1)*(5+t2)", "t1-t2", "5+t1+t2+t1*t2", "7-2*t2+t1-3*t1*t2"],
    3: ["5+t1+t2+t3", "3+t1+2*t2^4", "1+t1*t2*t3-4*t3^2"],
}
# the K-level oracle's window_cost cap: it admits K = 5 at p = 2 in every
# d, and the whole grid runs in about a second on a 2-core host
TOP_ROW_COST = 1e6


def _k_level_window(f, p, K, mask):
    """The estimate from levels 1..K, each norm taken: the window before
    its top row came from the sharp congruence and orbit valuations."""
    factors = _diagonal(f, p, K, mask)
    later = 0 not in factors and _vanishes_later(f, p, K, mask)
    return _certify(factors, p, K, f.num_vars, later)


def test_top_row_from_k_minus_one_levels_equals_the_k_level_window(monkeypatch):
    # every LimitEstimate field, on the cost estimates' own route and on
    # each zero-case route forced: orbit_cost 0 takes the orbit walk, inf
    # level K's norms
    from padicres import limits

    rng = random.Random(4421)
    cases = [(parse_poly(text, d), mask) for d, texts in TOP_ROW_POLYS.items() for text in texts for mask in ("r", "rprime")]
    for d in (1, 2, 3):
        for zero in (True, False):
            cases.append((_shifted(random_multipoly(rng, d, 4, 2, 5), 2, zero), "r"))
    valuations, orbit_walks = limits._orbit_valuations, []
    real_orbit_cost = limits.orbit_cost

    def counting(*args, **kwargs):
        orbit_walks.append(args)
        return valuations(*args, **kwargs)

    monkeypatch.setattr(limits, "_orbit_valuations", counting)
    routes = {"estimated": real_orbit_cost, "orbits": lambda *a, **k: 0.0, "norms": lambda *a, **k: math.inf}
    checked, first_zero_at_k, taken = 0, 0, {name: 0 for name in routes}
    for f, mask in cases:
        for p in (2, 3, 5, 7):
            for K in range(1, 6):
                if window_cost(f, p, K, mask) > TOP_ROW_COST:
                    break
                oracle = _k_level_window(f, p, K, mask)
                zero_case = K >= 2 and zero_limit_predicate(f, p)
                for name, cost in routes.items() if zero_case else [("estimated", real_orbit_cost)]:
                    monkeypatch.setattr(limits, "orbit_cost", cost)
                    orbit_walks.clear()
                    est = limit_estimate(f, p, K, mask)
                    label = (f.serialize(), p, mask, K, name)
                    for field in dataclasses.fields(LimitEstimate):
                        assert getattr(est, field.name) == getattr(oracle, field.name), (label, field.name)
                    assert str(est.value) == str(oracle.value) and str(est.nonp_value) == str(oracle.nonp_value), label
                    if zero_case and oracle.window[-2][1] >= 0:
                        taken[name] += bool(orbit_walks)
                        first_zero_at_k += name == "orbits" and oracle.window[-1][1] < 0
                    checked += 1
    # the forced orbit route ran wherever levels 1..K-1 did not vanish
    # already, and found the factors that first vanish at level K; the
    # forced norm route never ran it, and the estimates took both routes
    assert taken["orbits"] >= 40 and taken["norms"] == 0 and 0 < taken["estimated"] < taken["orbits"]
    assert first_zero_at_k >= 4 and checked >= 400


# the largest K per (p, d) at which the norm route (_diagonal) of a
# four-term f still takes well under a second
ORBIT_DEPTH = {
    (2, 1): 8, (3, 1): 7, (5, 1): 5, (7, 1): 4,
    (2, 2): 6, (3, 2): 4, (5, 2): 3, (7, 2): 2,
    (2, 3): 4, (3, 3): 2, (5, 3): 1, (7, 3): 1,
}


def diagonal_valuations(f, p, K, mask):
    """v_p of _diagonal's per-level factors up to its first 0, which reads
    inf; the entries past it are not defined by the walk."""
    out = []
    for factor in _diagonal(f, p, K, mask):
        out.append(vp(factor, p) if factor else math.inf)
        if not factor:
            break
    return out


def test_orbit_valuations_equal_vp_of_the_diagonal():
    # every (p, d) at its depth, both masks, unit and zero cases, and fixed
    # inputs: factors that vanish (t1*t2 = -1 and Phi_8(t1) at p = 2, t1 = 1,
    # Phi_9(t1)), constants, and p dividing the content
    rng = random.Random(25)
    cases = [
        (parse_poly("1+t1*t2", 2), 2, 4),
        (parse_poly("1+t1^4", 1), 2, 5),
        (parse_poly("(1+t1^4)*(3+t2)", 2), 2, 4),
        (parse_poly("t1-1", 1), 3, 3),
        (parse_poly("(1+t1^3+t1^6)*(4+t2)", 2), 3, 3),
        (parse_poly("7", 1), 7, 3),
        (parse_poly("12", 2), 2, 4),
        (parse_poly("-1", 3), 3, 2),
        (parse_poly("0*t1", 2), 2, 2),
        (parse_poly("9+3*t1+6*t2*t1", 2), 3, 4),
        (parse_poly("4-4*t1+8*t1*t2", 2), 2, 5),
        (parse_poly("5*t1^2+10*t1+25", 1), 5, 4),
        (parse_poly("2*t1+2*t2+2*t3+2", 3), 2, 3),
    ]
    for (p, d), K in ORBIT_DEPTH.items():
        for zero_case in (False, True):
            f = random_multipoly(rng, d, 4, 2, 6)
            cases.append((f - f.evaluate((1,) * d) % p if zero_case else f, p, K))
    vanishing = 0
    for f, p, K in cases:
        for mask in ("r", "rprime"):
            expected = diagonal_valuations(f, p, K, mask)
            got = _orbit_valuations(f, p, K, mask)
            label = (f.serialize(), p, K, mask)
            assert got[: len(expected)] == expected, label
            # the walk ends at a 0, and the later levels read v_p(1)
            assert got[len(expected) :] == [0] * (K - len(expected)), label
            vanishing += math.inf in got
    assert vanishing >= 10


def test_level_vanishes_finds_the_first_zero_of_the_diagonal():
    # the shared orbit walk's zero test, with its degree prune, against
    # where the norm route's first factor 0 falls
    rng = random.Random(26)
    cases = [
        (parse_poly("1+t1*t2", 2), 2, 4),
        (parse_poly("1+t1^4", 1), 2, 4),
        (parse_poly("(1+t1^4)*(3+t2)", 2), 2, 4),
        (parse_poly("(1+t1^2)*(1+t2^4)", 2), 2, 4),
        (parse_poly("(1+t1^3+t1^6)*(4+t2)", 2), 3, 3),
        (parse_poly("(1+t1*t2^2)*(2+t3)", 3), 2, 3),
        (parse_poly("(1+t1^9+t1^18)*(3-t1)", 1), 3, 4),
    ]
    for (p, d), K in ORBIT_DEPTH.items():
        f = random_multipoly(rng, d, 4, 2, 6)
        cases.append((f - f.evaluate((1,) * d) % p, p, K))
    found = 0
    for f, p, K in cases:
        for mask in ("r", "rprime"):
            factors = _diagonal(f, p, K, mask)
            first = factors.index(0) + 1 if 0 in factors else None
            for k in range(2, min(K, first or K) + 1):
                assert _level_vanishes(f, p, k, mask) == (k == first), (f.serialize(), p, mask, k)
                found += k == first
    assert found >= 8


def test_orbit_representatives_count_the_galois_orbits():
    # the walk yields one representative per orbit, as many as the closed
    # form counts, and the closed form agrees with a count of the tuples:
    # phi(p^j) roots of each index j, over the orbits of the Galois group of
    # the top level
    for text, d in [("1+t1*t2", 2), ("2+t1+t2+t3", 3), ("1+t1^2", 1)]:
        f = parse_poly(text, d)
        for p, mask in itertools.product((2, 3), ("r", "rprime")):
            walked = [k for k, _ in _orbit_values(f, p, (1, 2, 3), mask)]
            assert [walked.count(k) for k in (1, 2, 3)] == [_orbit_count(p, k, d, mask) for k in (1, 2, 3)]
    for p, d, k, mask in itertools.product((2, 3, 5), (1, 2, 3), (1, 2, 3), ("r", "rprime")):
        tuples = 0
        for index in itertools.product(range(mask == "rprime", k + 1), repeat=d):
            if max(index) == k:
                tuples += math.prod(p ** (j - 1) * (p - 1) if j else 1 for j in index)
        assert _orbit_count(p, k, d, mask) * p ** (k - 1) * (p - 1) == tuples


def test_orbit_cost_scales_with_orbits_and_terms():
    f, g = parse_poly("1+t1*t2", 2), parse_poly("1+t1+t2+t1*t2", 2)
    assert orbit_cost(g, 2, 10, "rprime") == 2 * orbit_cost(f, 2, 10, "rprime")
    # level k of d = 2 has about 2 p^k orbits, so one more level costs
    # about p times as much
    ratio = orbit_cost(f, 3, 12, "r") / orbit_cost(f, 3, 11, "r")
    assert 2.9 < ratio < 3.1
    assert orbit_cost(parse_poly("5", 1), 2, 40, "r") == 20 * 40
    # levels past the float range cost inf, found without walking them all
    assert orbit_cost(f, 2, 10**7, "r") == orbit_cost(parse_poly("5", 1), 2, 10**7, "r") == math.inf


def test_a_broken_orbit_valuation_raises(monkeypatch):
    # v_pi of every conjugate is 0 iff p does not divide f(1,...,1): a
    # valuation that breaks it is an InvariantError
    from padicres import limits

    valuation = limits.residue_valuation
    monkeypatch.setattr(limits, "residue_valuation", lambda *args: valuation(*args) + 1)
    with pytest.raises(InvariantError, match="v_pi"):
        _orbit_valuations(parse_poly("3+t1+t2", 2), 2, 2, "r")
    monkeypatch.setattr(limits, "residue_valuation", lambda *args: 0)
    with pytest.raises(InvariantError, match="v_pi"):
        _orbit_valuations(parse_poly("2+t1+3*t2", 2), 2, 2, "rprime")


# ---------------------------------------------------------------------------
# unit-case limits in d >= 2 variables: the closed forms and their identities
# ---------------------------------------------------------------------------


def _restrict(f, S):
    """f with t_i = 1 for every i not in S, in the variables of S, in order."""
    terms = {}
    for e, c in f.terms():
        key = tuple(e[i] for i in S)
        terms[key] = terms.get(key, 0) + c
    return MultiPoly(len(S), terms)


# (p, d): the deepest level k + 1 of the Graeffe congruence checked, kept to
# a fraction of a second of cyclic_resultant per polynomial
GRAEFFE_DEPTH = {(2, 2): 5, (3, 2): 4, (5, 2): 3, (2, 3): 4, (3, 3): 3, (5, 3): 2}


@pytest.mark.parametrize("p, d", sorted(GRAEFFE_DEPTH))
def test_full_mask_levels_satisfy_the_graeffe_congruence(p, d):
    # R_(k+1) = R_k^(p^(d-1)) mod p^(k+1), on exact full-mask values, in the
    # unit and the zero case alike (G(f) = f^(p^(d-1)) mod p, lifted one
    # digit per Graeffe step); with the sharp congruence it fixes the
    # unit-case limit as a (p^(d-1) - 1)-th root of unity
    rng = random.Random(2800 + 10 * p + d)
    polys = [parse_poly("5+t1+t2+2*t1*t2+t3", 3), parse_poly("2+t1+t2+t3", 3)] if d == 3 else [
        parse_poly("5+t1+t2+2*t1*t2", 2),
        parse_poly("1-3*t1*t2", 2),
        parse_poly("3+t1^2", 2),
    ]
    for zero in (True, False, True, False):
        polys.append(_shifted(random_multipoly(rng, d, 3, 2 if d == 2 else 1, 5), p, zero))
    cases = {True: 0, False: 0}
    for f in polys:
        values = [cyclic_resultant(CyclicResultantRequest.full(f, p, (k,) * d)) for k in range(1, GRAEFFE_DEPTH[p, d] + 1)]
        for k, (low, high) in enumerate(zip(values, values[1:]), 1):
            assert (high - pow(low, p ** (d - 1), p ** (k + 1))) % p ** (k + 1) == 0, (f.serialize(), p, k)
        cases[zero_limit_predicate(f, p)] += 1
    assert cases[True] >= 2 and cases[False] >= 2


@pytest.mark.parametrize("d, levels", [(2, (1, 1)), (2, (2, 2)), (2, (3, 1)), (3, (1, 1, 1)), (3, (2, 1, 2))])
@pytest.mark.parametrize("p", [2, 3])
def test_full_mask_is_the_product_of_prime_masks_over_subsets(d, levels, p):
    # R_r(f) = prod_S R'(f_S): a full-mask tuple is 1 off some set S of its
    # coordinates, where it is a prime-mask tuple of f_S; R'(f_{}) = f(1,...,1)
    rng = random.Random(2810 + 10 * d + p)
    polys = [parse_poly("5+t1+t2+2*t1*t2" + ("+t3" if d == 3 else ""), d), parse_poly("3+t1^2", d)]
    polys += [random_multipoly(rng, d, 4, 2, 5) for _ in range(3)]
    for f in polys:
        product = 1
        for size in range(d + 1):
            for S in itertools.combinations(range(d), size):
                g = _restrict(f, S)
                sub = tuple(levels[i] for i in S)
                product *= cyclic_resultant(CyclicResultantRequest.rprime(g, p, sub)) if S else g.constant_value()
        assert cyclic_resultant(CyclicResultantRequest.full(f, p, levels)) == product, (f.serialize(), p, levels)


# unit-case inputs for the equivalence grid: f(1,...,1) odd and prime to
# 3, 5 and 7 for most, a negative one, an f free of t2, constants, and
# f(1,...,1) = 1, 5 and 7 at p = 2, where the full-mask limit is 1 anyway
UNIT_POLYS = {
    2: ["5+t1+t2+2*t1*t2", "1-3*t1*t2", "3+t1^2", "4+t1-t2+t1^2*t2", "7", "-1", "2-t1*t2", "2+t1-t2+3*t1*t2^2"],
    3: ["5+t1+t2+2*t1*t2+t3", "2+t1+t2+t3", "1+t1*t2*t3", "4+t2^2", "11"],
}
# the K-level oracle's window_cost cap
UNIT_GRID_COST = 2e6


def test_unit_case_closed_forms_equal_the_k_level_window():
    # every LimitEstimate field of the closed forms equals the window that
    # takes every norm of levels 1..K, in both masks, wherever the norm
    # route stays under the cap
    checked, deepest, odd_rprime = 0, {}, 0
    for d, texts in UNIT_POLYS.items():
        for text in texts:
            f = parse_poly(text, d)
            for p in (2, 3, 5, 7):
                if zero_limit_predicate(f, p):
                    continue
                for mask in ("r", "rprime"):
                    for K in range(1, 7):
                        if window_cost(f, p, K, mask) > UNIT_GRID_COST:
                            break
                        oracle = _certify(_diagonal(f, p, K, mask), p, K, d)
                        est = limit_estimate(f, p, K, mask)
                        label = (text, p, mask, K)
                        for field in dataclasses.fields(LimitEstimate):
                            assert getattr(est, field.name) == getattr(oracle, field.name), (label, field.name)
                        assert str(est.value) == str(oracle.value) and str(est.nonp_value) == str(oracle.nonp_value), label
                        deepest[d, p] = max(deepest.get((d, p), 0), K)
                        odd_rprime += mask == "rprime" and K >= 2 and est.value.residue(K) != f.evaluate((1,) * d) % p**K
                        checked += 1
    assert deepest[2, 2] >= 5 and deepest[2, 7] >= 2 and deepest[3, 3] >= 2 and deepest[3, 7] >= 1
    assert odd_rprime >= 10 and checked >= 250


@pytest.mark.parametrize(
    "text, d, p",
    [("2+t1+t2", 2, 3), ("5+t1+t2+2*t1*t2+t3", 3, 3), ("1-3*t1*t2", 2, 5), ("4+t1-t2+t1^2*t2", 2, 7), ("7", 2, 2), ("5+t1+t2+t3", 3, 7)],
)
def test_unit_case_full_mask_at_forty_digits_is_a_root_of_unity(text, d, p):
    # the limit L is the root of unity that the Graeffe and the sharp
    # congruences force: L^(p^(d-1) - 1) = 1 and L = f(1,...,1) mod p, so
    # L = omega_p(f(1,...,1)) at odd p and 1 at p = 2; each row is L mod p^k
    f, K = parse_poly(text, d), 40
    est = limit_estimate(f, p, K)
    L = est.value.residue(K)
    assert pow(L, p ** (d - 1) - 1, p**K) == 1 and (L - f.evaluate((1,) * d)) % p == 0
    assert L == (1 if p == 2 else teichmuller(f.evaluate((1,) * d), p, K).residue(K))
    assert est.window == tuple((k, 0, L % p**k) for k in range(1, K + 1))
    assert est.certified_digits == est.nonp_certified_digits == K and est.levels_used == (K,) * d
    assert est.stabilized and not est.degenerate


def test_certify_field_rules_on_hand_built_factors():
    # p = 3, three levels whose non-p parts are 1 mod 3^k from level 2 on:
    # 2, 10 = 1 mod 9 and 28 = 1 mod 27, running products 2, 20 and 560
    p, unit, zero = 3, [2, 10, 28], [6, 30, 252]

    def expected(value, nonp, digits, levels, stabilized, degenerate, window, K, d=1):
        """The estimate with these fields; a value None is the exact 0."""
        value, nonp = (PadicApprox.zero(p, K) if x is None else PadicApprox.from_int(x, p, K) for x in (value, nonp))
        return LimitEstimate(value, nonp, digits, K, (levels,) * d, stabilized, degenerate, window)

    rows = ((1, 0, 2), (2, 0, 2), (3, 0, 20))
    # the unit case: the raw limit is R_L mod p^K, at K = L + 1 too
    assert _certify(unit, p, 4, 2) == expected(560, 560, 4, 3, True, False, rows, 4, d=2)
    assert _certify(unit, p, 2, 1) == expected(560, 560, 2, 3, True, False, rows, 2)
    # the zero case (v_p 1, 1, 2): the raw limit is exactly 0, the non-p
    # part certified, and a last factor divisible by p is no plateau
    zero_rows = ((1, 1, 2), (2, 2, 2), (3, 4, 20))
    assert _certify(zero, p, 4, 1) == expected(None, 560, None, 3, False, False, zero_rows, 4)
    assert _certify(zero[:2] + [28], p, 3, 1).stabilized
    # K = 1 from one level: stabilized unless p divides R_1
    assert _certify([2], p, 1, 1) == expected(2, 2, 1, 1, True, False, ((1, 0, 2),), 1)
    assert _certify([6], p, 1, 1) == expected(None, 2, None, 1, False, False, ((1, 1, 2),), 1)
    assert _certify([2], p, 2, 1) == expected(2, 2, 2, 1, True, False, ((1, 0, 2),), 2)
    # a factor 0 at level 2: exactly 0 from there on, rows -1 and 0
    zero_at_2 = ((1, 0, 2), (2, -1, 0), (3, -1, 0))
    assert _certify([2, 0, 28], p, 3, 1) == expected(None, None, None, 3, False, True, zero_at_2, 3)
    assert _certify([0], p, 1, 1) == expected(None, None, None, 1, False, True, ((1, -1, 0),), 1)
    # a later level that vanishes: the same outcome, the rows as computed
    for factors, window in ((unit, rows), (zero, zero_rows)):
        assert _certify(factors, p, 3, 1, True) == expected(None, None, None, 3, False, True, window, 3)
    # the sharp congruence is checked, and K is 1 to L + 1
    with pytest.raises(InvariantError):
        _certify([2, 4], p, 2, 1)
    for K in (0, 5):
        with pytest.raises(ValueError):
            _certify(unit, p, K, 1)


def test_limit_estimate_refuses_an_f_in_no_variable():
    with pytest.raises(ValueError, match="at least one variable"):
        limit_estimate(MultiPoly(0, {(): 3}), 2, 2)


def test_limit_estimates_are_built_only_by_certify():
    # the digit counts and the exact-zero and degenerate outcomes follow
    # from the sharp congruence in one place: no module of padicres builds
    # a LimitEstimate, or rewrites one with dataclasses.replace, anywhere
    # but in limits._certify
    from padicres import limits

    package = Path(limits.__file__).parent
    builders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for child in ast.walk(node):
                    scopes.setdefault(child, node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("LimitEstimate", "replace"):
                    builders.append((path.stem, scopes.get(node), name))
    assert builders == [("limits", "_certify", "LimitEstimate")], builders
