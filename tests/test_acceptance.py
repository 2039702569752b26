"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is exact (integer equality or congruence
at the stated modulus); the oracles are exact, computed modulo primes and
recovered by the CRT.
"""

import itertools
import random
import time

from padicres.limits import (
    iwasawa_fit,
    lambda_mu_structural,
    limit_estimate,
)
from padicres.links import (
    CoveringSpec,
    character_oracle,
    h1_nonp_limit,
    h1_order,
    trefoil_spec,
    two_part_exponent_check,
    whitehead_closed_form,
    whitehead_link_spec,
)
from padicres.multipoly import MultiPoly
from padicres.padic import PadicApprox, nonp_part, teichmuller, vp
from padicres.oracles import complex_root_product, cyclic_resultant_baseline
from padicres.resultants import CyclicResultantRequest, cyclic_resultant
from padicres.unipoly import UniPoly
from padicres.errors import VanishingResultantError, WindowTooShortError
from reference import random_multipoly


def _report(number: int, name: str, started: float, detail: str = ""):
    elapsed = time.time() - started
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s): {name}{suffix}")


def test_criterion_1_oracle_equivalence():
    started = time.time()
    rng = random.Random(10001)
    done = 0
    while done < 500:
        d = rng.choice([1, 2])
        f = random_multipoly(rng, d, 4, 3, 9)
        if f.is_zero:
            continue
        p = rng.choice([2, 3])
        levels = tuple(rng.randint(1, 2) for _ in range(d))
        maker = rng.choice([CyclicResultantRequest.full, CyclicResultantRequest.rprime])
        req = maker(f, p, levels)
        fast = cyclic_resultant(req)
        baseline = cyclic_resultant_baseline(req, budget=4096)
        modular = complex_root_product(req)
        assert fast == baseline == modular, (f.serialize(), p, levels)
        done += 1
    assert time.time() - started < 60
    _report(1, "cyclic_resultant = baseline = modular root product on 500 cases", started)


def test_criterion_2_congruence_certificate():
    started = time.time()
    rng = random.Random(10002)
    done = 0
    while done < 200:
        d = rng.choice([1, 1, 2])
        f = random_multipoly(rng, d, 4, 3, 9)
        p = rng.choice([2, 3])
        if f.is_zero or f.evaluate((1,) * d) % p == 0:
            continue
        if d == 1:
            levels = (rng.randint(1, 3),)
        else:
            levels = tuple(rng.randint(1, 2) for _ in range(d))
        bigger = tuple(n + 1 for n in levels)
        small = cyclic_resultant(CyclicResultantRequest.full(f, p, levels))
        big = cyclic_resultant(CyclicResultantRequest.full(f, p, bigger))
        assert (big - small) % p ** min(levels) == 0, (f.serialize(), p, levels)
        done += 1
    assert time.time() - started < 120
    _report(2, "level-raising congruence mod p^min(n) on 200 unit cases", started)


def test_criterion_3_zero_limit_exhaustive():
    started = time.time()
    monomials = ((0, 0), (1, 0), (0, 1), (1, 1))
    level_vectors = ((1, 1), (2, 1), (1, 2))
    checked = 0
    for support in itertools.combinations(monomials, 3):
        for coeffs in itertools.product(range(-3, 4), repeat=3):
            f = MultiPoly(2, dict(zip(support, coeffs)))
            if f.is_zero:
                continue
            at_ones = f.evaluate((1, 1))
            for p in (2, 3):
                divisible = [
                    cyclic_resultant(CyclicResultantRequest.full(f, p, lv)) % p == 0
                    for lv in level_vectors
                ]
                assert all(divisible) == any(divisible) == (at_ones % p == 0), (
                    f.serialize(),
                    p,
                )
            checked += 1
    _report(3, "zero criterion exhaustive over 2-var, <=3 terms, coeffs in [-3,3]", started, f"{checked} polynomials x 2 primes x 3 level vectors")


def test_criterion_4_iwasawa_law():
    started = time.time()
    rng = random.Random(10004)
    corpus = []
    while len(corpus) < 100:
        deg = rng.randint(1, 6)
        f = UniPoly(
            [rng.randint(-20, 20) for _ in range(deg)]
            + [rng.choice([1, -1]) * rng.randint(1, 20)]
        )
        if not f.is_zero and f.evaluate(1) != 0:
            corpus.append(f)
    fitted = 0
    for f in corpus:
        for p in (2, 3, 5):
            try:
                fit = iwasawa_fit(f, p, 5)
            except (VanishingResultantError, WindowTooShortError):
                continue
            lam, mu = lambda_mu_structural(f, p)
            assert (fit.lam, fit.mu) == (lam, mu), (f, p, fit, lam, mu)
            for n in range(fit.verified_window[0], 6):
                assert fit.e_values[n - 1] == fit.predicts(n, p)
            assert fit.verified_window[1] - fit.verified_window[0] >= 2
            fitted += 1
    assert fitted >= 250  # nearly every (f, p) pair fits within n_max = 5
    _report(4, "fitted (lambda,mu) = structural (lambda,mu), exact law on 3 trailing levels", started, f"{fitted} fits over 100 polynomials x 3 primes")


def test_criterion_5_closed_form_family(closed_form_check):
    started = time.time()
    rng = random.Random(10005)
    done = 0
    while done < 50:
        p = rng.choice([2, 2, 3, 3, 5, 7])
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        n = rng.randint(1, 4)
        if rng.random() < 0.3:
            g = MultiPoly.const(0, rng.randint(-6, 6))  # univariate f
        else:
            g = random_multipoly(rng, 1, 3, 2, 6)
        K = 3 if p in (2, 3) else 2
        closed_form_check(a, n, g, p, 3, levels=K)
        done += 1
    _report(5, "closed-form limits agree with limit_estimate on 50 random families", started)


def test_criterion_6_even_whitehead():
    started = time.time()
    for p in (2, 3):
        for m in (1, 2, 3, 4):
            link = whitehead_link_spec(2 * m)
            for n1 in (1, 2, 3):
                for n2 in (1, 2, 3):
                    result = h1_order(link, CoveringSpec(p, (n1, n2)))
                    expected = m ** ((p**n1 - 1) * (p**n2 - 1)) * p ** (
                        n1 * (p**n2 - 1) + n2 * (p**n1 - 1)
                    )
                    assert result.order == expected, (p, m, n1, n2)
            if m % p != 0:
                est = h1_nonp_limit(link, p, 3)
                t = nonp_part(m, p)
                target = (
                    PadicApprox.from_int(t, p, 3, exact=True)
                    * teichmuller(t, p, 3).inverse()
                )
                assert est.nonp_certified_digits >= 3
                assert est.nonp_value.eq_mod(target, 3), (p, m)
    _report(6, "even twisted Whitehead orders exact; non-p limits = m|m|_p/omega mod p^3", started, "p in {2,3}, m <= 4, levels <= 3")


def test_criterion_7_odd_whitehead_odd_p():
    started = time.time()
    for p in (3, 5, 7):
        target = teichmuller(2, p, 2) * PadicApprox.from_int(2, p, 2, exact=True).inverse()
        for m in (0, 1, 2):
            est = h1_nonp_limit(whitehead_link_spec(2 * m + 1), p, 2)
            assert est.nonp_certified_digits >= 2
            assert est.nonp_value.eq_mod(target, 2), (p, m)
    _report(7, "odd twisted Whitehead limits = omega_p(2)/2 mod p^2", started, "p in {3,5,7}, m in {0,1,2}")


def test_criterion_8_odd_whitehead_p2():
    started = time.time()
    digits_seen = []
    for k in (3, 5):
        closed = whitehead_closed_form(k, 2, 5, truncation_level=5)
        empirical = h1_nonp_limit(whitehead_link_spec(k), 2, 5)
        digits = min(closed.achieved_digits, empirical.nonp_certified_digits)
        assert digits >= 3, (k, digits)
        assert closed.value.eq_mod(empirical.nonp_value, digits), (k, digits)
        digits_seen.append(digits)
        report = two_part_exponent_check(k, 3)
        assert report.ok, report
    _report(8, "p=2 closed form = empirical limit on mutually certified digits; 2-part exponents match", started, f"k in {{3,5}}, digits {digits_seen}, truncation level 5")


def test_criterion_9_character_oracle():
    started = time.time()
    checked = 0
    links = [trefoil_spec()] + [whitehead_link_spec(k) for k in (1, 2, 3)]
    for link in links:
        for p in (2, 3):
            n = 1
            while (p**n) ** link.d <= 256:
                cov = CoveringSpec(p, (n,) * link.d)
                exact = h1_order(link, cov)
                oracle = character_oracle(link, cov)
                assert exact == oracle, (link.name, p, n, exact, oracle)
                checked += 1
                n += 1
    _report(9, "exact orders = character-sum oracle at all diagonal levels with |G| <= 256", started, f"{checked} covers")


def test_criterion_10_g_sequence():
    started = time.time()
    for m in range(1, 7):
        partial = 1
        for i in range(10):
            partial *= m ** (2**i) + (m + 1) ** (2**i)
        target = 1 if m % 2 == 0 else -1
        assert (partial - target) % 2**6 == 0, m
    _report(10, "G_n(m) partial products = (-1)^m-sign mod 2^6 by n = 10 for m <= 6", started)
