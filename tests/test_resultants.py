import os
import random

import pytest

from padicres import resultants
from padicres.errors import BudgetExceededError
from padicres.multipoly import MultiPoly, random_multipoly
from padicres.parsing import parse_poly
from padicres.resultants import (
    CyclicResultantRequest,
    bareiss_det,
    complex_root_product,
    cyclic_resultant,
    cyclic_resultant_baseline,
    resultant_phi_int,
    resultant_prs,
    sylvester_matrix,
    sylvester_resultant,
)
from padicres.unipoly import UniPoly, cyclotomic, power_minus_one


def cofactor_det(rows):
    """Brute-force minor expansion; the independent determinant oracle."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def random_unipoly(rng, max_deg, max_coeff):
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(-max_coeff, max_coeff) for _ in range(deg)]
    coeffs.append(rng.choice([1, -1]) * rng.randint(1, max_coeff))
    return UniPoly(coeffs)


def test_sylvester_against_minor_expansion():
    f = power_minus_one(3)
    g = UniPoly((-2, 1))
    matrix = sylvester_matrix(f, g)
    assert len(matrix) == 4
    assert cofactor_det(matrix) == -7
    assert sylvester_resultant(f, g) == -7


def test_degree_one_pairs():
    rng = random.Random(5)
    for _ in range(50):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        assert sylvester_resultant(UniPoly((-a, 1)), UniPoly((-b, 1))) == a - b


def test_swap_parity():
    rng = random.Random(6)
    for _ in range(50):
        f = random_unipoly(rng, 5, 9)
        g = random_unipoly(rng, 5, 9)
        lhs = sylvester_resultant(f, g)
        rhs = (-1) ** (f.degree() * g.degree()) * sylvester_resultant(g, f)
        assert lhs == rhs


def test_prs_agrees_with_sylvester_1000():
    rng = random.Random(2024)
    for _ in range(1000):
        f = random_unipoly(rng, 12, 100)
        g = random_unipoly(rng, 12, 100)
        assert resultant_prs(f, g) == sylvester_resultant(f, g)


def test_prs_shared_factor_is_zero():
    f = UniPoly((1, 0, 1))
    assert resultant_prs(f, f) == 0
    assert sylvester_resultant(f, f) == 0


def test_phi4_against_evaluation():
    assert resultant_prs(cyclotomic(2, 2), UniPoly((-1, 1))) == cyclotomic(2, 2).evaluate(1) == 2


def test_resultant_multiplicative_in_second_argument():
    rng = random.Random(77)
    for _ in range(40):
        f = random_unipoly(rng, 4, 6)
        g = random_unipoly(rng, 3, 6)
        h = random_unipoly(rng, 3, 6)
        assert resultant_prs(f, g * h) == resultant_prs(f, g) * resultant_prs(f, h)


def test_resultant_phi_int_route_consistency():
    # the modular-composition shortcut must equal the PRS route exactly
    rng = random.Random(88)
    for _ in range(30):
        g = random_unipoly(rng, 6, 9)
        for p, j in [(3, 3), (5, 2), (2, 5), (7, 2)]:
            via_prs = resultant_prs(cyclotomic(p, j), g) if g.degree() > 0 else g[0] ** cyclotomic(p, j).degree()
            assert resultant_phi_int(p, j, g) == via_prs


def test_cyclic_example_full_mask():
    req = CyclicResultantRequest.full(parse_poly("t1*t2 - 2", 2), 2, (1, 1))
    assert cyclic_resultant(req) == 9
    assert complex_root_product(req) == 9


def test_cyclic_example_rprime():
    req = CyclicResultantRequest.rprime(parse_poly("1 + t1*t2", 2), 3, (1, 1))
    assert cyclic_resultant(req) == 4
    assert complex_root_product(req) == 4


def test_cyclic_univariate():
    req = CyclicResultantRequest.full(parse_poly("t1 - 2", 1), 3, (1,))
    assert cyclic_resultant(req) == -(2**3 - 1) == cyclic_resultant_baseline(req)


def test_even_whitehead_closed_form_small():
    for p in (2, 3):
        for m in (1, 2):
            f = MultiPoly(2, {(0, 0): m, (1, 1): m, (1, 0): -m, (0, 1): -m})
            for n1 in (1, 2):
                for n2 in (1, 2):
                    value = cyclic_resultant(CyclicResultantRequest.rprime(f, p, (n1, n2)))
                    expected = m ** ((p**n1 - 1) * (p**n2 - 1)) * p ** (
                        n1 * (p**n2 - 1) + n2 * (p**n1 - 1)
                    )
                    assert value == expected


def test_fast_path_matches_baseline_and_floats():
    rng = random.Random(314)
    done = 0
    while done < 60:
        d = rng.choice([1, 2])
        f = random_multipoly(rng, d, 4, 3, 9)
        if f.is_zero:
            continue
        p = rng.choice([2, 3])
        levels = tuple(rng.randint(1, 2) for _ in range(d))
        for maker in (CyclicResultantRequest.full, CyclicResultantRequest.rprime):
            req = maker(f, p, levels)
            value = cyclic_resultant(req)
            assert value == cyclic_resultant_baseline(req, budget=4096)
            assert value == complex_root_product(req)
        done += 1


def test_custom_mask_unity_minus_t():
    # product of (1 - zeta) over the 2-power roots of order 4..2^n is 2^(n-1)/2^0:
    # with mask {2..n} on f = 1 - t the value is prod_{j=2..n} Phi_{2^j}(1) = 2^(n-1)
    f = parse_poly("1 - t1", 1)
    for n in (2, 3, 4):
        req = CyclicResultantRequest.custom(f, 2, (n,), [set(range(2, n + 1))])
        assert cyclic_resultant(req) == 2 ** (n - 1)
        assert cyclic_resultant_baseline(req, budget=1024) == 2 ** (n - 1)


def test_custom_masks_against_baseline():
    rng = random.Random(555)
    done = 0
    while done < 25:
        d = rng.choice([1, 2])
        f = random_multipoly(rng, d, 3, 2, 9)
        if f.is_zero:
            continue
        p = rng.choice([2, 3])
        levels = tuple(rng.randint(1, 2) for _ in range(d))
        masks = []
        for n in levels:
            size = rng.randint(1, n + 1)
            masks.append(set(rng.sample(range(n + 1), size)))
        req = CyclicResultantRequest.custom(f, p, levels, masks)
        assert cyclic_resultant(req) == cyclic_resultant_baseline(req, budget=4096)
        done += 1


def test_vanishing_factor_short_circuits():
    req = CyclicResultantRequest.full(parse_poly("t1 - 1", 1), 3, (2,))
    assert cyclic_resultant(req) == 0
    assert cyclic_resultant_baseline(req) == 0
    req2 = CyclicResultantRequest.full(parse_poly("t1 - 1", 2) * parse_poly("t2 + 2", 2), 2, (1, 2))
    assert cyclic_resultant(req2) == 0


def test_variable_permutation_invariance():
    rng = random.Random(99)
    for _ in range(25):
        f = random_multipoly(rng, 2, 4, 3, 9)
        if f.is_zero:
            continue
        p = rng.choice([2, 3])
        levels = (rng.randint(1, 2), rng.randint(1, 2))
        swapped_levels = (levels[1], levels[0])
        for maker in (CyclicResultantRequest.full, CyclicResultantRequest.rprime):
            a = cyclic_resultant(maker(f, p, levels))
            b = cyclic_resultant(maker(f.permute_vars((2, 1)), p, swapped_levels))
            assert a == b


def test_congruence_when_unit_at_ones():
    rng = random.Random(123)
    done = 0
    while done < 30:
        d = rng.choice([1, 2])
        f = random_multipoly(rng, d, 4, 3, 9)
        p = rng.choice([2, 3])
        if f.is_zero or f.evaluate((1,) * d) % p == 0:
            continue
        levels = tuple(rng.randint(1, 2) for _ in range(d))
        bigger = tuple(n + 1 for n in levels)
        r_small = cyclic_resultant(CyclicResultantRequest.full(f, p, levels))
        r_big = cyclic_resultant(CyclicResultantRequest.full(f, p, bigger))
        assert (r_big - r_small) % p ** min(levels) == 0
        done += 1


def test_zero_criterion_matches_evaluation():
    rng = random.Random(321)
    done = 0
    while done < 40:
        d = rng.choice([1, 2])
        f = random_multipoly(rng, d, 3, 2, 6)
        if f.is_zero:
            continue
        p = rng.choice([2, 3])
        levels = tuple(rng.randint(1, 2) for _ in range(d))
        value = cyclic_resultant(CyclicResultantRequest.full(f, p, levels))
        assert (value % p == 0) == (f.evaluate((1,) * d) % p == 0)
        done += 1


def test_fast_path_budget_guard():
    f = parse_poly("t1 - 2", 1)
    with pytest.raises(BudgetExceededError):
        cyclic_resultant(CyclicResultantRequest.full(f, 2, (9,)), budget=256)
    os.environ["PADIC_RES_BUDGET"] = "16"
    try:
        with pytest.raises(BudgetExceededError):
            cyclic_resultant(CyclicResultantRequest.full(f, 2, (5,)))
    finally:
        del os.environ["PADIC_RES_BUDGET"]


def test_baseline_budget_guard():
    f = parse_poly("t1*t2^3 - 2", 2)
    with pytest.raises(BudgetExceededError):
        cyclic_resultant_baseline(CyclicResultantRequest.full(f, 3, (2, 2)))


def test_request_validation():
    f = parse_poly("t1 - 2", 1)
    with pytest.raises(ValueError):
        CyclicResultantRequest(f, 4, (1,), (frozenset({0, 1}),))
    with pytest.raises(ValueError):
        CyclicResultantRequest.full(f, 2, (1, 1))
    with pytest.raises(ValueError):
        CyclicResultantRequest.custom(f, 2, (1,), [set()])
    with pytest.raises(ValueError):
        CyclicResultantRequest.custom(f, 2, (1,), [{0, 2}])


def test_each_elimination_runs_once_per_index_prefix(monkeypatch):
    calls = []
    original = resultants.phi_resultant_last_var

    def counting(f, p, j):
        calls.append(f.num_vars)
        return original(f, p, j)

    monkeypatch.setattr(resultants, "phi_resultant_last_var", counting)
    req = CyclicResultantRequest.full(parse_poly("5+t1+t2+t3", 3), 2, (2, 2, 2))
    value = cyclic_resultant(req)
    # three indices per variable: 3 eliminations of t3, 9 of t2, 27 of t1
    assert [calls.count(d) for d in (3, 2, 1)] == [3, 9, 27]
    assert value == cyclic_resultant_baseline(req, budget=4096)


def test_bareiss_matches_cofactor_random():
    rng = random.Random(42)
    for size in (1, 2, 3, 4, 5):
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            assert bareiss_det(rows) == cofactor_det(rows)


def test_three_variable_routes_agree():
    rng = random.Random(778)
    done = 0
    while done < 15:
        f = random_multipoly(rng, 3, 4, 2, 5)
        if f.is_zero:
            continue
        levels = tuple(rng.choice([1, 1, 2]) for _ in range(3))
        for maker in (CyclicResultantRequest.full, CyclicResultantRequest.rprime):
            req = maker(f, 2, levels)
            value = cyclic_resultant(req)
            assert value == cyclic_resultant_baseline(req, budget=4096)
            assert value == complex_root_product(req)
        done += 1
