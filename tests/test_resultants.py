import itertools
import math
import random

import pytest

from padicres import oracles, resultants
from padicres.errors import BudgetExceededError
from padicres.multipoly import MultiPoly
from padicres.oracles import (
    bareiss_det,
    complex_root_product,
    cyclic_resultant_baseline,
    modular_root_product,
    resultant_prs,
    sylvester_matrix,
    sylvester_resultant,
)
from padicres.parsing import parse_poly
from padicres.resultants import CyclicResultantRequest, cyclic_resultant, resultant_phi_int
from padicres.unipoly import UniPoly, cyclotomic, is_prime, power_minus_one
from reference import divmod_monic, permute_vars, random_multipoly


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
    # the tower norm against the PRS oracle, and against Sylvester while the
    # matrix stays small; degrees run past 2*phi(p^j) so reduction is exercised
    rng = random.Random(88)
    for p, top in [(2, 5), (3, 4), (5, 3), (7, 3)]:
        for j in range(top + 1):
            phi = cyclotomic(p, j)
            n = phi.degree()
            degrees = {0, 1, 2, n - 1, n, n + 1, 2 * n + 1, rng.randint(0, 2 * n + 1)}
            if n > 100:  # the PRS oracle takes about 0.5 s at p=7, j=3
                degrees = {0, 1, n, 2 * n + 1}
            for deg in sorted(d for d in degrees if d >= 0):
                g = random_unipoly(rng, 0, 9) if deg == 0 else UniPoly(
                    [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, -1]) * rng.randint(1, 9)]
                )
                value = resultant_phi_int(p, j, g)
                assert value == resultant_prs(phi, g), (p, j, g)
                if n + deg <= 40:
                    assert value == sylvester_resultant(phi, g), (p, j, g)
                # g(1) = 0 mod p: Phi_{p^j} = (t - 1)^phi mod p, so p divides the norm
                g1 = g - UniPoly((g.evaluate(1) % p,))
                if not g1.is_zero:
                    value = resultant_phi_int(p, j, g1)
                    assert value == resultant_prs(phi, g1)
                    assert value % p == 0
            # multiples of Phi_{p^j} vanish
            h = random_unipoly(rng, 3, 9)
            assert resultant_phi_int(p, j, phi * h) == 0 == resultant_prs(phi, phi * h)


def product_mod_phi(a, b, p, j):
    """a(zeta) * b(zeta) in Z[zeta_{p^j}] by UniPoly product and monic
    division by Phi_{p^j}: phi(p^j) coefficients."""
    _, rem = divmod_monic(UniPoly(a) * UniPoly(b), cyclotomic(p, j))
    return [rem[i] for i in range(resultants.phi_degree(p, j))]


def test_kronecker_width_covers_each_factor():
    # one all-zero factor: the product bound is 0, but the other factor's
    # coefficients must still fit their digits
    big = [7, -(2**201) - 5, 3]
    assert resultants.mul_mod_phi([0, 0, 0], big, 5, 1) == [0] * 4
    assert resultants.mul_mod_phi(big, [0], 2, 3) == [0] * 4
    rng = random.Random(12)
    for _ in range(50):
        a = [rng.randint(-(2**rng.randint(0, 90)), 2**rng.randint(0, 90)) for _ in range(rng.randint(1, 12))]
        b = [rng.randint(-(2**rng.randint(0, 90)), 2**rng.randint(0, 90)) for _ in range(rng.randint(1, 12))]
        # (2, 4) takes operands longer than phi = 8, up to p^j = 16
        p, j = rng.choice([(2, 4), (2, 5), (3, 3), (5, 2), (13, 1)])
        assert resultants.mul_mod_phi(a, b, p, j) == product_mod_phi(a, b, p, j), (a, b, p, j)


def test_packed_fold_against_unipoly_reduction():
    # the reduction mod t^(p^j) - 1 and mod Phi_{p^j} on the packed product:
    # operands shorter than phi, zero operands, and operands whose entries
    # are all +-max, whose digits come closest to the width bound
    rng = random.Random(31)
    for p in (2, 3, 5, 7):
        j = 1
        while resultants.phi_degree(p, j) <= 64:
            n = resultants.phi_degree(p, j)
            top = 2 ** rng.randint(1, 200) - 1
            short = [rng.randint(-top, top) for _ in range(rng.randint(1, n))]
            operands = [
                [0] * n,
                [0],
                short,
                [top] * n,
                [-top] * n,
                [top if i % 2 else -top for i in range(n)],
                [rng.randint(-top, top) for _ in range(n)],
            ]
            for a in operands:
                for b in operands:
                    assert resultants.mul_mod_phi(a, b, p, j) == product_mod_phi(a, b, p, j), (p, j, a, b)
            j += 1


def prs_elimination(f, p, j):
    """Res(Phi_{p^j}(t_d), f) by the subresultant PRS over Z[t1..t_{d-1}]."""
    phi = cyclotomic(p, j)
    g = UniPoly(f.coeffs_in_last_var())
    if g.degree() >= phi.degree():
        _, g = divmod_monic(g, phi)
        if g.is_zero:
            return MultiPoly.zero(f.num_vars - 1)
    value = resultant_prs(phi, g)
    return MultiPoly.const(f.num_vars - 1, value) if isinstance(value, int) else value


def check_elimination(f, p, j):
    value = resultants.phi_resultant_last_var(f, p, j)
    assert value == prs_elimination(f, p, j), (f, p, j)
    phi = cyclotomic(p, j)
    g = UniPoly(f.coeffs_in_last_var())
    if phi.degree() + g.degree() <= 8:
        oracle = sylvester_resultant(phi, g)
        assert value == (oracle if isinstance(oracle, MultiPoly) else MultiPoly.const(f.num_vars - 1, oracle))


def test_packed_elimination_against_prs_and_sylvester():
    # one Kronecker-packed integer norm per step against the PRS over the
    # remaining variables; the PRS oracle slows with phi(p^j) and with the
    # size of f (seconds at phi = 100), so the polynomials shrink as it grows
    rng = random.Random(93)
    for d in (2, 3):
        for p in (2, 3, 5, 7):
            for j in range(4):
                n = cyclotomic(p, j).degree()
                if n <= 6:
                    max_terms, max_exp, max_coeff = 5, 3, 2**70
                elif n * d <= 40:
                    max_terms, max_exp, max_coeff = 4, 2, 2**70
                else:
                    max_terms, max_exp, max_coeff = (3, 1, 40) if n <= 42 else (2, 1, 3)
                for _ in range(4):
                    f = random_multipoly(rng, d, max_terms, max_exp, max_coeff)
                    if not f.is_zero:
                        check_elimination(f, p, j)


def test_packed_elimination_edge_cases():
    cases = [
        ("3 - t1^2 + 2*t1", 3),  # independent of t2
        ("1 + t1 + t1*t2^2 - 2*t2^3", 2),  # zero t2 coefficient
        ("-3*t1*t2^2 + t2 - 5", 2),  # negative leading coefficient
        ("t1 - t2", 3),
        ("-(2^90)*t2^2 + t1*t2 - 1", 2),
    ]
    for text, top in cases:
        f = parse_poly(text, 2)
        for p in (2, 3, 5, 7):
            for j in range(top + 1 if p > 3 else 4):
                check_elimination(f, p, j)
    three = parse_poly("2*t1*t3 - t2^2 + 7", 4)  # independent of t4
    check_elimination(three, 3, 2)
    for p, j in [(2, 2), (5, 1), (7, 0)]:
        assert resultants.phi_resultant_last_var(MultiPoly.zero(3), p, j) == MultiPoly.zero(2)
    # one variable is a final norm (resultant_phi_int), not an elimination
    for f in (parse_poly("1 + t1", 1), MultiPoly.const(0, 3)):
        with pytest.raises(ValueError):
            resultants.phi_resultant_last_var(f, 2, 1)
    # a shared monomial is a shared power of two once packed, divided out
    # before the norm: Res(Phi_{7^3}(t3), 3*t1*t2*t3) = (3*t1*t2)^294
    three_monomial = parse_poly("3*t1*t2*t3", 3)
    assert resultants.phi_resultant_last_var(three_monomial, 7, 3) == MultiPoly(2, {(294, 294): 3**294})
    shared = parse_poly("6*t1*t2^2 - 4*t1^3*t2^2*t3^2", 3)
    for p, j in [(2, 3), (3, 2), (5, 1)]:
        check_elimination(shared, p, j)
    for p, j in [(2, 1), (3, 2), (7, 1)]:
        g = UniPoly((-12, 8, 40))
        assert resultant_phi_int(p, j, g) == resultant_prs(cyclotomic(p, j), g)
    # Res(Phi_{2^j}(t2), 1 + t1) = (1 + t1)^n: the central binomial
    # coefficient comes within sqrt(n) of the digit bound ||f||_1^n = 2^n
    for j in range(9):
        n = cyclotomic(2, j).degree()
        value = resultants.phi_resultant_last_var(parse_poly("1 + t1", 2), 2, j)
        assert value == MultiPoly(1, {(k,): math.comb(n, k) for k in range(n + 1)})


def test_packed_elimination_of_sparse_inputs():
    # the digit arrays stop at the highest occupied digit, so one-term and
    # sparse inputs pack short; the PRS over the other variables agrees
    cases = [
        ("3*t1*t2", 2, [(7, 2), (3, 3), (2, 5)]),
        ("-5*t1^3*t2^2", 2, [(5, 2), (2, 4)]),
        ("t1^4 + 2*t2^3", 2, [(3, 2), (2, 3)]),
        ("3*t1*t2*t3", 3, [(7, 1), (3, 2), (2, 3)]),
        ("t1^3*t2^2*t3 - 2", 3, [(5, 1), (2, 3)]),
        ("2*t2^2*t3^3 + t1^3", 3, [(3, 1), (2, 2)]),
    ]
    for text, d, levels in cases:
        f = parse_poly(text, d)
        for p, j in levels:
            check_elimination(f, p, j)


def test_linear_norm_against_the_tower():
    # the closed form for a + b*zeta against the tower on the same element
    rng = random.Random(17)
    for p in (2, 3, 5, 7):
        for j in range(1, {2: 7, 3: 5, 5: 3, 7: 3}[p] + 1):
            for a, b in [(rng.randint(-99, 99), 0), (0, rng.randint(1, 99)), (2**201 + 3, -(2**200))] + [
                (rng.randint(-(2**rng.randint(1, 220)), 2**220), rng.randint(-(2**rng.randint(1, 220)), 2**220))
                for _ in range(3)
            ]:
                x = resultants.reduce_mod_phi([a, b], p, j)
                assert resultants._linear_norm(p, j, a, b) == resultants._tower_norm(p, j, x), (p, j, a, b)
    assert resultants._linear_norm(2, 1, 5, 3) == 2  # Phi_2 = t + 1: the norm is a - b
    assert resultants._linear_norm(3, 2, 5, 0) == 5**6
    assert resultant_phi_int(5, 2, UniPoly((-3, 2))) == resultant_prs(cyclotomic(5, 2), UniPoly((-3, 2)))


def literal_level_norm(p, j, x):
    """The norm of x from level j to level j - 1 as the literal product of
    its conjugates zeta -> zeta^a by mul_mod_phi: the p with a = 1 mod
    p^(j-1) for j >= 2, whose product lies in Z[zeta^p] and is returned as
    its coefficients at multiples of p; at j = 1 the p - 1 with a prime to
    p, whose product is an integer."""
    order = p**j
    y = x
    for a in range(1 + order // p, order, order // p):
        y = resultants.mul_mod_phi(y, resultants.conjugate(x, a, p, j), p, j)
    assert not any(any(y[r::p]) for r in range(1, p))
    return y if j == 1 else y[::p]


def conjugate_product_norm(p, j, x):
    """The tower norm by the literal product of the conjugates of x at every
    level."""
    while j:
        x, j = literal_level_norm(p, j, x), j - 1
    return x[0]


def test_level_norm_against_the_conjugate_product():
    # the addition chain and the restricted last product against the literal
    # product of the conjugates; p = 3 and 5 take doubling steps only, 7, 11
    # and 13 also add a conjugate of x.  Coefficients are 10^30-sized and the
    # shared power 2^40 up to phi = 300, past which the literal product of
    # 13 such conjugates takes over a second
    rng = random.Random(71)
    for p, top in [(3, 5), (5, 3), (7, 3), (11, 3), (13, 3)]:
        for j in range(1, top + 1):
            n = resultants.phi_degree(p, j)
            big, shift = (10**30, 40) if n <= 300 else (3, 2)
            e = rng.randrange(1, n)
            dense = [rng.randint(-big, big) for _ in range(n)]
            cases = [
                dense,
                [0] * e + [-big] + [0] * (n - e - 1),  # a single monomial
                [big] + [0] * (e - 1) + [-2] + [0] * (n - e - 1),  # a binomial
                [c << shift for c in [rng.randint(-9, 9) for _ in range(n - 1)] + [5]],  # a shared power of 2
            ]
            for x in cases:
                assert resultants._level_norm(p, j, x) == literal_level_norm(p, j, x), (p, j, x[:3])


def fixed_part(y, z, p, j):
    """The Z[zeta^p] part of y z in Z[zeta_{p^j}], as _fixed_product gives
    it, by UniPoly product: the coefficients of y z at the multiples of p,
    reduced mod s^(p^(j-1)) - 1 and by monic division by Phi_{p^(j-1)}."""
    order = p ** (j - 1)
    folded = [0] * order
    for i, c in enumerate((UniPoly(y) * UniPoly(z)).coeffs[::p]):
        folded[i % order] += c
    _, rem = divmod_monic(UniPoly(folded), cyclotomic(p, j - 1))
    return [rem[i] for i in range(resultants.phi_degree(p, j - 1))]


def kernel_operands(rng, p, j, bits):
    """Operands of mul_mod_phi and _fixed_product at level j: dense ones
    while their schoolbook product stays small, then a monomial, a
    binomial, a zero-padded one and one with a negative leading
    coefficient."""
    n = resultants.phi_degree(p, j)
    top = 2**bits
    e = rng.randrange(1, n)
    operands = [
        [0] * e + [-top] + [0] * (n - e - 1),
        [top - 1] + [0] * (e - 1) + [-3] + [0] * (n - e - 1),
    ]
    if n * n * max(1, bits / 64) ** 2 <= 50000:
        dense = [rng.randint(-top, top) for _ in range(n)]
        operands += [dense, dense[: n // 3 + 1] + [0] * (n - n // 3 - 1), dense[:-1] + [-top]]
    return operands


def test_schoolbook_and_kronecker_products_agree(monkeypatch):
    # both kernels of mul_mod_phi and _fixed_product, each forced, on the
    # same operands on both sides of the fitted crossover, against each
    # other and UniPoly products; and the level norm by each against the
    # literal product of the conjugates
    plan = resultants._product_plan
    picked = set()
    rng = random.Random(43)

    def products(a, b, p, j, route):
        monkeypatch.setattr(resultants, "_product_plan", lambda a, b, step: (plan(a, b, step)[0], (a, b) if route else None))
        fixed = resultants._fixed_product(a, b, p, j) if j >= 2 else None
        return resultants.mul_mod_phi(a, b, p, j), fixed

    for p in (3, 5, 7, 11, 13):
        for j in (1, 2, 3):
            # a forced Kronecker product of 2028 digits of 3,000 bits takes
            # about a second
            for bits in (1, 40, 400, 3000) if resultants.phi_degree(p, j) <= 300 else (1, 40, 400):
                operands = kernel_operands(rng, p, j, bits)
                for a, b in itertools.product(operands, repeat=2):
                    picked.update(plan(a, b, step)[1] is not None for step in ((1, p) if j >= 2 else (1,)))
                    school, kronecker = products(a, b, p, j, True), products(a, b, p, j, False)
                    monkeypatch.setattr(resultants, "_product_plan", plan)
                    assert school == kronecker, (p, j, bits)
                    assert school[0] == product_mod_phi(a, b, p, j), (p, j, bits)
                    if j >= 2:
                        assert school[1] == fixed_part(a, b, p, j), (p, j, bits)
                if resultants.phi_degree(p, j) <= 42 and bits <= 400:
                    for x in operands:
                        expected = literal_level_norm(p, j, x)
                        for route in (True, False):
                            monkeypatch.setattr(
                                resultants, "_product_plan", lambda a, b, step, r=route: (plan(a, b, step)[0], (a, b) if r else None)
                            )
                            assert resultants._level_norm(p, j, x) == expected, (p, j, bits, route)
                        monkeypatch.setattr(resultants, "_product_plan", plan)
    # longer than phi, up to p^j, for mul_mod_phi, which reduces them
    for p, j in ((3, 2), (5, 2), (7, 1)):
        a, b = [rng.randint(-99, 99) for _ in range(p**j)], [rng.randint(-(2**90), 2**90) for _ in range(p**j - 1)]
        assert products(a, b, p, j, True)[0] == products(a, b, p, j, False)[0] == product_mod_phi(a, b, p, j)
    assert picked == {True, False}


def test_linear_finish_against_the_level_chain(monkeypatch):
    # a tower finishes by the closed form as soon as x is linear, always at
    # p = 3, level 1: x linear at levels 1-4 against the chain of
    # _level_norm down to Q and the literal product of the conjugates, and
    # nonlinear x at p = 3, whose norm to level 1 is linear, against the chain
    rng = random.Random(47)
    finishes = []
    linear = resultants._linear_norm

    def counting(p, j, a, b):
        finishes.append((p, j))
        return linear(p, j, a, b)

    def chain(p, j, x):
        while j:
            x, j = resultants._level_norm(p, j, x), j - 1
        assert not any(x[1:])
        return x[0]

    for p, top in ((3, 4), (5, 4), (7, 4)):
        for j in range(1, top + 1):
            n = resultants.phi_degree(p, j)
            for a, b in [(rng.randint(-(2**60), 2**60), rng.randint(1, 2**60)), (-7, -(2**100)), (2**30 + 1, 0)]:
                x = [a, b] + [0] * (n - 2)
                value = linear(p, j, a, b)
                assert value == chain(p, j, x), (p, j, a, b)
                if n <= 300:
                    assert value == conjugate_product_norm(p, j, x), (p, j, a, b)
    monkeypatch.setattr(resultants, "_linear_norm", counting)
    for j in (2, 3, 4):
        n = resultants.phi_degree(3, j)
        for bits in (2, 60, 600):
            x = [rng.randint(-(2**bits), 2**bits) for _ in range(n - 1)] + [-(2**bits)]
            finishes.clear()
            assert resultants._tower_norm(3, j, x) == chain(3, j, x), (j, bits)
            assert finishes == [(3, 1)], (j, bits)


def prs_cyclic_resultant(f, p, masks):
    """The masked iterated resultant of a bivariate f by the subresultant
    PRS: t2 against prod_{j in masks[1]} Phi_{p^j}, then t1 against the
    product over masks[0]."""
    divisors = [math.prod((cyclotomic(p, j) for j in sorted(mask)), start=UniPoly((1,))) for mask in masks]
    h = resultant_prs(divisors[1], UniPoly(f.coeffs_in_last_var()))
    h = h if isinstance(h, MultiPoly) else MultiPoly.const(1, h)
    return resultant_prs(divisors[0], UniPoly([c.constant_value() for c in h.coeffs_in_last_var()]))


def test_odd_p_cyclic_resultant_against_prs_and_the_root_product():
    # bivariate requests whose eliminations and final norms run the odd-p
    # tower at levels 1 and 2, with both masks
    texts = ["3 - t1 + 2*t2 + t1*t2^2", "5 + t1 + t2 + t1*t2", "-7*t1^2*t2^2 + 2*t1*t2^3 - t2 + 11"]
    texts.append("2^40 - 3*t1*t2^2 + 987654321987*t1*t2 - t2^2")
    for p, levels in [(3, (2, 2)), (5, (2, 1)), (7, (2, 1))]:
        for text in texts:
            f = parse_poly(text, 2)
            for req in (CyclicResultantRequest.full(f, p, levels), CyclicResultantRequest.rprime(f, p, levels)):
                value = cyclic_resultant(req)
                assert value == prs_cyclic_resultant(f, p, req.factor_mask), (text, p, levels)
                assert value == modular_root_product(f, p, req.factor_mask), (text, p, levels)


def test_a_wrong_restricted_product_is_an_internal_error(capsys, monkeypatch):
    # one digit off in the last product of a level breaks y(1) = x(1) mod p
    from padicres.cli import main

    fixed = resultants._fixed_product

    def off_by_one(y, z, p, j):
        value = fixed(y, z, p, j)
        value[0] += 1
        return value

    monkeypatch.setattr(resultants, "_fixed_product", off_by_one)
    code = main(["res", "-p", "3", "-n", "2,2", "3-t1+2*t2+t1*t2^2"])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert "unexpected error" in captured.err and "norm from level 2 is not x(1) mod 3" in captured.err


def sparse_inputs(rng, sizes=(2, 40, 120)):
    """Coefficient lists of degree 1 to 30 with coefficients of the given
    bit sizes, with a zero constant term, a repeated root and a negative
    leading coefficient among them."""
    for degree in (1, 2, 3, 5, 8, 13, 20, 30):
        for bits in sizes:
            x = [rng.randint(-(2**bits), 2**bits) for _ in range(degree)] + [rng.randint(1, 2**bits)]
            yield x
            yield [0] + x[1:-1] + [-x[-1]]
            if degree >= 3:
                # (t - r)^2 times a random polynomial of degree - 2
                r, y = rng.randint(-5, 5), x[: degree - 2] + x[-1:]
                yield [sum(y[i - k] * c for k, c in enumerate((r * r, -2 * r, 1)) if 0 <= i - k < len(y)) for i in range(degree + 1)]


def test_sparse_levels_against_the_conjugate_product(monkeypatch):
    # a level whose x has degree D < phi(p^(j-1)) is the Graeffe step G_p(x),
    # by scaled power sums or by the chain in a smaller ring, whichever the
    # cost picks: both routes against the literal product of the conjugates
    # in the full ring of the level, on both sides of the crossover
    routes = {"sums": 0, "ring": 0}
    sums, level_norm = resultants._power_sum_graeffe, resultants._level_norm

    def counting_sums(p, x):
        routes["sums"] += 1
        return sums(p, x)

    def counting_ring(p, j, x):
        routes["ring"] += 1
        return level_norm(p, j, x)

    monkeypatch.setattr(resultants, "_power_sum_graeffe", counting_sums)
    monkeypatch.setattr(resultants, "_level_norm", counting_ring)
    rng = random.Random(23)
    for p, level, sizes in ((3, 4, (2, 40, 120)), (5, 3, (2, 40, 120)), (7, 3, (2, 40))):
        for x in sparse_inputs(rng, sizes):
            degree = len(x) - 1
            if degree >= resultants.phi_degree(p, level - 1):
                continue
            expected = literal_level_norm(p, level, resultants.reduce_mod_phi(x, p, level))
            assert not any(expected[degree + 1 :])
            assert sums(p, x) == expected[: degree + 1], (p, x)
            assert resultants._graeffe_level(p, x) == expected[: degree + 1], (p, x)
    assert routes["sums"] and routes["ring"]


def test_sparse_final_norms_against_prs_and_the_root_product():
    # whole final norms whose top levels are sparse, at levels up to 5, 3
    # and 3; Phi_9 (t + 2) vanishes at level 2, and its sparse levels 4 and 5
    # lead to a nonzero value
    rng = random.Random(29)
    for p, top in ((3, 5), (5, 3), (7, 3)):
        for x in itertools.islice(sparse_inputs(rng, (2, 24)), 0, None, 3):
            g = UniPoly(x)
            f = MultiPoly(1, {(i,): c for i, c in enumerate(x) if c})
            for j in range(2, top + 1):
                value = resultant_phi_int(p, j, g)
                assert value == modular_root_product(f, p, [[j]]), (p, j, x)
                if resultants.phi_degree(p, j) * len(x) <= 400:
                    assert value == resultant_prs(cyclotomic(p, j), g), (p, j, x)
    g = cyclotomic(3, 2) * UniPoly((2, 1))
    assert resultant_phi_int(3, 2, g) == 0
    for j in (4, 5):
        assert resultant_phi_int(3, j, g) == modular_root_product(MultiPoly(1, {(i,): c for i, c in enumerate(g.coeffs)}), 3, [[j]])


def test_a_wrong_power_sum_step_is_an_internal_error(capsys, monkeypatch):
    # one coefficient of a power-sum Graeffe step off by one breaks
    # y(1) = x(1) mod p at its level: exit 1, nothing on stdout
    from padicres.cli import main

    sums = resultants._power_sum_graeffe
    calls = []

    def off_by_one(p, x):
        calls.append(len(x) - 1)
        value = sums(p, x)
        value[0] += 1
        return value

    monkeypatch.setattr(resultants, "_power_sum_graeffe", off_by_one)
    code = main(["res", "-p", "7", "-n", "3", "1+t1+t1^6"])
    captured = capsys.readouterr()
    assert calls == [6]
    assert code == 1 and not captured.out
    assert "unexpected error" in captured.err and "norm from level 3 is not x(1) mod 7" in captured.err


def symmetrize(f, block):
    """The sum of f over the permutations of the variables in block."""
    total = MultiPoly.zero(f.num_vars)
    for perm in itertools.permutations(block):
        order = list(range(1, f.num_vars + 1))
        for a, b in zip(block, perm):
            order[a - 1] = b
        total = total + permute_vars(f, order)
    return total


def test_symmetric_inputs_against_the_oracles():
    # one final norm per orbit of the swaps that fix f: two and three
    # variables, the whole set or a block {t1, t3}, equal and unequal
    # levels and masks, against the baseline, the root product and (in two
    # variables) the PRS
    rng = random.Random(31)
    cases = 0
    for d, block, p, levels in [
        (2, [1, 2], 2, (3, 3)),
        (2, [1, 2], 3, (2, 2)),
        (2, [1, 2], 5, (2, 1)),
        (2, [1, 2], 7, (1, 1)),
        (3, [1, 2, 3], 2, (2, 2, 2)),
        (3, [1, 2, 3], 3, (1, 1, 1)),
        (3, [1, 3], 2, (2, 1, 2)),
        (3, [1, 3], 3, (1, 2, 1)),
        (3, [1, 2, 3], 2, (2, 1, 2)),
    ]:
        for _ in range(4):
            f = symmetrize(random_multipoly(rng, d, 3, 2, 4), block)
            if f.is_zero:
                continue
            masks = [range(1, n + 1) for n in levels]
            masks[0] = range(0, levels[0] + 1)
            for req in (
                CyclicResultantRequest.full(f, p, levels),
                CyclicResultantRequest.rprime(f, p, levels),
                CyclicResultantRequest.custom(f, p, levels, masks),
            ):
                value = cyclic_resultant(req)
                assert value == modular_root_product(f, p, req.factor_mask), (str(f), p, levels)
                assert value == cyclic_resultant_baseline(req, budget=4096), (str(f), p, levels)
                if d == 2:
                    assert value == prs_cyclic_resultant(f, p, req.factor_mask), (str(f), p, levels)
                cases += 1
            assert len(resultants._swap_blocks(f, [range(2)] * d)[1]) >= 2, str(f)
    assert cases > 90


def test_swap_blocks_against_the_permuted_polynomial():
    # the oracle: variable i joins the first block whose first variable a
    # has i's mask and permute_vars of f by the swap (a i) equal to f; the
    # blocks are read back from links, and orbit holds every rearrangement
    # within them
    rng = random.Random(29)
    checked = symmetric = 0
    for _ in range(600):
        d = rng.randint(1, 4)
        f = random_multipoly(rng, d, 4, 2, 3)
        if d >= 2 and rng.random() < 0.6:
            f = symmetrize(f, sorted(rng.sample(range(1, d + 1), rng.randint(2, d))))
        masks = [range(rng.randint(0, 1), rng.randint(1, 2) + 1) for _ in range(d)]
        if rng.random() < 0.6:
            masks = [masks[0]] * d
        blocks = []
        for i in range(d):
            for block in blocks:
                swap = list(range(1, d + 1))
                swap[block[0]], swap[i] = i + 1, block[0] + 1
                if masks[block[0]] == masks[i] and permute_vars(f, swap) == f:
                    block.append(i)
                    break
            else:
                blocks.append([i])
        links, orbit = resultants._swap_blocks(f, masks)
        following = {a + link + 1 for a, link in enumerate(links) if link >= 0}
        chains = []
        for a in range(d):
            if a not in following:
                chains.append([a])
                while links[chains[-1][-1]] >= 0:
                    chains[-1].append(chains[-1][-1] + links[chains[-1][-1]] + 1)
        assert chains == blocks, (str(f), masks)
        size = math.prod(math.factorial(len(block)) for block in blocks)
        assert len(orbit) == (size if size > 1 else 0), (str(f), masks)
        assert all(sorted(sigma[a] for a in block) == block for sigma in orbit for block in blocks)
        checked += 1
        symmetric += size > 1
    assert checked == 600 and symmetric >= 150


def test_graeffe_route_against_prs_and_the_conjugate_product():
    # at p = 2 the tower takes root-squaring steps; the literal product of
    # the conjugates on the same element and the PRS (while it stays fast)
    # agree
    rng = random.Random(41)
    for j in range(1, 11):
        phi = cyclotomic(2, j)
        n = phi.degree()
        # 1,300-bit coefficients up to j = 7; past it the packed size stays
        # at 2^17 bits, which keeps the conjugate product within a second
        for bits in (1, 64, min(1300, 2**17 // n)):
            g = UniPoly([rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(n, 2 * n + 1))] + [1])
            cases = [g, g * UniPoly((0, 0, 2**rng.randint(1, 40))), phi * UniPoly((-3, 2**bits))]
            for h in cases:
                value = resultant_phi_int(2, j, h)
                x = resultants.reduce_mod_phi(h.coeffs, 2, j)
                assert resultants._tower_norm(2, j, x) == value, (j, bits)
                assert value == conjugate_product_norm(2, j, x), (j, bits)
                if n <= 16 or (n <= 64 and bits <= 64):
                    assert value == resultant_prs(phi, h), (j, bits)
            assert resultant_phi_int(2, j, cases[2]) == 0
        # linear elements: the closed form against the root-squaring steps
        for a, b in [(rng.randint(-(2**1300), 2**1300), rng.randint(1, 2**1300)), (2**201 + 3, -(2**200))]:
            x = resultants.reduce_mod_phi([a, b], 2, j)
            assert resultants._linear_norm(2, j, a, b) == resultants._tower_norm(2, j, x), (j, a, b)


def test_packed_tower_against_prs():
    # graeffe_norm through cyclotomic_norm: random g of 1 to 3,000 bits,
    # digits at the edge of a byte width, and inputs sharing a power of two
    # (cyclotomic_norm's shift), against the PRS where it stays fast and
    # the literal conjugate product where that does
    rng = random.Random(47)
    for j in range(2, 10):
        phi = cyclotomic(2, j)
        n = phi.degree()
        for bits in (1, 20, 200, 3000):
            if n * bits > 2**17:
                continue
            g = UniPoly([rng.randint(-(2**bits), 2**bits) for _ in range(n)])
            edge = UniPoly([rng.choice((-1, 1)) * (2 ** (8 * (bits // 8 + 1) - 1) - 1) for _ in range(n)])
            for h in (g, edge, g * UniPoly((2 ** rng.randint(1, 9),)), edge * UniPoly((0, 4))):
                value = resultant_phi_int(2, j, h)
                if n * n * max(map(abs, h.coeffs)).bit_length() <= 2**17:
                    assert value == resultant_prs(phi, h), (j, bits)
                else:
                    assert value == conjugate_product_norm(2, j, resultants.reduce_mod_phi(h.coeffs, 2, j)), (j, bits)


def test_packed_tower_repacks_at_large_levels(monkeypatch):
    # from j = 14 on, 20-bit digits make the size rule re-measure the
    # digits and pack them tighter; the norm is multiplicative, and equals
    # the tower that keeps its first width
    rng = random.Random(48)
    j, n = 14, 2**13
    x = [rng.randint(-(2**20), 2**20) for _ in range(n)]
    y = [rng.randint(-(2**20), 2**20) for _ in range(n)]
    remeasure, repacked = resultants._remeasure, []

    def counting(n, size):
        repacked.append(remeasure(n, size))
        return repacked[-1]

    monkeypatch.setattr(resultants, "_remeasure", counting)
    nx, ny = resultants._tower_norm(2, j, x), resultants._tower_norm(2, j, y)
    assert any(repacked)
    assert nx * ny == resultants._tower_norm(2, j, resultants.mul_mod_phi(x, y, 2, j))
    monkeypatch.setattr(resultants, "_remeasure", lambda n, size: False)
    assert resultants._tower_norm(2, j, x) == nx


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
            b = cyclic_resultant(maker(permute_vars(f, (2, 1)), p, swapped_levels))
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


def test_fast_path_budget_guard(monkeypatch):
    f = parse_poly("t1 - 2", 1)
    monkeypatch.setenv("PADIC_RES_BUDGET", "256")
    with pytest.raises(BudgetExceededError):
        cyclic_resultant(CyclicResultantRequest.full(f, 2, (9,)))
    monkeypatch.setenv("PADIC_RES_BUDGET", "16")
    with pytest.raises(BudgetExceededError):
        cyclic_resultant(CyclicResultantRequest.full(f, 2, (5,)))


def test_cost_estimate_tracks_the_elimination(monkeypatch):
    three = parse_poly("5+t1+t2+t3", 3)
    two = parse_poly("5+t1+t2+t1*t2", 2)
    cap = resultants.COST_BUDGET_DEFAULT

    def cost(f, p, levels):
        return resultants.cost_estimate(CyclicResultantRequest.full(f, p, levels))

    # the t2 and t3 levels drive three-variable elimination, the t1 level
    # hardly (measured: 0.004, 0.004 and 0.011 s for the three below)
    assert cost(three, 2, (2, 7, 7)) > cap and cost(three, 2, (8, 8, 8)) > cap
    assert cost(three, 2, (6, 2, 2)) < cost(three, 2, (2, 6, 2)) < cost(three, 2, (2, 2, 6)) < cap
    # measured at 7.7 s and 3.5 s; 2,7,7 had not finished after 90 s, and its
    # dominant step grows about 50x per level; a univariate level-20 norm is
    # still accepted
    assert cost(three, 2, (2, 6, 6)) < cap
    assert cost(two, 2, (10, 10)) < cap
    assert cost(parse_poly("t1 - 2", 1), 2, (20,)) < cap
    # levels past the float range are refused, not an overflow
    assert cost(parse_poly("t1 - 2", 1), 2, (2000,)) == float("inf")
    # the override lifts the refusal
    monkeypatch.setattr(resultants, "_factors", lambda f, p, masks: iter([((2, 7, 7), 7)]))
    monkeypatch.setenv("PADIC_RES_BUDGET", str(10**12))
    assert cyclic_resultant(CyclicResultantRequest.full(three, 2, (2, 7, 7))) == 7


def test_masks_cost_takes_polynomially_many_steps_in_the_variables(monkeypatch):
    # 1 + t1 in d variables: (K + 1)^d index tuples, but the walk's states
    # (degrees, bits) per depth are few, so the norm estimates it takes
    # grow about as d^2
    calls = []
    norm_cost = resultants._norm_cost

    def counted(*args):
        calls.append(args)
        if len(calls) > 10**5:
            raise AssertionError("the estimate walks every index tuple")
        return norm_cost(*args)

    monkeypatch.setattr(resultants, "_norm_cost", counted)
    # a budget past every estimate here, so that each walk runs to its end
    monkeypatch.setenv("PADIC_RES_BUDGET", str(10**300))
    counts = {}
    for d in (10, 20, 40):
        f = MultiPoly(d, {(0,) * d: 1, (1,) + (0,) * (d - 1): 1})
        calls.clear()
        for p, mask in ((2, "rprime"), (3, "r"), (5, "r")):
            resultants.masks_cost(f, p, [range(mask == "rprime", 3)] * d)
        counts[d] = len(calls)
    assert counts[20] < 6 * counts[10] and counts[40] < 6 * counts[20] < 6 * 20**3, counts


def test_masks_cost_is_the_whole_walk_up_to_the_budget_and_inf_past_it(monkeypatch):
    # the walk stops once a running total passes cost_budget(); an estimate
    # at or under it must be bit-identical to the whole walk's, so that no
    # route choice or admitted request changes
    rng = random.Random(20261021)
    cases = []
    for d in (1, 2, 3):
        for p in (2, 3, 5, 7):
            for K in range(1, 7):
                for mask in ("r", "rprime"):
                    cases.append((random_multipoly(rng, d, 4, 3, 9), p, [range(mask == "rprime", K + 1)] * d))
    monkeypatch.setenv("PADIC_RES_BUDGET", str(10**300))
    whole = [resultants.masks_cost(*case) for case in cases]
    monkeypatch.delenv("PADIC_RES_BUDGET")
    cut = [resultants.masks_cost(*case) for case in cases]
    cap = resultants.COST_BUDGET_DEFAULT
    for case, w, c in zip(cases, whole, cut):
        assert c == (w if w <= cap else math.inf), (case, w, c)
    assert min(whole) <= cap < max(whole) < math.inf


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
    eliminations, finals = [], []
    elimination, final = resultants.phi_resultant_last_var, resultants.resultant_phi_int

    def counting_elimination(f, p, j):
        eliminations.append(f.num_vars)
        return elimination(f, p, j)

    def counting_final(p, j, g):
        finals.append(j)
        return final(p, j, g)

    monkeypatch.setattr(resultants, "phi_resultant_last_var", counting_elimination)
    monkeypatch.setattr(resultants, "resultant_phi_int", counting_final)
    # three indices per variable, and no swap of variables fixes f: 3
    # eliminations of t3, 9 of t2, and 27 final norms in t1
    req = CyclicResultantRequest.full(parse_poly("5+t1+2*t2+3*t3", 3), 2, (2, 2, 2))
    value = cyclic_resultant(req)
    assert [eliminations.count(d) for d in (3, 2, 1)] == [3, 9, 0]
    assert len(finals) == 27
    assert value == cyclic_resultant_baseline(req, budget=4096)
    # f symmetric in all three: one elimination of t2 per j2 <= j3 (6), and
    # one final norm per j1 <= j2 <= j3 (10, one per orbit of the 27 tuples)
    eliminations.clear()
    finals.clear()
    req = CyclicResultantRequest.full(parse_poly("5+t1+t2+t3", 3), 2, (2, 2, 2))
    value = cyclic_resultant(req)
    assert [eliminations.count(d) for d in (3, 2, 1)] == [3, 6, 0]
    assert len(finals) == 10
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


def test_modular_root_product_against_the_baseline():
    # custom masks, three variables and p = 5 or 7, which acceptance
    # criterion 1's grid leaves out: the modular route equals the literal
    # Sylvester baseline
    rng = random.Random(10061)
    done, seen = 0, set()
    while done < 40:
        d = rng.choice([1, 2, 3])
        f = random_multipoly(rng, d, 3, 3, 9)
        if f.is_zero:
            continue
        p = rng.choice([2, 3, 5, 7]) if d < 3 else 2
        levels = tuple(rng.randint(1, 2 if p < 5 else 1) for _ in range(d))
        masks = [set(rng.sample(range(n + 1), rng.randint(1, n + 1))) for n in levels]
        req = CyclicResultantRequest.custom(f, p, levels, masks)
        value = cyclic_resultant_baseline(req, budget=4096)
        assert modular_root_product(f, p, masks) == value == cyclic_resultant(req), (f.serialize(), p, masks)
        done += 1
        seen.add(p)
    assert seen == {2, 3, 5, 7}


def test_modular_root_product_zero_residue_is_not_zero():
    # the value is the modulus of the first ring, the product of its
    # _RING_PRIMES primes: 0 in that ring, and only the second ring's
    # residue, through the CRT, decides it
    ring = math.prod(q for q, _ in oracles._oracle_primes(2, 2, oracles._RING_PRIMES))
    f = MultiPoly.const(1, ring)
    assert modular_root_product(f, 2, [{1}]) == ring
    assert modular_root_product(f - MultiPoly.const(1, 2 * ring), 2, [{1}]) == -ring
    assert modular_root_product(parse_poly("1 + t1", 1), 2, [{0, 1}]) == 0


def test_modular_root_product_joins_several_rings(monkeypatch):
    # ||f||_1 = 13 over the 3^2 * 3^3 = 243 tuples needs a bound of about
    # 900 bits, so 15 primes in two rings, which the CRT joins
    f = parse_poly("2 - 3*t1 + t2^2 - 4*t1*t2 + 3*t1^2*t2", 2)
    req = CyclicResultantRequest.full(f, 3, (2, 3))
    rings = []
    crt = oracles._crt

    def spy(pairs):
        pairs = list(pairs)
        rings.append(len(pairs))
        return crt(pairs)

    monkeypatch.setattr(oracles, "_crt", spy)
    assert modular_root_product(f, 3, req.factor_mask) == cyclic_resultant(req) != 0
    assert rings[:-1] == [oracles._RING_PRIMES, 15 - oracles._RING_PRIMES] and rings[-1] == 2


def test_oracle_primes_are_searched_once_per_modulus(monkeypatch):
    # character_oracle asks for the same modulus once per level and once per
    # sublink: a repeat call replays the primes found, with no primality test
    f = parse_poly("3 + 2*t1 - t2 + t1*t2^2", 2)
    masks = [{1, 2}, {2}]
    req = CyclicResultantRequest.custom(f, 3, (2, 2), masks)
    first = modular_root_product(f, 3, masks)
    primes = oracles._oracle_primes(3, 9, 4)
    for q, zeta in primes:
        assert q % 9 == 1 and 2**62 < q < 2**64 and is_prime(q)
        assert pow(zeta, 9, q) == 1 and pow(zeta, 3, q) != 1
    assert [q for q, _ in primes] == sorted({q for q, _ in primes})

    def no_search(q):
        raise AssertionError("the oracle primes were searched again")

    monkeypatch.setattr(oracles, "is_prime", no_search)
    assert modular_root_product(f, 3, masks) == first == cyclic_resultant(req)
    assert oracles._oracle_primes(3, 9, 4) == primes


def test_factor_walk_leaves_no_reference_cycle():
    # the walk is a module-level generator, not a closure over its own
    # state, so a whole cyclic_resultant frees everything by reference count
    import gc

    from padicres.links import whitehead_delta

    req = CyclicResultantRequest.full(whitehead_delta(7), 2, (4, 4))
    gc.collect()
    gc.disable()
    try:
        cyclic_resultant(req)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
