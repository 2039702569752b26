import random

import pytest

from padicres.unipoly import UniPoly, cyclotomic, is_prime, power_minus_one
from reference import divmod_monic


def test_cyclotomic_p2_j1():
    assert cyclotomic(2, 1) == UniPoly((1, 1))


def test_cyclotomic_p3_j2_against_division_oracle():
    phi9 = cyclotomic(3, 2)
    assert phi9 == UniPoly((1, 0, 0, 1, 0, 0, 1))
    # oracle 1: Phi_9 = Phi_3(t^3)
    phi3 = cyclotomic(3, 1)
    composed = [0] * 7
    for i, c in enumerate(phi3.coeffs):
        composed[3 * i] = c
    assert phi9 == UniPoly(composed)
    # oracle 2: (t^9 - 1) / (t^3 - 1), exact polynomial division
    q, r = divmod_monic(power_minus_one(9), power_minus_one(3))
    assert r.is_zero and q == phi9


def test_cyclotomic_telescoping_small():
    prod = UniPoly((1,))
    for j in range(3):
        prod = prod * cyclotomic(2, j)
    assert prod == power_minus_one(4)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2), (7, 2)])
def test_cyclotomic_telescoping(p, n):
    prod = UniPoly((1,))
    for j in range(n + 1):
        prod = prod * cyclotomic(p, j)
    assert prod == power_minus_one(p**n)


def test_cyclotomic_requires_prime():
    with pytest.raises(ValueError):
        cyclotomic(4, 1)
    with pytest.raises(ValueError):
        cyclotomic(1, 2)


def test_shift_one_examples():
    assert UniPoly((-2, 1)).shift_one() == UniPoly((-1, 1))
    assert UniPoly((0, 0, 1)).shift_one() == UniPoly((1, 2, 1))
    # f = t^2 - (2+p)t + (1+p), p = 5: constant term must equal f(1)
    p = 5
    f = UniPoly((1 + p, -(2 + p), 1))
    shifted = f.shift_one()
    assert shifted == UniPoly((0, -5, 1))
    assert shifted[0] == f.evaluate(1)


def test_shift_one_constant_term_is_value_at_one():
    rng = random.Random(3)
    for _ in range(50):
        f = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))])
        if f.is_zero:
            continue
        assert f.shift_one()[0] == f.evaluate(1)


def test_content_and_scalar_division():
    f = UniPoly((6, -9, 12))
    assert f.content() == 3


def test_divmod_monic():
    rng = random.Random(4)
    for _ in range(50):
        g = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1])
        q = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        r = UniPoly([rng.randint(-9, 9) for _ in range(g.degree())])
        f = q * g + r
        q2, r2 = divmod_monic(f, g)
        assert q2 == q and r2 == r


def test_pseudo_rem_scaling():
    # lc(B)^(degA - degB + 1) * A = Q*B + prem(A, B): check over the rationals
    from fractions import Fraction

    A = UniPoly((1, 2, 0, 3, 1))
    B = UniPoly((2, 0, 3))
    R = A.pseudo_rem(B)
    assert R.degree() < B.degree()
    rem = [Fraction(c) * Fraction(B.lc()) ** (A.degree() - B.degree() + 1) for c in A.coeffs]
    for i in range(len(rem) - 1, B.degree() - 1, -1):
        c = rem[i] / B.lc()
        for k, b in enumerate(B.coeffs):
            rem[i - B.degree() + k] -= c * Fraction(b)
    assert all(Fraction(R[i]) == rem[i] for i in range(B.degree()))


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
