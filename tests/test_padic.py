import random

import pytest

from padicres.errors import PrecisionExhaustedError
from padicres.multipoly import MultiPoly
from padicres.padic import (
    PadicApprox,
    nonp_part,
    teichmuller,
    vp,
    vp_split,
)
from padicres.resultants import CyclicResultantRequest, cyclic_resultant


def test_vp_and_nonp_examples():
    assert vp(-12, 2) == 2 and nonp_part(-12, 2) == -3
    assert vp(7, 7) == 1 and nonp_part(7, 7) == 1
    with pytest.raises(ValueError):
        vp(0, 3)
    assert nonp_part(0, 3) == 0


def naive_split(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def test_vp_split_against_the_naive_loop():
    rng = random.Random(2026)
    for _ in range(3000):
        p = rng.choice([2, 3, 5, 7, 11, 101, 2**61 - 1])
        x = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 40)) * p ** rng.randint(0, 70)
        assert vp_split(x, p) == naive_split(x, p) == (vp(x, p), nonp_part(x, p)), (x, p)
    # 600k-bit values with valuations near 2^k - 1, 2^k and 2^k + 1 and the
    # valuation of the K = 9 window of 5+t1+t2+t1*t2 at p = 2
    for p in (2, 3, 5):
        unit = rng.getrandbits(600_000) | 1
        while unit % p == 0:
            unit += 2
        for v in (0, 1, 63, 64, 65, 1023, 1024, 1025, 11245):
            x = -unit * p**v
            assert vp_split(x, p) == (v, -unit), (p, v)
            if v < 100:
                assert vp_split(x, p) == naive_split(x, p), (p, v)
    with pytest.raises(ValueError):
        vp_split(0, 5)


def test_vp_of_even_whitehead_order():
    # v_2 of the masked resultant of m(1 + t1t2 - t1 - t2) at m = 1, levels (1,1)
    f = MultiPoly(2, {(0, 0): 1, (1, 1): 1, (1, 0): -1, (0, 1): -1})
    value = cyclic_resultant(CyclicResultantRequest.rprime(f, 2, (1, 1)))
    assert vp(value, 2) == 2  # n1*(p^n2 - 1) + n2*(p^n1 - 1) = 1 + 1


def test_teichmuller_values():
    assert teichmuller(2, 5, 2).residue(2) == 7
    assert teichmuller(4, 2, 6).is_exact_zero
    assert teichmuller(6, 2, 6).is_exact_zero
    assert teichmuller(3, 2, 6).residue(6) == 1  # odd -> exactly 1
    assert teichmuller(1, 3, 8).residue(8) == 1


def test_teichmuller_properties():
    rng = random.Random(17)
    for p in (3, 5, 7, 2):
        for K in (1, 4, 8, 12):
            for _ in range(20):
                x = rng.randint(1, 500)
                if x % p == 0:
                    continue
                w = teichmuller(x, p, K)
                assert (w**p).eq_mod(w, K)
                assert w.residue(1) == x % p or p == 2
                y = rng.randint(1, 500)
                if y % p:
                    assert teichmuller(x * y, p, K).eq_mod(
                        teichmuller(x, p, K) * teichmuller(y, p, K), K
                    )


def test_teichmuller_against_its_definition():
    # odd p: the fixed point of y -> y^p mod p^K that is x mod p, reduced
    # into [0, p^K); exact 0 on multiples of p
    for p in (3, 5, 7, 11, 13):
        for K in range(1, 9):
            mod = p**K
            for x in range(-60, 200):
                w = teichmuller(x, p, K)
                if x % p == 0:
                    assert w.is_exact_zero
                    continue
                y = w.residue(K)
                assert 0 <= y < mod and y == w.unit and w.val == 0
                assert pow(y, p, mod) == y and (y - x) % p == 0, (x, p, K)


def test_padic_approx_roundtrip_and_str():
    x = PadicApprox.from_int(50, 5, 4)
    assert x.val == 2 and x.unit == 2 and x.residue(4) == 50
    assert str(x) == "5^2 * 2 mod 5^4"
    assert str(PadicApprox.zero(3)) == "0 (exact)"
    assert str(PadicApprox(3, 2, None, None)) == "0 mod 3^2"


def test_padic_approx_mul_precision():
    a = PadicApprox.from_int(3, 5, 4)      # unit known mod 5^4
    b = PadicApprox.from_int(50, 5, 4)     # 5^2 * 2, unit known mod 5^2
    c = a * b
    assert c.val == 2 and c.prec == 4  # relative precision of b dominates
    assert c.residue(4) == (3 * 50) % 5**4


def test_padic_approx_add_cancellation():
    a = PadicApprox.from_int(1, 3, 3)
    b = PadicApprox.from_int(26, 3, 3)
    c = a + b  # 27 = 0 mod 3^3
    assert c.is_zero_at_precision and not c.is_exact_zero


def test_padic_approx_exact_arithmetic():
    a = PadicApprox.from_int(-1, 2, 4, exact=True)
    b = PadicApprox.from_int(1, 2, 4, exact=True)
    assert (a + b).is_exact_zero
    assert (a * a).residue(10) == 1
    assert a.residue(10) == 2**10 - 1


def test_padic_approx_inverse_and_pow():
    x = PadicApprox.from_int(7, 5, 4)
    assert (x * x.inverse()).residue(4) == 1
    assert (x**3).residue(4) == pow(7, 3, 5**4)
    with pytest.raises(ValueError):
        PadicApprox.from_int(10, 5, 4).inverse()
    with pytest.raises(ZeroDivisionError):
        PadicApprox(5, 2, None, None).inverse()


def test_residue_beyond_precision_raises():
    x = PadicApprox.from_int(7, 5, 3)
    with pytest.raises(PrecisionExhaustedError):
        x.residue(4)
