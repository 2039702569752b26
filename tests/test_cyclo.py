import math
import random
import sys
from fractions import Fraction

import pytest

from padicres.cyclo import (
    CycloPadic,
    _into_convergence,
    _order_at_one,
    _order_at_one_f2,
    _log_series,
    _packed_argument,
    _packed_log_series,
    _Slots,
    _tail_negligible,
    level_log_norm,
    level_log_valuation,
    log_with_shift,
    phi_degree,
    pi_valuation,
    residue_valuation,
)
from padicres.errors import DegenerateValueError, PrecisionExhaustedError
from padicres.oracles import resultant_prs
from padicres.padic import vp, vp_split
from padicres.resultants import mul_mod_phi
from padicres.unipoly import UniPoly, cyclotomic
from reference import divmod_monic, nu_zeta, random_multipoly


def _zeta(p, level, prec):
    return CycloPadic(p, level, prec, [0, 1])


_ARGUMENTS = {}


def _argument(m, level, prec):
    """The Whitehead argument (m*zeta + m + 1) / (m*zeta + m + zeta) mod
    2^prec as the numerator times invert_unit's inverse of the denominator:
    the reference for _packed_argument.  One value per (m, level) is kept,
    at the largest precision asked for so far, and reduced for smaller ones:
    the inverse mod 2^prec is that mod any higher power reduced."""
    kept = _ARGUMENTS.get((m, level))
    if kept is None or kept.prec < prec:
        z = _zeta(2, level, prec)
        kept = _ARGUMENTS[m, level] = (z * m + (m + 1)) * (z * m + z + m).invert_unit()
    return CycloPadic(2, level, prec, kept.coeffs)


def _pack(x, ring):
    """x's residues in the slots of a _Slots ring."""
    return sum(c << (8 * ring.size * i) for i, c in enumerate(x.coeffs))


def _unpack(value, ring, prec):
    """The residues mod 2^prec in the slots of a _Slots ring."""
    return tuple(value >> (8 * ring.size * i) & ((1 << prec) - 1) for i in range(ring.n))


def test_zeta_satisfies_phi():
    # p=2, m=2: zeta^2 = -1
    z = _zeta(2, 2, 4)
    assert z * z == CycloPadic.from_int(-1, 2, 2, 4)
    # p=3, m=1: 1 + zeta + zeta^2 = 0
    z3 = _zeta(3, 1, 5)
    assert (CycloPadic.from_int(1, 3, 1, 5) + z3 + z3 * z3).is_zero_at_precision
    # p=2, m=1: Phi_2 = t + 1, so zeta = -1 and the ring is Z/2^K
    assert _zeta(2, 1, 5) == CycloPadic.from_int(-1, 2, 1, 5)


def _reduced(poly, p, m, K):
    """poly mod (Phi_{p^m}, p^K) by monic division: phi(p^m) coefficients."""
    _, rem = divmod_monic(poly, cyclotomic(p, m))
    return tuple(rem[i] % p**K for i in range(phi_degree(p, m)))


def test_products_against_unipoly_reduction():
    # every level with phi <= 64, (2, 1) with phi = 1 included; zero
    # operands and all-(p^K - 1) operands stress the Kronecker digit width
    assert [phi_degree(3, j) for j in range(4)] == [1, 2, 6, 18]
    rng = random.Random(29)
    for p in (2, 3, 5, 7):
        m = 1
        while phi_degree(p, m) <= 64:
            deg = phi_degree(p, m)
            K = rng.randint(1, 40)
            operands = [[], [p**K - 1] * deg] + [[rng.randrange(p**K) for _ in range(deg)] for _ in range(2)]
            for a in operands:
                for b in operands:
                    product = CycloPadic(p, m, K, a) * CycloPadic(p, m, K, b)
                    assert product.coeffs == _reduced(UniPoly(a) * UniPoly(b), p, m, K), (p, m, K)
            m += 1


def test_constructor_reduces_long_coefficient_lists():
    rng = random.Random(30)
    for p, m in [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 2)]:
        K = rng.randint(1, 12)
        for length in (phi_degree(p, m) + 1, p**m, 3 * p**m + 2):
            cs = [rng.randrange(-(p**K), p**K) for _ in range(length)]
            assert CycloPadic(p, m, K, cs).coeffs == _reduced(UniPoly(cs), p, m, K), (p, m, length)


def test_difference_of_squares():
    one = CycloPadic.from_int(1, 3, 1, 4)
    z = _zeta(3, 1, 4)
    assert (one + z) * (one - z) == one - z * z


def test_ring_axioms_random():
    rng = random.Random(21)
    for _ in range(50):
        p, m, K = rng.choice([(2, 2, 5), (2, 3, 6), (3, 1, 4), (3, 2, 4), (5, 1, 3)])
        deg = phi_degree(p, m)
        def rand():
            return CycloPadic(p, m, K, [rng.randrange(p**K) for _ in range(deg)])
        x, y, z = rand(), rand(), rand()
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x - y) + y == x


def test_invert_unit_200_random():
    # half the elements are zeta + p*(...), so the mod-p Newton phase starts
    # from y = 1 with the error 1 - zeta and must really iterate
    rng = random.Random(22)
    done = 0
    while done < 200:
        p = rng.choice([2, 3, 5, 7])
        m = rng.randint(1, 4 if p < 5 else 2)
        K = rng.randint(2, 8)
        deg = phi_degree(p, m)
        x = CycloPadic(p, m, K, [rng.randrange(p**K) for _ in range(deg)])
        if done % 2:
            x = _zeta(p, m, K) + x * p
        try:
            y = x.invert_unit()
        except ValueError:
            continue
        assert x * y == CycloPadic.from_int(1, p, m, K)
        done += 1


def test_invert_unit_accepts_exactly_the_units():
    rng = random.Random(28)
    units = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        m = rng.randint(1, 4 if p < 5 else 2)
        K = rng.randint(1, 10)
        deg = phi_degree(p, m)
        x = CycloPadic(p, m, K, [rng.randrange(p**K) for _ in range(deg)])
        try:
            unit = pi_valuation(x) == 0
        except PrecisionExhaustedError:
            unit = False  # v_pi(x) >= K >= 1
        if not unit:
            with pytest.raises(ValueError):
                x.invert_unit()
            continue
        assert x * x.invert_unit() == CycloPadic.from_int(1, p, m, K)
        units += 1
    assert 150 < units < 300


def test_invert_unit_takes_no_norm(monkeypatch):
    from padicres import cyclo

    def no_norm(*args):
        raise AssertionError("invert_unit took a norm")

    monkeypatch.setattr(cyclo, "cyclotomic_norm", no_norm)
    for p, m, K in [(2, 5, 20), (3, 3, 12), (7, 2, 6)]:
        x = _zeta(p, m, K) + p
        assert x * x.invert_unit() == CycloPadic.from_int(1, p, m, K)
    u = _argument(2, 4, 30)
    assert u * (u ** -1) == CycloPadic.from_int(1, 2, 4, 30)


def test_packed_argument_against_the_inverse(monkeypatch):
    from padicres import cyclo

    def no_product(*args):
        raise AssertionError("the argument took a ring product")

    ms = list(range(21)) + [63, 64, 1000]
    for level in range(2, 11):
        # the reference mod 2^700; its residues mod 2^prec are the inverse
        # there too, since inverses are unique
        reference = {m: _argument(m, level, 700) for m in ms}
        with monkeypatch.context() as patch:
            patch.setattr(cyclo._Slots, "mul", no_product)
            for m in ms:
                for prec in (1, 2, 5, 32, 700):
                    ring = _Slots(phi_degree(2, level), prec)
                    got = _unpack(_packed_argument(m, level, ring), ring, prec)
                    assert got == CycloPadic(2, level, prec, reference[m].coeffs).coeffs, (m, level, prec)


def test_invert_rejects_non_units():
    z = _zeta(2, 2, 5)
    non_unit = CycloPadic.from_int(1, 2, 2, 5) - z  # the uniformizer
    with pytest.raises(ValueError):
        non_unit.invert_unit()


def test_pi_valuation_examples():
    z = _zeta(2, 2, 6)
    one = CycloPadic.from_int(1, 2, 2, 6)
    assert pi_valuation(one - z) == 1
    assert pi_valuation(CycloPadic.from_int(2, 2, 2, 6)) == 2  # phi(4) = 2


def test_pi_valuation_against_resultant_oracle():
    z = _zeta(2, 2, 8)
    for m in range(1, 5):
        x = z * m + (m + 1)
        oracle = vp(resultant_prs(cyclotomic(2, 2), UniPoly((m + 1, m))), 2)
        assert pi_valuation(x) == oracle


def test_norm_lift_against_prs():
    rng = random.Random(31)
    for p, top in [(2, 6), (3, 4)]:
        for level in range(1, top + 1):
            deg = phi_degree(p, level)
            zero = CycloPadic(p, level, 8, [])
            assert zero.norm_lift() == 0
            for _ in range(4):
                x = CycloPadic(p, level, 8, [rng.randint(0, p**8 - 1) for _ in range(rng.randint(1, deg))])
                lift = UniPoly(x.coeffs)
                expected = 0 if lift.is_zero else resultant_prs(cyclotomic(p, level), lift)
                assert x.norm_lift() == expected


def test_pi_valuation_additive():
    rng = random.Random(23)
    done = 0
    while done < 40:
        p, m, K = rng.choice([(2, 2, 8), (3, 1, 6), (2, 3, 8)])
        deg = phi_degree(p, m)
        x = CycloPadic(p, m, K, [rng.randrange(p**K) for _ in range(deg)])
        y = CycloPadic(p, m, K, [rng.randrange(p**K) for _ in range(deg)])
        try:
            vx, vy, vxy = pi_valuation(x), pi_valuation(y), pi_valuation(x * y)
        except PrecisionExhaustedError:
            continue
        if vx + vy < K:  # within trustworthy range
            assert vxy == vx + vy
        done += 1


def test_pi_valuation_against_the_norm():
    # the residue route against v_p of the norm of the canonical lift: random
    # elements, high content, multiples of pi^k = (1 - zeta)^k, zero, and
    # v_pi = K*phi - 1, the largest a nonzero residue mod p^K can have;
    # every nonzero case returns, those with v_pi >= K included
    rng = random.Random(32)
    zeros = at_or_above_k = 0
    for p, top in [(2, 6), (3, 3), (5, 2), (7, 1)]:
        for level in range(1, top + 1):
            deg = phi_degree(p, level)
            for K in (1, 2, 5, 12):
                pi = CycloPadic.from_int(1, p, level, K) - _zeta(p, level, K)
                edge = pi ** (deg - 1) * p ** (K - 1)
                cases = [CycloPadic(p, level, K, []), pi**deg, CycloPadic.from_int(p ** (K - 1), p, level, K), edge]
                for _ in range(6):
                    x = CycloPadic(p, level, K, [rng.randrange(p**K) for _ in range(deg)])
                    cases += [x, x * p ** rng.randint(1, K), x * pi ** rng.randint(1, 2 * deg + 2), x * edge]
                for x in cases:
                    if x.is_zero_at_precision:
                        with pytest.raises(PrecisionExhaustedError):
                            pi_valuation(x)
                        zeros += 1
                        continue
                    v = pi_valuation(x)
                    assert v == vp(x.norm_lift(), p) < K * deg, (p, level, K, x)
                    at_or_above_k += v >= K
                assert pi_valuation(edge) == K * deg - 1
    assert zeros > 100 and at_or_above_k > 200


def test_order_at_one_on_sparse_residues():
    # the order of t = 1 as the least r with a nonzero Hasse derivative
    # sum_e a_e C(e, r) mod p (C(e, r) mod p digit by digit, by Lucas), on
    # sparse polynomials of degree up to about 1,000 times (t - 1)^r and
    # (t^(p^i) - 1)^m, and at p = 2 against _order_at_one_f2 on the dense
    # bits
    def binomial_mod(e, r, p):
        out = 1
        while r:
            out = out * math.comb(e % p, r % p) % p
            e, r = e // p, r // p
        return out

    rng = random.Random(33)
    orders = set()
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        g = {rng.randrange(300): rng.randrange(1, p) for _ in range(rng.randint(1, 3))}
        for q, m in [(1, rng.randrange(8)), (p ** rng.randint(1, 3 if p < 7 else 2), rng.randrange(3))]:
            for _ in range(m):
                times = {}
                for e, a in g.items():
                    times[e + q] = times.get(e + q, 0) + a
                    times[e] = times.get(e, 0) - a
                g = {e: a % p for e, a in times.items() if a % p}
        order = 0
        while not sum(a * binomial_mod(e, order, p) for e, a in g.items()) % p:
            order += 1
        assert _order_at_one(g, p) == order, (p, g)
        if p == 2:
            assert _order_at_one_f2(sum(1 << e for e in g)) == order
        orders.add(order)
    assert len(orders) > 40


def test_residue_valuation_reads_content_and_order():
    # v_pi = c phi + the order at t = 1 of x / p^c mod p
    assert residue_valuation({0: 4, 1: -4}, 2, 2) == 2 * 2 + 1
    assert residue_valuation({0: 9}, 3, 6) == 12
    assert residue_valuation({3: 5}, 5, 20) == 20
    assert residue_valuation({0: 1, 2: 1}, 3, 6) == 0


def _log_series_by_terms(y, t):
    """The log series at y = 1 + w term by term, each w^k exact in Z[zeta]
    (powers of the canonical lift of w, no p-adic truncation), divided by
    p^a = p^(v_p(k)) with an exact-division check, over as many terms as
    _tail_negligible asks for; precision prec."""
    p, level, prec = y.p, y.level, y.prec
    deg = phi_degree(p, level)
    w = (y - 1).coeffs
    total, power, k = [0] * deg, w, 1
    while k == 1 or not _tail_negligible(k, t, deg, deg * prec):
        a = vp(k, p)
        if any(c % p**a for c in power):
            raise PrecisionExhaustedError("inexact division")
        inverse = pow(k // p**a, -1, p**prec)
        sign = 1 if k % 2 else -1
        total = [s + sign * (c // p**a) * inverse for s, c in zip(total, power)]
        power = mul_mod_phi(power, w, p, level)
        k += 1
    return CycloPadic(p, level, prec, total)


def test_log_series_against_the_term_by_term_sum():
    # w = pi^t * unit with t past the convergence threshold log_with_shift
    # uses; precision 1 takes in indices whose p-part exceeds it
    rng = random.Random(33)
    for p, levels in [(2, (1, 2, 3, 4, 5)), (3, (1, 2, 3)), (5, (1, 2))]:
        for level in levels:
            deg = phi_degree(p, level)
            threshold = deg if p == 2 else max(deg // (p - 1), 1) - 1
            for prec in (1, 2, 5, 17, 40):
                pi = CycloPadic.from_int(1, p, level, prec) - _zeta(p, level, prec)
                for _ in range(3):
                    t = rng.randint(threshold + 1, threshold + deg + 2)
                    unit = CycloPadic(p, level, prec, [rng.randrange(p**prec) for _ in range(deg)] + [1])
                    y = pi**t * unit + 1
                    expected = _log_series_by_terms(y, t)
                    got = _log_series(y, t)
                    assert (got.prec, got.coeffs) == (expected.prec, expected.coeffs), (p, level, prec, t)


def test_packed_log_series_against_the_term_by_term_sum():
    # Horner's rule far past the at most 8 terms the CLI takes it to: at
    # 60 digits the series has 21 to 62 terms; y's residues are known to
    # 20 digits past prec in half the cases
    rng = random.Random(34)
    for level in (2, 3, 4, 5):
        n = phi_degree(2, level)
        for prec in (1, 2, 5, 17, 40, 60):
            for extra in (0, 20):
                pi = CycloPadic.from_int(1, 2, level, prec + extra) - _zeta(2, level, prec + extra)
                for _ in range(3):
                    t = rng.randint(n + 1, 2 * n + 2)
                    unit = CycloPadic(2, level, prec + extra, [rng.randrange(2 ** (prec + extra)) for _ in range(n)] + [1])
                    y = pi**t * unit + 1
                    expected = _log_series_by_terms(CycloPadic(2, level, prec, y.coeffs), t)
                    ring = _Slots(n, prec + extra)
                    series, z = _packed_log_series(ring, _pack(y, ring), t, prec)
                    assert _unpack(z, series, prec) == expected.coeffs, (level, prec, extra, t)


def test_log_series_inexact_division_raises():
    # t claims a valuation that w = y - 1 = 1 does not have: the terms
    # 1/2, 1/4, ... are not integral and neither is their sum
    for p, level in [(2, 3), (3, 1)]:
        y = CycloPadic.from_int(2, p, level, 20)
        t = phi_degree(p, level) + 1
        with pytest.raises(PrecisionExhaustedError):
            _log_series_by_terms(y, t)
        with pytest.raises(PrecisionExhaustedError, match="inexact division"):
            _log_series(y, t)
    ring = _Slots(4, 20)
    with pytest.raises(PrecisionExhaustedError, match="inexact division"):
        _packed_log_series(ring, 2, 5, 20)


def test_precision_mismatch_rejected():
    a = CycloPadic.from_int(1, 2, 2, 4)
    b = CycloPadic.from_int(1, 2, 2, 5)
    with pytest.raises(ValueError):
        a + b
    c = CycloPadic.from_int(1, 2, 3, 4)
    with pytest.raises(ValueError):
        a * c


def test_cyclo_log_additivity():
    rng = random.Random(25)
    z = _zeta(2, 2, 16)
    one = CycloPadic.from_int(1, 2, 2, 16)
    for _ in range(10):
        a, b = rng.randint(1, 30), rng.randint(1, 30)
        x = one + (z - 1) * (2 * a)
        y = one + (z - 1) * (2 * b)
        zx, sx = log_with_shift(x)
        zy, sy = log_with_shift(y)
        zxy, sxy = log_with_shift(x * y)
        S = max(sx, sy, sxy)
        # compare 2^(S-s)*z at the weakest resulting precision
        prec = min(zx.prec + (S - sx), zy.prec + (S - sy), zxy.prec + (S - sxy), 16)
        mod = 2**prec
        lx = [c * 2 ** (S - sx) for c in zx.coeffs]
        ly = [c * 2 ** (S - sy) for c in zy.coeffs]
        lxy = [c * 2 ** (S - sxy) for c in zxy.coeffs]
        assert all((u + v - w) % mod == 0 for u, v, w in zip(lx, ly, lxy))


def test_nu_zeta_values_and_normalization():
    # Q_2-normalized: may be fractional per root, integral after summing a level
    assert nu_zeta(1, 2) == 2
    assert nu_zeta(1, 3) == Fraction(3, 2)
    assert phi_degree(2, 3) * nu_zeta(1, 3) == 6


def test_nu_zeta_degenerate_cases():
    for level in range(2, 7):
        with pytest.raises(DegenerateValueError):
            nu_zeta(0, level)  # torsion argument zeta^(-1)
    with pytest.raises(DegenerateValueError):
        nu_zeta(1, 1)  # level-1 roots are excluded from the product
    with pytest.raises(ValueError):
        nu_zeta(-1, 3)


def _direct_log_norm(m, level, extra):
    """The fixed-precision route level_log_norm replaced: the argument at
    (level + 3) 2^(level - 1) + 16 + extra digits, log_with_shift,
    norm_lift, with the precision doubled until the norm's valuation is
    below the series' precision; (s, nu, F, unit mod 2^F) with F = that
    precision minus the valuation."""
    prec = (level + 3) * 2 ** (level - 1) + 16 + extra
    while True:
        z, s = log_with_shift(_argument(m, level, prec))
        norm = z.norm_lift()
        if norm and vp(norm, 2) < z.prec:
            break
        prec *= 2
    v, unit = vp_split(norm, 2)
    return s, v - s * phi_degree(2, level), z.prec - v, unit % 2 ** (z.prec - v)


def _check_against_the_direct_route(m, level):
    # the same shift and nu sum, and the same unit mod 2^min(F_direct, F),
    # at the closed form's 18 digits and at the direct route's own F
    s, nu, direct_digits, direct_unit = _direct_log_norm(m, level, 18)
    for digits in (18, direct_digits):
        common = 2 ** min(digits, direct_digits)
        got = level_log_norm(m, level, digits)
        assert (got[0], got[1], got[2] % common) == (s, nu, direct_unit % common), (level, m, digits)
    shift, t = level_log_valuation(m, level)
    assert (s, nu) == (shift, t - shift * phi_degree(2, level)), (level, m)


def test_level_log_norm_against_the_direct_route():
    # nu is t - s*phi from the cheap pass alone
    cases = [(level, m) for level in range(2, 8) for m in range(1, 13)] + [(8, 1), (8, 7)]
    for level, m in cases:
        _check_against_the_direct_route(m, level)


def test_level_log_norm_at_doubled_direct_precision():
    # k = 31 (m = 15): t passes the direct route's first precision from
    # level 6 on, so that route doubles it; the unit is asked for at 18
    # digits all the same
    for level in (5, 6, 7):
        _check_against_the_direct_route(15, level)


def test_level_log_valuation_past_the_first_precision():
    # k = 2^50 + 1: u^(2^s) - 1 vanishes mod 2^32, so the pass doubles its
    # precision; s and t equal the squaring loop's at 400 digits
    m = 2**49
    for level in (2, 3):
        assert level_log_valuation(m, level) == _into_convergence(_argument(m, level, 400))[1:]
        assert level_log_valuation(m, level)[1] > 32 * phi_degree(2, level)


def _cyclo_route(m, level, digits):
    """level_log_norm on CycloPadic, the oracle of the packed route: s and t
    from the squaring loop at 32 digits (doubled while y - 1 vanishes),
    the argument again at P = digits + ceil(t/phi), s squarings,
    _log_series, the division by 2^(t // phi) and norm_lift."""
    work = 32
    while True:
        try:
            _, s, t = _into_convergence(_argument(m, level, work))
            break
        except DegenerateValueError:
            work *= 2
    deg = phi_degree(2, level)
    y = _argument(m, level, digits - (-t // deg))
    for _ in range(s):
        y = y * y
    z = _log_series(y, t)
    shift = t // deg
    assert not any(c % 2**shift for c in z.coeffs)
    v, unit = vp_split(CycloPadic(2, level, z.prec - shift, [c >> shift for c in z.coeffs]).norm_lift(), 2)
    assert v == t - shift * deg
    return s, t - s * deg, unit % 2**digits


def test_packed_log_norms_against_the_cyclo_route():
    # the level-2, F = 20 cell is where scalars not reduced mod 2^work
    # would spoil the top digit; k = 2^50 + 1 doubles the pass's first
    # precision at levels 2 and 3
    cases = [(m, level) for m in range(1, 32) for level in range(2, 9)] + [(2**49, 2), (2**49, 3)]
    for m, level in cases:
        for digits in (18, 20, 24):
            expected = _cyclo_route(m, level, digits)
            assert level_log_norm(m, level, digits) == expected, (2 * m + 1, level, digits)
        s, nu, _ = expected
        assert level_log_valuation(m, level) == (s, nu + s * phi_degree(2, level)), (2 * m + 1, level)


def test_packed_log_norms_square_once(monkeypatch):
    # the valuation pass starts at a precision that covers the series' P,
    # so each level squares s times, and builds the argument once
    from padicres import cyclo

    mul, build = cyclo._Slots.mul, cyclo._packed_argument
    counts = {"squarings": 0, "arguments": 0}

    def counting_mul(self, x, y):
        if x is y and sys._getframe(1).f_code.co_name != "_packed_log_series":
            counts["squarings"] += 1
        return mul(self, x, y)

    def counting_build(*args):
        counts["arguments"] += 1
        return build(*args)

    monkeypatch.setattr(cyclo._Slots, "mul", counting_mul)
    monkeypatch.setattr(cyclo, "_packed_argument", counting_build)
    for k in (3, 25, 31):
        for level in range(2, 11):
            for digits in (18, 20):
                counts.update(squarings=0, arguments=0)
                got = level_log_norm((k - 1) // 2, level, digits)
                assert counts == {"squarings": got[0], "arguments": 1}, (k, level, digits)
                with monkeypatch.context() as patch:
                    patch.setattr(cyclo._Slots, "mul", mul)
                    assert got == _cyclo_route((k - 1) // 2, level, digits), (k, level, digits)


def test_packed_log_norms_when_the_estimate_falls_short(monkeypatch):
    # an estimate below t leaves the valuation pass short of the series'
    # precision, so the pass runs again at that precision
    from padicres import cyclo

    build = cyclo._packed_argument
    arguments = []

    def counting_build(*args):
        arguments.append(args)
        return build(*args)

    monkeypatch.setattr(cyclo, "_packed_argument", counting_build)
    monkeypatch.setattr(cyclo, "estimated_log_valuation", lambda m, level: 0)
    monkeypatch.setattr(cyclo, "_VALUATION_PREC", 8)
    for m, level in [(1, 2), (1, 5), (12, 4), (15, 7)]:
        arguments.clear()
        assert level_log_norm(m, level, 18) == _cyclo_route(m, level, 18), (m, level)
        assert len(arguments) == 2, (m, level)


def test_packed_log_norms_refuse_what_the_cyclo_route_refuses(monkeypatch):
    from padicres import cyclo

    for fn in (level_log_valuation, lambda m, level: level_log_norm(m, level, 18)):
        for m, level in [(1, 1), (5, 1), (0, 2), (0, 6)]:
            with pytest.raises(DegenerateValueError):
                fn(m, level)
        with pytest.raises(ValueError):
            fn(-1, 3)
    # the squaring cap: m = 1 needs s = level squarings
    monkeypatch.setattr(cyclo, "_MAX_SQUARINGS", 2)
    with pytest.raises(PrecisionExhaustedError):
        _into_convergence(_argument(1, 3, 32))
    for fn in (level_log_valuation, lambda m, level: level_log_norm(m, level, 18)):
        with pytest.raises(PrecisionExhaustedError):
            fn(1, 3)
        assert fn(1, 2)[0] == 2


def test_whitehead_log_argument_is_unit():
    for m in (1, 2, 3):
        for level in (2, 3):
            assert pi_valuation(_argument(m, level, 16)) == 0
            ring = _Slots(phi_degree(2, level), 16)
            assert ring.valuation(_packed_argument(m, level, ring)) == 0


def _at_unity(f, p, level, exps, prec):
    """f(zeta^e1, ..., zeta^ed) mod p^prec at one primitive p^level-th root
    zeta; lower-level roots are its powers."""
    order = p**level
    out = [0] * order
    for exp, coeff in f.terms():
        out[sum(a * b for a, b in zip(exp, exps)) % order] += coeff
    return CycloPadic(p, level, prec, out)


def test_residues_constant_on_unity_tuples():
    # every f(zeta_1,...,zeta_d) - f(1,...,1) has positive pi-valuation
    rng = random.Random(26)
    done = 0
    while done < 30:
        d = rng.choice([1, 2])
        f = random_multipoly(rng, d, 4, 3, 9)
        if f.is_zero:
            continue
        p = rng.choice([2, 3])
        level = rng.randint(1, 3)
        K = 6
        order = p**level
        exps = tuple(rng.randrange(order) for _ in range(d))
        value = _at_unity(f, p, level, exps, K)
        diff = value - CycloPadic.from_int(f.evaluate((1,) * d), p, level, K)
        if not diff.is_zero_at_precision:
            try:
                assert pi_valuation(diff) >= 1
            except PrecisionExhaustedError:
                pass  # valuation beyond the window still means >= 1
        done += 1


def test_ring_product_reproduces_exact_resultants():
    # multiply f over all root-of-unity tuples inside the truncated ring;
    # the Galois-stable product must equal the exact resultant mod p^K
    import itertools

    from padicres.resultants import CyclicResultantRequest, cyclic_resultant

    rng = random.Random(446)
    done = 0
    while done < 12:
        d = rng.choice([1, 2])
        f = random_multipoly(rng, d, 3, 2, 6)
        if f.is_zero:
            continue
        p = rng.choice([2, 3])
        n = rng.randint(1, 2)
        K = rng.randint(2, 5)
        order = p**n
        prod = CycloPadic.from_int(1, p, n, K)
        for exps in itertools.product(range(1, order), repeat=d):
            prod = prod * _at_unity(f, p, n, exps, K)
        exact = cyclic_resultant(CyclicResultantRequest.rprime(f, p, (n,) * d))
        assert all(c == 0 for c in prod.coeffs[1:])
        assert prod.coeffs[0] == exact % p**K
        done += 1
