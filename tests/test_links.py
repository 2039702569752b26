import json
import random

import pytest

from padicres.errors import OracleMismatchError
from padicres.limits import limit_estimate
from padicres.links import (
    CoveringSpec,
    character_oracle,
    closed_form_cost,
    h1_nonp_limit,
    h1_order,
    load_link_spec,
    nonp_limit_cost,
    trefoil_spec,
    two_part_exponent_check,
    whitehead_closed_form,
    whitehead_delta,
    whitehead_link_spec,
)
from padicres.multipoly import MultiPoly
from padicres.padic import PadicApprox, nonp_part, teichmuller, vp
from padicres.oracles import sylvester_resultant
from padicres.parsing import parse_poly
from padicres.resultants import COST_BUDGET_DEFAULT, CyclicResultantRequest, cost_estimate, cyclic_resultant
from padicres.unipoly import UniPoly, cyclotomic, power_minus_one


def whitehead_doc(k=1):
    m = (k - 1) // 2 if k % 2 else k // 2
    if k % 2:
        delta = f"{1+m} - {m}*t1 - {m}*t2 + {1+m}*t1*t2"
    else:
        delta = f"{m} + {m}*t1*t2 - {m}*t1 - {m}*t2"
    return json.dumps(
        {
            "name": f"L_{k}",
            "components": 2,
            "ambient": "S3",
            "sublinks": [
                {"indices": [1], "alexander": "1"},
                {"indices": [2], "alexander": "1"},
                {"indices": [1, 2], "alexander": delta},
            ],
        }
    )


def test_load_whitehead_document():
    link = load_link_spec(whitehead_doc(1))
    assert link.d == 2
    assert link.alexander({1, 2}) == parse_poly("1 + t1*t2", 2)
    assert link.alexander({1}) == MultiPoly.one(1)
    assert link.alexander({2}) == MultiPoly.one(1)


def test_load_missing_sublink_names_subset():
    doc = json.loads(whitehead_doc(1))
    doc["sublinks"] = [e for e in doc["sublinks"] if e["indices"] != [1]]
    with pytest.raises(ValueError, match=r"\[1\]"):
        load_link_spec(json.dumps(doc))


def test_load_trefoil_like_document():
    doc = json.dumps(
        {
            "name": "trefoil",
            "components": 1,
            "ambient": "S3",
            "sublinks": [{"indices": [1], "alexander": "t1^2 - t1 + 1"}],
        }
    )
    link = load_link_spec(doc)
    assert link.alexander({1}) == parse_poly("t1^2 - t1 + 1", 1)


def test_load_parse_error_carries_path():
    doc = json.loads(whitehead_doc(1))
    doc["sublinks"][2]["alexander"] = "1 + t3"
    with pytest.raises(ValueError, match=r"sublinks\[2\].alexander"):
        load_link_spec(json.dumps(doc))


def test_load_rejects_bad_schema():
    with pytest.raises(ValueError):
        load_link_spec("[1,2]")
    with pytest.raises(ValueError):
        load_link_spec(json.dumps({"components": 1, "sublinks": [{"indices": [2, 1], "alexander": "1"}]}))
    with pytest.raises(ValueError, match="invalid JSON"):
        load_link_spec("{nope")


def test_load_checks_the_optional_fields():
    doc = json.loads(whitehead_doc(1))
    assert load_link_spec(json.dumps({**doc, "names": ["a", "b"]})).names == ("a", "b")
    for field, value in [
        ("names", 5),
        ("names", ["a"]),
        ("names", ["a", "b", "c"]),
        ("names", ["a", 2]),
        ("name", 5),
        ("ambient", None),
    ]:
        with pytest.raises(ValueError, match=field):
            load_link_spec(json.dumps({**doc, field: value}))


def test_whitehead_delta_values():
    assert whitehead_delta(1) == parse_poly("1 + t1*t2", 2)
    assert whitehead_delta(2) == parse_poly("1 + t1*t2 - t1 - t2", 2)
    assert whitehead_delta(3) == parse_poly("2 - t1 - t2 + 2*t1*t2", 2)
    with pytest.raises(ValueError):
        whitehead_delta(0)


def test_h1_order_trefoil_double_cover():
    result = h1_order(trefoil_spec(), CoveringSpec(2, (1,)))
    assert result.order == 3
    # independent route: |Res((t^2-1)/(t-1), Delta)| = |Delta(-1)| = 3
    delta = UniPoly((1, -1, 1))
    assert abs(sylvester_resultant(UniPoly((1, 1)), delta)) == 3


def test_h1_order_whitehead_examples():
    assert h1_order(whitehead_link_spec(2), CoveringSpec(2, (1, 1))).order == 4
    assert h1_order(whitehead_link_spec(1), CoveringSpec(3, (1, 1))).order == 4


def test_h1_order_not_rational_homology_sphere():
    result = h1_order(whitehead_link_spec(1), CoveringSpec(2, (2, 2)))
    assert result.order == 0 and not result.rational_homology_sphere


def test_h1_order_splits_p_part():
    result = h1_order(whitehead_link_spec(4), CoveringSpec(3, (1, 2)))
    assert result.order == 3**result.p_exponent * result.nonp_part
    assert result.nonp_part % 3 != 0


def test_fox_weber_shape_for_knots():
    # d = 1: the order equals |Res((t^{p^n}-1)/(t-1), Delta)| computed literally
    delta = UniPoly((1, -1, 1))
    for p, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        divisor, rem = power_minus_one(p**n).divmod_monic(UniPoly((-1, 1)))
        assert rem.is_zero
        literal = abs(sylvester_resultant(divisor, delta))
        assert h1_order(trefoil_spec(), CoveringSpec(p, (n,))).order == literal


def test_h1_matches_character_oracle():
    cases = [
        (trefoil_spec(), 2, (3,)),
        (trefoil_spec(), 3, (2,)),
        (whitehead_link_spec(1), 2, (1, 1)),
        (whitehead_link_spec(2), 2, (2, 1)),
        (whitehead_link_spec(3), 2, (2, 2)),
        (whitehead_link_spec(3), 3, (1, 1)),
    ]
    for link, p, levels in cases:
        cov = CoveringSpec(p, levels)
        assert h1_order(link, cov) == character_oracle(link, cov)


def test_character_oracle_on_the_largest_covers():
    # |G| = 729 and 1024, odd and even twists (acceptance criterion 9 stops
    # at |G| = 256)
    cases = [
        (whitehead_link_spec(5), 3, (3, 3)),
        (whitehead_link_spec(5), 2, (5, 5)),
        (whitehead_link_spec(6), 2, (5, 5)),
    ]
    for link, p, levels in cases:
        cov = CoveringSpec(p, levels)
        assert h1_order(link, cov) == character_oracle(link, cov), (link.name, p, levels)


def test_character_oracle_scale_guard():
    with pytest.raises(ValueError):
        character_oracle(whitehead_link_spec(2), CoveringSpec(2, (7, 7)))


def test_trefoil_nonp_limit_chain():
    # r'_n for the trefoil at p = 5: verify the congruence chain and the estimate
    delta = parse_poly("t1^2 - t1 + 1", 1)
    values = [
        cyclic_resultant(CyclicResultantRequest.rprime(delta, 5, (n,)))
        for n in (1, 2, 3)
    ]
    assert (values[1] - values[0]) % 5 == 0
    assert (values[2] - values[1]) % 25 == 0
    est = h1_nonp_limit(trefoil_spec(), 5, 2)
    assert est.nonp_certified_digits >= 2
    assert est.nonp_value.residue(2) == abs(values[1]) % 25


def test_odd_case_resultant_identity():
    # r'_{n1,n2}(Delta_{2m+1}) equals the one-variable elimination
    # Res((t^{p^n1}-1)/(t-1), ((1-mt+m)^{p^n2} - (-1)^p (t+mt-m)^{p^n2})/(t+1))
    for p, n1, n2, m in [(2, 1, 1, 1), (2, 2, 1, 1), (2, 1, 2, 2), (3, 1, 1, 1), (3, 2, 1, 2)]:
        k = 2 * m + 1
        lhs = cyclic_resultant(
            CyclicResultantRequest.rprime(whitehead_delta(k), p, (n1, n2))
        )
        a = UniPoly((1 + m, -m))  # 1 - m*t + m
        b = UniPoly((-m, 1 + m))  # t + m*t - m
        N = p**n2
        numer = a**N - b**N if p == 2 else a**N + b**N
        inner, rem = numer.divmod_monic(UniPoly((1, 1)))
        assert rem.is_zero
        divisor, rem2 = power_minus_one(p**n1).divmod_monic(UniPoly((-1, 1)))
        assert rem2.is_zero
        assert lhs == sylvester_resultant(divisor, inner)


def test_unity_product_identity():
    # prod over 2-power roots zeta != +-1 up to order 2^n of (1 - zeta) = 2^(n-1)
    one_minus_t = parse_poly("1 - t1", 1)
    for n in (2, 3, 4):
        req = CyclicResultantRequest.custom(one_minus_t, 2, (n,), [set(range(2, n + 1))])
        assert cyclic_resultant(req) == 2 ** (n - 1)


def test_g_sequence_stabilization():
    # partial products G_n(m) converge 2-adically to +1 (even m) / -1 (odd m)
    for m in range(1, 7):
        g = 1
        for i in range(10):
            g *= m ** (2**i) + (m + 1) ** (2**i)
        target = 1 if m % 2 == 0 else -1
        assert (g - target) % 2**10 == 0


def test_whitehead_closed_form_even():
    value = whitehead_closed_form(4, 3, 2).value
    assert value.residue(2) == 7  # 2/omega_3(2) = 2*8 = 16 = 7 mod 9
    for p in (3, 5):
        for m in (1, 2, 3):
            if m % p == 0:
                continue
            got = whitehead_closed_form(2 * m, p, 3).value
            t = nonp_part(m, p)
            expect = PadicApprox.from_int(t, p, 3, exact=True) * teichmuller(t, p, 3).inverse()
            assert got.eq_mod(expect, 3)


def test_whitehead_closed_form_odd_p():
    got = whitehead_closed_form(3, 5, 2).value
    assert got.residue(2) == 16  # omega_5(2)/2 = 7 * 13 = 91 = 16 mod 25
    got = whitehead_closed_form(7, 3, 2).value
    assert got.residue(2) == 4


def test_whitehead_closed_form_p2_degenerate():
    result = whitehead_closed_form(1, 2, 3)
    assert result.degenerate and result.value is None


def test_whitehead_closed_form_p2_cross_agreement():
    for k in (3, 5):
        closed = whitehead_closed_form(k, 2, 5, truncation_level=5)
        empirical = h1_nonp_limit(whitehead_link_spec(k), 2, 5)
        digits = min(closed.achieved_digits, empirical.nonp_certified_digits)
        assert digits >= 3
        assert closed.value.eq_mod(empirical.nonp_value, digits)


def test_two_part_exponent_report(monkeypatch):
    # the nu sums come from the squaring loop alone: no cyclotomic norm
    from padicres.cyclo import CycloPadic

    def no_norm(self):
        raise AssertionError("two_part_exponent_check took a norm")

    monkeypatch.setattr(CycloPadic, "norm_lift", no_norm)
    report = two_part_exponent_check(3, 4)
    assert report.ok
    assert report.rows == ((1, 1, 1), (2, 9, 9), (3, 29, 29), (4, 77, 77))
    assert two_part_exponent_check(5, 4).rows == report.rows
    assert two_part_exponent_check(25, 4).rows == ((1, 1, 1), (2, 11, 11), (3, 35, 35), (4, 91, 91))
    with pytest.raises(ValueError):
        two_part_exponent_check(4, 2)


def test_two_part_rows_through_level_eight():
    # past the old cap of 4: the identity holds, and n = 8 takes well under
    # a second
    k3 = two_part_exponent_check(3, 8)
    assert k3.ok and k3.rows[4:] == ((5, 189, 189), (6, 445, 445), (7, 1021, 1021), (8, 2301, 2301))
    assert two_part_exponent_check(5, 8).rows == k3.rows
    k25 = two_part_exponent_check(25, 8)
    assert k25.ok and k25.rows[4:] == ((5, 219, 219), (6, 507, 507), (7, 1147, 1147), (8, 2555, 2555))


def test_two_part_exact_side_equals_h1_order(monkeypatch):
    # one diagonal walk per sublink gives h1_order's exponent at every level
    for k in (3, 5, 13, 25):
        link = whitehead_link_spec(k)
        rows = two_part_exponent_check(k, 4).rows
        assert [n for n, _, _ in rows] == [1, 2, 3, 4]
        for n, exact, _ in rows:
            assert exact == h1_order(link, CoveringSpec(2, (n, n))).p_exponent, (k, n)
    # h1_order's conventions, on walks patched per sublink (the Whitehead
    # link's sublinks {1} and {2} have Delta = 1, and every parity sign is +)
    from padicres import links

    def patched(values_by_vars):
        return lambda f, p, K, mask: values_by_vars[f.num_vars][:K]

    # a vanishing factor at level 3 gives exponent 0 from there on
    monkeypatch.setattr(links, "_diagonal", patched({1: [1, 1, 1, 1], 2: [2, 8, 0, 0]}))
    assert [exact for _, exact, _ in two_part_exponent_check(3, 4).rows] == [1, 3, 0, 0]
    # a sign against the parity prediction at level 2 is an oracle mismatch
    monkeypatch.setattr(links, "_diagonal", patched({1: [1, 1, 1, 1], 2: [2, -8, 32, 64]}))
    with pytest.raises(OracleMismatchError, match=r"sublink \(1, 2\)"):
        two_part_exponent_check(3, 4)


def test_whitehead_even_nonp_limit():
    # k = 2m at odd p with p !| m: non-p limit is m|m|_p / omega_p(m|m|_p)
    est = h1_nonp_limit(whitehead_link_spec(4), 3, 3)
    t = nonp_part(2, 3)
    expect = PadicApprox.from_int(t, 3, 3, exact=True) * teichmuller(t, 3, 3).inverse()
    assert est.nonp_value.eq_mod(expect, 3)


def test_whitehead_odd_nonp_limit_odd_p():
    for p in (3, 5):
        for m in (0, 1):
            est = h1_nonp_limit(whitehead_link_spec(2 * m + 1), p, 2)
            expect = teichmuller(2, p, 2) * PadicApprox.from_int(2, p, 2, exact=True).inverse()
            assert est.nonp_value.eq_mod(expect, 2), (p, m)


def three_component_doc():
    return json.dumps(
        {
            "name": "threelink",
            "components": 3,
            "ambient": "S3",
            "sublinks": [
                {"indices": [1], "alexander": "1"},
                {"indices": [2], "alexander": "1"},
                {"indices": [3], "alexander": "1"},
                {"indices": [1, 2], "alexander": "1"},
                {"indices": [1, 3], "alexander": "1"},
                {"indices": [2, 3], "alexander": "1"},
                {"indices": [1, 2, 3], "alexander": "2 - t1*t2*t3"},
            ],
        }
    )


def test_three_component_link_against_oracle():
    link = load_link_spec(three_component_doc())
    for p, levels in [(2, (1, 1, 1)), (2, (2, 1, 1)), (3, (1, 1, 1))]:
        cov = CoveringSpec(p, levels)
        assert h1_order(link, cov) == character_oracle(link, cov)


def test_three_component_nonp_limit_certifies():
    link = load_link_spec(three_component_doc())
    est = h1_nonp_limit(link, 3, 2)
    assert est.nonp_certified_digits >= 2 and not est.degenerate


def test_negative_masked_values_absolute_order():
    # Delta(-1) < 0 at p = 2: orders take the absolute value, the sign
    # prediction accepts, and the non-p limit follows |r'|
    doc = json.dumps(
        {
            "name": "neg",
            "components": 1,
            "ambient": "S3",
            "sublinks": [{"indices": [1], "alexander": "t1 - 3"}],
        }
    )
    link = load_link_spec(doc)
    res = h1_order(link, CoveringSpec(2, (1,)))
    assert (res.order, res.p_exponent, res.nonp_part) == (4, 2, 1)
    assert res == character_oracle(link, CoveringSpec(2, (1,)))
    est = h1_nonp_limit(link, 2, 4)
    deep = cyclic_resultant(
        CyclicResultantRequest.rprime(parse_poly("t1 - 3", 1), 2, (6,))
    )
    assert est.nonp_value.residue(4) == nonp_part(abs(deep), 2) % 2**4


def test_closed_form_budget_admits_level_twenty_and_refuses_twenty_one():
    # whitehead -K 4: --lmax 17 runs in about 5 s on a 2-core host for
    # k = 3 and 31 alike, each level about 2.8 times the one before;
    # --lmax 21 is refused at the default budget
    for k in (3, 31):
        assert closed_form_cost(k, 2, 4, 20) < COST_BUDGET_DEFAULT < closed_form_cost(k, 2, 4, 21)


def test_nonp_limit_cost_is_the_sum_over_sublinks_and_levels():
    # one weighted walk per sublink against every sublink's levels estimated
    # one by one
    for k in (3, 4, 7, 25):
        link = whitehead_link_spec(k)
        for p in (2, 3, 5, 7):
            for K in range(1, 7):
                levels = sum(
                    cost_estimate(CyclicResultantRequest.rprime(link.alexander(s), p, (n,) * len(s)))
                    for s in link.subsets()
                    for n in range(1, K + 1)
                )
                assert nonp_limit_cost(link, p, K) == pytest.approx(levels, rel=1e-12), (k, p, K)
