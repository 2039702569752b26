import random

import pytest

from padicres.errors import PolyParseError
from padicres.multipoly import MultiPoly
from padicres.parsing import parse_poly
from reference import embed, permute_vars, random_multipoly


def test_parse_basic_terms():
    f = parse_poly("t1*t2 - 2", 2)
    assert f.term_dict() == {(1, 1): 1, (0, 0): -2}


def test_parse_zero():
    f = parse_poly("0", 3)
    assert f.is_zero and f.num_vars == 3


def test_parse_matches_expansion_oracle():
    # independent route: build (1+1)*t1^2 from constructor arithmetic
    expected = (MultiPoly.const(1, 1) + MultiPoly.const(1, 1)) * (
        MultiPoly.variable(1, 1) ** 2
    )
    assert parse_poly("(1+1)*t1^2", 1) == expected
    assert parse_poly("(1+1)*t1^2", 1).term_dict() == {(2,): 2}


def test_parse_rejects_foreign_symbols():
    with pytest.raises(PolyParseError):
        parse_poly("t1*m - 2", 2)


def test_parse_variable_out_of_range_names_offender():
    with pytest.raises(PolyParseError, match="t3"):
        parse_poly("t1*t3 - 2", 2)


def test_parse_error_position():
    try:
        parse_poly("t1 + * 2", 2)
    except PolyParseError as exc:
        assert exc.position == 5
    else:
        pytest.fail("expected a parse error")


def test_parse_exponent_bound():
    with pytest.raises(PolyParseError, match="exceeds"):
        parse_poly("t1^100000", 1)
    assert parse_poly("t1^4096", 1).degree_in(1) == 4096
    with pytest.raises(PolyParseError, match="4097 exceeds the configured bound 4096"):
        parse_poly("t1^4097", 1)


def test_parse_unbalanced_paren():
    with pytest.raises(PolyParseError):
        parse_poly("(t1 + 2", 1)


def test_parse_unary_minus_and_whitespace():
    assert parse_poly(" - t1 ^ 2 + + 3 ", 1) == parse_poly("3 - t1^2", 1)


def test_serialize_fixed_point_random():
    rng = random.Random(101)
    for _ in range(200):
        d = rng.randint(1, 3)
        f = random_multipoly(rng, d, 6, 4, 50)
        text = f.serialize()
        again = parse_poly(text, d)
        assert again == f
        assert again.serialize() == text


def test_serialize_canonical_order():
    f = parse_poly("1 + t2 + t1 + t1*t2 - 3*t1^2", 2)
    # graded-lex descending: t1^2 before t1*t2, t1 before t2
    assert f.serialize() == "-3*t1^2 + t1*t2 + t1 + t2 + 1"


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(100):
        d = rng.randint(1, 3)
        f = random_multipoly(rng, d, 4, 3, 9)
        g = random_multipoly(rng, d, 4, 3, 9)
        h = random_multipoly(rng, d, 4, 3, 9)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f - g) + g == f


def test_eval_multiplicative():
    rng = random.Random(8)
    for _ in range(100):
        d = rng.randint(1, 3)
        f = random_multipoly(rng, d, 4, 3, 9)
        g = random_multipoly(rng, d, 4, 3, 9)
        x = tuple(rng.randint(-5, 5) for _ in range(d))
        assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)


def test_eval_examples():
    f = parse_poly("t1*t2 - 2", 2)
    assert f.evaluate((1, 1)) == -1
    for m in range(1, 5):
        even = MultiPoly(2, {(0, 0): m, (1, 1): m, (1, 0): -m, (0, 1): -m})
        assert even.evaluate((1, 1)) == 0
    for m in range(0, 6):
        odd = MultiPoly(
            2, {(0, 0): 1 + m, (1, 0): -m, (0, 1): -m, (1, 1): 1 + m}
        )
        # brute substitution at (-1, -1): (1+m) + m + m + (1+m)
        assert odd.evaluate((-1, -1)) == 4 * m + 2


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        parse_poly("t1", 1).evaluate((1, 2))


def test_divexact_roundtrip():
    rng = random.Random(9)
    for _ in range(60):
        d = rng.randint(1, 2)
        f = random_multipoly(rng, d, 4, 3, 9)
        g = random_multipoly(rng, d, 3, 2, 9)
        if g.is_zero:
            continue
        assert (f * g).divexact(g) == f


def test_permute_and_embed():
    f = parse_poly("t1^2 + 3*t2", 2)
    assert permute_vars(f, (2, 1)) == parse_poly("t2^2 + 3*t1", 2)
    g = embed(parse_poly("t1 + 1", 1), 3, [2])
    assert g == parse_poly("t2 + 1", 3)


def test_zero_coefficients_never_stored():
    f = parse_poly("t1 - t1", 1)
    assert f.is_zero and f.term_dict() == {}
    g = MultiPoly(1, {(1,): 5, (0,): 0})
    assert g.term_dict() == {(1,): 5}
