import ast
import random
from pathlib import Path

import pytest

from padicres import oracles
from padicres.cli import main
from padicres.errors import InvariantError
from padicres.multipoly import MultiPoly
from padicres.oracles import (
    bareiss_det,
    complex_root_product,
    cyclic_resultant_baseline,
    resultant_prs,
    sylvester_resultant,
)
from padicres.parsing import parse_poly
from padicres.resultants import CyclicResultantRequest, cyclic_resultant
from padicres.unipoly import UniPoly
from reference import embed, random_multipoly


def lift(c, k):
    return c if isinstance(c, MultiPoly) else MultiPoly.const(k, c)


def lifted(f, k):
    return UniPoly([lift(c, k) for c in f.coeffs])


def polynomial_rows(f, g, k):
    """The Sylvester matrix with every entry a MultiPoly in k variables,
    built apart from the oracles module."""
    m, n = f.degree(), g.degree()
    rows = []
    for poly, count, deg in ((f, n, m), (g, m, n)):
        for i in range(count):
            row = [MultiPoly.zero(k)] * (m + n)
            for d in range(deg + 1):
                row[i + d] = lift(poly[deg - d], k)
            rows.append(row)
    return rows


def random_operand(rng, k, polynomial, max_coeff):
    """A polynomial of degree 1..3 in the main variable whose coefficients
    are MultiPoly values in k variables, or ints."""
    while True:
        if polynomial:
            h = random_multipoly(rng, k + 1, 4, 2, max_coeff)
            if h.degree_in(k + 1) >= 1:
                return UniPoly(h.coeffs_in_last_var())
        else:
            coeffs = [rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(2, 4))]
            if coeffs[-1]:
                return UniPoly(coeffs)


def assert_against_unpacked(f, g, k):
    packed = sylvester_resultant(f, g)
    assert isinstance(packed, MultiPoly) and packed.num_vars == k
    assert packed == bareiss_det(polynomial_rows(f, g, k)), (f, g)
    assert packed == resultant_prs(lifted(f, k), lifted(g, k)), (f, g)
    return packed


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("which", ["f", "g", "both"])
def test_kronecker_route_against_polynomial_bareiss_and_prs(k, which):
    rng = random.Random(f"kronecker:{k}:{which}")
    for trial in range(6):
        # negative coefficients throughout, and every third pair large
        max_coeff = 10**25 if trial % 3 == 2 else 9
        f = random_operand(rng, k, which in ("f", "both"), max_coeff)
        g = random_operand(rng, k, which in ("g", "both"), max_coeff)
        assert_against_unpacked(f, g, k)


def test_kronecker_route_vanishes_on_a_common_factor():
    rng = random.Random(2718)
    for k in (1, 2, 3):
        for _ in range(3):
            h = random_operand(rng, k, True, 7)
            u, v = random_operand(rng, k, True, 7), random_operand(rng, k, False, 7)
            f, g = h * u, lifted(h, k) * lifted(v, k)
            assert assert_against_unpacked(f, g, k).is_zero


def test_kronecker_route_with_a_variable_in_no_coefficient():
    # t2 appears nowhere: its slot has degree bound 0 and stride 1
    rng = random.Random(1414)
    for _ in range(6):
        f = UniPoly([embed(c, 3, [1, 3]) for c in random_operand(rng, 2, True, 9).coeffs])
        g = UniPoly([embed(c, 3, [1, 3]) for c in random_operand(rng, 2, True, 9).coeffs])
        assert assert_against_unpacked(f, g, 3).degree_in(2) <= 0


def test_kronecker_route_degree_zero_operands():
    c = parse_poly("2 - 3*t1*t2", 2)
    assert sylvester_resultant(UniPoly([c]), UniPoly([5])) == MultiPoly.one(2)
    assert sylvester_resultant(UniPoly([c]), UniPoly([1, 0, 1])) == c * c
    assert sylvester_resultant(UniPoly([-3, 1]), UniPoly([c, c])) == c * 4


def test_kronecker_route_refuses_mixed_variable_counts():
    with pytest.raises(ValueError):
        sylvester_resultant(UniPoly([parse_poly("t1", 1), 1]), UniPoly([parse_poly("t2", 2), 1]))


@pytest.mark.parametrize(
    "expr, p, levels, masks",
    [
        ("5+t1+t2+t3", 2, (2, 2, 2), "r"),
        ("3-t1*t2+2*t3-t1*t3", 2, (1, 2, 2), "r"),
        ("1+t1+2*t2-t3+t1*t2*t3", 2, (2, 1, 2), "rprime"),
        ("4-t1*t3+t2^2", 2, (2, 2, 1), [{0, 2}, {1}, {0, 1}]),
        ("2-t1^2+3*t2", 3, (2, 1), [{0, 2}, {1}]),
        ("7+t1*t2^2-t2", 3, (1, 2), [{1}, {0, 2}]),
        ("1-t1+t2", 5, (1, 1), [{1}, {0}]),
    ],
)
def test_baseline_equals_engine_and_root_product(expr, p, levels, masks):
    f = parse_poly(expr, len(levels))
    if masks == "r":
        req = CyclicResultantRequest.full(f, p, levels)
    elif masks == "rprime":
        req = CyclicResultantRequest.rprime(f, p, levels)
    else:
        req = CyclicResultantRequest.custom(f, p, levels, masks)
    # within the default degree guard
    assert cyclic_resultant_baseline(req) == cyclic_resultant(req) == complex_root_product(req)


def test_a_bound_too_small_is_an_internal_error(capsys, monkeypatch):
    # with one bit per digit, 81 - t1^2 = Res(t^2 - 1, t1*t - 9) overflows
    # the three digits its degree allows
    monkeypatch.setattr(oracles, "_det_bound", lambda a, b: 1)
    f = parse_poly("t1*t2 - 9", 2)
    with pytest.raises(InvariantError):
        sylvester_resultant(UniPoly([-1, 0, 1]), UniPoly(f.coeffs_in_last_var()))
    code = main(["res", "-p", "2", "-n", "1,1", "--verify", "t1*t2-9"])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert "unexpected error" in captured.err and "does not fit" in captured.err


def test_oracles_share_nothing_with_the_engine():
    names = vars(oracles)
    engine_names = (
        "phi_resultant_last_var",
        "cyclotomic_norm",
        "mul_mod_phi",
        "_pack",
        "_unpack",
        "_factors",
        "_walk",
        "_swap_blocks",
        "_graeffe_level",
        "_power_sum_graeffe",
        "_power_sums_pay",
        "_schoolbook",
        "_product_plan",
        "_reduce_last_var",
    )
    for engine in engine_names:
        assert engine not in names, engine
    # the docstring's promise, checked on the source: of padicres itself
    # the oracles import only the errors and the polynomial types
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if not node.level:
                if path[0] != "padicres":
                    continue
                path = path[1:]
            imported |= {path[0]} if path else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "padicres":
                    imported.add(path[1] if len(path) > 1 else "padicres")
    assert imported and imported <= {"errors", "multipoly", "unipoly"}, imported
