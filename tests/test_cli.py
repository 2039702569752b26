import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

from padicres import oracles, resultants
from padicres.cli import main
from padicres.errors import BudgetExceededError, ExactDivisionError
from padicres.parsing import parse_poly
from padicres.resultants import CyclicResultantRequest, cyclic_resultant


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_res_table(capsys):
    code, out, _ = run(capsys, "res", "-p", "2", "-n", "1,1", "t1*t2-2")
    assert code == 0
    assert "value: 9" in out


def test_res_univariate(capsys):
    code, out, _ = run(capsys, "res", "-p", "3", "-n", "1", "t1-2")
    assert code == 0 and "value: -7" in out


def test_res_rprime_json_with_verify(capsys):
    code, out, _ = run(
        capsys, "res", "-p", "3", "-n", "1,1", "--mask", "rprime", "--format", "json", "--verify", "1+t1*t2"
    )
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "4"
    assert record["verify"]["agree"] is True


def test_res_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "res", "-p", "2", "-n", "1,1", "t1*t3-2")
    assert code == 2 and "t3" in err


def test_res_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("PADIC_RES_BUDGET", "8")
    code, _, err = run(capsys, "res", "-p", "2", "-n", "9", "t1-2")
    assert code == 3 and "budget" in err


def test_power_budget_refuses_before_expanding(capsys):
    # expanding (1+t1+t2)^4096 alone would not finish; ^50 is cheap and
    # prints 3^50, the product of (1+t1+t2)^50 over t1, t2 = +-1
    start = time.perf_counter()
    code, out, err = run(capsys, "res", "-p", "2", "-n", "1,1", "(1+t1+t2)^4096")
    assert (code, out) == (3, "") and "exceeds the budget" in err
    assert time.perf_counter() - start < 1
    code, out, _ = run(capsys, "res", "-p", "2", "-n", "1,1", "(1+t1+t2)^50")
    assert code == 0
    assert out == "command: res\np: 2\nlevels: [1, 1]\nmask: r\nvalue: 717897987691852588770249\n"
    # a one-term base has one term at every power, whatever its exponent
    assert parse_poly("(2*t1*t2)^4096", 2).term_dict() == {(4096, 4096): 2**4096}
    # a chain of powers is charged for its products too, before the first:
    # its two products alone would take minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "res", "-p", "2", "-n", "1,1", "(1+t1+t2)^100*(1+t1+t2)^100*(1+t1+t2)^100")
    assert (code, out) == (3, "") and "exceeds the budget" in err
    assert time.perf_counter() - start < 1


def test_elimination_allocates_only_occurring_exponents():
    # (2*t1*t2)^4096 occupies one t2-exponent of 4,097: an array of the
    # packed t1 range for every one would take 17 GB, so the run is capped
    # at 1.5 GB of address space and must fit; 2^4096 at each (+-1, +-1)
    import resource

    cap = 1536 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "padicres", "res", "-p", "2", "-n", "1,1", "(2*t1*t2)^4096"],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit,
    )
    assert done.returncode == 0, done.stderr
    # 4,933 digits, past Python's default int/str limit, which Decimal skips
    value = done.stdout.splitlines()[-1].removeprefix("value: ")
    assert Decimal(value) == 2**16384


@pytest.mark.parametrize("levels", ["8,8,8", "2,7,7"])
def test_res_budget_bounds_three_variable_elimination(capsys, monkeypatch, levels):
    # refused from the estimate alone, before any elimination starts
    def no_work(*args):
        raise AssertionError("the elimination started")

    monkeypatch.setattr(resultants, "phi_resultant_last_var", no_work)
    code, out, err = run(capsys, "res", "-p", "2", "-n", levels, "5+t1+t2+t3")
    assert code == 3 and "budget" in err and not out


@pytest.mark.parametrize(
    "argv",
    [
        ["climit", "5+t1+t2+t1*t2", "--vars", "2", "-p", "2", "-K", "13"],
        ["whitehead", "-k", "5", "-p", "3", "-K", "8"],
    ],
)
def test_window_budget_refuses_before_any_elimination(capsys, monkeypatch, argv):
    # the window's walks, each charged as its top level, are summed over
    # the sublinks and refused before level 1 is computed; `whitehead -K 8`
    # walks 7 levels (2.01e9), while -K 7 walks 6 (5.31e7) and is accepted;
    # `climit -p 2 -K 13`, whose f(1,1) = 8 is even, is refused too: 12
    # levels and the orbit walk of level 13 (4.38e9)
    def no_work(*args):
        raise AssertionError("the elimination started")

    monkeypatch.setattr(resultants, "phi_resultant_last_var", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 3 and "budget" in err and not out


@pytest.mark.parametrize(
    "argv",
    [["climit", "1+t1", "--vars", "40", "-K", "2"], ["res", "1+t1", "-n", ",".join(["1"] * 40)]],
)
def test_budget_in_forty_variables_refuses_at_once(capsys, monkeypatch, argv):
    # the estimate of 3^40 index tuples takes one step per state of the
    # walk (degrees, bits), not per tuple
    def no_work(*args):
        raise AssertionError("the elimination started")

    monkeypatch.setattr(resultants, "phi_resultant_last_var", no_work)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 3 and "budget" in err and not out
    assert time.perf_counter() - start < 1


def test_budget_in_three_hundred_variables_refuses_within_a_second(capsys, monkeypatch):
    # a state of the estimate's walk lists only the variables of nonzero
    # degree, so its work does not grow with d
    _no_norm(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, "climit", "1+t1", "--vars", "300", "-K", "2")
    assert code == 3 and "budget" in err and not out
    assert time.perf_counter() - start < 1


def test_budget_in_sixty_odd_p_levels_refuses_within_half_a_second(capsys, monkeypatch):
    # the estimate's walk stops once its running total passes the budget,
    # long before it has visited every state of sixty odd-p levels
    _no_norm(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, "res", "1+t1", "-p", "3", "-n", ",".join(["3"] * 60))
    assert code == 3 and "budget" in err and not out
    assert time.perf_counter() - start < 0.5


def _no_work_anywhere(monkeypatch):
    """Make every entry point of a norm, an elimination, an orbit walk, a
    log norm, a cyclotomic polynomial or an oracle raise."""
    from padicres import limits, links

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    targets = [
        (resultants, "phi_resultant_last_var"),
        (resultants, "resultant_phi_int"),
        (links, "cyclotomic"),
        (links, "level_log_norm"),
        (links, "level_log_valuation"),
        (links, "modular_root_product"),
        (limits, "_orbit_values"),
        (oracles, "bareiss_det"),
    ]
    for module, name in targets:
        monkeypatch.setattr(module, name, no_work)


@pytest.mark.parametrize(
    "argv",
    [
        ["res", "-p", "2", "-n", "2,2", "5+t1+t2"],
        ["res", "-p", "2", "-n", "2,2", "--verify", "5+t1+t2"],
        ["climit", "t1-2", "-p", "3", "-K", "3"],
        ["climit", "5+t1", "-p", "2", "-K", "3"],
        ["climit", "2+t1+t2", "--vars", "2", "-p", "3", "-K", "3"],
        ["climit", "2+t1+t2", "--vars", "2", "-p", "3", "-K", "3", "--mask", "rprime"],
        ["climit", "5+t1+t2+t1*t2", "--vars", "2", "-p", "2", "-K", "3"],
        ["climit", "5+t1+t2+t1*t2", "--vars", "2", "-p", "2", "-K", "3", "--mask", "rprime"],
        ["iwasawa", "-p", "5", "t-6"],
        ["linkh1", "--whitehead", "3", "-p", "2", "-n", "2,2"],
        ["linkh1", "--whitehead", "3", "-p", "2", "-n", "2,2", "--verify"],
        ["linkh1", "--whitehead", "4", "-p", "3", "-n", "1,1", "--verify"],
        ["whitehead", "-k", "3", "-p", "2", "-K", "4"],
        ["whitehead", "-k", "3", "-p", "3", "-K", "3"],
        ["twopart", "-k", "3", "--n-max", "3"],
    ],
)
def test_every_command_refuses_before_any_work(capsys, monkeypatch, argv):
    # a budget of one unit refuses every command from its estimates alone
    _no_work_anywhere(monkeypatch)
    monkeypatch.setenv("PADIC_RES_BUDGET", "1")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and "budget" in err, err


@pytest.mark.parametrize("levels", ["24,24", "100000,100000"])
def test_linkh1_refuses_before_the_prefactor_and_the_first_sublink(capsys, monkeypatch, levels):
    # the sublinks' estimates are summed before any is computed: at 24,24
    # the two unknot sublinks would take seconds before the two-component
    # one is refused, and at 100000,100000 the prefactor check alone would
    # build Phi_(2^n) for every n up to 100000
    _no_work_anywhere(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, "linkh1", "--whitehead", "3", "-p", "2", "-n", levels)
    assert (code, out) == (3, "") and "budget" in err
    assert time.perf_counter() - start < 0.5


def test_linkh1_budget_is_the_sum_over_sublinks(capsys, monkeypatch):
    # a cap above each sublink's own estimate but below their sum refuses
    # before the prefactor check, and one at their sum admits
    from padicres import links

    link = links.whitehead_link_spec(3)
    costs = [
        resultants.cost_estimate(CyclicResultantRequest.rprime(link.alexander(s), 2, (6,) * len(s)))
        for s in link.subsets()
    ]
    cap = int(max(costs)) + 1
    assert sum(costs) > cap
    argv = ["linkh1", "--whitehead", "3", "-p", "2", "-n", "6,6"]
    with monkeypatch.context() as patched:
        _no_work_anywhere(patched)
        patched.setenv("PADIC_RES_BUDGET", str(cap))
        code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and "budget" in err
    monkeypatch.setenv("PADIC_RES_BUDGET", str(int(sum(costs)) + 1))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out


@pytest.mark.parametrize("count", ["0", "-2", "x"])
def test_climit_vars_must_be_positive(capsys, count):
    code, out, err = run(capsys, "climit", "1", "--vars", count, "-K", "2")
    assert code == 2 and "--vars" in err and not out


def _no_norm(monkeypatch):
    """Make every elimination and final norm raise."""

    def no_work(*args):
        raise AssertionError("a norm started")

    monkeypatch.setattr(resultants, "phi_resultant_last_var", no_work)
    monkeypatch.setattr(resultants, "resultant_phi_int", no_work)


@pytest.mark.parametrize(
    "argv",
    [
        # f(1,1) = 8 is a 3-adic unit: refused on the norm route (1.76e9)
        ["climit", "5+t1+t2+t1*t2", "--vars", "2", "-p", "3", "-K", "8"],
        ["climit", "2+t1+t2", "--vars", "2", "-p", "3", "-K", "40"],
        ["climit", "5+t1+t2+2*t1*t2+t3", "--vars", "3", "-p", "3", "-K", "40"],
        ["climit", "5+t1+t2+2*t1*t2", "--vars", "2", "-p", "7", "-K", "40", "--format", "json"],
    ],
)
def test_unit_case_full_mask_takes_no_norm(capsys, monkeypatch, argv):
    # d >= 2 and p not dividing f(1,...,1): the full-mask limit is the
    # Teichmuller lift of f(1,...,1), and no elimination or norm runs
    _no_norm(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and not err and time.perf_counter() - start < 1


def test_unit_case_budget_charges_the_rows_before_any_work(capsys, monkeypatch):
    # the closed form's rows are charged (limits.unit_rows_cost): a large K
    # is refused at once, and a cap just below the charge refuses what a
    # cap at it admits, with no norm either way
    from padicres.limits import unit_rows_cost

    _no_norm(monkeypatch)
    start = time.perf_counter()
    for K in ("1000000", "100000000000", "1" + "0" * 400):
        code, out, err = run(capsys, "climit", "2+t1+t2", "--vars", "2", "-p", "3", "-K", K)
        assert code == 3 and "budget" in err and not out
    assert time.perf_counter() - start < 1
    charged = unit_rows_cost(3, 40, 2)
    argv = ["climit", "2+t1+t2", "--vars", "2", "-p", "3", "-K", "40"]
    monkeypatch.setenv("PADIC_RES_BUDGET", str(int(charged * (1 - 1e-9))))
    code, out, err = run(capsys, *argv)
    assert code == 3 and "budget" in err and not out
    monkeypatch.setenv("PADIC_RES_BUDGET", str(int(charged) + 1))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out


def test_unit_case_rprime_budget_sums_the_one_variable_windows(capsys, monkeypatch):
    # the prime mask adds the d windows of f at t_j = 1 for j != i to the
    # rows; a cap below that sum refuses before any norm, and a cap at it
    # admits a run whose only norms are those of the one-variable windows
    from padicres.limits import _axis, unit_rows_cost, window_cost, window_levels

    f, p, K = parse_poly("5+t1+t2+2*t1*t2", 2), 2, 11
    windows = [window_cost(_axis(f, i), p, window_levels(K), "r") for i in range(2)]
    charged = unit_rows_cost(p, K, 2) + sum(windows)
    assert max(windows) < charged * (1 - 1e-9) and unit_rows_cost(p, K, 2) < charged * (1 - 1e-9)
    argv = ["climit", "5+t1+t2+2*t1*t2", "--vars", "2", "-p", "2", "-K", "11", "--mask", "rprime"]
    _no_norm(monkeypatch)
    monkeypatch.setenv("PADIC_RES_BUDGET", str(int(charged * (1 - 1e-9))))
    code, out, err = run(capsys, *argv)
    assert code == 3 and "budget" in err and not out
    monkeypatch.setenv("PADIC_RES_BUDGET", str(int(charged) + 1))
    code, out, err = run(capsys, *argv)
    assert code == 1 and "a norm started" in err
    monkeypatch.undo()
    finals = []
    final = resultants.resultant_phi_int

    def counting(p, j, g):
        finals.append(j)
        return final(p, j, g)

    monkeypatch.setattr(resultants, "phi_resultant_last_var", lambda *args: pytest.fail("an elimination ran"))
    monkeypatch.setattr(resultants, "resultant_phi_int", counting)
    monkeypatch.setenv("PADIC_RES_BUDGET", str(int(charged) + 1))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    # the indices 0..K-1 of each axis window's levels 1..K-1 (index 0
    # joins level 1)
    assert sorted(finals) == sorted(list(range(K)) * 2)


def test_window_budget_is_the_top_level_plus_the_orbit_walk(capsys, monkeypatch):
    # 2 divides f(1,1) = 8: the window of levels 1..K-1 is charged as its
    # top level, K - 1 = 6, plus the orbit walk of level K, which the
    # estimates take over the window of K levels, charged as level 7; a cap
    # above each part's own estimate but below their sum refuses, and one
    # at their sum admits
    from padicres.limits import orbit_cost, window_cost

    f = parse_poly("5+t1+t2+t1*t2", 2)
    window, orbits = window_cost(f, 2, 6, "r"), orbit_cost(f, 2, 7, "r", first=7)
    charged = window + orbits
    assert window == pytest.approx(resultants.cost_estimate(CyclicResultantRequest.full(f, 2, (6, 6))), rel=1e-12)
    assert charged < window_cost(f, 2, 7, "r")
    assert max(window, orbits) < charged * (1 - 1e-9)
    argv = ["climit", "5+t1+t2+t1*t2", "--vars", "2", "-p", "2", "-K", "7"]
    monkeypatch.setenv("PADIC_RES_BUDGET", str(int(charged * (1 - 1e-9))))
    code, out, err = run(capsys, *argv)
    assert code == 3 and "budget" in err and not out
    monkeypatch.setenv("PADIC_RES_BUDGET", str(int(charged * (1 + 1e-9)) + 1))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out


def test_whitehead_level_budget_refuses_before_any_work(capsys, monkeypatch):
    # the closed form's log-norm levels and the empirical window share one
    # budget, checked before either starts
    from padicres import links

    def no_work(*args):
        raise AssertionError("a log norm started")

    monkeypatch.setattr(links, "level_log_norm", no_work)
    monkeypatch.setattr(resultants, "phi_resultant_last_var", no_work)
    code, out, err = run(capsys, "whitehead", "-k", "3", "-p", "2", "-K", "4", "--lmax", "21")
    assert code == 3 and "budget" in err and not out
    # PADIC_RES_BUDGET lifts the refusal: the first log norm then starts
    monkeypatch.setenv("PADIC_RES_BUDGET", str(10**11))
    code, out, err = run(capsys, "whitehead", "-k", "3", "-p", "2", "-K", "4", "--lmax", "21")
    assert code == 1 and "a log norm started" in err


def test_whitehead_budget_is_the_closed_form_plus_the_window(capsys, monkeypatch):
    # a cap above each part's own estimate but below their sum refuses
    from padicres import links

    closed = links.closed_form_cost(3, 2, 4, 6)
    window = links.nonp_limit_cost(links.whitehead_link_spec(3), 2, 4)
    cap = int(max(closed, window)) + 1
    assert closed + window > cap
    monkeypatch.setenv("PADIC_RES_BUDGET", str(cap))
    code, out, err = run(capsys, "whitehead", "-k", "3", "-p", "2", "-K", "4", "--lmax", "6")
    assert code == 3 and "budget" in err and not out


def test_whitehead_level_budget_accepts_level_six(capsys):
    code, out, _ = run(capsys, "whitehead", "-k", "3", "-p", "2", "-K", "4", "--lmax", "6")
    assert code == 0 and "agree: True" in out and "[6, 34, 18]" in out


@pytest.mark.parametrize(
    "k, residue, nu_sums",
    [
        ("3", 3, [[2, 4, 20], [3, 6, 20], [4, 10, 20], [5, 18, 20], [6, 34, 20], [7, 66, 20]]),
        ("25", 57, [[2, 6, 20], [3, 10, 20], [4, 18, 20], [5, 34, 20], [6, 66, 20], [7, 130, 20]]),
    ],
)
def test_whitehead_2adic_level_seven_outputs(capsys, k, residue, nu_sums):
    # every level's nu sum through level 7, pinned; each factor is worked
    # at the closed form's K + 14 digits
    code, out, _ = run(capsys, "whitehead", "-k", k, "-p", "2", "-K", "6", "--lmax", "7", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert (record["closed_form_residue"], record["achieved_digits"]) == (residue, 6)
    assert record["per_level_nu_sums"] == nu_sums
    assert record["agree"] is True


def test_whitehead_2adic_level_nine_nu_sums(capsys):
    # the nu sums of levels 8 and 9, each factor at K + 14 digits
    code, out, _ = run(capsys, "whitehead", "-k", "3", "-p", "2", "-K", "4", "--lmax", "9", "--format", "json")
    assert code == 0
    assert json.loads(out)["per_level_nu_sums"][-2:] == [[8, 130, 18], [9, 258, 18]]


@pytest.mark.parametrize(
    "k, lmax, closed_form, residue",
    [
        ("3", "8", 133123, 3),
        ("3", "9", 4099, 3),
        ("3", "10", 8195, 3),
        ("25", "8", 45625, 9),
        ("25", "9", 120377, 9),
        ("25", "10", 7737, 9),
    ],
)
def test_whitehead_2adic_deep_records(capsys, k, lmax, closed_form, residue):
    # the records the fixed-precision log norms printed, apart from the
    # factor precisions in per_level_nu_sums
    code, out, _ = run(capsys, "whitehead", "-k", k, "-p", "2", "-K", "4", "--lmax", lmax, "--format", "json")
    assert code == 0
    record = json.loads(out)
    del record["per_level_nu_sums"]
    assert record == {
        "K": 4, "achieved_digits": 4, "agree": True, "closed_form": f"2^0 * {closed_form} mod 2^18",
        "closed_form_residue": residue, "command": "whitehead", "compared_digits": 4, "degenerate": False,
        "empirical": f"2^0 * {residue} mod 2^4", "k": int(k), "p": 2,
    }


def test_whitehead_k31_closed_form_keeps_the_old_digits(capsys):
    # the fixed-precision route printed 2^0 * 4095 mod 2^12 here; the value
    # now has K + 14 = 18 digits and agrees with it mod 2^12
    code, out, _ = run(capsys, "whitehead", "-k", "31", "-p", "2", "-K", "4", "--lmax", "9", "--format", "json")
    assert code == 0
    unit, modulus = json.loads(out)["closed_form"].removeprefix("2^0 * ").split(" mod ")
    assert modulus == "2^18" and int(unit) % 2**12 == 4095


@pytest.mark.parametrize(
    "argv, record",
    [
        (
            ["5+t1+t2+t1*t2", "--vars", "2", "-p", "2", "-K", "8"],
            {
                "command": "climit", "p": 2, "K": 8, "mask": "r", "zero_limit": True,
                "raw_limit": "0 (exact)", "nonp_limit": "2^0 * 117 mod 2^8",
                "certified_digits": "exact", "nonp_certified_digits": 8,
                "stabilized": False, "degenerate": False, "levels_used": [8, 8],
                "window": [
                    [1, 9, 1], [2, 27, 1], [3, 73, 5], [4, 183, 5],
                    [5, 437, 21], [6, 1011, 53], [7, 2289, 117], [8, 5103, 117],
                ],
            },
        ),
        (
            ["7-2*t2+t1-3*t1*t2", "--vars", "2", "-p", "3", "-K", "4", "--mask", "r"],
            {
                "command": "climit", "p": 3, "K": 4, "mask": "r", "zero_limit": True,
                "raw_limit": "0 (exact)", "nonp_limit": "3^0 * 28 mod 3^4",
                "certified_digits": "exact", "nonp_certified_digits": 4,
                "stabilized": False, "degenerate": False, "levels_used": [4, 4],
                "window": [[1, 7, 1], [2, 22, 1], [3, 67, 1], [4, 202, 28]],
            },
        ),
    ],
)
def test_climit_json_records(capsys, argv, record):
    # every level's v_p and non-p residue, pinned byte for byte
    code, out, _ = run(capsys, "climit", *argv, "--format", "json")
    assert code == 0 and out.strip() == json.dumps(record, sort_keys=True)


@pytest.mark.parametrize(
    "argv, value",
    [
        (["-p", "2", "-n", "3,3", "--", "1+2*t1-3*t2+5*t1*t2"], "-9707620948289165543525880836739540753018099375"),
        (["-p", "3", "-n", "2,2", "--", "3-t1+2*t2+t1*t2"], "781845578630854699793772891326580476562500"),
        (["-p", "2", "-n", "2,2,2", "--", "5+t1+t2+t3"], "499390390066128213510595805184000000000000000"),
    ],
)
def test_res_verify_json_records(capsys, argv, value):
    # the Sylvester baseline's value, pinned byte for byte with the record
    code, out, _ = run(capsys, "res", "--format", "json", "--verify", *argv)
    p, levels = int(argv[1]), [int(n) for n in argv[3].split(",")]
    record = {
        "command": "res", "levels": levels, "mask": "r", "p": p, "value": value,
        "verify": {"agree": True, "baseline": value, "complex_root_product": value},
    }
    assert code == 0 and out == json.dumps(record, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv, load",
    [(["-p", "3", "-n", "2,2", "t1*t2^3-2"], 324), (["-p", "2", "-n", "3,3,3", "5+t1+t2+t3"], 512)],
)
def test_baseline_budget_refusals_exit_3(capsys, argv, load):
    # the degree guard at its default of 256 refuses before any determinant
    code, out, err = run(capsys, "res", "--verify", *argv)
    assert code == 3 and not out
    assert f"baseline degree load {load} exceeds budget 256" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["twopart", "-k", "3", "-p", "5", "--n-max", "2"],
        ["climit", "5+t1+t2", "--vars", "2", "-p", "3", "-K", "2", "--truncate", "8"],
        ["iwasawa", "t-6", "-p", "5", "--truncate", "8"],
        ["whitehead", "-k", "4", "-p", "3", "-K", "2", "--truncate", "8"],
        ["twopart", "-k", "3", "--n-max", "2", "--truncate", "8"],
        ["res", "-p", "2", "-n", "1", "--verify", "--baseline-budget", "512", "t1-2"],
        ["res", "--vars", "2", "-n", "1,1", "t1"],
    ],
)
def test_options_no_command_reads_are_user_errors(capsys, argv):
    # twopart has no prime, --truncate is only on the commands that print
    # big integers, the baseline's degree guard is fixed at 256, and res
    # takes its number of variables from its levels
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [["-k", "3", "-p", "2", "-K", "4", "--lmax", "5"], ["-k", "4", "-p", "3", "-K", "3"]])
def test_whitehead_estimates_its_window_once(capsys, monkeypatch, argv):
    from padicres import cli, links

    calls = []
    original = links.nonp_limit_cost

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(links, "nonp_limit_cost", counting)
    monkeypatch.setattr(cli, "nonp_limit_cost", counting)
    code, out, _ = run(capsys, "whitehead", *argv)
    assert code == 0 and "agree: True" in out
    assert len(calls) == 1


def test_h1_nonp_limit_refuses_over_budget(monkeypatch):
    from padicres import links

    def no_work(*args):
        raise AssertionError("the elimination started")

    # three digits from the two levels walked, and the cost of those two
    link = links.whitehead_link_spec(3)
    cap = math.ceil(links.nonp_limit_cost(link, 3, 2))
    monkeypatch.setattr(resultants, "phi_resultant_last_var", no_work)
    monkeypatch.setenv("PADIC_RES_BUDGET", str(cap - 1))
    with pytest.raises(BudgetExceededError):
        links.h1_nonp_limit(link, 3, 3)
    monkeypatch.setenv("PADIC_RES_BUDGET", str(cap))
    with pytest.raises(AssertionError, match="the elimination started"):
        links.h1_nonp_limit(link, 3, 3)


@pytest.mark.parametrize("raw", ["1e12", "abc", "0", "-5"])
def test_malformed_budget_is_user_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("PADIC_RES_BUDGET", raw)
    code, out, err = run(capsys, "res", "-p", "2", "-n", "1", "t1-2")
    assert code == 2 and not out
    assert f"PADIC_RES_BUDGET must be a positive decimal integer, got {raw!r}" in err


def test_empty_budget_means_the_default(capsys, monkeypatch):
    monkeypatch.setenv("PADIC_RES_BUDGET", "")
    code, out, _ = run(capsys, "res", "-p", "2", "-n", "1", "t1-2")
    assert code == 0 and "value: 3" in out


def test_oracle_mismatch_table_keeps_the_success_order(capsys, monkeypatch):
    from padicres import cli

    code, success, _ = run(capsys, "iwasawa", "-p", "5", "t-6")
    assert code == 0
    monkeypatch.setattr(cli, "lambda_mu_structural", lambda f, p: (99, 99))
    code, mismatch, err = run(capsys, "iwasawa", "-p", "5", "t-6")
    assert code == 4 and "disagree" in err

    def keys(text):
        return [line.split(":")[0] for line in text.splitlines()]

    assert keys(mismatch) == keys(success)
    assert keys(success)[:2] == ["command", "p"]


@pytest.mark.parametrize(
    "argv, name, alter, payload, message",
    [
        (
            ("res", "-p", "2", "-n", "1,1", "--verify", "t1*t2-2"),
            "complex_root_product",
            lambda value: value + 1,
            "command: res\np: 2\nlevels: [1, 1]\nmask: r\nvalue: 9\n"
            'verify: {"agree": false, "baseline": "9", "complex_root_product": "10"}\n',
            "res --verify: routes disagree",
        ),
        (
            ("linkh1", "--verify", "--whitehead", "3", "-p", "2", "-n", "2,2"),
            "character_oracle",
            lambda h1: dataclasses.replace(h1, order=h1.order + 1),
            "order: 124416\nnonp: 243\np_exponent: 9\n",
            "linkh1 --verify: exact 124416 vs character oracle 124417",
        ),
        (
            ("whitehead", "-k", "3", "-p", "3", "-K", "3"),
            "_nonp_limit",
            lambda est: dataclasses.replace(est, nonp_value=est.nonp_value + 1),
            "command: whitehead\nk: 3\np: 3\nK: 3\ndegenerate: False\n"
            "closed_form: 3^0 * 13 mod 3^3\nclosed_form_residue: 13\nachieved_digits: 3\n"
            "empirical: 3^0 * 14 mod 3^3\ncompared_digits: 3\nagree: False\nper_level_nu_sums: []\n",
            "whitehead: closed form and empirical limit disagree",
        ),
        (
            ("twopart", "-k", "3", "--n-max", "2"),
            "two_part_exponent_check",
            lambda report: dataclasses.replace(report, ok=False),
            "command: twopart\nk: 3\nrows: [[1, 1, 1], [2, 9, 9]]\nok: False\n",
            "two-part exponent identity failed",
        ),
    ],
)
def test_a_mismatch_prints_its_payload_then_exits_4(capsys, monkeypatch, argv, name, alter, payload, message):
    from padicres import cli

    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: alter(real(*args)))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (4, payload, f"internal error (oracle mismatch): {message}\n")


def test_inexact_division_is_internal_not_user_error(capsys, monkeypatch):
    # the Sylvester baseline of res --verify divides exactly at every Bareiss
    # step; a division that is not exact is a bug, not a user error
    def inexact(a, b):
        raise ExactDivisionError(f"{a} not divisible by {b}")

    monkeypatch.setattr(oracles, "_divexact", inexact)
    code, out, err = run(capsys, "res", "-p", "2", "-n", "1,1", "--verify", "t1*t2-2")
    assert code == 1 and not out
    assert "unexpected error" in err and "not divisible" in err


def test_the_test_references_are_not_in_the_package():
    # the reference checks and fixtures only the tests use live in
    # tests/reference.py, not in the package
    import importlib
    import pkgutil

    import padicres

    modules = [padicres] + [
        importlib.import_module(f"padicres.{info.name}")
        for info in pkgutil.iter_modules(padicres.__path__)
        if not info.name.startswith("__")
    ]
    moved = ("sign_of", "closed_form_limit", "OrderInvarianceReport", "order_invariance_check")
    moved += ("random_multipoly", "nu_zeta", "_request")
    for module in modules:
        for name in moved:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for cls, name in ((padicres.MultiPoly, "embed"), (padicres.MultiPoly, "permute_vars"), (padicres.UniPoly, "divmod_monic")):
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"


def test_the_package_never_imports_mpmath():
    # both --verify oracles are exact integer routes
    script = "\n".join(
        [
            "import sys",
            "sys.modules['mpmath'] = None",
            "from padicres.cli import main",
            "codes = [main(['res', '-p', '3', '-n', '1,1', '--mask', 'rprime', '--verify', '1+t1*t2']),",
            "         main(['linkh1', '--verify', '--whitehead', '4', '-p', '2', '-n', '4,4'])]",
            "sys.exit(max(codes))",
        ]
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "value: 4" in lines
    assert 'verify: {"agree": true, "baseline": "4", "complex_root_product": "4"}' in lines
    # L_4 = 2*(1 + t1*t2 - t1 - t2): r' at (4,4) is 2^(15*15) * 2^(4*15 + 4*15)
    assert f"order: {2**345}" in lines and "nonp: 1" in lines and "p_exponent: 345" in lines


def test_broken_norm_is_internal_not_user_error(capsys, monkeypatch):
    # a product that leaves Z[zeta^p] breaks the tower's invariant (a linear
    # input would take the closed form and never multiply)
    mul_mod_phi = resultants.mul_mod_phi

    def broken(a, b, p, j):
        product = mul_mod_phi(a, b, p, j)
        product[1] += 1
        return product

    monkeypatch.setattr(resultants, "mul_mod_phi", broken)
    code, out, err = run(capsys, "res", "-p", "3", "-n", "2", "t1^2-2")
    assert code == 1 and not out
    assert "t1" not in err and "unexpected error" in err


def test_an_empty_internal_error_names_its_class(capsys, monkeypatch):
    # MemoryError() has no message: the class name stands in for it
    def out_of_memory(a, b, p, j):
        raise MemoryError()

    monkeypatch.setattr(resultants, "mul_mod_phi", out_of_memory)
    code, out, err = run(capsys, "res", "-p", "3", "-n", "2", "t1^2-2")
    assert code == 1 and not out
    assert "unexpected error: MemoryError" in err


def test_an_elimination_packs_at_most_phi_coefficients():
    # deg_{t2} f = 1024 >= phi(p^j): reduced mod Phi_{p^j}(t2) on its terms
    # first, each request peaks near 30 MB; packing all 1025 t2-coefficients,
    # about 260 KB each, needs about 800 MB, past the 200 MB cap
    script = "\n".join(
        [
            "import resource, sys",
            "resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))",
            "from padicres.cli import main",
            "f = '(2*t1)^1024*(1+t2)^1024'",
            "codes = [main(['res', '-p', p, '-n', '1,1', g]) for p, g in [('2', f), ('2', f + '+1'), ('3', f + '+1')]]",
            "sys.exit(max(codes))",
        ]
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # at p = 2, t2 = -1 kills the product and leaves 1 in f + 1; at p = 3,
    # 1024 = 1 mod 3 and (1 + t2)^3 = -1 at t2 = w, w^2
    values = [int(line.split(": ")[1]) for line in done.stdout.splitlines() if line.startswith("value: ")]
    assert values == [0, (2**2048 + 1) ** 2, (1 + 2**6144) * (1 + 2**3072) ** 2]


def test_too_narrow_packing_is_internal_not_user_error(capsys, monkeypatch):
    # one-byte digits cannot hold Res(Phi_4(t2), 100*t1 + t2) = 10000*t1^2 + 1
    monkeypatch.setattr(resultants, "_digit_size", lambda f, n: 1)
    code, out, err = run(capsys, "res", "-p", "2", "-n", "1,2", "100*t1+t2")
    assert code == 1 and not out
    assert "unexpected error" in err and "does not fit" in err


def test_runs_as_a_module_from_the_source_tree():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "padicres", "res", "-p", "2", "-n", "1,1", "t1*t2-2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0 and "value: 9" in done.stdout


def test_res_custom_mask(capsys):
    code, out, _ = run(
        capsys, "res", "-p", "2", "-n", "3", "--mask", "custom", "--mask-sets", "2,3", "1-t1"
    )
    assert code == 0 and "value: 4" in out


def test_climit_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "climit", "-p", "7", "-K", "2", "--vars", "2", "--format", "json", "2-t1"
    )
    assert code == 0
    record = json.loads(out)
    assert record["certified_digits"] == 2
    assert record["raw_limit"] == "7^0 * 1 mod 7^2"
    assert record["window"] == [[1, 0, 1], [2, 0, 1]]


def test_iwasawa_bare_t_accepted(capsys):
    code, out, _ = run(capsys, "iwasawa", "-p", "5", "t-6")
    assert code == 0
    assert "lambda: 1" in out and "mu: 0" in out and "nu: 1" in out


def test_linkh1_builtin_whitehead(capsys):
    code, out, _ = run(capsys, "linkh1", "--whitehead", "2", "-p", "2", "-n", "1,1", "--verify")
    assert code == 0
    assert "order: 4" in out


def test_linkh1_verify_past_the_oracle_scale_exits_3(capsys):
    # |G| = 2^14 exceeds the character oracle's 4096: a cost refusal, as
    # the baseline's degree guard is for res --verify, not a user error
    code, out, err = run(capsys, "linkh1", "--whitehead", "3", "-p", "2", "-n", "7,7", "--verify")
    assert code == 3 and "budget" in err and "16384" in err and not out


@pytest.mark.parametrize(
    "argv, engine, message",
    [
        (["linkh1", "--whitehead", "3", "-p", "2", "-n", "7,7", "--verify"], "h1_order", "|G| = 16384 exceeds"),
        (["res", "-p", "2", "-n", "9,9", "--verify", "2-t1-t2+2*t1*t2"], "cyclic_resultant", "baseline degree load 524288"),
    ],
)
def test_verify_limits_refuse_before_the_engine(capsys, monkeypatch, argv, engine, message):
    # the oracles' limits are checked before the exact route runs
    from padicres import cli

    def no_work(*args):
        raise AssertionError("the engine started")

    monkeypatch.setattr(cli, engine, no_work)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and message in err


def test_linkh1_trefoil_json(capsys):
    code, out, _ = run(capsys, "linkh1", "-p", "2", "-n", "1", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record == {"order": "3", "nonp": "3", "p_exponent": 0}


def test_linkh1_spec_file(tmp_path, capsys):
    doc = {
        "name": "hopf-ish",
        "components": 1,
        "ambient": "S3",
        "sublinks": [{"indices": [1], "alexander": "t1^2 - t1 + 1"}],
    }
    path = tmp_path / "link.json"
    path.write_text(json.dumps(doc))
    # 9-fold cover: primitive-3rd-root factor Delta(w)Delta(w^2) = 4, the
    # primitive-9th-root factor is a cyclotomic resultant equal to 1
    code, out, _ = run(capsys, "linkh1", "--spec", str(path), "-p", "3", "-n", "2")
    assert code == 0 and "order: 4" in out


def test_whitehead_odd_p(capsys):
    code, out, _ = run(capsys, "whitehead", "-k", "4", "-p", "3", "-K", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["closed_form_residue"] == 7 and record["agree"] is True


def test_whitehead_degenerate(capsys):
    code, out, _ = run(capsys, "whitehead", "-k", "1", "-p", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["degenerate"] is True
    # no empirical window runs, so its estimate (about 8e9 at -K 13, past
    # the default budget) is not counted
    for digits in ("12", "13", "20"):
        code, out, _ = run(capsys, "whitehead", "-k", "1", "-p", "2", "-K", digits)
        assert code == 0 and "degenerate: True" in out and "torsion unit" in out


@pytest.mark.parametrize("k, p", [(3, 2), (4, 3), (5, 5), (6, 7)])
def test_whitehead_one_digit_walks_one_level(capsys, monkeypatch, k, p):
    # -K 1 walks level 1 alone and certifies its one digit: the window's
    # only elimination is against Phi_p(t2)
    calls = []
    elimination = resultants.phi_resultant_last_var

    def counting(f, q, j):
        calls.append(j)
        return elimination(f, q, j)

    monkeypatch.setattr(resultants, "phi_resultant_last_var", counting)
    code, out, _ = run(capsys, "whitehead", "-k", str(k), "-p", str(p), "-K", "1", "--format", "json")
    assert code == 0 and calls == [1]
    record = json.loads(out)
    assert record["agree"] is True and record["compared_digits"] == 1
    assert record["empirical"].endswith(f" mod {p}^1")


def _break_sharp_congruence(monkeypatch, target, p, level):
    """Multiply the level-`level` factor of `target`'s diagonal walks by
    1 + p^(level-1): its non-p part stays 1 mod p^(level-1), the old,
    weaker check, but is no longer 1 mod p^level."""
    from padicres import cyclo, limits, links

    walk = limits._diagonal

    def patched(f, q, K, mask):
        factors = walk(f, q, K, mask)
        if f == target and K >= level:
            factors[level - 1] *= 1 + q ** (level - 1)
        return factors

    monkeypatch.setattr(limits, "_diagonal", patched)
    monkeypatch.setattr(links, "_diagonal", patched)


@pytest.mark.parametrize(
    "argv, target",
    [
        (["whitehead", "-k", "3", "-p", "2", "-K", "4", "--lmax", "6"], "2 - t1 - t2 + 2*t1*t2"),
        (["whitehead", "-k", "4", "-p", "3", "-K", "3"], "2 - 2*t1 - 2*t2 + 2*t1*t2"),
        (["climit", "5+t1+t2+t1*t2", "--vars", "2", "-p", "2", "-K", "3"], "5+t1+t2+t1*t2"),
        (["climit", "2-t1", "-p", "3", "-K", "3", "--mask", "rprime"], "2-t1"),
    ],
    ids=["whitehead-p2", "whitehead-p3", "climit-p2", "climit-p3"],
)
def test_broken_sharp_congruence_exits_one_with_no_output(capsys, monkeypatch, argv, target):
    # a broken congruence is a broken theorem: exit 1 with nothing on
    # stdout, never a smaller digit count
    p = int(argv[argv.index("-p") + 1])
    f = parse_poly(target, 2 if "t2" in target else 1)
    _break_sharp_congruence(monkeypatch, f, p, 2)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and "sharp congruence fails" in err


@pytest.mark.parametrize(
    "argv, compared",
    [
        (["whitehead", "-k", "3", "-p", "2", "-K", "8", "--lmax", "4"], 5),
        (["whitehead", "-k", "11", "-p", "2", "-K", "10"], 6),
    ],
)
def test_whitehead_2adic_compares_the_certified_digits(capsys, argv, compared):
    # the closed form certifies lmax + 1 digits, here fewer than K; past
    # them it differs from the empirical limit, and that is no mismatch
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["agree"] is True
    assert record["achieved_digits"] == record["compared_digits"] == compared


def test_broken_norm_group_bound_exits_one_with_no_output(capsys, monkeypatch):
    # a level unit that is not 1 mod 2^L contradicts the norm group
    from padicres import links

    level_log_norm = links.level_log_norm

    def broken(m, level, digits):
        s, nu, unit = level_log_norm(m, level, digits)
        return s, nu, unit * (1 + 2 ** (level - 1)) % 2**digits

    monkeypatch.setattr(links, "level_log_norm", broken)
    code, out, err = run(capsys, "whitehead", "-k", "3", "-p", "2", "-K", "4", "--lmax", "4")
    assert (code, out) == (1, "") and "norm group" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (["res", "-p", "2", "-n", "2,2", "t1-t1"], "value: 0"),
        (["climit", "t1-t1", "--vars", "2", "-p", "2", "-K", "2"], "degenerate: True"),
    ],
)
def test_zero_polynomial_costs_nothing(capsys, argv, line):
    # a zero f in two variables once crashed the cost estimate on its
    # degree -1
    code, out, err = run(capsys, *argv)
    assert code == 0 and line in out.splitlines() and err == ""


def test_twopart(capsys):
    code, out, _ = run(capsys, "twopart", "-k", "3", "--n-max", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["ok"] is True and record["rows"][1] == [2, 9, 9]


@pytest.mark.parametrize("lmax", ["1", "0"])
def test_whitehead_truncation_below_level_two_is_user_error(capsys, lmax):
    code, out, err = run(capsys, "whitehead", "-k", "3", "-p", "2", "-K", "4", "--lmax", lmax)
    assert code == 2 and out == ""
    assert f"truncation level must be >= 2, got {lmax}" in err


def test_twopart_budget_refuses_before_any_elimination(capsys, monkeypatch):
    # twopart walks Galois orbits and takes one log valuation per level,
    # and its cost terms (limits.orbit_cost, summed over the sublinks, and
    # links.nu_sums_cost) first pass the budget at n_max = 21: the refusal
    # comes before any orbit is walked or any valuation taken
    from padicres import cyclo, limits, links

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(limits, "_orbit_values", no_work)
    monkeypatch.setattr(links, "level_log_valuation", no_work)
    for n_max in ("21", "2000", "10000000"):
        code, out, err = run(capsys, "twopart", "-k", "3", "--n-max", n_max)
        assert code == 3 and "budget" in err and not out
    # the patches are what a run the budget admits goes through
    code, out, err = run(capsys, "twopart", "-k", "3", "--n-max", "3")
    assert code == 1 and "work started" in err
    monkeypatch.setattr(links, "level_log_valuation", cyclo.level_log_valuation)
    code, out, err = run(capsys, "twopart", "-k", "3", "--n-max", "3")
    assert code == 1 and "work started" in err


def test_twopart_n_max_12_matches_the_norm_route(capsys):
    # n_max = 12, refused while the exact side took norms, runs in well
    # under 10 s; its rows up to n = 8 equal v_2 of the orders from the
    # norms of one diagonal walk per sublink
    import itertools

    from padicres.links import _h1_diagonal, whitehead_link_spec
    from padicres.padic import vp

    start = time.perf_counter()
    code, out, _ = run(capsys, "twopart", "-k", "3", "--n-max", "12", "--format", "json")
    assert code == 0 and time.perf_counter() - start < 10
    record = json.loads(out)
    assert record["ok"] is True and [row[0] for row in record["rows"]] == list(range(1, 13))
    norms = itertools.accumulate(vp(factor, 2) for factor in _h1_diagonal(whitehead_link_spec(3), 2, 8))
    assert [row[1] for row in record["rows"][:8]] == list(norms)


def test_iwasawa_budget_refuses_before_any_norm(capsys, monkeypatch):
    # the same budget as res on the level-n_max resultant of the factors
    def no_work(*args):
        raise AssertionError("a norm started")

    monkeypatch.setattr(resultants, "resultant_phi_int", no_work)
    monkeypatch.setenv("PADIC_RES_BUDGET", "1")
    code, out, err = run(capsys, "iwasawa", "t-6", "-p", "5", "--n-max", "8")
    assert code == 3 and "budget" in err and not out
    code, out, err = run(capsys, "res", "t1-6", "-p", "5", "-n", "8")
    assert code == 3 and "budget" in err and not out
    monkeypatch.delenv("PADIC_RES_BUDGET")
    code, out, err = run(capsys, "iwasawa", "t-6", "-p", "5", "--n-max", "8")
    assert code == 1 and "a norm started" in err


def test_twopart_empty_range_is_user_error(capsys):
    code, out, err = run(capsys, "twopart", "-k", "3", "--n-max", "0")
    assert code == 2 and out == ""
    assert "n_max must be >= 1, got 0" in err


def test_output_determinism(capsys):
    _, out1, _ = run(capsys, "res", "-p", "3", "-n", "2,2", "--format", "json", "t1^2*t2-3*t1+1")
    _, out2, _ = run(capsys, "res", "-p", "3", "-n", "2,2", "--format", "json", "t1^2*t2-3*t1+1")
    assert out1 == out2


def test_big_integers_print_in_full(capsys):
    # the value has about 4,900 digits, past Python's default int/str limit
    expr = "2 - t1 - t2 + 2*t1*t2"
    code, out, _ = run(capsys, "res", "-p", "2", "-n", "7,7", "--mask", "rprime", "--format", "json", expr)
    assert code == 0
    expected = cyclic_resultant(CyclicResultantRequest.rprime(parse_poly(expr, 2), 2, (7, 7)))
    assert int(json.loads(out)["value"]) == expected


def test_truncate_marks_non_canonical(capsys):
    code, out, _ = run(capsys, "res", "-p", "2", "-n", "6,6", "--truncate", "8", "3+t1*t2")
    assert code == 0 and "non-canonical" in out


def test_truncate_below_one_is_user_error(capsys):
    for digits in ("0", "-2"):
        code, out, _ = run(capsys, "res", "-p", "2", "-n", "6,6", "--truncate", digits, "3+t1*t2")
        assert (code, out) == (2, "")


def test_spec_with_bad_names_is_user_error(capsys, tmp_path):
    spec = tmp_path / "link.json"
    spec.write_text(json.dumps({"components": 1, "names": 5, "sublinks": [{"indices": [1], "alexander": "t1 - 2"}]}))
    code, _, err = run(capsys, "linkh1", "--spec", str(spec), "-p", "3", "-n", "1")
    assert code == 2 and "'names'" in err


def test_unknown_subcommand_is_user_error(capsys):
    assert main(["frobnicate"]) == 2


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main reuses one parser: good and failing parses in sequence give the
    # stdout and exit code a freshly built parser gives
    from padicres import cli

    calls = [
        ("res", "-p", "2", "-n", "1,1", "t1*t2-2"),
        ("res", "-p", "2", "t1-2"),
        ("twopart", "-k", "3", "--n-max", "2", "--format", "json"),
        ("whitehead", "-k", "4", "-p", "3", "-K", "2", "--bogus"),
        ("linkh1", "--whitehead", "3", "-p", "3", "-n", "2,2"),
        ("frobnicate",),
        ("whitehead", "-k", "4", "-p", "3", "-K", "2", "--format", "json"),
        ("res", "-p", "3", "-n", "1", "--mask", "rprime", "t1-2"),
    ]
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda build=cli.build_parser: built.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [run(capsys, *argv)[:2] for argv in calls]
    assert len(built) == 1
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run(capsys, *argv)[:2])
    assert len(built) == 1 + len(calls)
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 2, 0, 2, 0, 2, 0, 0]
