"""Tests of the benchmark itself: every checker rejects corrupted outputs,
and the traced run changes no output and leaves no wrapper behind.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PROGRAM = run.load_program()


def cli_json(argv):
    case = workloads._cli_case(PROGRAM, argv, lambda out: None)
    return workloads._parse_json(case.run())


def rejects(check, *args):
    with pytest.raises(checks.CheckError):
        check(*args)


# ---------------------------------------------------------------------------
# each checker accepts the program's output and rejects a corrupted one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "poly, p, levels, mask",
    [
        (checks.whitehead_poly(3), 2, (5, 5), "rprime"),
        ({(0, 0): 7, (1, 0): -1, (0, 1): 3, (1, 1): 2}, 3, (2, 3), "r"),
        ({(0, 0, 0): -4, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1}, 2, (2, 2, 2), "r"),
    ],
)
def test_check_resultant(poly, p, levels, mask):
    f = PROGRAM.parsing.parse_poly(workloads.render(poly), len(levels))
    build = PROGRAM.resultants.CyclicResultantRequest.full if mask == "r" else PROGRAM.resultants.CyclicResultantRequest.rprime
    value = PROGRAM.resultants.cyclic_resultant(build(f, p, levels))
    masks = checks.full_masks(levels) if mask == "r" else checks.rprime_masks(levels)
    checks.check_resultant(value, poly, p, levels, masks)
    rejects(checks.check_resultant, value + 1, poly, p, levels, masks)
    rejects(checks.check_resultant, -value, poly, p, levels, masks)
    rejects(checks.check_resultant, 0, poly, p, levels, masks)


def test_check_h1():
    out = cli_json(["linkh1", "-p", "2", "-n", "3,3", "--whitehead", "5"])
    sublinks = {(1,): {(0,): 1}, (2,): {(0,): 1}, (1, 2): checks.whitehead_poly(5)}
    checks.check_h1(out, sublinks, 2, (3, 3))
    for field, change in (("order", 1), ("nonp", 2), ("p_exponent", 1)):
        bad = dict(out)
        bad[field] = type(out[field])(int(out[field]) + change)
        rejects(checks.check_h1, bad, sublinks, 2, (3, 3))


def test_check_whitehead_odd():
    for k, p, K in ((4, 3, 3), (5, 5, 2)):
        out = cli_json(["whitehead", "-k", str(k), "-p", str(p), "-K", str(K)])
        checks.check_whitehead_odd(out, k, p, K)
        bad = dict(out, closed_form_residue=out["closed_form_residue"] + 1)
        rejects(checks.check_whitehead_odd, bad, k, p, K)
        unit = out["closed_form"].split(" * ")[1].split(" ")[0]
        bad = dict(out, closed_form=out["closed_form"].replace(f"* {unit} ", f"* {int(unit) + p} ", 1))
        rejects(checks.check_whitehead_odd, bad, k, p, K)
        rejects(checks.check_whitehead_odd, out, k + 1, p, K)


def test_check_whitehead_2adic():
    out = cli_json(["whitehead", "-k", "3", "-p", "2", "-K", "4", "--lmax", "4"])
    checks.check_whitehead_2adic(out, 4)
    rejects(checks.check_whitehead_2adic, out, 5)
    unit = int(out["empirical"].split(" * ")[1].split(" ")[0])
    bad = dict(out, empirical=out["empirical"].replace(f"* {unit} ", f"* {unit + 2} ", 1))
    rejects(checks.check_whitehead_2adic, bad, 4)
    rejects(checks.check_whitehead_2adic, dict(out, agree=False), 4)


def test_check_climit():
    poly = {(0, 0): 7, (1, 0): -1, (0, 1): 3, (1, 1): 2}
    out = cli_json(["climit", "--vars", "2", "-p", "3", "-K", "3", "--", workloads.render(poly)])
    checks.check_climit(out, poly, 3, 3)
    rejects(checks.check_climit, dict(out, zero_limit=not out["zero_limit"]), poly, 3, 3)
    bad = copy.deepcopy(out)
    bad["window"][-1][2] += 1
    rejects(checks.check_climit, bad, poly, 3, 3)


def test_check_iwasawa():
    coeffs = [-21, 4, -8, 1]  # (t - 7) * (t^2 - t + 3)
    poly = {(i,): c for i, c in enumerate(coeffs)}
    out = cli_json(["iwasawa", "-p", "3", "--n-max", "5", "--", workloads.render(poly)])
    checks.check_iwasawa(out, coeffs, 3, 5)
    bad = dict(out, e_values=[e + (i == 2) for i, e in enumerate(out["e_values"])])
    rejects(checks.check_iwasawa, bad, coeffs, 3, 5)
    rejects(checks.check_iwasawa, dict(out, nu=out["nu"] + 1), coeffs, 3, 5)
    rejects(checks.check_iwasawa, dict(out, **{"lambda": out["lambda"] + 1}), coeffs, 3, 5)


def test_check_twopart():
    out = cli_json(["twopart", "-k", "5", "--n-max", "3"])
    checks.check_twopart(out, 5, 3)
    bad = copy.deepcopy(out)
    bad["rows"][2][1] += 1
    bad["rows"][2][2] += 1
    rejects(checks.check_twopart, bad, 5, 3)


def test_render_parses_back():
    rng = random.Random(0)
    for shape in workloads.SHAPES:
        for _ in range(5):
            poly = workloads.random_poly(rng, shape)
            nvars = len(next(iter(poly)))
            f = PROGRAM.parsing.parse_poly(workloads.render(poly), nvars)
            assert dict(f.terms()) == poly


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _originals():
    found = {}
    for module, attr, *_ in tracing.SPANS + tracing.COUNTS:
        owner, name = tracing._resolve(module, attr)
        found[(module, attr)] = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return found


def _wrapped_attributes():
    return [
        (mod_name, name)
        for mod_name, mod in sys.modules.items()
        if mod_name == "padicres" or mod_name.startswith("padicres.")
        for name, value in vars(mod).items()
        if hasattr(value, "__wrapped__")
    ]


def test_trace_changes_no_output_and_unwinds():
    before = _originals()
    cases = workloads.build("windows", 5, PROGRAM)
    cases = [c for c in cases if not c.name.startswith("climit --vars 3 -p 2")]
    cases += workloads.build("whitehead-2adic", 5, PROGRAM)[3:]
    cases += [c for c in workloads.build("res-large", 5, PROGRAM) if "p=7" in c.name]
    state = {"outputs": None, "nondeterministic": False, "case_times": [[] for _ in cases]}
    run.run_passes(cases, 0, state)
    tracer = tracing.Tracer()
    with tracer:
        assert _wrapped_attributes()
        run.run_passes(cases, 0, state)
    assert not state["nondeterministic"]
    assert _originals() == before
    assert not _wrapped_attributes()
    summary = tracer.summary()
    assert set(summary) == set(tracing.LAYER_METRICS)
    for name in ("res.final.calls", "res.elim.calls", "cyclo.norm.calls", "cyclo.mul.calls", "limits.window.calls"):
        assert summary[name] > 0, name
    assert 0 < summary["res.final.distinct_ratio"] <= 1
    json.dumps(tracer.dump(0.0))
