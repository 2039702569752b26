"""The benchmark's workloads: seeded inputs, the timed operations, and the
independent check of each operation's output.

Each workload is a fixed list of cases; a pass runs every case once, in
order, with one caller and jobs=1.  The seed changes coefficients, signs and
twist numbers, never the shape of a case, so the cost of a pass hardly moves
with the seed.  Random polynomials have a dominant constant term (larger than
the sum of the other coefficients' sizes), so they vanish at no root of unity
and no masked resultant is 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from checks import (
    check_climit,
    check_h1,
    check_iwasawa,
    check_resultant,
    check_twopart,
    check_whitehead_2adic,
    check_whitehead_odd,
    full_masks,
    require,
    rprime_masks,
    whitehead_poly,
)

# compared_digits that `whitehead -p 2 -K 6 --lmax 6` reaches for every odd k <= 25
TWO_ADIC_DIGITS_FLOOR = 6

# Monomials and their coefficient sizes for the random shapes; the constant
# term is the sum of the sizes plus one.
SHAPES = {
    "bilinear": ([(1, 0), (0, 1), (1, 1)], [1, 2, 3]),
    "quadlin": ([(1, 0), (0, 1), (1, 1), (2, 0), (2, 1)], [1, 1, 2, 2, 3]),
    "linear3": ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [1, 1, 1]),
}


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # a CLI case returns (exit code, stdout); it failed when the code is not 0
    cli: bool = False

    def failed(self, output) -> bool:
        return self.cli and output[0] != 0


def random_poly(rng: random.Random, shape: str) -> dict:
    """A polynomial of the shape with random signs.  The sizes stay on their
    monomials: moving them changes the cost of a resultant up to twofold."""
    monomials, sizes = SHAPES[shape]
    poly = {exp: rng.choice((-1, 1)) * c for exp, c in zip(monomials, sizes)}
    poly[(0,) * len(monomials[0])] = rng.choice((-1, 1)) * (sum(sizes) + 1)
    return poly


def render(poly: dict) -> str:
    """The polynomial as the program's parser reads it, e.g. '7 - t1 + 2*t1*t2'."""
    text = ""
    for exp in sorted(poly, key=lambda e: (sum(e), e)):
        c = poly[exp]
        if c == 0:
            continue
        mono = "*".join(
            f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}" for i, e in enumerate(exp) if e
        )
        size = abs(c)
        body = mono if mono and size == 1 else (f"{size}*{mono}" if mono else str(size))
        sign = "-" if c < 0 else "+"
        text = f"{'-' if c < 0 else ''}{body}" if not text else f"{text} {sign} {body}"
    return text or "0"


def _parse_json(output):
    rc, stdout = output
    require(rc == 0, f"exit code {rc}")
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# res-large: library calls to cyclic_resultant on bivariate inputs
# ---------------------------------------------------------------------------

# Levels run higher in t1 than in t2 on most cases: t2 is eliminated first,
# so the final Res(Phi_{p^j}, g) in t1 takes about 90% of a pass.
# (k, p, levels, mask): twisted Whitehead inputs, 0.07-0.45 s each
RES_LARGE_WHITEHEAD = [
    (3, 2, (8, 6), "rprime"),
    (3, 5, (3, 2), "rprime"),
    (5, 3, (4, 4), "r"),
    (7, 3, (4, 4), "rprime"),
    (6, 7, (2, 2), "rprime"),
]
# (shape, p, levels, mask): seeded random inputs, 0.04-1 s each
RES_LARGE_RANDOM = [
    ("quadlin", 2, (7, 6), "r"),
    ("quadlin", 3, (5, 3), "rprime"),
    ("bilinear", 5, (3, 2), "r"),
    ("bilinear", 7, (3, 1), "r"),
]


def _res_large(rng, program):
    cases = []
    inputs = [(f"L_{k}", whitehead_poly(k), program.links.whitehead_delta(k), p, lv, mk) for k, p, lv, mk in RES_LARGE_WHITEHEAD]
    for shape, p, lv, mk in RES_LARGE_RANDOM:
        poly = random_poly(rng, shape)
        inputs.append((render(poly), poly, program.parsing.parse_poly(render(poly), 2), p, lv, mk))
    for label, poly, f, p, levels, mask in inputs:
        build = program.resultants.CyclicResultantRequest.full if mask == "r" else program.resultants.CyclicResultantRequest.rprime
        req = build(f, p, levels)
        masks = full_masks(levels) if mask == "r" else rprime_masks(levels)

        def run(req=req):
            return program.resultants.cyclic_resultant(req)

        def check(value, poly=poly, p=p, levels=levels, masks=masks):
            check_resultant(value, poly, p, levels, masks)

        cases.append(Case(f"res {label} p={p} n={levels} {mask}", run, check))
    return cases


# ---------------------------------------------------------------------------
# windows: in-process CLI calls over many small and medium resultants
# ---------------------------------------------------------------------------

# The value has about 4,900 digits; `res` exits 2 while the CLI cannot print
# integers past Python's 4300-digit str() limit.  Once it succeeds, its value
# is checked like any other.
BIG_VALUE_CASE = ("2 - t1 - t2 + 2*t1*t2", 2, (7, 7))


def _cli_case(program, argv, check):
    """A `padicres` call; polynomial arguments go last, after `--`, since
    they may start with a minus sign."""
    argv = [argv[0], "--format", "json"] + list(argv[1:])

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = program.cli.main(argv)
        return rc, out.getvalue()

    return Case(" ".join(argv[:1] + argv[3:]), run, lambda output: check(_parse_json(output)), cli=True)


def _iwasawa_poly(rng, p):
    """(t - 1 - p*a) * (t^2 + b*t + c) with |c| > |b| + 1: one root near 1."""
    a = rng.choice((1, 2))
    b = rng.choice((-2, -1, 1, 2))
    c = rng.choice((-1, 1)) * (abs(b) + 2)
    r = 1 + p * a
    # low degree first
    return [-r * c, c - r * b, b - r, 1]


def _windows(rng, program):
    cases = []

    def climit(poly, p, K, mask="r"):
        nvars = len(next(iter(poly)))
        argv = ["climit", "--vars", str(nvars), "-p", str(p), "-K", str(K), "--mask", mask, "--", render(poly)]
        cases.append(_cli_case(program, argv, lambda out: check_climit(out, poly, p, K)))

    climit({(0, 0, 0): 5, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}, 2, 4)
    climit(random_poly(rng, "linear3"), 3, 2)
    climit(random_poly(rng, "bilinear"), 3, 4)
    climit(random_poly(rng, "quadlin"), 2, 6, "rprime")
    climit(random_poly(rng, "bilinear"), 5, 2)

    def whitehead(k, p, K):
        argv = ["whitehead", "-k", str(k), "-p", str(p), "-K", str(K)]
        cases.append(_cli_case(program, argv, lambda out: check_whitehead_odd(out, k, p, K)))

    # twist numbers of similar cost, so the seed hardly moves the pass time
    whitehead(4, 3, 4)
    whitehead(rng.choice((3, 5)), 3, 4)
    whitehead(rng.choice((3, 4, 5, 6)), 7, 2)

    def linkh1(k, p, levels):
        argv = ["linkh1", "-p", str(p), "-n", ",".join(map(str, levels)), "--verify"]
        if k is None:
            sublinks = {(1,): {(0,): 1, (1,): -1, (2,): 1}}
        else:
            argv += ["--whitehead", str(k)]
            sublinks = {(1,): {(0,): 1}, (2,): {(0,): 1}, (1, 2): whitehead_poly(k)}
        cases.append(_cli_case(program, argv, lambda out: check_h1(out, sublinks, p, levels)))

    linkh1(rng.choice((4, 5)), 2, (4, 4))
    linkh1(rng.choice((3, 4, 5)), 3, (2, 2))
    linkh1(None, 3, (5,))

    def res(poly, p, levels):
        argv = ["res", "-p", str(p), "-n", ",".join(map(str, levels)), "--verify", "--", render(poly)]

        def check(out):
            check_resultant(int(out["value"]), poly, p, levels, full_masks(levels))
            verify = out["verify"]
            require(verify["agree"] is True, "res --verify reports disagreement")
            require(verify["baseline"] == verify["complex_root_product"] == out["value"], "oracle values differ")

        cases.append(_cli_case(program, argv, check))

    res(random_poly(rng, "bilinear"), 2, (3, 3))
    res(random_poly(rng, "bilinear"), 3, (2, 2))
    res(random_poly(rng, "linear3"), 2, (2, 2, 2))

    for p, n_max in ((3, 6), (2, 8)):
        coeffs = _iwasawa_poly(rng, p)
        poly = {(i,): c for i, c in enumerate(coeffs) if c}
        argv = ["iwasawa", "-p", str(p), "--n-max", str(n_max), "--", render(poly)]
        cases.append(_cli_case(program, argv, lambda out, c=coeffs, p=p, n=n_max: check_iwasawa(out, c, p, n)))

    expr, p, levels = BIG_VALUE_CASE
    poly = {(0, 0): 2, (1, 0): -1, (0, 1): -1, (1, 1): 2}
    argv = ["res", "-p", str(p), "-n", ",".join(map(str, levels)), "--mask", "rprime", "--", expr]
    cases.append(
        _cli_case(program, argv, lambda out: check_resultant(int(out["value"]), poly, p, levels, rprime_masks(levels)))
    )
    return cases


# ---------------------------------------------------------------------------
# whitehead-2adic: truncated products of cyclotomic-log norms
# ---------------------------------------------------------------------------


def _whitehead_2adic(rng, program):
    cases = []
    for k in rng.sample(range(5, 26, 2), 3):
        argv = ["whitehead", "-k", str(k), "-p", "2", "-K", "6", "--lmax", "6"]
        cases.append(_cli_case(program, argv, lambda out: check_whitehead_2adic(out, TWO_ADIC_DIGITS_FLOOR)))
    for k in rng.sample(range(3, 26, 2), 3):
        argv = ["twopart", "-k", str(k), "--n-max", "4"]
        cases.append(_cli_case(program, argv, lambda out, k=k: check_twopart(out, k, 4)))
    return cases


BUILDERS = {"res-large": _res_large, "windows": _windows, "whitehead-2adic": _whitehead_2adic}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, program) -> list:
    """The workload's cases for this seed; `program` holds the padicres modules."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, program)
