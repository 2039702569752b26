"""The stdout of res, climit, whitehead, twopart and iwasawa on a small
grid, pinned by one sha256 per command family.

Each family's digest covers every run's argv, exit code and stdout, in
order.  The grid covers zero limits (p | f(1,...,1)), unit limits and
degenerate windows (a masked resultant that vanishes identically), one and
two variables, both masks, and p in 2, 3, 5, 7.  The res family holds
inputs symmetric in two or three variables, at equal and unequal levels and
masks, and polynomials of small degree at high odd levels.  The climit-unit
family holds unit-case limits in two and three variables, both masks, at
up to five digits; its digest was taken on the norm route, so it pins the
closed forms that replaced it byte for byte.  The climit-later family
holds one-variable inputs whose resultants vanish at a level past the
window, so the limit is exactly 0 and the estimate degenerate with the
window rows as computed; its digest was taken before those fields moved
into limits._certify.  A refactor of the limit
or resultant code must leave every digest as it is; a deliberate change of the output
recomputes them with `PYTHONPATH=src python tests/test_stdout_grid.py`.
"""

import contextlib
import hashlib
import io

import pytest

from padicres.cli import main
from padicres.parsing import parse_poly

PRIMES = (2, 3, 5, 7)

CLIMIT_1 = ("2-t1", "1+t1", "3-t1", "t1-1", "5+t1^2", "1+t1+t1^3")
CLIMIT_2 = ("5+t1+t2+t1*t2", "2-t1*t2", "1-t1", "3+t1-t2")
# unit-case inputs in two and three variables (p does not divide f(1,...,1)):
# a negative f(1,1), an f free of t2, a constant
CLIMIT_UNIT_2 = ("2+t1+t2", "5+t1+t2+2*t1*t2", "1-3*t1*t2", "3+t1^2", "4+t1-t2+t1^2*t2", "7")
CLIMIT_UNIT_3 = ("5+t1+t2+2*t1*t2+t3", "2+t1+t2+t3", "1+t1*t2*t3")
# the digits per p in two and three variables, and (p, f, K) at more digits,
# kept to what the norm route takes in a fraction of a second
CLIMIT_UNIT_K = {2: ((3, 4, 5), (2, 3)), 3: ((3, 4, 5), (2, 3)), 5: ((3, 4), (2, 3)), 7: ((3,), (2,))}
CLIMIT_UNIT_DEEP = ((5, "1-3*t1*t2", 5), (5, "7", 5), (7, "1-3*t1*t2", 4), (7, "1+t1*t2*t3", 3))
# (p, f, digits): Phi_8 | f at p = 2 and Phi_9 | f at p = 3, levels 3 and 2
# lying past windows of one and two digits
CLIMIT_LATER = ((2, "1+t1^4", (1, 2)), (2, "(1+t1^4)*(3+t1)", (1, 2)), (3, "1+t1^3+t1^6", (1,)))
IWASAWA = ("t-6", "t^2-t+1", "3*t-6", "t-1", "t+1", "4+t^3", "t^2+1", "9*t+3")
RES_2 = ("5+t1+t2+t1*t2", "2-t1-t2+2*t1*t2", "1+t1*t2", "3+t1^2+t2^2")
RES_3 = ("5+t1+t2+t3", "2+t1*t2+t2*t3+t1*t3", "3+t1+t2+t3^2")
# (p, levels, f): small degree at high odd levels, with a zero constant
# term, a repeated root, negative leading coefficients and a vanishing value
RES_SPARSE = (
    (3, "5", "2+t1^2"),
    (3, "5", "t1^3-t1+3"),
    (3, "4", "t1^2+3*t1"),
    (5, "3", "(t1+2)^2"),
    (5, "3", "5+t1-2*t1^3"),
    (7, "3", "1+t1+t1^6"),
    (7, "2", "3-t1^4"),
    (3, "5,1", "3+t1+t2"),
    (3, "4", "1+t1^9"),
    (3, "4", "1+t1^3+t1^6"),
)


def grid():
    """(family, argv) for every run, in a fixed order."""
    for p in PRIMES:
        for expr in RES_2:
            for levels in ("2,2", "3,2", "2,3") if p < 7 else ("1,1", "2,1"):
                for mask in ("r", "rprime"):
                    yield "res", ["res", expr, "-p", str(p), "-n", levels, "--mask", mask]
            yield "res", ["res", expr, "-p", str(p), "-n", "2,2", "--mask", "custom", "--mask-sets", "0,1;1,2"]
        for expr in RES_3:
            for mask in ("r", "rprime"):
                yield "res", ["res", expr, "-p", str(p), "-n", "1,1,1" if p > 3 else "2,2,2", "--mask", mask]
    for p, levels, expr in RES_SPARSE:
        yield "res", ["res", expr, "-p", str(p), "-n", levels]
    yield "res", ["res", "3+t1^2+t2^2", "-p", "3", "-n", "2,2", "--verify", "--format", "json"]
    for p in PRIMES:
        for mask in ("r", "rprime"):
            for expr in CLIMIT_1:
                yield "climit", ["climit", expr, "-p", str(p), "-K", "3", "--mask", mask]
            for expr in CLIMIT_2:
                yield "climit", ["climit", expr, "--vars", "2", "-p", str(p), "-K", "2", "--mask", mask]
        yield "climit", ["climit", "7-t1*t2", "--vars", "2", "-p", str(p), "-K", "2", "--format", "json"]
        for k in range(1, 7):
            yield "whitehead", ["whitehead", "-k", str(k), "-p", str(p), "-K", "3" if p < 7 else "2", "--lmax", "4"]
        for expr in IWASAWA:
            yield "iwasawa", ["iwasawa", expr, "-p", str(p), "--n-max", "4"]
    for p in PRIMES:
        for exprs, d, Ks in ((CLIMIT_UNIT_2, 2, CLIMIT_UNIT_K[p][0]), (CLIMIT_UNIT_3, 3, CLIMIT_UNIT_K[p][1])):
            for expr in exprs:
                if parse_poly(expr, d).evaluate((1,) * d) % p == 0:
                    continue
                for K in Ks:
                    for mask in ("r", "rprime"):
                        yield "climit-unit", ["climit", expr, "--vars", str(d), "-p", str(p), "-K", str(K), "--mask", mask]
    for p, expr, K in CLIMIT_UNIT_DEEP:
        d = 3 if "t3" in expr else 2
        for mask in ("r", "rprime"):
            yield "climit-unit", ["climit", expr, "--vars", str(d), "-p", str(p), "-K", str(K), "--mask", mask, "--format", "json"]
    for p, expr, Ks in CLIMIT_LATER:
        for K in Ks:
            for mask in ("r", "rprime"):
                yield "climit-later", ["climit", expr, "-p", str(p), "-K", str(K), "--mask", mask]
    yield "whitehead", ["whitehead", "-k", "3", "-p", "2", "-K", "2", "--format", "json"]
    yield "iwasawa", ["iwasawa", "t-6", "-p", "5", "--n-max", "2"]
    for k in (3, 5, 7, 9):
        for n_max in range(1, 5):
            yield "twopart", ["twopart", "-k", str(k), "--n-max", str(n_max)]
    yield "twopart", ["twopart", "-k", "4", "--n-max", "2"]
    yield "twopart", ["twopart", "-k", "3", "--n-max", "3", "--format", "json"]


def digests() -> dict:
    hashes = {}
    for family, argv in grid():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record = f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n"
        hashes.setdefault(family, hashlib.sha256()).update(record.encode())
    return {family: h.hexdigest() for family, h in hashes.items()}


EXPECTED = {
    "res": "8c6a9c8a49fd832f0933435583b7cc6673249854f03487d60361bc889b1787cf",
    "climit": "248330709ed3ff082326e4697ddb9595789124644cc43285be3a23b0951afb43",
    "climit-unit": "3f117f651d122d36b4e70b3985f56a91a57971650d401c04bbe96306f4f78efa",
    "climit-later": "4b52a222d23e422740f3b84a6226eaa7846beb897cb624ea2fe0da05f07d02b2",
    "whitehead": "63e31c209d9574072a8c7ecfa85a160ce6ac96ad47b37e10a1ac4528ec91ff9d",
    "iwasawa": "a36cdda335f3380b8ef908cf8fc5f58c0f2d327fc1a2329b03db9f51289a9bde",
    "twopart": "04aab22a812e729505796f56ea6e7276ace16613490e2c4eda4c6cfb7106eff8",
}


@pytest.fixture(scope="module")
def computed():
    return digests()


@pytest.mark.parametrize("family", ["res", "climit", "climit-unit", "climit-later", "whitehead", "twopart", "iwasawa"])
def test_stdout_digest(computed, family):
    assert computed[family] == EXPECTED[family]


if __name__ == "__main__":
    for family, digest in digests().items():
        print(f'    "{family}": "{digest}",')
