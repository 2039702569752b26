"""Independent oracles for the resultant engine.

Each oracle computes its quantity from the definition and shares no code
with the engine in `resultants` (no cyclotomic norm, tower or Z[zeta]
product), so an agreement is evidence and a disagreement a bug:

* sylvester_resultant: the defining determinant of the Sylvester matrix,
  by fraction-free Gaussian elimination (Bareiss, Math. Comp. 22, 1968)
  over the integers.  Coefficients in Z[t_1..t_k] are first evaluated at
  t_i = 2^(B*S_i) (Kronecker substitution).  Let f have degree m and g
  degree n in the main variable.  Every term of the determinant is a
  product of n coefficients of f and m of g, so its degree in t_i is at
  most D_i = n * max deg_{t_i}(f-coeffs) + m * max deg_{t_i}(g-coeffs), and
  each of its coefficients is at most ||f||_1^n ||g||_1^m in absolute value
  (||.||_1 sums the absolute values of all coefficients: the determinant's
  coefficients are bounded by the permanent of the entries' norms, and that
  by the product of the row sums).  With strides S_i = prod_{l<i} (D_l + 1)
  the exponent vectors e <= D land on distinct digits sum e_i S_i, and
  B = bitlen(||f||_1^n ||g||_1^m) + 1 makes every coefficient one balanced
  base-2^B digit.  Evaluation is a ring homomorphism Z[t] -> Z, so the
  integer determinant of the evaluated matrix is the evaluated polynomial
  determinant, and its digits are the coefficients of the literal Sylvester
  determinant.
* resultant_prs: the subresultant polynomial-remainder sequence, over the
  integers or over sparse polynomial coefficients; it agrees with the
  determinant exactly, sign included.
* cyclic_resultant_baseline: the masked iterated cyclic resultant as
  literal iterated Sylvester determinants against t^(p^n) - 1, or against
  the product of the masked Phi_{p^j}; degree-guarded.
* modular_root_product (complex_root_product for a request): the product of
  f over the masked root-of-unity tuples, evaluated modulo products Q of a
  few primes each and recovered by the CRT (Collins' modular method).

Sign conventions follow the Sylvester determinant with the first argument's
coefficient rows on top.
"""

from __future__ import annotations

import itertools
import math

from .errors import BudgetExceededError, ExactDivisionError, InvariantError
from .multipoly import MultiPoly
from .unipoly import UniPoly, cyclotomic, is_prime, power_minus_one

BASELINE_BUDGET_DEFAULT = 256
_RING_PRIMES = 8  # primes per ring of modular_root_product


# ---------------------------------------------------------------------------
# Sylvester determinants
# ---------------------------------------------------------------------------


def _divexact(a, b):
    if isinstance(b, int):
        if b == 1:
            return a
        if b == -1:
            return -a
        if isinstance(a, int):
            q, r = divmod(a, b)
            if r:
                raise ExactDivisionError(f"{a} not divisible by {b}")
            return q
        return a.divexact(MultiPoly.const(a.num_vars, b))
    if isinstance(a, int):
        return MultiPoly.const(b.num_vars, a).divexact(b)
    return a.divexact(b)


def bareiss_det(rows):
    """Determinant by fraction-free Gaussian elimination.

    Entries are ints or MultiPoly values over one common ring; every interior
    division is exact by the Bareiss identity.
    """
    n = len(rows)
    if n == 0:
        return 1
    mat = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, n):
                if mat[r][k] != 0:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return mat[k][k] * 0
        piv = mat[k][k]
        for i in range(k + 1, n):
            row_i = mat[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = _divexact(row_i[j] * piv - lead * mat[k][j], prev)
            row_i[k] = lead * 0
        prev = piv
    last = mat[n - 1][n - 1]
    return -last if sign < 0 else last


def sylvester_matrix(f: UniPoly, g: UniPoly):
    """The (m+n) x (m+n) Sylvester matrix of integer polynomials, f's
    coefficient rows on top."""
    return _sylvester_rows(f.coeffs, g.coeffs)


def _sylvester_rows(a, b):
    # a, b: coefficients, lowest degree first, leading coefficient last
    m, n = len(a) - 1, len(b) - 1
    rows = []
    for coeffs, count in ((a, n), (b, m)):
        top = list(reversed(coeffs))
        for i in range(count):
            rows.append([0] * i + top + [0] * (m + n - i - len(top)))
    return rows


def sylvester_resultant(f: UniPoly, g: UniPoly):
    """Res(f, g) as the Sylvester determinant (Bareiss elimination), with
    integer coefficients or, by Kronecker substitution, with MultiPoly
    coefficients in one common number of variables (a MultiPoly result)."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    polys = [c for c in f.coeffs + g.coeffs if isinstance(c, MultiPoly)]
    if not polys:
        return bareiss_det(sylvester_matrix(f, g))
    k = polys[0].num_vars
    if any(c.num_vars != k for c in polys):
        raise ValueError("mixing polynomials with different num_vars")
    return _kronecker_resultant(f.coeffs, g.coeffs, k)


def _kronecker_resultant(a, b, k: int) -> MultiPoly:
    """The Sylvester determinant of coefficient lists a, b (lowest degree
    first) over Z[t_1..t_k], evaluated at t_i = 2^(B*S_i), eliminated over
    the integers and read back digit by digit; see the module docstring."""
    m, n = len(a) - 1, len(b) - 1

    def terms(c):
        return c.term_dict() if isinstance(c, MultiPoly) else {(0,) * k: c}

    a, b = [terms(c) for c in a], [terms(c) for c in b]

    def degrees(coeffs):
        return [max((e[i] for t in coeffs for e in t), default=0) for i in range(k)]

    bounds = [n * da + m * db + 1 for da, db in zip(degrees(a), degrees(b))]
    strides = [math.prod(bounds[:i]) for i in range(k)]
    width = _det_bound(a, b).bit_length() + 1

    def evaluate(t):
        return sum(c << width * sum(e * s for e, s in zip(exp, strides)) for exp, c in t.items())

    value = bareiss_det(_sylvester_rows([evaluate(t) for t in a], [evaluate(t) for t in b]))
    half, mask = 1 << (width - 1), (1 << width) - 1
    result = {}
    for at in range(math.prod(bounds)):
        if not value:
            break
        digit = ((value + half) & mask) - half
        value = (value - digit) >> width
        if digit:
            exp, rest = [], at
            for bound in bounds:
                rest, e = divmod(rest, bound)
                exp.append(e)
            result[tuple(exp)] = digit
    if value:
        raise InvariantError(f"a Sylvester determinant does not fit {math.prod(bounds)} digits of {width} bits")
    return MultiPoly(k, result)


def _det_bound(a, b) -> int:
    """||f||_1^n ||g||_1^m, f and g given by the term dicts of their
    coefficients (degrees m and n): a bound on every coefficient of their
    Sylvester determinant."""
    m, n = len(a) - 1, len(b) - 1

    def norm(coeffs):
        return sum(abs(c) for t in coeffs for c in t.values())

    return norm(a) ** n * norm(b) ** m


def resultant_prs(f: UniPoly, g: UniPoly):
    """Res(f, g) by the subresultant PRS; equals sylvester_resultant exactly."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    A, B = f, g
    s = 1
    if A.degree() < B.degree():
        if A.degree() % 2 == 1 and B.degree() % 2 == 1:
            s = -1
        A, B = B, A
    if B.degree() == 0:
        base = B.lc() ** A.degree() if A.degree() else B.lc() * 0 + 1
        return s * base
    gg = 1
    h = 1
    while True:
        delta = A.degree() - B.degree()
        if A.degree() % 2 == 1 and B.degree() % 2 == 1:
            s = -s
        R = A.pseudo_rem(B)
        A = B
        divisor = gg * h**delta
        B = UniPoly([_divexact(c, divisor) for c in R.coeffs])
        gg = A.lc()
        if delta > 0:
            h = _divexact(gg**delta, h ** (delta - 1)) if delta > 1 else gg
        if B.is_zero:
            return s * 0 if isinstance(gg, int) else gg * 0
        if B.degree() == 0:
            q = A.degree()
            final = _divexact(B.lc() ** q, h ** (q - 1)) if q > 1 else B.lc() ** q
            return s * final if isinstance(final, int) else (-final if s < 0 else final)


def check_baseline_load(req, budget: int = BASELINE_BUDGET_DEFAULT) -> None:
    """Refuse, as a BudgetExceededError, a request whose degree load for
    cyclic_resultant_baseline, the product of the p^(n_i) with deg f,
    exceeds budget."""
    degree_load = math.prod(req.p**n for n in req.levels) * max(1, req.f.total_degree())
    if degree_load > budget:
        raise BudgetExceededError(f"baseline degree load {degree_load} exceeds budget {budget}")


def cyclic_resultant_baseline(req, budget: int = BASELINE_BUDGET_DEFAULT) -> int:
    """Oracle route for a CyclicResultantRequest: literal iterated Sylvester
    determinants, no factorization.

    Full masks use t^(p^n) - 1 itself; partial masks use the explicit divisor
    polynomial prod_{j in mask} Phi_{p^j}.  Degree-guarded
    (check_baseline_load).
    """
    check_baseline_load(req, budget)
    divisors = []
    for n, mask in zip(req.levels, req.factor_mask):
        if mask == frozenset(range(n + 1)):
            divisors.append(power_minus_one(req.p**n))
        else:
            divisors.append(math.prod((cyclotomic(req.p, j) for j in sorted(mask)), start=UniPoly((1,))))
    g = req.f
    for idx in range(len(req.levels) - 1, -1, -1):
        if g.is_zero:
            return 0
        coeffs = g.coeffs_in_last_var()
        if g.num_vars == 1:
            return sylvester_resultant(divisors[idx], UniPoly([c.constant_value() for c in coeffs]))
        g = sylvester_resultant(divisors[idx], UniPoly(coeffs))
    return g.constant_value()


# ---------------------------------------------------------------------------
# multi-modular root-product oracle
# ---------------------------------------------------------------------------


def modular_root_product(f: MultiPoly, p: int, masks) -> int:
    """The product of f over the root-of-unity tuples the masks select
    (variable i runs over the primitive p^j-th roots of unity, j in
    masks[i]), exactly, by Collins' modular method and apart from the
    engine: no norm, tower or packing.  Each of the `count` factors is at
    most ||f||_1 in absolute value, so primes q = 1 (mod p^N), N the
    largest index in the masks, are taken until their product exceeds
    2 * ||f||_1^count.  Up to _RING_PRIMES of them make one ring Z/Q, Q
    their product, with a zeta of order p^N the CRT of theirs, and one
    pass evaluates f at every tuple in Z/Q (a ring of all primes would be
    slower: bigint division is quadratic).  The CRT joins the rings and its
    symmetric lift is the value, sign included; a residue of 0 modulo one
    ring decides nothing.
    """
    if f.is_zero:
        return 0
    m = p ** max(max(mask) for mask in masks) if masks else 1
    # each root as the exponent k of zeta_{p^N}^k
    roots = [[a * (m // p**j) for j in sorted(mask) for a in range(p**j) if j == 0 or a % p] for mask in masks]
    count = math.prod(len(r) for r in roots)
    terms = list(f.terms())
    # per term, the exponent of zeta_{p^N} of its monomial at every tuple
    columns = []
    for exp, _ in terms:
        column = [0]
        for e, r in zip(exp, roots):
            column = [(a + e * k) % m for a in column for k in r]
        columns.append(column)
    bound = 2 * sum(abs(c) for _, c in terms) ** count
    need = -(-bound.bit_length() // 62)  # each prime exceeds 2^62
    primes = _oracle_primes(p, m, need)
    if len(primes) < need:
        raise BudgetExceededError(f"too few primes q = 1 (mod {m}) below 2^64 for the oracle")
    residues = []
    for i in range(0, need, _RING_PRIMES):
        ring, zeta = _crt(primes[i : i + _RING_PRIMES])
        powers = [1] * m
        for k in range(1, m):
            powers[k] = powers[k - 1] * zeta % ring
        sums = [0] * count
        for (_, c), column in zip(terms, columns):
            sums = [s + c * powers[k] for s, k in zip(sums, column)]
        residue = 1
        for s in sums:
            residue = residue * s % ring
        residues.append((ring, residue))
    modulus, value = _crt(residues)
    return value - modulus if 2 * value > modulus else value


def _crt(pairs):
    """(M, x) for pairs (q, r) of coprime moduli q and residues r: M the
    product of the q, x in [0, M) the integer that is r modulo each q."""
    value, modulus = 0, 1
    for q, r in pairs:
        value += modulus * ((r - value) * pow(modulus, -1, q) % q)
        modulus *= q
    return modulus, value


# (p, m) -> the oracle primes found so far and the search that finds more;
# a pure function of the key, so one process shares it across calls
_ORACLE_PRIMES: dict = {}


def _oracle_primes(p: int, m: int, count: int) -> list:
    """The first `count` primes q = 1 (mod m), 2^62 < q < 2^64, ascending
    (fewer if that range runs out), each with a zeta of multiplicative
    order m in F_q (m a power of p).  Each modulus is searched once per
    process: later calls reuse the primes found and resume the search."""
    found, search = _ORACLE_PRIMES.setdefault((p, m), ([], _search_oracle_primes(p, m)))
    found.extend(itertools.islice(search, max(0, count - len(found))))
    return found[:count]


def _search_oracle_primes(p: int, m: int):
    for q in range(((1 << 62) // m + 1) * m + 1, 1 << 64, m):
        if is_prime(q):
            for a in itertools.count(2):
                zeta = pow(a, (q - 1) // m, q)
                if m == 1 or pow(zeta, m // p, q) != 1:
                    yield q, zeta
                    break


def complex_root_product(req) -> int:
    """The masked iterated cyclic resultant of a CyclicResultantRequest by
    the independent route, the product of f over the selected tuples of
    complex p-power roots of unity, exactly: modular_root_product."""
    return modular_root_product(req.f, req.p, req.factor_mask)
