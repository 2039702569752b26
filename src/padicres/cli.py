"""Command-line front end.

Subcommands: res, climit, iwasawa, linkh1, whitehead, twopart.  All
output is deterministic for a fixed input and configuration; --format json
emits machine-readable records including the certificates (certified
digits, verified windows, oracle agreement flags).  Each cmd_* returns its
payload and, when two routes it compares disagree, a message (else None);
main prints the payload either way, then exits 4 on the message.

Exit codes: 0 success, 2 user/parse error, 3 cost budget exceeded,
4 internal oracle mismatch (always a bug), 1 unexpected failure (also a
broken internal invariant).  The PADIC_RES_BUDGET environment variable
overrides the bound on the fast path's estimated cost.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetExceededError, OracleMismatchError, PadicResError, PolyParseError
from .limits import iwasawa_fit, lambda_mu_structural, limit_estimate, window_levels, zero_limit_predicate
from .links import (
    CoveringSpec,
    _nonp_limit,
    character_oracle,
    check_character_oracle,
    closed_form_cost,
    h1_order,
    load_link_spec,
    nonp_limit_cost,
    trefoil_spec,
    two_part_exponent_check,
    whitehead_closed_form,
    whitehead_degenerate,
    whitehead_link_spec,
)
from .oracles import check_baseline_load, complex_root_product, cyclic_resultant_baseline
from .parsing import parse_poly
from .resultants import CyclicResultantRequest, check_budget, cyclic_resultant
from .unipoly import UniPoly

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USER = 2
EXIT_BUDGET = 3
EXIT_ORACLE = 4


def _format_int(value: int, truncate: int | None) -> str:
    text = str(value)
    if truncate is not None and len(text) > 2 * truncate + 5:
        return f"{text[:truncate]}...{text[-truncate:]} ({len(text)} digits, non-canonical)"
    return text


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_levels(text: str):
    try:
        levels = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise PolyParseError(f"levels must be comma-separated integers: {text!r}", 0)
    if not levels or any(n < 1 for n in levels):
        raise PolyParseError(f"levels must be positive: {text!r}", 0)
    return levels


def _build_request(args) -> CyclicResultantRequest:
    levels = _parse_levels(args.levels)
    f = parse_poly(args.expr, len(levels))
    if args.mask == "r":
        return CyclicResultantRequest.full(f, args.prime, levels)
    if args.mask == "rprime":
        return CyclicResultantRequest.rprime(f, args.prime, levels)
    if not args.mask_sets:
        raise PolyParseError("--mask custom requires --mask-sets", 0)
    masks = []
    for chunk in args.mask_sets.split(";"):
        masks.append({int(x) for x in chunk.split(",")})
    return CyclicResultantRequest.custom(f, args.prime, levels, masks)


def _emit(args, payload: dict):
    # JSON sorts its keys; the table keeps the payload's insertion order
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            print(f"{key}: {value}")


def cmd_res(args) -> tuple[dict, str | None]:
    req = _build_request(args)
    if args.verify:
        check_baseline_load(req)
    value = cyclic_resultant(req)
    payload = {
        "command": "res",
        "p": args.prime,
        "levels": list(req.levels),
        "mask": args.mask,
        "value": _format_int(value, args.truncate),
    }
    if args.verify:
        baseline = cyclic_resultant_baseline(req)
        oracle = complex_root_product(req)
        agree = baseline == value == oracle
        payload["verify"] = {
            "baseline": _format_int(baseline, args.truncate),
            "complex_root_product": _format_int(oracle, args.truncate),
            "agree": agree,
        }
        if not agree:
            return payload, "res --verify: routes disagree"
    return payload, None


def cmd_climit(args) -> tuple[dict, str | None]:
    num_vars = args.vars if args.vars is not None else 1
    f = parse_poly(args.expr, num_vars)
    est = limit_estimate(f, args.prime, args.digits, mask=args.mask)
    payload = {
        "command": "climit",
        "p": args.prime,
        "K": args.digits,
        "mask": args.mask,
        "zero_limit": zero_limit_predicate(f, args.prime),
        "raw_limit": str(est.value),
        "nonp_limit": str(est.nonp_value),
        "certified_digits": "exact" if est.certified_digits is None else est.certified_digits,
        "nonp_certified_digits": est.nonp_certified_digits,
        "stabilized": est.stabilized,
        "degenerate": est.degenerate,
        "levels_used": list(est.levels_used),
        "window": [list(row) for row in est.window],
    }
    return payload, None


def cmd_iwasawa(args) -> tuple[dict, str | None]:
    import re

    expr = re.sub(r"t(?!\d)", "t1", args.expr)
    u = UniPoly([c.constant_value() for c in parse_poly(expr, 1).coeffs_in_last_var()])
    inv = iwasawa_fit(u, args.prime, args.n_max)
    lam_s, mu_s = lambda_mu_structural(u, args.prime)
    payload = {
        "command": "iwasawa",
        "p": args.prime,
        "lambda": inv.lam,
        "mu": inv.mu,
        "nu": inv.nu,
        "verified_window": list(inv.verified_window),
        "e_values": list(inv.e_values),
        "structural": {"lambda": lam_s, "mu": mu_s},
        "agree": (inv.lam, inv.mu) == (lam_s, mu_s),
    }
    return payload, None if payload["agree"] else "iwasawa: fitted and structural invariants disagree"


def cmd_linkh1(args) -> tuple[dict, str | None]:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            link = load_link_spec(handle.read())
    elif args.whitehead is not None:
        link = whitehead_link_spec(args.whitehead)
    else:
        link = trefoil_spec()
    levels = _parse_levels(args.levels)
    cov = CoveringSpec(args.prime, levels)
    if args.verify:
        check_character_oracle(link, cov)
    result = h1_order(link, cov)
    payload = {
        "order": _format_int(result.order, args.truncate),
        "nonp": _format_int(result.nonp_part, args.truncate),
        "p_exponent": result.p_exponent,
    }
    if args.verify:
        oracle = character_oracle(link, cov)
        if oracle != result:
            return payload, f"linkh1 --verify: exact {result.order} vs character oracle {oracle.order}"
    return payload, None


def cmd_whitehead(args) -> tuple[dict, str | None]:
    link = whitehead_link_spec(args.k)
    # one budget for the closed form's log norms and the empirical window of
    # K - 1 levels (h1_nonp_limit), which a degenerate closed form never runs
    if whitehead_degenerate(args.k, args.prime):
        window = 0.0
    else:
        window = nonp_limit_cost(link, args.prime, window_levels(args.digits))
    check_budget(closed_form_cost(args.k, args.prime, args.digits, args.lmax) + window)
    closed = whitehead_closed_form(args.k, args.prime, args.digits, truncation_level=args.lmax)
    payload = {
        "command": "whitehead",
        "k": args.k,
        "p": args.prime,
        "K": args.digits,
        "degenerate": closed.degenerate,
    }
    if closed.degenerate:
        payload["note"] = closed.note
        return payload, None
    empirical = _nonp_limit(link, args.prime, args.digits)
    digits = min(closed.achieved_digits, empirical.nonp_certified_digits)
    agree = closed.value.eq_mod(empirical.nonp_value, digits)
    payload.update(
        {
            "closed_form": str(closed.value),
            "closed_form_residue": closed.value.residue(digits),
            "achieved_digits": closed.achieved_digits,
            "empirical": str(empirical.nonp_value),
            "compared_digits": digits,
            "agree": agree,
            "per_level_nu_sums": [list(row) for row in closed.per_level],
        }
    )
    return payload, None if agree else "whitehead: closed form and empirical limit disagree"


def cmd_twopart(args) -> tuple[dict, str | None]:
    report = two_part_exponent_check(args.k, args.n_max)
    payload = {
        "command": "twopart",
        "k": report.k,
        "rows": [list(r) for r in report.rows],
        "ok": report.ok,
    }
    return payload, None if report.ok else "two-part exponent identity failed"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicres",
        description="Exact iterated p-power cyclic resultants, p-adic limits, "
        "and branched-covering homology orders.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, prime=True, truncate=False):
        if prime:
            p.add_argument("-p", "--prime", type=int, default=2)
        p.add_argument("--format", choices=("table", "json"), default="table")
        if truncate:
            p.add_argument("--truncate", type=_positive_int, default=None, metavar="DIGITS")

    res = sub.add_parser("res", help="masked iterated cyclic resultant of a polynomial")
    res.add_argument("expr")
    res.add_argument("-n", "--levels", required=True, help="comma-separated levels n1,..,nd")
    res.add_argument("--mask", choices=("r", "rprime", "custom"), default="r")
    res.add_argument("--mask-sets", default=None, help="custom masks: semicolon-separated comma lists")
    res.add_argument("--verify", action="store_true", help="cross-check against the Sylvester baseline and the root product over the roots of unity, exact modulo primes")
    common(res, truncate=True)
    res.set_defaults(func=cmd_res)

    climit = sub.add_parser("climit", help="p-adic limit estimate with congruence certificate")
    climit.add_argument("expr")
    climit.add_argument("-K", "--digits", type=int, default=3)
    climit.add_argument("--vars", type=_positive_int, default=None)
    climit.add_argument("--mask", choices=("r", "rprime"), default="r")
    common(climit)
    climit.set_defaults(func=cmd_climit)

    iwasawa = sub.add_parser("iwasawa", help="growth invariants (lambda, mu, nu), two routes")
    iwasawa.add_argument("expr", help="univariate polynomial in t1 (t accepted as t1)")
    iwasawa.add_argument("--n-max", type=int, default=5)
    common(iwasawa)
    iwasawa.set_defaults(func=cmd_iwasawa)

    linkh1 = sub.add_parser("linkh1", help="|H_1| of a diagonal branched cover (of the trefoil by default)")
    group = linkh1.add_mutually_exclusive_group()
    group.add_argument("--spec", help="link spec JSON file")
    group.add_argument("--whitehead", type=int, default=None, metavar="K", help="built-in twisted Whitehead link")
    linkh1.add_argument("-n", "--levels", required=True)
    linkh1.add_argument("--verify", action="store_true", help="cross-check against the character sum, exact modulo primes")
    common(linkh1, truncate=True)
    linkh1.set_defaults(func=cmd_linkh1)

    wh = sub.add_parser("whitehead", help="closed-form twisted-Whitehead limit vs the empirical one")
    wh.add_argument("-k", type=int, required=True)
    wh.add_argument("-K", "--digits", type=int, default=3)
    wh.add_argument("--lmax", type=int, default=5, help="cyclotomic truncation level for p=2, at least 2")
    common(wh)
    wh.set_defaults(func=cmd_whitehead)

    tp = sub.add_parser("twopart", help="2-part exponent identity for odd twisted Whitehead links")
    tp.add_argument("-k", type=int, required=True)
    tp.add_argument("--n-max", type=int, default=3)
    common(tp, prime=False)
    tp.set_defaults(func=cmd_twopart)

    return parser


# built on the first main call and reused: parsing does not change a parser
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # big integers print in full: lift the int/str digit limit (Python
    # 3.10.7+) for the whole process, since callers may parse the output back
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USER if exc.code not in (0, None) else EXIT_OK
    try:
        payload, mismatch = args.func(args)
        _emit(args, payload)
        if mismatch is not None:
            raise OracleMismatchError(mismatch)
        return EXIT_OK
    except PolyParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OracleMismatchError as exc:
        print(f"internal error (oracle mismatch): {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (PadicResError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except Exception as exc:
        # an empty message (MemoryError()) still names what went wrong
        print(f"unexpected error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
