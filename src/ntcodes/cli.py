"""Command-line front end.

Subcommands: enum (weight enumerators), card (cardinalities), verify
(closed-form vs brute-force sweeps), table (desk-reference parameter
grids), macwilliams (duality report).  All numeric output is in exact
decimal; exit codes are 0 success, 1 verification mismatch, 2 usage,
3 budget exceeded, 4 internal integrality violation.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import random
import sys

from .codes import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CodeSpec,
    DELTA,
    GAMMA_GT,
    OMEGA,
    SIGMA,
    FAMILIES,
    VARIANT_STATS,
    enumerate_codewords,
    make_family,
)
from .enumerators import (
    METHODS,
    Enumerator,
    compute,
    enumerator_to_dict,
    lc_hamming,
    oracle_extended,
    specialize,
    tenengolts_cardinality,
    tenengolts_hamming,
    theorem1_extended,
)
from .exactalg import IntegralityError
from .macwilliams import build_code, verify_macwilliams

VARIANTS = tuple(VARIANT_STATS)

#: each family's constructor parameters, in signature order
_FAMILY_PARAMS = {
    name: tuple(inspect.signature(builder).parameters) for name, builder in FAMILIES.items()
}

#: CLI flag of each constructor parameter whose flag is not named after it
_PARAM_FLAGS = {"rows": "H"}

_OPTIONAL_PARAMS = {"variant": ">", "a": 0}


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip() != "")

def _parse_matrix(text: str) -> list[tuple[int, ...]]:
    return [_parse_int_list(row) for row in text.split(";") if row.strip() != ""]


_PARAM_PARSERS = {"h": _parse_int_list, "rows": _parse_matrix}


def _family_params(args) -> dict:
    params = {}
    for name in _FAMILY_PARAMS[args.family]:
        flag = _PARAM_FLAGS.get(name, name)
        value = getattr(args, flag)
        if value is None:
            if name in _OPTIONAL_PARAMS:
                value = _OPTIONAL_PARAMS[name]
            else:
                raise ValueError(f"family {args.family} requires --{flag}")
        elif name in _PARAM_PARSERS:
            value = _PARAM_PARSERS[name](value)
        params[name] = value
    return params


def _build_spec(args) -> CodeSpec:
    return make_family(args.family, **_family_params(args))


def _budget(args):
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("CODES_BUDGET")
    if env:
        return int(env)
    return None


def _emit_enumerator(enum: Enumerator, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(enumerator_to_dict(enum)))
    elif fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(list(enum.poly.variables) + ["coefficient"])
        for exps, coeff in enum.poly.sorted_terms():
            writer.writerow(list(exps) + [str(coeff)])
        sys.stdout.write(out.getvalue())
    else:
        print(enum.poly)


def _cmd_enum(args) -> int:
    enum = compute(_build_spec(args), args.kind, args.method, _budget(args))
    _emit_enumerator(enum, args.format)
    return 0


def _cmd_card(args) -> int:
    value = compute(_build_spec(args), "cardinality", args.method, _budget(args))
    if args.format == "json":
        print(json.dumps({"cardinality": str(value)}))
    elif args.format == "csv":
        print("cardinality")
        print(value)
    else:
        print(value)
    return 0


# ---------------------------------------------------------------------------
# verify sweeps


def _hamming_counts_by_parameters(n, r, variant, budget):
    """One pass over [0, r)^n: Hamming-weight histograms per (a1, a2)."""
    import itertools

    from .codes import Statistic, evaluate_statistic

    limit = DEFAULT_BUDGET if budget is None else budget
    if r**n > limit:
        raise BudgetExceededError(f"sweep over {r}^{n} words exceeds the budget {limit}")
    stat = Statistic(VARIANT_STATS[variant])
    buckets: dict = {}
    for word in itertools.product(range(r), repeat=n):
        key = (evaluate_statistic(stat, word) % n, sum(word) % r)
        hwt = sum(1 for x in word if x)
        hist = buckets.setdefault(key, {})
        hist[hwt] = hist.get(hwt, 0) + 1
    return buckets


def _verify_tenengolts(checks, max_n, max_r, budget):
    for n in range(1, max_n + 1):
        for r in range(2, max_r + 1):
            for variant in VARIANTS:
                buckets = _hamming_counts_by_parameters(n, r, variant, budget)
                for a1 in range(n):
                    for a2 in range(r):
                        closed = tenengolts_hamming(n, r, a1, a2, variant)
                        got = {(d,): c for d, c in buckets.get((a1, a2), {}).items()}
                        size = sum(buckets.get((a1, a2), {}).values())
                        ok = (
                            closed.poly.terms == got
                            and tenengolts_cardinality(n, r, a1, a2, variant) == size
                        )
                        checks.append(
                            (f"tenengolts n={n} r={r} a1={a1} a2={a2} variant={variant}", ok)
                        )


def _verify_lc(checks, rng, count, max_n, max_m, budget, binary):
    from .codes import lc as lc_spec

    label = "blc" if binary else "lc"
    for i in range(count):
        r = 2 if binary else rng.randint(2, 4)
        n = rng.randint(1, max_n)
        m = rng.randint(1, max_m)
        h = tuple(rng.randrange(max(m, 2)) for _ in range(n))
        a = rng.randrange(m)
        closed = lc_hamming(n, m, r, h, a)
        oracle = specialize(oracle_extended(lc_spec(n, m, r, h, a), budget), "hamming")
        ok = closed.poly == oracle.poly
        checks.append((f"{label} i={i} n={n} m={m} r={r} a={a}", ok))


def _verify_sc(checks, rng, count, max_n, max_m, budget):
    pool = (OMEGA, SIGMA, DELTA, GAMMA_GT)
    for i in range(count):
        s = rng.randint(2, 3)
        stats = rng.sample(pool, s)
        n = rng.randint(2, max(2, min(max_n, 5)))
        r = rng.randint(2, 3)
        cons = []
        for st in stats:
            m = rng.randint(1, min(max_m, 6))
            cons.append((st, m, rng.randrange(m)))
        spec = CodeSpec(n, r, tuple(cons))
        engine = theorem1_extended(spec, budget, force_character_sum=True)
        oracle = oracle_extended(spec, budget)
        ok = engine.poly == oracle.poly
        kinds = ",".join(st.kind for st in stats)
        checks.append((f"sc i={i} n={n} r={r} stats={kinds}", ok))


def _verify_macwilliams(checks, rng, count, max_n):
    made = 0
    while made < count:
        r = rng.randint(2, 6)
        s = rng.randint(1, 3)
        n = rng.randint(s, max(s, max_n))
        rows = [[rng.randrange(r) for _ in range(n)] for _ in range(s)]
        code = build_code(r, rows)
        if len(code.dual) != r**s:
            continue
        report = verify_macwilliams(code)
        checks.append((f"macwilliams i={made} r={r} n={n} s={s}", report.verified))
        made += 1


def _cmd_verify(args) -> int:
    budget = _budget(args)
    rng = random.Random(args.seed)
    checks: list[tuple[str, bool]] = []
    family = args.family
    if family in ("tenengolts", "all"):
        _verify_tenengolts(checks, args.max_n, args.max_r, budget)
    if family in ("lc", "all"):
        _verify_lc(checks, rng, args.count, args.max_n, args.max_m, budget, binary=False)
    if family in ("blc", "all"):
        _verify_lc(checks, rng, args.count, args.max_n, args.max_m, budget, binary=True)
    if family in ("sc", "all"):
        _verify_sc(checks, rng, args.count, args.max_n, args.max_m, budget)
    if family in ("macwilliams", "all"):
        _verify_macwilliams(checks, rng, args.count, args.max_n)
    if not checks:
        raise ValueError(f"verify --family {family} selected no checks: its sweep bounds are empty")
    mismatches = sum(1 for _, ok in checks if not ok)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "checks": [{"check": label, "ok": ok} for label, ok in checks],
                    "mismatches": mismatches,
                }
            )
        )
    elif args.format == "csv":
        print("check,status")
        for label, ok in checks:
            print(f"{label},{'ok' if ok else 'MISMATCH'}")
    else:
        for label, ok in checks:
            print(f"{'ok' if ok else 'MISMATCH'} {label}")
        print(f"summary: {len(checks)} checks, {mismatches} mismatches")
    return 0 if mismatches == 0 else 1


# ---------------------------------------------------------------------------
# tables


def _word_str(word) -> str:
    return "".join(str(x) for x in word)


def _cell(words) -> str:
    return "{" + ", ".join(_word_str(w) for w in words) + "}"


def _cmd_table(args) -> int:
    budget = _budget(args)
    status = 0
    if args.name == "t33":
        print("codewords of the ternary descent/sum code, n=3 r=3:")
        for a1 in range(3):
            for a2 in range(3):
                words = list(enumerate_codewords(make_family("tenengolts", n=3, r=3, a1=a1, a2=a2), budget))
                closed = tenengolts_cardinality(3, 3, a1, a2)
                marker = "" if closed == len(words) else "  MISMATCH"
                if marker:
                    status = 1
                print(f"  a1={a1} a2={a2}: {_cell(words)}{marker}")
        print("cardinality grid (closed form):")
        header = "       " + "".join(f"a2={a2:<5}" for a2 in range(3))
        print(header)
        for a1 in range(3):
            row = "".join(f"{tenengolts_cardinality(3, 3, a1, a2):<8}" for a2 in range(3))
            print(f"  a1={a1} {row}")
    elif args.name == "t23":
        print("codewords of the descent/sum code variants, n=2 r=3:")
        header = f"  {'(a1,a2)':<10}" + "".join(f"{v:<16}" for v in VARIANTS)
        print(header)
        for a1 in range(2):
            for a2 in range(3):
                cells = []
                for variant in VARIANTS:
                    spec = make_family("tenengolts", n=2, r=3, a1=a1, a2=a2, variant=variant)
                    cells.append(_cell(list(enumerate_codewords(spec, budget))))
                print(f"  ({a1},{a2})    " + "".join(f"{c:<16}" for c in cells))
    elif args.name == "t33enum":
        spec = make_family("tenengolts", n=3, r=3, a1=0, a2=0)
        print("codeword table for the ternary descent/sum code at a1=0 a2=0:")
        print(f"  {'x':<6}{'gamma':<7}{'sigma':<7}{'tau0':<6}{'tau1':<6}{'tau2':<6}")
        from .codes import evaluate_statistic, type_vector

        for word in enumerate_codewords(spec, budget):
            g = evaluate_statistic(spec.constraints[0].stat, word)
            sg = evaluate_statistic(spec.constraints[1].stat, word)
            tau = type_vector(word, 3)
            print(f"  {_word_str(word):<6}{g:<7}{sg:<7}{tau[0]:<6}{tau[1]:<6}{tau[2]:<6}")
        extended = theorem1_extended(spec, budget)
        complete = specialize(extended, "complete")
        hamming = specialize(extended, "hamming")
        print(f"extended: {extended.poly}")
        print(f"complete: {complete.poly}")
        print(f"hamming:  {hamming.poly}")
        print(f"cardinality: {extended.cardinality()}")
    else:
        raise ValueError(f"unknown table {args.name!r} (choose t33, t23, or t33enum)")
    return status


def _cmd_macwilliams(args) -> int:
    rows = _parse_matrix(args.H)
    code = build_code(args.r, rows, _budget(args))
    report = verify_macwilliams(code)
    payload = {
        "left": str(report.left),
        "right": None if report.right is None else str(report.right),
        "verified": report.verified,
        "dual_size": report.dual_size,
    }
    if args.format == "json":
        print(json.dumps(payload))
    elif args.format == "csv":
        print("field,value")
        for key, value in payload.items():
            print(f"{key},{value}")
    else:
        print(f"left:      {payload['left']}")
        if report.right is None:
            print("right:     skipped (parity-check matrix is rank deficient)")
        else:
            print(f"right:     {payload['right']}")
        print(f"dual size: {report.dual_size}")
        print(f"verified:  {report.verified}")
    return 0 if report.verified or not report.full_rank else 1


# ---------------------------------------------------------------------------
# parser


def _add_family_flags(parser) -> None:
    parser.add_argument("family", choices=sorted(FAMILIES))
    parser.add_argument("--n", type=int)
    parser.add_argument("--r", type=int)
    parser.add_argument("--m", type=int)
    parser.add_argument("--a", type=int)
    parser.add_argument("--a1", type=int)
    parser.add_argument("--a2", type=int)
    parser.add_argument("--b", type=int)
    parser.add_argument("--c", type=int)
    parser.add_argument("--t", type=int)
    parser.add_argument("--p", type=int)
    parser.add_argument("--parity", type=int)
    parser.add_argument("--variant", choices=VARIANTS)
    parser.add_argument("--h", help="comma-separated weight vector, e.g. 1,2,3,4")
    parser.add_argument("--H", help="semicolon-separated matrix rows, e.g. 1,1;0,1")


def _add_common_flags(parser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--budget", type=int, help=f"enumeration budget (default {DEFAULT_BUDGET})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntcodes",
        description="exact weight enumerators and cardinalities for congruence-defined codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enum", help="compute a weight enumerator")
    _add_family_flags(p_enum)
    p_enum.add_argument("--kind", choices=("extended", "complete", "hamming"), default="hamming")
    p_enum.add_argument("--method", choices=METHODS, default="auto")
    _add_common_flags(p_enum)
    p_enum.set_defaults(handler=_cmd_enum)

    p_card = sub.add_parser("card", help="compute a cardinality")
    _add_family_flags(p_card)
    p_card.add_argument("--method", choices=METHODS, default="auto")
    _add_common_flags(p_card)
    p_card.set_defaults(handler=_cmd_card)

    p_verify = sub.add_parser("verify", help="sweep closed forms against brute force")
    p_verify.add_argument(
        "--family",
        choices=("tenengolts", "lc", "blc", "sc", "macwilliams", "all"),
        default="all",
    )
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=4)
    p_verify.add_argument("--max-r", dest="max_r", type=int, default=3)
    p_verify.add_argument("--max-m", dest="max_m", type=int, default=8)
    p_verify.add_argument("--count", type=int, default=10)
    p_verify.add_argument("--seed", type=int, default=0)
    _add_common_flags(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_table = sub.add_parser("table", help="print a desk-reference table")
    p_table.add_argument("name", choices=("t33", "t23", "t33enum"))
    _add_common_flags(p_table)
    p_table.set_defaults(handler=_cmd_table)

    p_mac = sub.add_parser("macwilliams", help="duality report for a linear code over Z_r")
    p_mac.add_argument("--r", type=int, required=True)
    p_mac.add_argument("--H", required=True, help="matrix rows, e.g. 1,1;0,1")
    _add_common_flags(p_mac)
    p_mac.set_defaults(handler=_cmd_macwilliams)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IntegralityError as exc:
        print(f"internal integrality violation: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
