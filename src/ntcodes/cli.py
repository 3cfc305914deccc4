"""Command-line front end.

Subcommands: enum (weight enumerators), card (cardinalities), verify
(sweeps of the route `compute` picks against brute force), table
(desk-reference parameter grids), macwilliams (duality report).  Every
enumerator and cardinality, the sweeps' and tables' included, comes from
`compute`, which alone picks the route.  All numeric output is in exact
decimal; exit codes are 0 success, 1 verification mismatch, 2 usage,
3 budget exceeded, 4 internal integrality violation.

`main(argv)` may be called repeatedly in one process: it builds its
parser on the first call and reuses it for every later one.  A plain
request, `command [positional] --flag value ...` with every flag spelled
out in full and given at most once and every value non-empty and not
starting with `-`, is read straight off its subcommand's flag table, which
is built once from that parser's actions: each value is converted by its
flag's own type and checked against its choices, and the required flags
are checked, as argparse would.  Every other argv (help, abbreviations,
`--flag=value`, negative values, repeated or unknown flags) and every
value a type or a choice refuses goes to the full parser, so every usage,
help and error text is argparse's own.  `build_parser()` returns a fresh
full parser on each call.  Importing the module loads no `dataclasses`,
`inspect`, `json` or `csv`: `--format json|csv` loads its module on first
use.
"""

from __future__ import annotations

import argparse
import functools
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
    evaluate_statistic,
    make_family,
    type_vector,
)
from .enumerators import (
    KINDS,
    METHODS,
    compute,
    enumerator_to_dict,
    specialize,
)
from .exactalg import IntegralityError
from .macwilliams import build_code, row_span, verify_macwilliams

VARIANTS = tuple(VARIANT_STATS)

#: each family's constructor parameters, in signature order
_FAMILY_PARAMS = {
    name: builder.__code__.co_varnames[: builder.__code__.co_argcount] for name, builder in FAMILIES.items()
}


# parsers of --h and --H; argparse names one in its usage error, as it
# names int in "invalid int value"
def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip() != "")

def int_matrix(text: str) -> list[tuple[int, ...]]:
    return [int_list(row) for row in text.split(";") if row.strip() != ""]


#: --H, the parity-check matrix of linear_code and macwilliams
_MATRIX_FLAG = {"dest": "rows", "type": int_matrix, "metavar": "H"}


def _family_params(args) -> dict:
    """The constructor arguments, parsed and defaulted by their flags."""
    params = {name: getattr(args, name) for name in _FAMILY_PARAMS[args.family]}
    for name, value in params.items():
        if value is None:
            raise ValueError(f"family {args.family} requires --{'H' if name == 'rows' else name}")
    return params


def _budget(args):
    budget = getattr(args, "budget", None)
    if budget is None:
        env = os.environ.get("CODES_BUDGET")
        if not env:
            return None
        budget = int(env)
    if budget < 0:
        raise ValueError(f"the budget must be non-negative, got {budget}")
    return budget


def _json_print(payload) -> None:
    """Print one JSON document; json is loaded by the first one."""
    import json

    print(json.dumps(payload))


def _csv_rows(rows) -> None:
    """Print a CSV table, one row a line ended by a bare newline; csv is
    loaded by the first one."""
    import csv

    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _cmd_compute(args) -> int:
    """enum and card, which asks `compute` for kind "cardinality", an int."""
    spec = make_family(args.family, **_family_params(args))
    result = compute(spec, args.kind, args.method, _budget(args))
    if isinstance(result, int):
        if args.format == "json":
            _json_print({"cardinality": str(result)})
        elif args.format == "csv":
            _csv_rows([["cardinality"], [str(result)]])
        else:
            print(result)
    elif args.format == "json":
        _json_print(enumerator_to_dict(result))
    elif args.format == "csv":
        # every decimal string is made before the first row is printed
        terms = [[*exps, str(coeff)] for exps, coeff in result.poly.sorted_terms()]
        _csv_rows([[*result.poly.variables, "coefficient"], *terms])
    else:
        print(result.poly)
    return 0


# ---------------------------------------------------------------------------
# verify sweeps


def _check(checks, label, spec, kinds, budget):
    """Compare the route `compute` picks at each kind with one oracle scan
    at the first kind; a cardinality is read off the oracle's enumerator."""
    answers = [compute(spec, kind, "auto", budget) for kind in kinds]
    oracle = compute(spec, kinds[0], "oracle", budget)
    ok = all(
        answer == oracle.cardinality() if kind == "cardinality" else answer.poly == oracle.poly
        for kind, answer in zip(kinds, answers)
    )
    checks.append((label, ok))


def _verify_tenengolts(checks, max_n, max_r, budget):
    for n in range(1, max_n + 1):
        for r in range(2, max_r + 1):
            for variant in VARIANTS:
                for a1 in range(n):
                    for a2 in range(r):
                        spec = make_family("tenengolts", n=n, r=r, a1=a1, a2=a2, variant=variant)
                        label = f"tenengolts n={n} r={r} a1={a1} a2={a2} variant={variant}"
                        _check(checks, label, spec, ("hamming", "cardinality"), budget)


def _verify_lc(checks, rng, count, max_n, max_m, budget, binary):
    if max_n < 1 or max_m < 1:
        return
    label = "blc" if binary else "lc"
    for i in range(count):
        r = 2 if binary else rng.randint(2, 4)
        n = rng.randint(1, max_n)
        m = rng.randint(1, max_m)
        bound = max(m, 2)
        h = tuple(rng.randrange(1 - bound, bound) for _ in range(n))
        a = rng.randrange(m)
        spec = make_family("lc", n=n, m=m, r=r, h=h, a=a)
        _check(checks, f"{label} i={i} n={n} m={m} r={r} a={a}", spec, ("hamming",), budget)


def _verify_sc(checks, rng, count, max_n, max_m, budget):
    if max_n < 2 or max_m < 1:
        return
    pool = (OMEGA, SIGMA, DELTA, GAMMA_GT)
    for i in range(count):
        s = rng.randint(2, 3)
        stats = rng.sample(pool, s)
        n = rng.randint(2, min(max_n, 5))
        r = rng.randint(2, 3)
        cons = []
        for st in stats:
            m = rng.randint(1, min(max_m, 6))
            cons.append((st, m, rng.randrange(m)))
        kinds = ",".join(st.kind for st in stats)
        label = f"sc i={i} n={n} r={r} stats={kinds}"
        _check(checks, label, CodeSpec(n, r, tuple(cons)), ("extended",), budget)


def _verify_macwilliams(checks, rng, count, max_n, budget):
    if max_n < 1:
        return
    made = 0
    while made < count:
        r = rng.randint(2, 6)
        s = rng.randint(1, min(3, max_n))
        n = rng.randint(s, max_n)
        rows = [[rng.randrange(r) for _ in range(n)] for _ in range(s)]
        # a rank-deficient draw is skipped before its kernel is scanned
        if len(row_span(r, rows, budget)) != r**s:
            continue
        report = verify_macwilliams(build_code(r, rows, budget))
        checks.append((f"macwilliams i={made} r={r} n={n} s={s}", report.verified))
        made += 1


def _cmd_verify(args) -> int:
    if args.count < 0:
        raise ValueError(f"the count must be non-negative, got {args.count}")
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
        _verify_macwilliams(checks, rng, args.count, args.max_n, budget)
    if not checks:
        raise ValueError(f"verify --family {family} selected no checks: its sweep bounds are empty")
    mismatches = sum(1 for _, ok in checks if not ok)
    if args.format == "json":
        _json_print({"checks": [{"check": label, "ok": ok} for label, ok in checks], "mismatches": mismatches})
    elif args.format == "csv":
        _csv_rows([["check", "status"], *([label, "ok" if ok else "MISMATCH"] for label, ok in checks)])
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
    # printed once complete, so a refused table prints nothing
    lines, status = [], 0
    if args.name == "t33":
        lines.append("codewords of the ternary descent/sum code, n=3 r=3:")
        grid = {}
        for a1 in range(3):
            for a2 in range(3):
                spec = make_family("tenengolts", n=3, r=3, a1=a1, a2=a2)
                words = list(enumerate_codewords(spec, budget))
                grid[a1, a2] = compute(spec, "cardinality", "closed", budget)
                marker = "" if grid[a1, a2] == len(words) else "  MISMATCH"
                if marker:
                    status = 1
                lines.append(f"  a1={a1} a2={a2}: {_cell(words)}{marker}")
        lines.append("cardinality grid (closed form):")
        lines.append("       " + "".join(f"a2={a2:<5}" for a2 in range(3)))
        for a1 in range(3):
            row = "".join(f"{grid[a1, a2]:<8}" for a2 in range(3))
            lines.append(f"  a1={a1} {row}")
    elif args.name == "t23":
        lines.append("codewords of the descent/sum code variants, n=2 r=3:")
        lines.append(f"  {'(a1,a2)':<10}" + "".join(f"{v:<16}" for v in VARIANTS))
        for a1 in range(2):
            for a2 in range(3):
                cells = []
                for variant in VARIANTS:
                    spec = make_family("tenengolts", n=2, r=3, a1=a1, a2=a2, variant=variant)
                    cells.append(_cell(list(enumerate_codewords(spec, budget))))
                lines.append(f"  ({a1},{a2})    " + "".join(f"{c:<16}" for c in cells))
    elif args.name == "t33enum":
        spec = make_family("tenengolts", n=3, r=3, a1=0, a2=0)
        lines.append("codeword table for the ternary descent/sum code at a1=0 a2=0:")
        lines.append(f"  {'x':<6}{'gamma':<7}{'sigma':<7}{'tau0':<6}{'tau1':<6}{'tau2':<6}")
        for word in enumerate_codewords(spec, budget):
            g = evaluate_statistic(spec.constraints[0].stat, word)
            sg = evaluate_statistic(spec.constraints[1].stat, word)
            tau = type_vector(word, 3)
            lines.append(f"  {_word_str(word):<6}{g:<7}{sg:<7}{tau[0]:<6}{tau[1]:<6}{tau[2]:<6}")
        extended = compute(spec, "extended", "theorem1", budget)
        complete = specialize(extended, "complete")
        hamming = specialize(extended, "hamming")
        lines.append(f"extended: {extended.poly}")
        lines.append(f"complete: {complete.poly}")
        lines.append(f"hamming:  {hamming.poly}")
        lines.append(f"cardinality: {extended.cardinality()}")
    print("\n".join(lines))
    return status


def _cmd_macwilliams(args) -> int:
    code = build_code(args.r, args.rows, _budget(args))
    report = verify_macwilliams(code)
    payload = {
        "left": str(report.left),
        "right": None if report.right is None else str(report.right),
        "verified": report.verified,
        "dual_size": report.dual_size,
    }
    if args.format == "json":
        _json_print(payload)
    elif args.format == "csv":
        # str() keeps a skipped right side printed as None
        _csv_rows([["field", "value"], *([key, str(value)] for key, value in payload.items())])
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
    parser.add_argument("--a", type=int, default=0)
    parser.add_argument("--a1", type=int)
    parser.add_argument("--a2", type=int)
    parser.add_argument("--b", type=int)
    parser.add_argument("--c", type=int)
    parser.add_argument("--t", type=int)
    parser.add_argument("--p", type=int)
    parser.add_argument("--parity", type=int)
    parser.add_argument("--variant", choices=VARIANTS, default=">")
    parser.add_argument("--h", type=int_list, help="comma-separated weight vector, e.g. 1,2,3,4")
    parser.add_argument("--H", **_MATRIX_FLAG, help="semicolon-separated matrix rows, e.g. 1,1;0,1")


def _add_budget_flag(parser) -> None:
    parser.add_argument("--budget", type=int, help=f"enumeration budget (default {DEFAULT_BUDGET})")


def _add_common_flags(parser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    _add_budget_flag(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntcodes",
        description="exact weight enumerators and cardinalities for congruence-defined codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enum", help="compute a weight enumerator")
    _add_family_flags(p_enum)
    p_enum.add_argument("--kind", choices=KINDS, default="hamming")
    p_enum.add_argument("--method", choices=METHODS, default="auto")
    _add_common_flags(p_enum)
    p_enum.set_defaults(handler=_cmd_compute)

    p_card = sub.add_parser("card", help="compute a cardinality")
    _add_family_flags(p_card)
    p_card.add_argument("--method", choices=METHODS, default="auto")
    _add_common_flags(p_card)
    p_card.set_defaults(handler=_cmd_compute, kind="cardinality")

    p_verify = sub.add_parser("verify", help="sweep the chosen routes against brute force")
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
    _add_budget_flag(p_table)
    p_table.set_defaults(handler=_cmd_table)

    p_mac = sub.add_parser("macwilliams", help="duality report for a linear code over Z_r")
    p_mac.add_argument("--r", type=int, required=True)
    p_mac.add_argument("--H", **_MATRIX_FLAG, required=True, help="matrix rows, e.g. 1,1;0,1")
    _add_common_flags(p_mac)
    p_mac.set_defaults(handler=_cmd_macwilliams)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main's own parser, kept apart from those build_parser() hands out;
    # parse_args leaves it unchanged, so one parser serves every call
    return build_parser()


@functools.cache
def _flag_tables() -> dict:
    """{subcommand: its plain-form table}, read off the actions of main's
    parser: the positionals, {option string: action} of the flags that
    store one value, the dests argparse requires, and the Namespace's
    defaults, those of `set_defaults` and of every action."""
    tables = {}
    commands = next(action.choices for action in _parser()._actions if action.dest == "command")
    for command, sub in commands.items():
        stores = [action for action in sub._actions if type(action) is argparse._StoreAction]
        defaults = {
            action.dest: action.default for action in sub._actions if action.default is not argparse.SUPPRESS
        }
        tables[command] = (
            [action for action in stores if not action.option_strings],
            {flag: action for action in stores for flag in action.option_strings},
            {action.dest for action in stores if action.required},
            {**sub._defaults, **defaults},
        )
    return tables


def _read_plain(argv) -> argparse.Namespace | None:
    """The Namespace of a plain request, or None for any other argv or for
    a value its flag's type or choices refuse."""
    table = _flag_tables().get(argv[0]) if argv else None
    if table is None:
        return None
    positionals, flags, required, defaults = table
    head = 1 + len(positionals)
    if len(argv) < head or (len(argv) - head) % 2:
        return None
    pairs = [*zip(positionals, argv[1:head])]
    pairs += [(flags.get(flag), text) for flag, text in zip(argv[head::2], argv[head + 1 :: 2])]
    values = {}
    for action, text in pairs:
        if action is None or action.dest in values or not text or text[0] == "-":
            return None
        try:
            value = (action.type or str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # refused by argparse, in its words
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= values.keys():
        return None
    return argparse.Namespace(**{**defaults, **values, "command": argv[0]})


def _parse(argv) -> argparse.Namespace:
    """argv's flags: a plain request's read off its subcommand's flag
    table, any other argv's parsed by the full parser."""
    args = _read_plain(argv)
    return _parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
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
