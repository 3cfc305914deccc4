"""Command-line front end.

Subcommands: enum (weight enumerators), card (cardinalities), verify
(sweeps of the route `compute` picks against brute force), table
(desk-reference parameter grids), macwilliams (duality report).  Every
enumerator and cardinality, the sweeps' and tables' included, comes from
`compute`, which alone picks the route.  All numeric output is in exact
decimal; exit codes are 0 success, 1 verification mismatch, 2 usage,
3 budget exceeded, 4 internal integrality violation.

`_COMMANDS` declares the subcommands and their arguments once, and
`main(argv)` may be called repeatedly in one process.  A plain request,
`command [positional] --flag value ...` with every flag spelled out in
full and given at most once and every value non-empty and not starting
with `-`, is read straight off that table: each value is converted by its
flag's type and checked against its choices, and the required flags are
checked, as argparse would.  Every other argv (help, abbreviations,
`--flag=value`, negative values, repeated or unknown flags) and every
value a type or a choice refuses goes to one argparse parser built from
the same table when first needed, so every usage, help and error text is
argparse's own.  Importing the module and reading plain requests load no
`argparse`, `dataclasses`, `inspect`, `json` or `csv`.
"""

from __future__ import annotations

import functools
import os
import random
import sys
import types

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
from .macwilliams import _spanned, build_code, verify_macwilliams

VARIANTS = tuple(VARIANT_STATS)

#: each family's constructor parameters, in signature order
_FAMILY_PARAMS = {
    name: builder.__code__.co_varnames[: builder.__code__.co_argcount] for name, builder in FAMILIES.items()
}


def _family_params(args) -> dict:
    """The constructor arguments, parsed and defaulted by their flags."""
    params = {name: getattr(args, name) for name in _FAMILY_PARAMS[args.family]}
    for name, value in params.items():
        if value is None:
            raise ValueError(f"family {args.family} requires --{'H' if name == 'rows' else name}")
    return params


def _budget(args):
    budget = args.budget
    if budget is None:
        env = os.environ.get("CODES_BUDGET")
        if not env:
            return None
        try:
            budget = int(env)
        except ValueError:
            shown = repr(env) if len(env) <= 40 else f"{env[:40]!r}... ({len(env)} characters)"
            raise ValueError(f"CODES_BUDGET must be a non-negative integer, got {shown}") from None
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


def _verify_tenengolts(checks, rng, args, budget):
    for n in range(1, args.max_n + 1):
        for r in range(2, args.max_r + 1):
            for variant in VARIANTS:
                for a1 in range(n):
                    for a2 in range(r):
                        spec = make_family("tenengolts", n=n, r=r, a1=a1, a2=a2, variant=variant)
                        label = f"tenengolts n={n} r={r} a1={a1} a2={a2} variant={variant}"
                        _check(checks, label, spec, ("hamming", "cardinality"), budget)


def _verify_lc(checks, rng, args, budget, binary):
    if args.max_n < 1 or args.max_m < 1:
        return
    label = "blc" if binary else "lc"
    for i in range(args.count):
        r = 2 if binary else rng.randint(2, 4)
        n = rng.randint(1, args.max_n)
        m = rng.randint(1, args.max_m)
        bound = max(m, 2)
        h = tuple(rng.randrange(1 - bound, bound) for _ in range(n))
        a = rng.randrange(m)
        spec = make_family("lc", n=n, m=m, r=r, h=h, a=a)
        _check(checks, f"{label} i={i} n={n} m={m} r={r} a={a}", spec, ("hamming",), budget)


def _verify_sc(checks, rng, args, budget):
    if args.max_n < 2 or args.max_m < 1:
        return
    pool = (OMEGA, SIGMA, DELTA, GAMMA_GT)
    for i in range(args.count):
        s = rng.randint(2, 3)
        stats = rng.sample(pool, s)
        n = rng.randint(2, min(args.max_n, 5))
        r = rng.randint(2, 3)
        cons = []
        for st in stats:
            m = rng.randint(1, min(args.max_m, 6))
            cons.append((st, m, rng.randrange(m)))
        kinds = ",".join(st.kind for st in stats)
        label = f"sc i={i} n={n} r={r} stats={kinds}"
        _check(checks, label, CodeSpec(n, r, tuple(cons)), ("extended",), budget)


def _verify_macwilliams(checks, rng, args, budget):
    if args.max_n < 1:
        return
    made = 0
    while made < args.count:
        r = rng.randint(2, 6)
        s = rng.randint(1, min(3, args.max_n))
        n = rng.randint(s, args.max_n)
        rows = [[rng.randrange(r) for _ in range(n)] for _ in range(s)]
        # a rank-deficient draw is skipped before its kernel is scanned, and
        # a kept draw's rows carry their span into `build_code`
        rows = _spanned(r, rows, budget)
        if len(rows.dual) != r**s:
            continue
        report = verify_macwilliams(build_code(r, rows, budget))
        checks.append((f"macwilliams i={made} r={r} n={n} s={s}", report.verified))
        made += 1


#: verify's sweeps by `--family`, in the order they draw from the one rng
_SWEEPS = {
    "tenengolts": _verify_tenengolts,
    "lc": functools.partial(_verify_lc, binary=False),
    "blc": functools.partial(_verify_lc, binary=True),
    "sc": _verify_sc,
    "macwilliams": _verify_macwilliams,
}


def _cmd_verify(args) -> int:
    if args.count < 0:
        raise ValueError(f"the count must be non-negative, got {args.count}")
    budget = _budget(args)
    rng = random.Random(args.seed)
    checks: list[tuple[str, bool]] = []
    for family, sweep in _SWEEPS.items():
        if args.family in (family, "all"):
            sweep(checks, rng, args, budget)
    if not checks:
        raise ValueError(f"verify --family {args.family} selected no checks: its sweep bounds are empty")
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
    left = str(report.left)
    payload = {
        "left": left,
        # a verified right side equals the left, so it prints the same
        "right": left if report.verified else None if report.right is None else str(report.right),
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


# parsers of --h and --H; argparse names one in its usage error, as it
# names int in "invalid int value"
def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip() != "")

def int_matrix(text: str) -> list[tuple[int, ...]]:
    return [int_list(row) for row in text.split(";") if row.strip() != ""]


#: --H, the parity-check matrix of linear_code and macwilliams
_MATRIX_FLAG = {"dest": "rows", "type": int_matrix, "metavar": "H"}

#: enum's and card's family and the flags of its constructor parameters
_FAMILY_ARGS = (
    ("family", {"choices": sorted(FAMILIES)}),
    ("--n", {"type": int}),
    ("--r", {"type": int}),
    ("--m", {"type": int}),
    ("--a", {"type": int, "default": 0}),
    ("--a1", {"type": int}),
    ("--a2", {"type": int}),
    ("--b", {"type": int}),
    ("--c", {"type": int}),
    ("--t", {"type": int}),
    ("--p", {"type": int}),
    ("--parity", {"type": int}),
    ("--variant", {"choices": VARIANTS, "default": ">"}),
    ("--h", {"type": int_list, "help": "comma-separated weight vector, e.g. 1,2,3,4"}),
    ("--H", {**_MATRIX_FLAG, "help": "semicolon-separated matrix rows, e.g. 1,1;0,1"}),
)
_KIND_ARG = ("--kind", {"choices": KINDS, "default": "hamming"})
_METHOD_ARG = ("--method", {"choices": METHODS, "default": "auto"})
_BUDGET_ARG = ("--budget", {"type": int, "help": f"enumeration budget (default {DEFAULT_BUDGET})"})
_COMMON_ARGS = (("--format", {"choices": ("text", "json", "csv"), "default": "text"}), _BUDGET_ARG)

#: the one declaration of the command line, read by build_parser() and by
#: the plain reader: {subcommand: (its help, its arguments in order as the
#: (name, options) pairs add_argument takes, its set_defaults)}
_COMMANDS = {
    "enum": (
        "compute a weight enumerator",
        (*_FAMILY_ARGS, _KIND_ARG, _METHOD_ARG, *_COMMON_ARGS),
        {"handler": _cmd_compute},
    ),
    "card": (
        "compute a cardinality",
        (*_FAMILY_ARGS, _METHOD_ARG, *_COMMON_ARGS),
        {"handler": _cmd_compute, "kind": "cardinality"},
    ),
    "verify": (
        "sweep the chosen routes against brute force",
        (
            ("--family", {"choices": (*_SWEEPS, "all"), "default": "all"}),
            ("--max-n", {"type": int, "default": 4}),
            ("--max-r", {"type": int, "default": 3}),
            ("--max-m", {"type": int, "default": 8}),
            ("--count", {"type": int, "default": 10}),
            ("--seed", {"type": int, "default": 0}),
            *_COMMON_ARGS,
        ),
        {"handler": _cmd_verify},
    ),
    "table": (
        "print a desk-reference table",
        (("name", {"choices": ("t33", "t23", "t33enum")}), _BUDGET_ARG),
        {"handler": _cmd_table},
    ),
    "macwilliams": (
        "duality report for a linear code over Z_r",
        (
            ("--r", {"type": int, "required": True}),
            ("--H", {**_MATRIX_FLAG, "required": True, "help": "matrix rows, e.g. 1,1;0,1"}),
            *_COMMON_ARGS,
        ),
        {"handler": _cmd_macwilliams},
    ),
}


def build_parser():
    """A fresh full parser of `_COMMANDS`; the first one loads argparse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ntcodes",
        description="exact weight enumerators and cardinalities for congruence-defined codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, arguments, defaults) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=text)
        for name, options in arguments:
            subparser.add_argument(name, **options)
        subparser.set_defaults(**defaults)
    return parser


#: main's own parser, kept apart from those build_parser() hands out;
#: parse_args leaves it unchanged, so one parser serves every call
_parser = functools.cache(build_parser)


@functools.cache
def _plain_form(command):
    """A subcommand's arguments as the plain reader reads them: positional
    names, {name: (dest, type, choices)}, required dests and defaults."""
    _, arguments, defaults = _COMMANDS[command]
    dests = {name: options.get("dest", name.lstrip("-").replace("-", "_")) for name, options in arguments}
    form = {name: (dests[name], options.get("type", str), options.get("choices")) for name, options in arguments}
    required = {dests[name] for name, options in arguments if options.get("required")}
    namespace = {dests[name]: options.get("default") for name, options in arguments}
    return [name for name in form if name[0] != "-"], form, required, {**namespace, **defaults}


def _read_plain(argv):
    """The namespace of a plain request, or None for any other argv or for
    a value its flag's type or choices refuse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    positionals, form, required, defaults = _plain_form(argv[0])
    head = 1 + len(positionals)
    if len(argv) < head or (len(argv) - head) % 2:
        return None
    # the positionals are read first: one's name in a flag's place repeats it
    names = [*positionals, *argv[head::2]]
    values = {}
    for name, text in zip(names, [*argv[1:head], *argv[head + 1 :: 2]]):
        if name not in form or form[name][0] in values or not text or text[0] == "-":
            return None
        dest, parse, choices = form[name]
        try:
            value = parse(text)
        except (TypeError, ValueError):  # refused by argparse, in its words
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= values.keys():
        return None
    return types.SimpleNamespace(**{**defaults, **values, "command": argv[0]})


def _parse(argv):
    """argv's flags: a plain request's read off `_COMMANDS`, any other
    argv's parsed by the full parser."""
    return _read_plain(argv) or _parser().parse_args(argv)


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
