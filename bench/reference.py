"""Reference answers for benchmark requests, and the checker.

References are computed outside the timed region, by a route other than
the one the program takes:

* ``bench-dp`` - the benchmark's own transfer count over positions.  Its
  state is the previous symbol (when a statistic compares neighbours) and
  the statistic values, reduced modulo the moduli unless the extended
  enumerator needs them exact.  Each state carries a generating polynomial
  in the w-variables packed into one integer (Kronecker substitution), so
  an update is one shift and one addition.  Only the code's definition
  (length, alphabet, statistic kinds, weights, moduli) is read from the
  library; the per-position statistic increments are written out here.
* ``closed-other`` - the library's other closed route: the Hamming
  enumerator of a descent/sum code summed, against its cardinality form.
* ``self-consistency`` - values only the library can produce at this size
  (divisor-sum cardinalities at huge n, and `verify` sweeps, whose checks
  are themselves cross-route comparisons); checked for well-formedness.

A request is *ok* when its exit code and parsed stdout equal the
reference, *wrong* when the program printed an answer that differs (or
reported a mismatch or an integrality violation), and an *error*
otherwise (a refused or crashed request, such as a wrong exit code).
"""

from __future__ import annotations

import re
from math import prod

#: statistics that are weighted symbol sums, position by position
LINEAR_KINDS = ("omega", "sigma", "linear")
#: comparison of (previous, current) symbol counted by each descent kind
DESCENT_TESTS = {
    "gamma_gt": lambda p, x: p > x,
    "gamma_ge": lambda p, x: p >= x,
    "lambda_lt": lambda p, x: p < x,
    "lambda_le": lambda p, x: p <= x,
    "delta": lambda p, x: p > x,
}
#: largest transfer-count work (steps x states x symbols) spent on one reference
DP_WORK_LIMIT = 50_000
#: largest n for which the other closed route of a descent/sum cardinality runs
CLOSED_OTHER_MAX_N = 1_000


# ---------------------------------------------------------------------------
# the benchmark's own transfer count


def _increments(stat, n):
    """Per-position increment function inc(j, prev, x) of a statistic."""
    kind = stat.kind
    if kind in LINEAR_KINDS:
        h = tuple(range(1, n + 1)) if kind == "omega" else (1,) * n if kind == "sigma" else stat.h
        return lambda j, prev, x: h[j] * x
    test = DESCENT_TESTS[kind]
    step = (lambda j: 1) if kind == "delta" else (lambda j: j)
    return lambda j, prev, x: step(j) if j and test(prev, x) else 0


def _max_value(stat, n, r):
    kind = stat.kind
    if kind in LINEAR_KINDS:
        inc = _increments(stat, n)
        return sum(inc(j, None, r - 1) for j in range(n))
    return n - 1 if kind == "delta" else n * (n - 1) // 2


def dp_work(spec, exact: bool) -> int:
    """Upper estimate of the transfer count's work for a spec."""
    n, r = spec.n, spec.r
    prev = 1 if all(c.stat.kind in LINEAR_KINDS for c in spec.constraints) else r
    if exact:
        values = prod(_max_value(c.stat, n, r) + 1 for c in spec.constraints)
    else:
        values = prod(c.m for c in spec.constraints)
    return n * r * min(r**n, prev * values)


def dp_count(spec, kind: str) -> dict:
    """Enumerator of a code as {monomial: coefficient}.

    A monomial is a sorted tuple of (variable, exponent) pairs with nonzero
    exponents, in the CLI's variable names: ``w`` for the Hamming kind,
    ``w0..w(r-1)`` for complete, and ``z1..zs`` plus those for extended.
    ``kind == "cardinality"`` returns {(): size}.
    """
    n, r, cons = spec.n, spec.r, spec.constraints
    exact = kind == "extended"
    incs = [_increments(c.stat, n) for c in cons]
    moduli = [None if exact else c.m for c in cons]
    needs_prev = any(c.stat.kind not in LINEAR_KINDS for c in cons)
    # Kronecker digit position contributed by each symbol
    if kind in ("hamming", "cardinality"):
        shift = [0] + [1] * (r - 1)
        if kind == "cardinality":
            shift = [0] * r
    else:
        shift = [0] + [(n + 1) ** (k - 1) for k in range(1, r)]
    width = -(-((r**n).bit_length() + 1) // 8) * 8
    shift = [s * width for s in shift]
    states = {(None, (0,) * len(cons)): 1}
    for j in range(n):
        nxt: dict = {}
        for (prev, vals), poly in states.items():
            for x in range(r):
                new = []
                for inc, v, m in zip(incs, vals, moduli):
                    v += inc(j, prev, x)
                    new.append(v if m is None else v % m)
                key = (x if needs_prev else None, tuple(new))
                nxt[key] = nxt.get(key, 0) + (poly << shift[x])
        states = nxt
    out: dict = {}
    for (_prev, vals), poly in states.items():
        if any((v - c.a) % c.m for v, c in zip(vals, cons)):
            continue
        zpart = tuple((f"z{i}", v) for i, v in enumerate(vals, start=1) if v) if exact else ()
        for position, count in _digits(poly, width):
            mono = tuple(sorted(zpart + _w_monomial(position, kind, n, r)))
            out[mono] = out.get(mono, 0) + count
    return out


def _digits(packed: int, width: int):
    step = width // 8
    data = packed.to_bytes(max(1, -(-packed.bit_length() // 8)), "little")
    for position in range(0, -(-len(data) // step)):
        count = int.from_bytes(data[position * step : (position + 1) * step], "little")
        if count:
            yield position, count


def _w_monomial(position: int, kind: str, n: int, r: int) -> tuple:
    if kind == "cardinality":
        return ()
    if kind == "hamming":
        return (("w", position),) if position else ()
    exps = []
    for _k in range(1, r):
        position, e = divmod(position, n + 1)
        exps.append(e)
    exps.insert(0, n - sum(exps))
    return tuple((f"w{k}", e) for k, e in enumerate(exps) if e)


# ---------------------------------------------------------------------------
# parsing CLI output

_FACTOR = re.compile(r"([A-Za-z]\w*)(?:\^(\d+))?\Z")


def parse_poly(text: str) -> dict:
    """Parse the CLI's text polynomial into {monomial: coefficient}."""
    text = text.strip()
    out: dict = {}
    if text == "0":
        return out
    for chunk in text.split(" + "):
        coeff, exps = 1, {}
        for factor in chunk.split("*"):
            if factor.lstrip("-").isdigit():
                coeff *= int(factor)
                continue
            match = _FACTOR.match(factor)
            if match is None:
                raise ValueError(f"cannot parse factor {factor!r}")
            exps[match.group(1)] = exps.get(match.group(1), 0) + int(match.group(2) or 1)
        mono = tuple(sorted(exps.items()))
        out[mono] = out.get(mono, 0) + coeff
    return out


# ---------------------------------------------------------------------------
# references per request


def reference(req: dict) -> dict:
    """Reference for a request: route, expected exit code and value."""
    from ntcodes.codes import make_family

    op = req["op"]
    if op == "verify":
        return {"route": "self-consistency", "code": 0, "checks": req["checks"]}
    if op == "macwilliams":
        spec = make_family("linear_code", r=req["r"], rows=req["rows"])
        left = dp_count(spec, "complete")
        return {
            "route": "bench-dp",
            "code": 0,
            "left": left,
            "dual_size": req["r"] ** len(req["rows"]),
        }
    spec = make_family(req["family"], **req["params"])
    kind = req["kind"]
    if dp_work(spec, kind == "extended") <= DP_WORK_LIMIT:
        value = dp_count(spec, kind)
        if kind == "cardinality":
            value = value.get((), 0)
        return {"route": "bench-dp", "code": 0, "value": value}
    if req["family"] != "tenengolts" or kind != "cardinality":
        raise ValueError(f"no reference route for {req['argv']}")
    from ntcodes.enumerators import tenengolts_cardinality, tenengolts_hamming

    p = req["params"]
    args = (p["n"], p["r"], p["a1"], p["a2"], p["variant"])
    if p["n"] <= CLOSED_OTHER_MAX_N:
        return {"route": "closed-other", "code": 0, "value": tenengolts_hamming(*args).cardinality()}
    return {"route": "self-consistency", "code": 0, "value": tenengolts_cardinality(*args)}


# ---------------------------------------------------------------------------
# the checker


def check(req: dict, ref: dict, result: dict) -> str:
    """Classify one captured result as "ok", "wrong" or "error"."""
    code = result.get("code")
    if code in (1, 4):
        return "wrong"  # a reported mismatch or integrality violation
    if code != ref["code"]:
        return "error"
    try:
        same = _matches(req, ref, result["out"])
    except (ValueError, KeyError, IndexError):  # unparseable output
        same = False
    return "ok" if same else "wrong"


def _matches(req: dict, ref: dict, out: str) -> bool:
    op = req["op"]
    if op == "card":
        return int(out.strip()) == ref["value"]
    if op == "enum":
        return parse_poly(out) == ref["value"]
    lines = out.strip().splitlines()
    if op == "verify":
        body, summary = lines[:-1], lines[-1] if lines else ""
        return (
            len(body) == ref["checks"]
            and all(line.startswith("ok ") for line in body)
            and summary == f"summary: {ref['checks']} checks, 0 mismatches"
        )
    fields = dict(line.split(":", 1) for line in lines)
    return (
        parse_poly(fields["left"]) == ref["left"]
        and parse_poly(fields["right"]) == ref["left"]
        and int(fields["dual size"]) == ref["dual_size"]
        and fields["verified"].strip() == "True"
    )
