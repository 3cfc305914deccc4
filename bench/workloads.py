"""Seeded request generators for the benchmark workloads.

A workload is a fixed cycle of request *slots*.  A slot fixes everything
that sets a request's cost (subcommand family, n, r, modulus); the seed
draws only what leaves the cost alone (residues, variants, weight vectors,
matrix entries, the enumerator kind).  Passes run whole cycles, so every
pass holds the same mix whatever the seed, and the shares of the slots put
the median and the 90th percentile of latency inside a class of requests
of like cost rather than on the edge between two.  Moduli recur across
requests, so the library's caches can help later requests, and no argv is
generated twice.

A request is a dict: ``argv`` (all the program sees), ``cls`` (its report
row: subcommand, family, route, and the size that makes a known cliff
one), and the fields `reference.reference` needs.
"""

from __future__ import annotations

import math
import random

VARIANTS = (">", ">=", "<", "<=")
KINDS = ("extended", "complete", "hamming")


def _argv(sub, family, params, extra=()):
    argv = [sub, family] if family else [sub]
    for name, value in params.items():
        if name == "h":
            value = ",".join(map(str, value))
        elif name == "rows":
            value = ";".join(",".join(map(str, row)) for row in value)
        argv += ["--H" if name == "rows" else f"--{name}", str(value)]
    return argv + list(extra)


def _code(sub, family, params, kind="hamming", method="auto", bucket=""):
    extra = ["--kind", kind] if sub == "enum" else []
    if method != "auto":
        extra += ["--method", method]
    label = f"{sub}:{kind}" if sub == "enum" else sub
    return {
        "argv": _argv(sub, family, params, extra),
        "cls": f"{label} {family} {method}{bucket}",
        "op": sub,
        "family": family,
        "params": params,
        "kind": kind if sub == "enum" else "cardinality",
    }


def _sub(rng):
    return rng.choice(("card", "enum"))


def _tenengolts(rng, n, r):
    return {"n": n, "r": r, "a1": rng.randrange(n), "a2": rng.randrange(r), "variant": rng.choice(VARIANTS)}


def _lc(rng, n, m, r):
    return {"n": n, "m": m, "r": r, "h": [rng.randrange(1, m) for _ in range(n)], "a": rng.randrange(m)}


def _rows(rng, r, n, s):
    """A parity-check matrix over Z_r whose rows span r^s vectors."""
    while True:
        rows = [[rng.randrange(r) for _ in range(n)] for _ in range(s)]
        span = {
            tuple(sum((u // r**i) % r * row[j] for i, row in enumerate(rows)) % r for j in range(n))
            for u in range(r**s)
        }
        if len(span) == r**s:
            return rows


# ---------------------------------------------------------------------------
# Slot shares.  With N slots a cycle, the median sits at slot rank N/2 and
# the 90th percentile at 0.9 N once the slots are sorted by cost; each
# workload puts a block of requests of like cost around both ranks.

# closed-forms, 92 slots: 73 cheap requests of 2-3 ms (ranks 0-72, the
# median at 45.5): descent/sum cardinalities and Hamming enumerators, and
# three cardinalities at n >= 5040; 5 requests of 20-50 ms (lc_hamming, the
# cardinality at n=720720); 12 le_nguyen requests of about 0.25 s (ranks
# 78-89, the 90th percentile at 81.9); and two cliffs of about a second:
# binary_vt at n=48 and helberg at n=10.  The cheap requests' upper fifth
# spreads from run to run (short requests track the speed probe least
# well), so the median sits well below it.


def _cf_card(rng):
    return _code("card", "tenengolts", _tenengolts(rng, rng.randint(2, 300), rng.randint(2, 6)))


def _cf_enum(rng):
    return _code("enum", "tenengolts", _tenengolts(rng, rng.randint(20, 40), rng.randint(2, 3)))


def _cf_huge(n, radices):
    # n * log10(r) digits: past 4300 the CLI cannot print the cardinality
    def gen(rng):
        params = _tenengolts(rng, n, rng.choice(radices))
        return _code("card", "tenengolts", params, bucket=f" n={n}")

    return gen


def _cf_an_code(rng):
    # an_code at p=7 has 14 distinct requests; lc at like cost fills in
    if rng.random() < 0.5:
        return _code(_sub(rng), "an_code", {"p": 7, "a": rng.randrange(7)})
    return _code(_sub(rng), "lc", _lc(rng, 12, 17, 3))


def _cf_odd_coefficient(rng):
    m = rng.choice((7, 8, 9))
    return _code(_sub(rng), "odd_coefficient", {"n": 14, "m": m, "a": rng.randrange(2 * m)})


def _cf_levenshtein(rng):
    m = rng.choice((17, 19))
    return _code(_sub(rng), "levenshtein", {"n": 16, "m": m, "a": rng.randrange(m)})


def _cf_fixed(family, params, modulus, bucket=""):
    return lambda rng: _code(_sub(rng), family, {**params, "a": rng.randrange(modulus)}, bucket=bucket)



# full spaces at --method theorem1


def _t1(family, params, bucket="", kind=None):
    """Slot drawing `params` (callables are drawn per request) at `kind`,
    or at a random kind when that is None."""

    def build(rng):
        drawn = {k: v(rng) if callable(v) else v for k, v in params.items()}
        return _code("enum", family, drawn, kind=kind or rng.choice(KINDS), method="theorem1", bucket=bucket)

    return build


def _residue(m):
    return lambda rng: rng.randrange(m)


def _t1_tenengolts(n, r):
    # only the ">" variant has the descent/sum full space; the others scan
    def gen(rng):
        params = {**_tenengolts(rng, n, r), "variant": ">"}
        return _code("enum", "tenengolts", params, kind=rng.choice(KINDS), method="theorem1")

    return gen


def _t1_shifted_vt(rng):
    m = rng.choice((7, 9, 11))
    return _t1("shifted_vt", {"n": 12, "m": m, "a": _residue(m), "parity": _residue(2)})(rng)


def _t1_hvm(rng):
    return _t1("han_vinck_morita", {"n": 12, "a": _residue(13), "b": _residue(3)})(rng)


def _t1_binary_vt(rng):
    n = rng.choice((13, 14))
    return _t1("binary_vt", {"n": n, "a": _residue(n + 1)})(rng)


def _t1_lc(rng):
    return _code("enum", "lc", _lc(rng, 7, 11, 3), kind=rng.choice(KINDS), method="theorem1")


def _t1_large_moduli(exponent, kind=None):
    """ternary_integer and exponential_coefficient slots at modulus 2^exponent + 1."""
    m = 2**exponent + 1
    return (
        _t1("ternary_integer", {"n": exponent - 1, "a": _residue(m)}, f" m={m}", kind),
        _t1("exponential_coefficient", {"n": exponent, "m": exponent, "a": _residue(m)}, f" m={m}", kind),
    )


def _t1_large_modulus(exponent):
    """ternary_integer or exponential_coefficient at modulus 2^exponent + 1."""
    slots = _t1_large_moduli(exponent)
    return lambda rng: rng.choice(slots)(rng)


CLOSED_FORMS = (
    [_cf_card] * 66
    + [_cf_enum] * 4
    + [_cf_huge(5040, (2, 3, 4, 5, 6)), _cf_huge(10080, (3, 4, 5, 6)), _cf_huge(55440, (2, 3, 4, 5, 6))]
    + [
        _cf_huge(720720, (2,)),
        lambda rng: _code(_sub(rng), "lc", _lc(rng, 12, 19, 3)),
        _cf_an_code,
        _cf_odd_coefficient,
        _cf_levenshtein,
    ]
    + [_cf_fixed("le_nguyen", {"n": 5, "r": 3, "t": 2}, 189)] * 12
    + [
        _cf_fixed("binary_vt", {"n": 48}, 49, bucket=" n=48"),
        _cf_fixed("helberg", {"n": 10, "t": 2}, 232, bucket=" n=10"),
    ]
)

# theorem1, 40 slots, every one `enum --method theorem1`: 7 descent/sum
# full spaces (tenengolts, 5-6 ms) and 8 product full spaces of shifted_vt
# and lc (about 8.5 ms), ranks 0-14; 10 product full spaces of
# han_vinck_morita and binary_vt (about 10 ms, ranks 15-24, the median at
# 19.5); 5 extractions at order 65 (about 11 ms) and 4 at orders 129 and
# 257 (25-40 ms); and six order-513 extractions of about a second, one per
# family and kind (ranks 34-39, the 90th percentile at 35.1), which take
# most of the time.  The other slots draw the kind per request.

THEOREM1 = (
    [_t1_tenengolts(10, 2)] * 4
    + [_t1_tenengolts(12, 2)] * 3
    + [_t1_shifted_vt, _t1_lc] * 4
    + [_t1_hvm, _t1_binary_vt] * 5
    + [_t1_large_modulus(6)] * 5
    + [_t1_large_modulus(7), _t1_large_modulus(8)] * 2
    + [slot for kind in KINDS for slot in _t1_large_moduli(9, kind)]
)


# brute-force, 40 slots: 14 requests of 5-25 ms (linear_code, small scans,
# verify sweeps); 15 scans of 3^8 words, 25-35 ms (ranks 14-28, the median
# at 20); 4 scans of 3^10 words; 6 oracle scans of 2^16 words, 0.3 s
# (ranks 33-38, the 90th percentile at 36); and the MacWilliams r=6 n=7
# s=3 cliff.  Scans in codes and enumerators outweigh the MacWilliams work.


def _bf_svt(n, r):
    def gen(rng):
        m = rng.choice((5, 7, 9, 11))
        params = {"n": n, "r": r, "m": m, "a": rng.randrange(m), "b": rng.randrange(2), "c": rng.randrange(r)}
        return _code(_sub(rng), "nonbinary_svt", params, kind=rng.choice(("hamming", "complete")))

    return gen


def _bf_oracle_tenengolts(n):
    return lambda rng: _code(_sub(rng), "tenengolts", _tenengolts(rng, n, 3), method="oracle")


def _bf_oracle_lc(n, m, r):
    return lambda rng: _code(_sub(rng), "lc", _lc(rng, n, m, r), method="oracle")


def _bf_linear_code(r, n, s):
    return lambda rng: _code("enum", "linear_code", {"r": r, "rows": _rows(rng, r, n, s)}, kind="complete")


def _bf_macwilliams(r, n, s):
    def gen(rng):
        rows = _rows(rng, r, n, s)
        argv = _argv("macwilliams", None, {"r": r, "rows": rows})
        return {"argv": argv, "cls": f"macwilliams r={r} n={n} s={s}", "op": "macwilliams", "r": r, "rows": rows}

    return gen


def _bf_verify(family, count, *extra):
    def gen(rng):
        argv = ["verify", "--family", family, "--count", str(count), "--seed", str(rng.randrange(10**6))]
        return {"argv": argv + list(extra), "cls": f"verify {family}", "op": "verify", "checks": count}

    return gen


BRUTE_FORCE = (
    [_bf_linear_code(3, 7, 1), _bf_linear_code(3, 7, 2), _bf_linear_code(5, 5, 2), _bf_linear_code(5, 5, 2)]
    + [_bf_linear_code(4, 6, 2), _bf_svt(11, 2), _bf_svt(11, 2), _bf_oracle_lc(12, 11, 2), _bf_oracle_lc(12, 11, 2)]
    + [_bf_verify("sc", 30)] * 3
    + [_bf_verify("macwilliams", 12, "--max-n", "3")] * 2
    + [_bf_oracle_tenengolts(8)] * 3
    + [_bf_oracle_lc(8, 11, 3)] * 5
    + [_bf_svt(8, 3)] * 7
    + [_bf_oracle_tenengolts(10), _bf_oracle_tenengolts(10), _bf_oracle_lc(10, 11, 3), _bf_oracle_lc(10, 11, 3)]
    + [_bf_oracle_lc(16, 13, 2)] * 6
    + [_bf_macwilliams(6, 7, 3)]
)

SLOTS = {"closed-forms": CLOSED_FORMS, "theorem1": THEOREM1, "brute-force": BRUTE_FORCE}


def interleaved(count: int) -> list[int]:
    """The order in which a cycle visits its `count` slots: a stride near
    count / golden ratio, so that the slots of a block of like cost are
    spread over the cycle and sample the machine at many moments rather
    than in one burst."""
    stride = next(s for s in range(int(count / 1.618), count + 1) if math.gcd(s, count) == 1)
    return [k * stride % count for k in range(count)]


def generate(workload: str, seed: int, cycles: int) -> list[dict]:
    """The first `cycles` whole cycles of a workload's seeded request stream."""
    if workload not in SLOTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(SLOTS)}")
    slots = SLOTS[workload]
    rng = random.Random(f"{workload}:{seed}")
    seen: set = set()
    out: list[dict] = []
    for _cycle in range(cycles):
        for slot in interleaved(len(slots)):
            gen = slots[slot]
            for _attempt in range(1000):
                req = gen(rng)
                if tuple(req["argv"]) not in seen:
                    break
            else:
                raise RuntimeError(f"{workload}: slot {slot} ran out of distinct requests")
            seen.add(tuple(req["argv"]))
            out.append(req)
    return out
