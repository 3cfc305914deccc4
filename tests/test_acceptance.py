"""Acceptance suite: one test per release criterion.

Every comparison is exact (integer or polynomial equality, zero
tolerance).  Each test prints a single PASS line after its assertions and
enforces its wall-clock budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time
from math import gcd

import pytest

import cyclotomic_reference as cyc
from ntcodes.codes import (
    CodeSpec,
    DELTA,
    GAMMA_GT,
    OMEGA,
    SIGMA,
    Statistic,
    VARIANT_STATS,
    enumerate_codewords,
    evaluate_statistic,
    lc,
    make_family,
    type_vector,
)
from ntcodes.enumerators import (
    compute,
    specialize,
    tenengolts_cardinality,
    tenengolts_hamming,
    w_variables,
)
from ntcodes.exactalg import IntegralityError, MultiPoly
from ntcodes.macwilliams import (
    build_code,
    complete_weight_enumerator,
    verify_macwilliams,
)
from ntcodes.numtheory import divisors, ramanujan_sum
from ntcodes.qcalc import compositions, q_multinomial, q_multinomial_at_root

T33_SETS = {
    (0, 0): {"000", "012", "111", "210", "222"},
    (0, 1): {"001", "022", "112"},
    (0, 2): {"002", "011", "122"},
    (1, 0): {"102", "201"},
    (1, 1): {"100", "202", "211"},
    (1, 2): {"101", "200", "212"},
    (2, 0): {"021", "120"},
    (2, 1): {"010", "121", "220"},
    (2, 2): {"020", "110", "221"},
}

T23_SETS = {
    ">": {
        (0, 0): {"00", "12"}, (0, 1): {"01", "22"}, (0, 2): {"02", "11"},
        (1, 0): {"21"}, (1, 1): {"10"}, (1, 2): {"20"},
    },
    ">=": {
        (0, 0): {"12"}, (0, 1): {"01"}, (0, 2): {"02"},
        (1, 0): {"00", "21"}, (1, 1): {"10", "22"}, (1, 2): {"11", "20"},
    },
    "<": {
        (0, 0): {"00", "21"}, (0, 1): {"10", "22"}, (0, 2): {"11", "20"},
        (1, 0): {"12"}, (1, 1): {"01"}, (1, 2): {"02"},
    },
    "<=": {
        (0, 0): {"21"}, (0, 1): {"10"}, (0, 2): {"20"},
        (1, 0): {"00", "12"}, (1, 1): {"01", "22"}, (1, 2): {"02", "11"},
    },
}

T33_GRID = {
    (0, 0): 5, (1, 0): 2, (2, 0): 2,
    (0, 1): 3, (1, 1): 3, (2, 1): 3,
    (0, 2): 3, (1, 2): 3, (2, 2): 3,
}


class Stopwatch:
    def __init__(self, limit):
        self.limit = limit
        self.start = time.monotonic()

    def check(self, label):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"{label} took {elapsed:.1f}s, budget {self.limit}s"
        return elapsed


def words_of(spec):
    return {"".join(map(str, w)) for w in enumerate_codewords(spec)}


def exponential_ramanujan(d, a):
    return cyc.value(cyc.fold(d, ((a * j, 1) for j in range(1, d + 1) if gcd(j, d) == 1)))


def hamming_histograms(n, r, variant):
    """One pass over the full space: weight histogram per (a1, a2)."""
    stat = Statistic(VARIANT_STATS[variant])
    buckets = {}
    for word in itertools.product(range(r), repeat=n):
        key = (evaluate_statistic(stat, word) % n, sum(word) % r)
        hwt = sum(1 for x in word if x)
        hist = buckets.setdefault(key, {})
        hist[hwt] = hist.get(hwt, 0) + 1
    return buckets


def test_criterion_1_paper_value_regression():
    watch = Stopwatch(1.0)
    for (a1, a2), value in T33_GRID.items():
        assert tenengolts_cardinality(3, 3, a1, a2) == value
    for (a1, a2), expected in T33_SETS.items():
        assert words_of(make_family("tenengolts", n=3, r=3, a1=a1, a2=a2)) == expected
    for variant, table in T23_SETS.items():
        for (a1, a2), expected in table.items():
            spec = make_family("tenengolts", n=2, r=3, a1=a1, a2=a2, variant=variant)
            assert words_of(spec) == expected
    elapsed = watch.check("criterion 1")
    print(f"\nPASS criterion 1: cardinality grid and codeword tables exact ({elapsed:.2f}s)")


def test_criterion_2_paper_enumerator_regression():
    watch = Stopwatch(1.0)
    assert str(tenengolts_hamming(3, 3, 0, 0).poly) == "1 + 2*w^2 + 2*w^3"
    extended = compute(make_family("tenengolts", n=3, r=3, a1=0, a2=0), "extended", "theorem1")
    assert str(specialize(extended, "complete").poly) == "w0^3 + 2*w0*w1*w2 + w1^3 + w2^3"
    assert str(specialize(extended, "hamming").poly) == "1 + 2*w^2 + 2*w^3"
    assert extended.poly == MultiPoly(
        ("z1", "z2", "w0", "w1", "w2"),
        {
            (0, 0, 3, 0, 0): 1,
            (0, 3, 1, 1, 1): 1,
            (0, 3, 0, 3, 0): 1,
            (3, 3, 1, 1, 1): 1,
            (0, 6, 0, 0, 3): 1,
        },
    )
    elapsed = watch.check("criterion 2")
    print(f"\nPASS criterion 2: extended/complete/Hamming enumerators exact ({elapsed:.2f}s)")


def test_criterion_3_oracle_equivalence_sweep():
    watch = Stopwatch(60.0)
    checks = 0

    # descent/sum codes: closed forms vs one brute-force pass per space
    for n in range(1, 7):
        for r in range(1, 5):
            for variant in (">", ">=", "<", "<="):
                buckets = hamming_histograms(n, r, variant)
                for a1 in range(n):
                    for a2 in range(r):
                        hist = buckets.get((a1, a2), {})
                        closed = tenengolts_hamming(n, r, a1, a2, variant)
                        assert closed.poly.terms == {(d,): c for d, c in hist.items()}
                        assert tenengolts_cardinality(n, r, a1, a2, variant) == sum(
                            hist.values()
                        )
                        checks += 1

    # 50 random linear congruence instances, half binary
    rng = random.Random(20200214)
    for i in range(50):
        r = 2 if i % 2 else rng.randint(2, 4)
        n = rng.randint(1, 8)
        m = rng.randint(1, 12)
        h = tuple(rng.randrange(max(m, 2)) for _ in range(n))
        a = rng.randrange(m)
        spec = make_family("lc", n=n, m=m, r=r, h=h, a=a)
        oracle = specialize(compute(spec, "extended", "oracle"), "hamming")
        assert compute(spec, "hamming", "closed").poly == oracle.poly
        checks += 1

    # 20 random simultaneous-congruence specs through the character sum
    pool = (OMEGA, SIGMA, DELTA, GAMMA_GT)
    for _ in range(20):
        s = rng.randint(2, 3)
        stats = rng.sample(pool, s)
        n = rng.randint(2, 5)
        r = rng.randint(2, 3)
        cons = []
        for st in stats:
            m = rng.randint(1, 6)
            cons.append((st, m, rng.randrange(m)))
        spec = CodeSpec(n, r, tuple(cons))
        engine = compute(spec, "extended", "theorem1")
        assert engine.method == "character_sum"
        assert engine.poly == compute(spec, "extended", "oracle").poly
        checks += 1

    elapsed = watch.check("criterion 3")
    print(f"\nPASS criterion 3: {checks} oracle-equivalence checks exact ({elapsed:.1f}s)")


def test_criterion_4_structural_invariants():
    watch = Stopwatch(30.0)
    for n in range(1, 11):
        for r in range(1, 6):
            grid = [
                tenengolts_cardinality(n, r, a1, a2)
                for a1 in range(n)
                for a2 in range(r)
            ]
            assert sum(grid) == r**n
            origin = tenengolts_cardinality(n, r, 0, 0)
            assert all(value <= origin for value in grid)

    for d in range(1, 61):
        for a in range(d):
            assert ramanujan_sum(d, a) == exponential_ramanujan(d, a)
        for a in range(-2 * d, 2 * d + 1):
            assert ramanujan_sum(d, a) == ramanujan_sum(d, a % d)

    for n in range(1, 37):
        for b in range(0, 2 * n + 1):
            total = sum(ramanujan_sum(d, b) for d in divisors(n))
            assert total == (n if b % n == 0 else 0)

    elapsed = watch.check("criterion 4")
    print(f"\nPASS criterion 4: partition, max-at-origin, Ramanujan identities ({elapsed:.1f}s)")


def test_criterion_5_q_calculus():
    watch = Stopwatch(10.0)

    # descent generating function over words of each type, brute force
    for n in range(0, 8):
        for r in (1, 2, 3):
            hist_by_type = {t: {} for t in compositions(n, r)}
            for word in itertools.product(range(r), repeat=n):
                t = type_vector(word, r)
                g = evaluate_statistic(GAMMA_GT, word)
                hist_by_type[t][g] = hist_by_type[t].get(g, 0) + 1
            for t, hist in hist_by_type.items():
                assert hist == {e: c for (e,), c in q_multinomial(t).terms.items()}

    # closed-form value at each primitive root vs exact polynomial evaluation
    for total in range(1, 11):
        for r in (2, 3, 4):
            for t in compositions(total, r):
                poly = q_multinomial(t)
                for d in divisors(total):
                    value = cyc.value(cyc.fold(d, ((e, c) for (e,), c in poly.terms.items())))
                    assert value == q_multinomial_at_root(t, d)

    elapsed = watch.check("criterion 5")
    print(f"\nPASS criterion 5: descent identity and root-of-unity limits ({elapsed:.1f}s)")


def test_criterion_6_macwilliams():
    watch = Stopwatch(30.0)
    rng = random.Random(1984)
    verified = 0
    while verified < 100:
        r = rng.randint(2, 6)
        s = rng.randint(1, 3)
        n = rng.randint(s, 6)
        rows = [[rng.randrange(r) for _ in range(n)] for _ in range(s)]
        code = build_code(r, rows)
        if len(code.dual) != r**s:
            continue
        report = verify_macwilliams(code)
        assert report.verified, f"duality failed at r={r} H={rows}"
        assert len(code.code) * len(code.dual) == r**n
        spec = make_family("linear_code", r=r, rows=rows)
        complete = specialize(compute(spec, "extended", "theorem1"), "complete")
        assert complete.poly == complete_weight_enumerator(code.code, r)
        verified += 1
    elapsed = watch.check("criterion 6")
    print(f"\nPASS criterion 6: MacWilliams identity on {verified} random codes ({elapsed:.1f}s)")


def test_criterion_7_integrality_sentinel():
    """A compact rerun of every formula route under an explicit trap for
    the integrality sentinels; the full-scale sweeps above would also have
    failed loudly had any fired."""
    watch = Stopwatch(30.0)
    rng = random.Random(7777)
    try:
        for n in range(1, 6):
            for r in (2, 3):
                for a1 in range(n):
                    for a2 in range(r):
                        tenengolts_hamming(n, r, a1, a2)
                        tenengolts_cardinality(n, r, a1, a2)
        for _ in range(10):
            n, m, r = rng.randint(1, 6), rng.randint(1, 10), rng.randint(2, 4)
            h = tuple(rng.randrange(max(m, 2)) for _ in range(n))
            compute(lc(n, m, r, h, rng.randrange(m)), "hamming", "closed")
        for _ in range(6):
            spec = CodeSpec(
                rng.randint(2, 4),
                rng.randint(2, 3),
                (
                    (GAMMA_GT, rng.randint(1, 5), 0),
                    (SIGMA, rng.randint(1, 5), 1),
                ),
            )
            compute(spec, "extended", "theorem1")
        for _ in range(10):
            r, s = rng.randint(2, 5), rng.randint(1, 2)
            n = rng.randint(s, 5)
            rows = [[rng.randrange(r) for _ in range(n)] for _ in range(s)]
            code = build_code(r, rows)
            if len(code.dual) == r**s:
                verify_macwilliams(code)
    except IntegralityError as exc:  # pragma: no cover - must never happen
        pytest.fail(f"integrality sentinel fired: {exc}")
    elapsed = watch.check("criterion 7")
    print(f"\nPASS criterion 7: no integrality sentinel fired ({elapsed:.1f}s)")
