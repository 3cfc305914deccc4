import itertools
import random
from math import gcd

import pytest

from ntcodes.codes import (
    CodeSpec,
    DELTA,
    GAMMA_GT,
    OMEGA,
    FAMILIES,
    SIGMA,
    enumerate_codewords,
    make_family,
)
from ntcodes.enumerators import (
    Enumerator,
    argmax_cardinality,
    blc_hamming,
    compute,
    enumerator_from_dict,
    enumerator_to_dict,
    full_space_enumerator,
    lc_hamming,
    oracle_extended,
    specialize,
    tenengolts_cardinality,
    tenengolts_hamming,
    tenengolts_variant_transform,
    theorem1_extended,
)
from ntcodes.exactalg import MultiPoly, cyc_root

T33_VARS = ("z1", "z2", "w0", "w1", "w2")
T33_EXTENDED = MultiPoly(
    T33_VARS,
    {
        (0, 0, 3, 0, 0): 1,
        (0, 3, 1, 1, 1): 1,
        (0, 3, 0, 3, 0): 1,
        (3, 3, 1, 1, 1): 1,
        (0, 6, 0, 0, 3): 1,
    },
)


def hamming_oracle(spec, budget=None):
    hist = {}
    for word in enumerate_codewords(spec, budget):
        hwt = sum(1 for x in word if x)
        hist[hwt] = hist.get(hwt, 0) + 1
    return MultiPoly(("w",), {(d,): c for d, c in hist.items()})


def test_oracle_extended_t33():
    enum = oracle_extended(make_family("tenengolts", n=3, r=3, a1=0, a2=0))
    assert enum.poly == T33_EXTENDED
    assert str(enum.poly) == (
        "w0^3 + z2^3*w0*w1*w2 + z2^3*w1^3 + z1^3*z2^3*w0*w1*w2 + z2^6*w2^3"
    )
    assert enum.method == "oracle"


def test_oracle_on_empty_and_tiny_codes():
    empty = CodeSpec(2, 2, ((SIGMA, 4, 3),))
    assert oracle_extended(empty).poly == MultiPoly.zero(("z1", "w0", "w1"))
    one_symbol = CodeSpec(1, 2, ((SIGMA, 1, 0),))
    enum = oracle_extended(one_symbol)
    assert enum.poly == MultiPoly(
        ("z1", "w0", "w1"), {(0, 1, 0): 1, (1, 0, 1): 1}
    )


def test_specialize_chain():
    enum = oracle_extended(make_family("tenengolts", n=3, r=3, a1=0, a2=0))
    complete = specialize(enum, "complete")
    assert str(complete.poly) == "w0^3 + 2*w0*w1*w2 + w1^3 + w2^3"
    hamming = specialize(complete, "hamming")
    assert str(hamming.poly) == "1 + 2*w^2 + 2*w^3"
    assert specialize(hamming, "cardinality") == 5
    assert specialize(enum, "hamming").poly == hamming.poly
    assert enum.cardinality() == 5
    with pytest.raises(ValueError):
        specialize(hamming, "complete")


def test_full_space_product_form():
    poly = full_space_enumerator(2, 2, (OMEGA,))
    w0 = MultiPoly.variable(("z1", "w0", "w1"), "w0")
    w1 = MultiPoly.variable(("z1", "w0", "w1"), "w1")
    z = MultiPoly.variable(("z1", "w0", "w1"), "z1")
    assert poly == (w0 + w1 * z) * (w0 + w1 * z**2)


def test_full_space_single_symbol():
    poly = full_space_enumerator(1, 3, (SIGMA, DELTA))
    assert poly == MultiPoly(
        ("z1", "z2", "w0", "w1", "w2"),
        {(0, 0, 1, 0, 0): 1, (1, 0, 0, 1, 0): 1, (2, 0, 0, 0, 1): 1},
    )


def test_full_space_descent_sum_matches_brute_force():
    from ntcodes.codes import Statistic, evaluate_statistic, type_vector

    for n, r in [(3, 3), (4, 2), (2, 4)]:
        closed = full_space_enumerator(n, r, (GAMMA_GT, SIGMA))
        terms = {}
        for word in itertools.product(range(r), repeat=n):
            key = (
                evaluate_statistic(GAMMA_GT, word),
                evaluate_statistic(SIGMA, word),
            ) + type_vector(word, r)
            terms[key] = terms.get(key, 0) + 1
        assert closed.terms == terms


def test_full_space_descent_sum_w0w1w2_coefficient():
    poly = full_space_enumerator(3, 3, (GAMMA_GT, SIGMA))
    got = {
        exps[:2]: c for exps, c in poly.terms.items() if exps[2:] == (1, 1, 1)
    }
    assert got == {(0, 3): 1, (1, 3): 2, (2, 3): 2, (3, 3): 1}


def test_theorem1_matches_oracle_descent_sum():
    for n in range(1, 5):
        for r in (2, 3):
            for a1 in range(n):
                for a2 in range(r):
                    spec = make_family("tenengolts", n=n, r=r, a1=a1, a2=a2)
                    engine = theorem1_extended(spec)
                    assert engine.method == "character_sum"
                    assert engine.poly == oracle_extended(spec).poly


def test_theorem1_trivial_modulus_gives_full_space():
    spec = CodeSpec(3, 2, ((OMEGA, 1, 0),))
    engine = theorem1_extended(spec)
    assert engine.poly == full_space_enumerator(3, 2, (OMEGA,))


def test_theorem1_cardinality_example():
    spec = make_family("tenengolts", n=3, r=3, a1=1, a2=0)
    assert specialize(theorem1_extended(spec), "cardinality") == 2


def test_theorem1_fast_path_and_forced_character_sum_agree():
    # mixed statistics fall back to an enumeration-built full space
    spec = CodeSpec(4, 3, ((GAMMA_GT, 3, 1), (DELTA, 2, 1), (SIGMA, 3, 0)))
    fast = theorem1_extended(spec)
    assert fast.method == "oracle"
    forced = theorem1_extended(spec, force_character_sum=True)
    assert forced.method == "character_sum"
    assert fast.poly == forced.poly == oracle_extended(spec).poly


def test_theorem1_random_simultaneous_specs():
    rng = random.Random(7)
    pool = (OMEGA, SIGMA, DELTA, GAMMA_GT)
    for _ in range(8):
        s = rng.randint(2, 3)
        stats = rng.sample(pool, s)
        n = rng.randint(2, 5)
        r = rng.randint(2, 3)
        cons = []
        for st in stats:
            m = rng.randint(1, 6)
            cons.append((st, m, rng.randrange(m)))
        spec = CodeSpec(n, r, tuple(cons))
        engine = theorem1_extended(spec, force_character_sum=True)
        assert engine.poly == oracle_extended(spec).poly


def test_negative_weights_rejected_by_enumerator_paths():
    from ntcodes.codes import linear

    bad = CodeSpec(2, 2, ((linear((-1, 2)), 3, 0),))
    with pytest.raises(ValueError):
        theorem1_extended(bad)
    # the oracle complains only when a codeword actually hits a negative value
    member_negative = CodeSpec(2, 2, ((linear((-1, 2)), 3, 2),))
    with pytest.raises(ValueError):
        oracle_extended(member_negative)


def test_lc_hamming_examples():
    enum = lc_hamming(4, 5, 2, (1, 2, 3, 4), 0)
    assert enum.poly == hamming_oracle(make_family("binary_vt", n=4, a=0))
    assert enum.cardinality() == 4
    # whole space at m=1
    whole = lc_hamming(3, 1, 3, (1, 1, 1), 0)
    w = MultiPoly(("w",), {(1,): 1})
    assert whole.poly == (1 + 2 * w) ** 3
    # single position fixed to zero
    assert lc_hamming(1, 2, 2, (1,), 0).poly == MultiPoly.constant(("w",), 1)
    assert blc_hamming(4, 5, (1, 2, 3, 4), 0).poly == enum.poly


def test_lc_hamming_negative_weights():
    # the Hamming closed form has no z-exponents, so any integer weights work
    h = (-1, 2, 5)
    m, r, a = 3, 3, 1
    enum = lc_hamming(3, m, r, h, a)
    hist = {}
    for word in itertools.product(range(r), repeat=3):
        if sum(hi * x for hi, x in zip(h, word)) % m == a:
            hwt = sum(1 for x in word if x)
            hist[hwt] = hist.get(hwt, 0) + 1
    assert enum.poly == MultiPoly(("w",), {(d,): c for d, c in hist.items()})


def test_lc_hamming_random_against_oracle():
    rng = random.Random(11)
    for _ in range(12):
        r = rng.randint(2, 4)
        n = rng.randint(1, 6)
        m = rng.randint(1, 9)
        h = tuple(rng.randrange(max(m, 2)) for _ in range(n))
        a = rng.randrange(m)
        spec = make_family("lc", n=n, m=m, r=r, h=h, a=a)
        assert lc_hamming(n, m, r, h, a).poly == hamming_oracle(spec)


def test_tenengolts_hamming_paper_example():
    enum = tenengolts_hamming(3, 3, 0, 0)
    assert str(enum.poly) == "1 + 2*w^2 + 2*w^3"
    assert enum.method == "closed_form"


def test_tenengolts_hamming_single_position():
    for r in (2, 3, 5):
        for a2 in range(r):
            enum = tenengolts_hamming(1, r, 0, a2)
            assert enum.cardinality() == 1
            assert tenengolts_cardinality(1, r, 0, a2) == 1


def test_tenengolts_cardinality_paper_grid():
    expected = {
        (0, 0): 5,
        (1, 0): 2,
        (2, 0): 2,
        (0, 1): 3,
        (0, 2): 3,
        (1, 1): 3,
        (1, 2): 3,
        (2, 1): 3,
        (2, 2): 3,
    }
    for (a1, a2), value in expected.items():
        assert tenengolts_cardinality(3, 3, a1, a2) == value


def test_tenengolts_closed_forms_match_oracle():
    for n in range(1, 5):
        for r in (2, 3):
            for variant in (">", ">=", "<", "<="):
                for a1 in range(n):
                    for a2 in range(r):
                        spec = make_family(
                            "tenengolts", n=n, r=r, a1=a1, a2=a2, variant=variant
                        )
                        oracle = hamming_oracle(spec)
                        closed = tenengolts_hamming(n, r, a1, a2, variant)
                        assert closed.poly == oracle
                        assert tenengolts_cardinality(
                            n, r, a1, a2, variant
                        ) == oracle.evaluate({"w": 1})


def test_variant_transform_examples():
    assert tenengolts_variant_transform("<=", 2, 0) == (1, False)
    assert tenengolts_cardinality(2, 3, 0, 0, "<=") == 1
    assert tenengolts_cardinality(2, 3, 1, 0) == 1
    assert tenengolts_variant_transform("<", 3, 0) == (0, True)
    assert tenengolts_variant_transform(">=", 2, 1) == (0, True)
    assert tenengolts_cardinality(2, 3, 1, 1, ">=") == 2
    assert tenengolts_variant_transform(">", 5, 2) == (2, False)
    with pytest.raises(ValueError):
        tenengolts_variant_transform("<", 3, 3)
    with pytest.raises(ValueError):
        tenengolts_variant_transform("!=", 3, 0)


def test_variant_transform_reversal_sets():
    # the reversal flag is a set-level statement, checked against enumeration
    for n in range(1, 5):
        for r in (2, 3):
            for variant in ("<", "<=", ">="):
                for a1 in range(n):
                    base_a1, reverses = tenengolts_variant_transform(variant, n, a1)
                    for a2 in range(r):
                        var_words = set(
                            enumerate_codewords(
                                make_family(
                                    "tenengolts", n=n, r=r, a1=a1, a2=a2, variant=variant
                                )
                            )
                        )
                        base_words = set(
                            enumerate_codewords(
                                make_family("tenengolts", n=n, r=r, a1=base_a1, a2=a2)
                            )
                        )
                        if reverses:
                            base_words = {w[::-1] for w in base_words}
                        assert var_words == base_words


def test_maximum_cardinality_divisor_sum():
    # at a1 = a2 = 0 every Ramanujan weight collapses to a totient
    from ntcodes.numtheory import divisors, euler_phi

    for n in range(1, 9):
        for r in (2, 3, 4, 5):
            expected, rem = divmod(
                sum(euler_phi(d) * r ** (n // d) * gcd(r, d) for d in divisors(n)),
                n * r,
            )
            assert rem == 0
            assert tenengolts_hamming(n, r, 0, 0).poly.evaluate({"w": 1}) == expected
            assert tenengolts_cardinality(n, r, 0, 0) == expected


def test_partition_sum_and_max_at_origin():
    for n in range(1, 8):
        for r in (2, 3, 4):
            grid = [
                tenengolts_cardinality(n, r, a1, a2)
                for a1 in range(n)
                for a2 in range(r)
            ]
            assert sum(grid) == r**n
            assert max(grid) == tenengolts_cardinality(n, r, 0, 0)


def test_argmax_examples():
    assert (0, 0) in argmax_cardinality(3, 3)
    assert (1, 0) in argmax_cardinality(2, 3, ">=")
    assert argmax_cardinality(1, 4) == [(0, a2) for a2 in range(4)]
    assert (0, 0) in argmax_cardinality(5, 3, "<")
    assert (2, 0) in argmax_cardinality(4, 2, "<=")


def test_full_space_evaluation_closed_form():
    # evaluating the descent/sum full-space enumerator at root-of-unity
    # z-arguments and Hamming w collapses to a binomial-style power
    w = MultiPoly(("w",), {(1,): 1})
    for n in range(1, 7):
        for r in (2, 3, 4):
            poly = full_space_enumerator(n, r, (GAMMA_GT, SIGMA))
            for u1 in range(n):
                for u2 in range(r):
                    twisted = poly.substitute(
                        {"z1": cyc_root(n, u1), "z2": cyc_root(r, u2)}
                    )
                    mapping = {
                        v: (1 if v == "w0" else w) for v in twisted.variables
                    }
                    hv = twisted.substitute(mapping, variables=("w",))
                    lhs = hv.map_coefficients(
                        lambda c: c if isinstance(c, int) else c.to_integer()
                    )
                    g = gcd(n, u1)
                    d = n // g
                    coef = -1 + (r if (d * u2) % r == 0 else 0)
                    rhs = (1 + coef * w**d) ** g
                    assert lhs == rhs


def test_enumerator_json_schema():
    enum = tenengolts_hamming(3, 3, 0, 0)
    data = enumerator_to_dict(enum)
    assert data == {
        "kind": "hamming",
        "variables": ["w"],
        "terms": [
            {"exp": [0], "coef": "1"},
            {"exp": [2], "coef": "2"},
            {"exp": [3], "coef": "2"},
        ],
        "cardinality": "5",
        "method": "closed_form",
    }
    back = enumerator_from_dict(data)
    assert back.poly == enum.poly
    assert back.kind == enum.kind


def test_theorem1_on_shifted_vt_product_form():
    rng = random.Random(3)
    for _ in range(8):
        n = rng.randint(1, 8)
        m = rng.randint(1, 12)
        a = rng.randrange(m)
        parity = rng.randrange(2)
        spec = make_family("shifted_vt", n=n, m=m, a=a, parity=parity)
        engine = theorem1_extended(spec)
        assert engine.method == "character_sum"
        assert engine.poly == oracle_extended(spec).poly


def test_theorem1_on_nonbinary_svt():
    rng = random.Random(5)
    for _ in range(4):
        n = rng.randint(2, 4)
        r = rng.randint(2, 3)
        m = rng.randint(1, 4)
        spec = make_family(
            "nonbinary_svt",
            n=n,
            r=r,
            m=m,
            a=rng.randrange(m),
            b=rng.randrange(2),
            c=rng.randrange(r),
        )
        oracle = oracle_extended(spec)
        assert theorem1_extended(spec).poly == oracle.poly
        assert theorem1_extended(spec, force_character_sum=True).poly == oracle.poly


#: (family, small parameters, whether a closed form applies at kinds
#: hamming and cardinality), covering every entry of FAMILIES
ROUTE_CASES = [
    *(
        ("tenengolts", dict(n=4, r=3, a1=1, a2=2, variant=v), True)
        for v in (">", ">=", "<", "<=")
    ),
    ("binary_vt", dict(n=5, a=2), True),
    ("levenshtein", dict(n=5, m=4, a=1), True),
    ("helberg", dict(n=5, t=2, a=3), True),
    ("le_nguyen", dict(n=4, r=3, t=1, a=2), True),
    ("ternary_integer", dict(n=3, a=4), True),
    ("odd_coefficient", dict(n=5, m=3, a=1), True),
    ("an_code", dict(p=5, a=2), True),
    ("exponential_coefficient", dict(n=4, m=3, a=2), True),
    ("lc", dict(n=4, m=5, r=3, h=(1, 2, 3, 4), a=1), True),
    ("blc", dict(n=5, m=4, h=(1, 1, 2, 3, 3), a=2), True),
    ("linear_code", dict(r=3, rows=[(1, 2, 0, 1)]), True),
    ("linear_code", dict(r=3, rows=[(1, 2, 0, 1), (0, 1, 1, 2)]), False),
    ("shifted_vt", dict(n=5, m=3, a=1, parity=0), False),
    ("han_vinck_morita", dict(n=4, a=2, b=1), False),
    ("nonbinary_svt", dict(n=4, r=3, m=4, a=1, b=0, c=2), False),
]


def test_route_cases_cover_every_family():
    assert {family for family, _, _ in ROUTE_CASES} == set(FAMILIES)


@pytest.mark.parametrize(
    "family,params,closed",
    ROUTE_CASES,
    ids=[f"{f}-{i}" for i, (f, _, _) in enumerate(ROUTE_CASES)],
)
def test_compute_routes_agree_with_oracle(family, params, closed):
    spec = make_family(family, **params)
    auto = compute(spec, "hamming")
    assert auto.poly == compute(spec, "hamming", "oracle").poly
    assert (auto.method == "closed_form") == closed
    assert compute(spec, "cardinality") == compute(spec, "cardinality", "oracle")
    for kind in ("hamming", "cardinality"):
        if closed:
            assert compute(spec, kind, "closed") == compute(spec, kind)
        else:
            with pytest.raises(ValueError, match="no closed form"):
                compute(spec, kind, "closed")
    for kind in ("extended", "complete"):
        with pytest.raises(ValueError, match=f"at kind {kind}"):
            compute(spec, kind, "closed")


def test_compute_rejects_unknown_kind_and_method():
    spec = make_family("binary_vt", n=3)
    with pytest.raises(ValueError, match="kind"):
        compute(spec, "weight")
    with pytest.raises(ValueError, match="method"):
        compute(spec, "hamming", "fast")
