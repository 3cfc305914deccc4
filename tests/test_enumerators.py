import itertools
import random
import tracemalloc
from math import comb, factorial, gcd, prod
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cyclotomic_reference as cyc
from ntcodes import enumerators
from ntcodes.codes import (
    BudgetExceededError,
    CodeSpec,
    DELTA,
    GAMMA_GE,
    GAMMA_GT,
    LAMBDA_LE,
    LAMBDA_LT,
    OMEGA,
    FAMILIES,
    SIGMA,
    custom,
    enumerate_codewords,
    evaluate_statistic,
    lc,
    linear,
    make_family,
)
from ntcodes.enumerators import (
    KINDS,
    Enumerator,
    _PackedSpace,
    argmax_cardinality,
    complete_weight_enumerator,
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
    w_variables,
    z_variables,
)
from ntcodes.exactalg import CycElement, IntegralityError, MultiPoly
from ntcodes.numtheory import divisors
from ntcodes.qcalc import compositions, q_multinomial

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
    assert oracle_extended(empty).poly == MultiPoly(("z1", "w0", "w1"))
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


SPECIALIZE_SPECS = [
    make_family("tenengolts", n=3, r=3, a1=0, a2=0),
    make_family("nonbinary_svt", n=4, r=3, m=4, a=1, b=0, c=2),
    CodeSpec(2, 2, ((SIGMA, 4, 3),)),  # empty
    CodeSpec(3, 1, ((OMEGA, 4, 0),)),  # r = 1: the one word 000
    CodeSpec(3, 1, ((OMEGA, 4, 1),)),  # r = 1 and empty
]


@pytest.mark.parametrize("target", ["extended", "complete", "hamming", "cardinality"])
@pytest.mark.parametrize("source", KINDS)
def test_specialize_every_kind_pair(source, target):
    for spec in SPECIALIZE_SPECS:
        enum = oracle_extended(spec) if source == "extended" else compute(spec, source, "oracle")
        if target == "cardinality":
            assert specialize(enum, target) == len(list(enumerate_codewords(spec)))
        elif target == source:
            # no projection: a Hamming enumerator's one variable is no type vector
            assert specialize(enum, target) is enum
        elif KINDS.index(target) < KINDS.index(source):
            with pytest.raises(ValueError):
                specialize(enum, target)
        else:
            got = specialize(enum, target)
            expected = compute(spec, target, "oracle").poly
            assert (got.kind, got.method, got.spec) == (target, "oracle", spec)
            # variables compared too: the zero polynomial keeps its variables
            assert (got.poly.variables, got.poly) == (expected.variables, expected)
            if target == "hamming":
                assert got.poly == hamming_oracle(spec)


def test_full_space_product_form():
    poly = full_space_enumerator(2, 2, (OMEGA,))
    # (w0 + w1 z)(w0 + w1 z^2) = w0^2 + z w0 w1 + z^2 w0 w1 + z^3 w1^2
    assert poly == MultiPoly(
        ("z1", "w0", "w1"),
        {(0, 2, 0): 1, (1, 1, 1): 1, (2, 1, 1): 1, (3, 0, 2): 1},
    )


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


@pytest.mark.parametrize("n,r", [(12, 3), (8, 4)])
def test_full_space_descent_sum_matches_q_multinomial(n, r):
    # MacMahon: the descent statistic over the words of type t is counted by
    # the q-multinomial [n; t]_q, and the symbol sum is fixed by t
    terms = {}
    for t in compositions(n, r):
        sigma = sum(j * tj for j, tj in enumerate(t))
        for (g,), c in q_multinomial(t).terms.items():
            terms[(g, sigma) + t] = c
    reference = MultiPoly(z_variables(2) + w_variables(r), terms)
    assert full_space_enumerator(n, r, (GAMMA_GT, SIGMA)) == reference


BUILTIN_STATS = (OMEGA, SIGMA, GAMMA_GT, GAMMA_GE, LAMBDA_LT, LAMBDA_LE, DELTA)


@st.composite
def full_space_cases(draw):
    n = draw(st.integers(0, 5))
    r = draw(st.integers(1, 3))
    weights = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(linear)
    stats = draw(st.lists(st.sampled_from(BUILTIN_STATS) | weights, min_size=1, max_size=3))
    return n, r, stats


@given(full_space_cases())
def test_transfer_full_space_matches_oracle_for_every_statistic(case):
    n, r, stats = case
    whole_space = CodeSpec(n, r, tuple((stat, 1, 0) for stat in stats))
    expected = oracle_extended(whole_space).poly
    with (
        mock.patch.object(enumerators, "_exact_pass", wraps=enumerators._exact_pass) as exact_pass,
        mock.patch.object(enumerators, "_scan_terms") as scan,
    ):
        space, kept = enumerators._theorem1_terms(n, r, whole_space.constraints, None, n)
        assert full_space_enumerator(n, r, stats) == expected
    # built by the exact pass, not scanned
    assert exact_pass.call_count == 2 and not scan.called
    assert space.poly(kept) == expected
    # one packed key per full-space term
    assert len(kept) == len(expected.terms)


def test_full_space_without_statistics_is_the_type_enumerator():
    # no statistic, no CodeSpec: the binomial expansion of (w0 + w1)^3
    poly = full_space_enumerator(3, 2, ())
    assert poly.variables == ("w0", "w1")
    assert str(poly) == "w0^3 + 3*w0^2*w1 + 3*w0*w1^2 + w1^3"


def test_full_space_of_a_custom_statistic_is_the_oracle_scan():
    repeats = custom(lambda word: sum(1 for i in range(1, len(word)) if word[i] == word[i - 1]))
    whole_space = CodeSpec(4, 3, ((repeats, 1, 0), (SIGMA, 1, 0)))
    assert full_space_enumerator(4, 3, (repeats, SIGMA)) == oracle_extended(whole_space).poly


def test_full_space_refuses_past_the_budget():
    # omega over [0, 3)^6: min(3^6, C(8, 2) (1 + 2 * 21)) = 729 terms
    with pytest.raises(
        BudgetExceededError, match=r"^full-space transfer pass of up to 729 terms exceeds the budget 10$"
    ):
        full_space_enumerator(6, 3, (OMEGA,), budget=10)


def test_packed_key_round_trip_and_carry():
    space = _PackedSpace(("z1", "w0", "w1"), (3, 2, 2))
    assert space.strides == (1, 3, 6)
    for exps in itertools.product(range(3), range(2), range(2)):
        assert space.unpack(space.pack(exps)) == exps
    # 3 * 2 * 2, the key of exponents (0, 0, 2), carries past the last digit
    with pytest.raises(IntegralityError, match="past its last digit"):
        space.unpack(space.pack((0, 0, 2)))


def test_custom_statistic_full_space_is_enumerated():
    repeats = custom(lambda word: sum(1 for i in range(1, len(word)) if word[i] == word[i - 1]))
    spec = CodeSpec(4, 3, ((repeats, 2, 1), (SIGMA, 3, 0)))
    # the full space is scanned once, with no exact pass
    with (
        mock.patch.object(enumerators, "_exact_pass") as exact_pass,
        mock.patch.object(enumerators, "_scan_terms", wraps=enumerators._scan_terms) as scan,
    ):
        engine = theorem1_extended(spec)
    assert scan.call_count == 1 and not exact_pass.called
    (scanned, _), _ = scan.call_args
    assert scanned == CodeSpec(4, 3, ((repeats, 1, 0), (SIGMA, 1, 0)))
    assert engine.method == "character_sum"
    assert engine.poly == oracle_extended(spec).poly


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
    # mixed statistics take the transfer-built full space through the
    # residue join and keep the theorem-1 label
    spec = CodeSpec(4, 3, ((GAMMA_GT, 3, 1), (DELTA, 2, 1), (SIGMA, 3, 0)))
    fast = theorem1_extended(spec)
    assert fast.method == "character_sum"
    assert fast.poly == oracle_extended(spec).poly


def test_theorem1_rejects_negative_full_space_coefficient(monkeypatch):
    # binary_vt n=2 takes k = n; the single pass's term of the word 00, the
    # left half's count of exponents (0, 2, 0), is given the count -1
    spec = make_family("binary_vt", n=2, a=0)
    assert enumerators._split_point(spec, None) == spec.n
    exact_pass = enumerators._exact_pass

    def negating(*args):
        space, run = exact_pass(*args)

        def run_negated(positions, states):
            out = run(positions, states)
            if positions == range(spec.n):
                key = space.pack((0, 2, 0))
                out[None][key] = -out[None][key]
            return out

        return space, run_negated

    monkeypatch.setattr(enumerators, "_exact_pass", negating)
    with pytest.raises(IntegralityError, match=r"negative full-space coefficient -1 for \(0, 2, 0\)"):
        theorem1_extended(spec)


def test_theorem1_rejects_negative_half_space_count(monkeypatch):
    # ternary_integer n=8 splits at k=4; the right half's first term, the
    # word 0000 of positions 4..7, is given the count -1
    spec = make_family("ternary_integer", n=8, a=5)
    assert enumerators._split_point(spec, None) == 4
    exact_pass = enumerators._exact_pass

    def negating(*args):
        space, run = exact_pass(*args)

        def run_negated(positions, states):
            out = run(positions, states)
            if positions.start:
                for terms in out.values():
                    first = next(iter(terms))
                    terms[first] = -terms[first]
            return out

        return space, run_negated

    monkeypatch.setattr(enumerators, "_exact_pass", negating)
    with pytest.raises(IntegralityError, match=r"negative full-space coefficient -1 for \(0, 4, 0, 0\)"):
        theorem1_extended(spec)


def _top_word_spec(n, r, stats):
    # each statistic's residue is its value on the word of all r - 1, with a
    # modulus above it, so the kept terms sit at the top of the digits
    word = (r - 1,) * n
    return CodeSpec(n, r, tuple((st, v + 1, v) for st in stats for v in [evaluate_statistic(st, word)]))


@st.composite
def theorem1_specs(draw):
    n = draw(st.integers(0, 6))
    r = draw(st.integers(1, 4))
    weights = st.lists(st.integers(0, 5), min_size=n, max_size=n).map(linear)
    stats = draw(st.lists(st.sampled_from(BUILTIN_STATS) | weights, min_size=1, max_size=3))
    cons = []
    for stat in stats:
        m = draw(st.integers(1, 12))
        cons.append((stat, m, draw(st.integers(0, m - 1))))
    return CodeSpec(n, r, tuple(cons))


@given(theorem1_specs())
@example(CodeSpec(0, 3, ((OMEGA, 4, 0), (GAMMA_GT, 2, 0))))
@example(CodeSpec(5, 1, ((SIGMA, 3, 0), (LAMBDA_LT, 2, 0), (linear((1, 0, 2, 0, 3)), 5, 0))))
@example(CodeSpec(4, 3, ((DELTA, 1, 0), (linear((2, 0, 1, 3)), 1, 0))))
@example(_top_word_spec(4, 4, (OMEGA, SIGMA, GAMMA_GE)))
@example(_top_word_spec(5, 3, (linear((1, 2, 0, 3, 1)), LAMBDA_LE, DELTA)))
def test_theorem1_matches_oracle_with_real_moduli(spec):
    engine = theorem1_extended(spec)
    assert engine.method == "character_sum"
    expected = oracle_extended(spec).poly
    assert (engine.poly.variables, engine.poly) == (expected.variables, expected)


def test_theorem1_top_word_is_kept():
    spec = _top_word_spec(4, 4, (OMEGA, SIGMA, GAMMA_GE))
    # omega 3 * 10, sigma 3 * 4 and gamma_ge 1 + 2 + 3 of the word 3333
    assert theorem1_extended(spec).poly.terms == {(30, 12, 6, 0, 0, 0, 4): 1}


def test_theorem1_builds_only_the_kept_terms(monkeypatch):
    # the full space stays packed: the one MultiPoly built holds the kept terms
    spec = make_family("ternary_integer", n=8, a=5)
    built = []
    init = MultiPoly.__init__

    def counting(self, variables, terms=None):
        built.append(len(terms or ()))
        init(self, variables, terms)

    monkeypatch.setattr(MultiPoly, "__init__", counting)
    result = compute(spec, "extended", "theorem1")
    assert built == [len(result.poly.terms)]
    (con,) = spec.constraints
    assert result.poly.terms and all((e[0] - con.a) % con.m == 0 for e in result.poly.terms)


@pytest.mark.parametrize(
    "spec",
    [
        make_family("ternary_integer", n=14, a=5),
        make_family("tenengolts", n=12, r=4, a1=0, a2=0),
        make_family("nonbinary_svt", n=40, r=3, m=13, a=0, b=0, c=0),
    ],
    ids=["product", "descent_sum", "nonbinary_svt"],
)
def test_theorem1_budget_checked_before_expansion(spec):
    with pytest.raises(BudgetExceededError, match="budget 1000"):
        theorem1_extended(spec, budget=1000)


@st.composite
def split_specs(draw):
    n = draw(st.integers(0, 8))
    r = draw(st.integers(1, 4 if n <= 6 else 3))
    weights = st.lists(st.integers(0, 5), min_size=n, max_size=n).map(linear)
    stats = draw(st.lists(st.sampled_from(BUILTIN_STATS) | weights, min_size=1, max_size=3))
    cons = []
    for stat in stats:
        m = draw(st.integers(1, 15))
        cons.append((stat, m, draw(st.integers(0, m - 1))))
    return CodeSpec(n, r, tuple(cons))


@given(split_specs())
@example(CodeSpec(0, 3, ((GAMMA_GT, 4, 0), (OMEGA, 2, 0))))
@example(CodeSpec(1, 2, ((DELTA, 3, 0), (OMEGA, 2, 1))))
@example(CodeSpec(5, 1, ((LAMBDA_LE, 2, 0), (SIGMA, 3, 0))))
@example(CodeSpec(4, 3, ((GAMMA_GE, 1, 0), (linear((2, 0, 1, 3)), 1, 0))))
@example(_top_word_spec(4, 4, (OMEGA, SIGMA, GAMMA_GE)))
@example(_top_word_spec(5, 3, (linear((1, 2, 0, 3, 1)), LAMBDA_LT, DELTA)))
def test_theorem1_join_at_every_split_point(spec):
    # k = n joins the single pass with the empty right half; every other k
    # joins the two halves, or continues the left one where the pairs
    # outnumber the single pass's bound and joins it with the empty half
    def kept(k):
        return enumerators._theorem1_terms(spec.n, spec.r, spec.constraints, None, k)

    space, single = kept(spec.n)
    expected = oracle_extended(spec).poly
    assert (space.variables, space.poly(single)) == (expected.variables, expected)
    for k in range(spec.n):
        assert kept(k)[1] == single


@pytest.mark.parametrize(
    "spec, budget, k",
    [
        (make_family("levenshtein", n=40, m=3, a=0), None, 40),
        (make_family("shifted_vt", n=40, m=5, a=0, parity=0), None, 40),
        (make_family("ternary_integer", n=16, a=5), None, 8),
        (make_family("exponential_coefficient", n=18, m=18, a=5), None, 9),
        # a half of 3^8 terms is over the budget: the single pass's refusal
        (make_family("ternary_integer", n=16, a=5), 1000, 16),
        (make_family("binary_vt", n=2, a=0), None, 2),
        (CodeSpec(12, 3, ((custom(sum), 7, 0),)), None, 12),
    ],
    ids=["levenshtein", "shifted_vt", "ternary_integer", "exponential_coefficient", "budget", "tiny", "custom"],
)
def test_split_point_is_read_off_the_statistics(spec, budget, k):
    assert enumerators._split_point(spec, budget) == k


def test_theorem1_continues_the_left_half_past_the_single_pass_bound():
    # zero weights put every term at residue 0: the halves' 495 terms each
    # would make 495^2 = 245025 pairs, over the single pass's bound of
    # C(20, 4) = 4845 terms, so the left half continues over positions
    # 8..15 and is joined with the empty right half instead; no pair of the
    # two halves is formed
    spec = lc(16, 1000, 5, [0] * 16, 0)
    assert enumerators._split_point(spec, None) == 8
    tracemalloc.start()
    try:
        result = theorem1_extended(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert result.poly == full_space_enumerator(16, 5, [linear([0] * 16)])
    assert result.cardinality() == 5**16


def test_theorem1_refuses_join_pairs_past_the_budget():
    # weights 1000 * 3^j are 0 mod 1000 and keep every sum distinct: halves
    # of 3^6 terms fit the budget, their 3^12 pairs and the single pass's
    # 3^12 terms do not, so the single pass's refusal comes before any pair
    spec = lc(12, 1000, 3, [1000 * 3**j for j in range(12)], 0)
    assert enumerators._split_point(spec, 10_000) == 6
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="pass of up to 531441 terms exceeds the budget 10000"):
            theorem1_extended(spec, budget=10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("kind", ["hamming", "complete"])
def test_theorem1_matches_the_residue_pass_beyond_the_oracle(kind):
    # ternary_integer n=12 (3^12 words, modulus 2^13 + 1): the join of two
    # half passes against the residue pass, bit for bit
    spec = make_family("ternary_integer", n=12, a=5)
    joined = compute(spec, kind, "theorem1")
    assert joined.method == "character_sum"
    assert joined.poly.terms and joined.poly == compute(spec, kind).poly


@pytest.mark.parametrize(
    "family,params",
    [
        ("ternary_integer", dict(n=8, a=0)),
        ("ternary_integer", dict(n=8, a=100)),
        ("exponential_coefficient", dict(n=9, m=9, a=0)),
        ("exponential_coefficient", dict(n=9, m=9, a=37)),
    ],
)
def test_theorem1_matches_oracle_at_order_513(family, params):
    spec = make_family(family, **params)
    for kind in ("extended", "complete", "hamming"):
        assert compute(spec, kind, "theorem1").poly == compute(spec, kind, "oracle").poly
    assert compute(spec, "cardinality", "theorem1") == compute(spec, "cardinality", "oracle")


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
        engine = theorem1_extended(spec)
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


NEGATIVE_WEIGHT_SPECS = [
    make_family("lc", n=3, m=5, r=3, h=(-1, 2, 3), a=1),
    make_family("lc", n=4, m=3, r=2, h=(-3, -7, 2, 5), a=2),
    # no closed form: the residue-keyed transfer pass under auto
    CodeSpec(4, 3, ((linear((-2, 1, -5, 3)), 4, 1), (GAMMA_GT, 3, 0))),
    CodeSpec(3, 2, ((linear((-1, -1, -1)), 2, 1), (linear((1, -2, 4)), 3, 0))),
]


@pytest.mark.parametrize("method", ["auto", "theorem1"])
@pytest.mark.parametrize("kind", ["complete", "hamming", "cardinality"])
def test_negative_linear_weights_below_extended_match_oracle(kind, method):
    for spec in NEGATIVE_WEIGHT_SPECS:
        got = compute(spec, kind, method)
        expected = compute(spec, kind, "oracle")
        if kind == "cardinality":
            assert got == expected
        else:
            assert got.poly == expected.poly and got.kind == kind and got.spec == spec
        with pytest.raises(ValueError, match="negative"):
            compute(spec, "extended", method)


def test_lc_hamming_examples():
    enum = lc_hamming(4, 5, 2, (1, 2, 3, 4), 0)
    assert enum.poly == hamming_oracle(make_family("binary_vt", n=4, a=0))
    assert enum.cardinality() == 4
    # whole space at m=1
    whole = lc_hamming(3, 1, 3, (1, 1, 1), 0)
    # (1 + 2w)^3 = 1 + 6w + 12w^2 + 8w^3
    assert whole.poly == MultiPoly(("w",), {(0,): 1, (1,): 6, (2,): 12, (3,): 8})
    # single position fixed to zero
    assert lc_hamming(1, 2, 2, (1,), 0).poly == MultiPoly(("w",), {(0,): 1})
    # the binary code is r = 2
    blc = make_family("blc", n=5, m=4, h=(1, 1, 2, 3, 3), a=2)
    assert lc_hamming(5, 4, 2, (1, 1, 2, 3, 3), 2).poly == hamming_oracle(blc)


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


def twisted_point_lc_hamming(n, m, r, h, a):
    """The paper's character sum for the linear congruence code,
    (1/m) sum_u e(-au/m) prod_j (1 + w sum_{k>=1} e(h_j k u/m)), evaluated
    at the twisted points in Z[x]/(x^m - 1) and divided exactly by m."""
    zero = [0] * m
    totals = [zero] * (n + 1)
    for u in range(m):
        cur = [cyc.fold(m, [(0, 1)])]
        for j in range(n):
            inner = cyc.fold(m, ((h[j] * k * u, 1) for k in range(1, r)))
            shifted = [zero] + [cyc.convolve(c, inner) for c in cur]
            cur = [cyc.add(c, s) for c, s in zip(cur + [zero], shifted)]
        pref = cyc.fold(m, [(-a * u, 1)])
        for d in range(n + 1):
            totals[d] = cyc.add(totals[d], cyc.convolve(pref, cur[d]))
    terms = {}
    for d, total in enumerate(totals):
        q, rem = divmod(cyc.value(total), m)
        assert rem == 0 and q >= 0
        if q:
            terms[(d,)] = q
    return MultiPoly(("w",), terms)


@st.composite
def lc_cases(draw):
    """(n, m, r, h, a) with moduli rich in divisors, negative weights and
    weights that are multiples of a divisor of m."""
    n = draw(st.integers(0, 6))
    r = draw(st.integers(1, 4))
    m = draw(st.sampled_from((12, 24, 30)) | st.integers(1, 31))
    d = draw(st.sampled_from(divisors(m)))
    weight = st.integers(-2 * m, 2 * m) | st.integers(-3, 3).map(lambda k: k * d)
    h = tuple(draw(st.lists(weight, min_size=n, max_size=n)))
    return n, m, r, h, draw(st.integers(0, m - 1))


@given(lc_cases())
@example((0, 5, 2, (), 0))
def test_lc_hamming_matches_oracle(case):
    n, m, r, h, a = case
    spec = CodeSpec(n, r, ((linear(h), m, a),))
    assert lc_hamming(n, m, r, h, a).poly == hamming_oracle(spec)


def test_lc_hamming_equals_twisted_point_sum():
    rng = random.Random(2024)
    for _ in range(30):
        n, r = rng.randint(0, 5), rng.randint(1, 4)
        m = rng.choice((12, 24, 30, rng.randint(1, 20)))
        d = rng.choice(divisors(m))
        h = tuple(rng.choice((rng.randint(-m, 2 * m), d * rng.randint(-2, 2))) for _ in range(n))
        a = rng.randrange(m)
        assert lc_hamming(n, m, r, h, a).poly == twisted_point_lc_hamming(n, m, r, h, a)


def test_lc_hamming_budget_checked_before_the_pass():
    # bound min(r^n, m (n + 1)): min(3^6, 24 * 7) = 168; the 3^6 words fill
    # at most 729 (state, weight) digits however large m is
    with pytest.raises(BudgetExceededError, match="up to 168 terms exceeds the budget 100"):
        lc_hamming(6, 24, 3, (1, 2, 3, 4, 5, 6), 0, budget=100)
    with pytest.raises(BudgetExceededError, match="up to 729 terms exceeds the budget 728"):
        lc_hamming(6, 10**7, 3, (1, 2, 3, 4, 5, 6), 0, budget=728)
    assert lc_hamming(6, 10**7, 3, (1, 2, 3, 4, 5, 6), 0, budget=729).cardinality() == 1
    # the cardinality carries no Hamming weight: min(3^6, 24) = 24
    spec = make_family("lc", n=6, m=24, r=3, h=(1, 2, 3, 4, 5, 6), a=0)
    with pytest.raises(BudgetExceededError, match="up to 24 terms exceeds the budget 23"):
        compute(spec, "cardinality", budget=23)
    assert compute(spec, "cardinality", budget=24) == lc_hamming(6, 24, 3, (1, 2, 3, 4, 5, 6), 0).cardinality()


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_lc_hamming_packed_digits_at_their_widest(r):
    # modulus 1: the one residue holds all r^n words, so each packed
    # Hamming digit reaches its largest count C(n, k) (r - 1)^k
    rng = random.Random(r)
    for n in range(65):
        h = tuple(rng.randint(-9, 9) for _ in range(n))
        enum = lc_hamming(n, 1, r, h, 0)
        expected = {(k,): comb(n, k) * (r - 1) ** k for k in range(n + 1)}
        assert enum.poly == MultiPoly(("w",), expected)
        assert enum.spec == CodeSpec(n, r, ((linear(h), 1, 0),))
        assert enum.cardinality() == r**n


@pytest.mark.parametrize("excess", [0, 10**9], ids=["keyed", "packed"])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_residue_pass_packed_type_vectors_at_their_widest(r, excess, monkeypatch):
    # modulus 1: the one residue holds all r^n words, so the digit of each
    # type vector reaches its largest count, the multinomial n! / prod tau_x!.
    # `excess` forces tau into the keys or into the digits
    monkeypatch.setattr(enumerators, "_PACKED_EXCESS", excess)
    rng = random.Random(r)
    for n in range(11):
        spec = CodeSpec(n, r, ((linear([rng.randint(-9, 9) for _ in range(n)]), 1, 0),))
        enum = compute(spec, "complete")
        expected = {
            tau: factorial(n) // prod(map(factorial, tau)) for tau in compositions(n, r)
        }
        assert enum.method == "transfer"
        assert enum.poly == MultiPoly(w_variables(r), expected)
        assert enum.cardinality() == r**n


@st.composite
def residue_pass_cases(draw, alphabets=st.integers(1, 3), lengths=st.integers(0, 5)):
    """Specs over every built-in statistic, linear weights negative and
    zero included, with 1-3 constraints, moduli down to 1, and r and n
    drawn from `alphabets` and `lengths` (by default r down to 1)."""
    n = draw(lengths)
    r = draw(alphabets)
    weights = st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(linear)
    stat = st.sampled_from(BUILTIN_STATS) | weights
    cons = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 7))
        cons.append((draw(stat), m, draw(st.integers(0, m - 1))))
    return CodeSpec(n, r, tuple(cons))


@given(residue_pass_cases(), st.sampled_from(["complete", "hamming", "cardinality"]))
@example(CodeSpec(0, 1, ((OMEGA, 1, 0),)), "hamming")
@example(CodeSpec(3, 2, ((OMEGA, 4, 1),)), "hamming")
def test_auto_below_extended_matches_oracle(spec, kind):
    got = compute(spec, kind)
    expected = compute(spec, kind, "oracle")
    if kind == "cardinality":
        assert got == expected
        return
    assert got.poly.variables == expected.poly.variables
    assert got.poly == expected.poly
    assert (got.kind, got.spec) == (kind, spec)
    try:
        compute(spec, kind, "closed")
    except ValueError:
        assert got.method == "transfer"
    else:
        assert got.method == "closed_form"


@given(residue_pass_cases(st.integers(4, 6), st.integers(0, 4)))
def test_residue_pass_matches_theorem1_over_three_or_more_digit_axes(spec):
    expected = compute(spec, "complete", "theorem1")
    for excess in (0, 10**9):  # tau in the keys, then always packed
        with mock.patch.object(enumerators, "_PACKED_EXCESS", excess):
            got = compute(spec, "complete")
        assert got.method == "transfer"
        assert got.poly.variables == expected.poly.variables
        assert got.poly == expected.poly


def test_custom_statistic_and_extended_kind_keep_theorem1():
    repeats = custom(lambda word: sum(1 for i in range(1, len(word)) if word[i] == word[i - 1]))
    with_custom = CodeSpec(4, 3, ((repeats, 2, 1), (SIGMA, 3, 0)))
    for kind in ("complete", "hamming"):
        assert compute(with_custom, kind).method == "character_sum"
        assert compute(with_custom, kind).poly == compute(with_custom, kind, "oracle").poly
    no_closed_form = make_family("nonbinary_svt", n=4, r=3, m=4, a=1, b=0, c=2)
    assert compute(no_closed_form, "extended").method == "character_sum"
    assert compute(no_closed_form, "complete").method == "transfer"


def test_residue_pass_budget_counts_states_per_last_symbol():
    # nonbinary_svt n=40 r=3 m=13: residue keys 13 * 2 * 3, kept per last
    # symbol (3), times 1 for the cardinality or n + 1 = 41 Hamming digits.
    # At "complete" a budget below the 41^2 * 234 packed digits keeps tau in
    # the keys: C(42, 2) = 861 type vectors times 234 / 3, as tau fixes sigma
    spec = make_family("nonbinary_svt", n=40, r=3, m=13, a=0, b=0, c=0)
    for kind, bound in [("cardinality", 234), ("hamming", 41 * 234), ("complete", 861 * 78)]:
        with pytest.raises(BudgetExceededError, match=f"up to {bound} terms exceeds"):
            compute(spec, kind, budget=bound - 1)
    assert compute(spec, "cardinality", budget=234) == compute(spec, "hamming").cardinality()
    # r^n caps the states, not the digits each holds: min(2^3, 100 * 2) * (3 + 1)
    # packed, against min(2^3, C(4, 1) * 100) with tau in the keys
    small = CodeSpec(3, 2, ((linear((1, 2, 3)), 100, 0), (SIGMA, 2, 0)))
    with pytest.raises(BudgetExceededError, match="up to 8 terms exceeds"):
        compute(small, "complete", budget=7)
    expected = compute(small, "complete", "oracle").poly
    assert compute(small, "complete", budget=8).poly == expected
    assert compute(small, "complete", budget=32).poly == expected


@pytest.mark.parametrize("kind", ["cardinality", "hamming", "complete"])
def test_residue_pass_refuses_before_building_weights(kind):
    # binary_vt at n = 2 * 10^6 has n + 1 residue keys, over a budget of 10.
    # The refusal comes before the n weights of omega, about 70 MB, exist
    spec = make_family("binary_vt", n=2_000_000, a=0)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="exceeds the budget 10"):
            compute(spec, kind, budget=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("kind", ["extended", "hamming"])
def test_exact_pass_refuses_before_building_weights(kind):
    # theorem 1 at n = 3 * 10^6: the bound (n + 1)(1 + n(n + 1)/2) is read
    # off the statistic, before its n weights exist or 2^n is built
    n = 3_000_000
    spec = make_family("binary_vt", n=n, a=0)
    bound = (n + 1) * (1 + n * (n + 1) // 2)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=f"up to {bound} terms exceeds the budget 10"):
            compute(spec, kind, "theorem1", budget=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_residue_pass_packs_tau_up_to_sixteen_times_its_keyed_bound(monkeypatch):
    # modulus 1, r=6: (n+1)^5 packed digits against C(n+5, 5) type vectors,
    # 3^5 = 243 <= 16 * 21 packed at n=2, 6^5 = 7776 > 16 * 252 keyed at n=5
    bounds = []
    monkeypatch.setattr(enumerators, "check_budget", lambda bound, *_: bounds.append(bound))
    for n in (2, 5):
        spec = CodeSpec(n, 6, ((linear((1,) * n), 1, 0),))
        assert compute(spec, "complete").cardinality() == 6**n
    assert bounds == [243, 252]


@pytest.mark.parametrize("n, r, keyed", [(13, 3, 4_095), (7, 7, 84_084), (6, 8, 82_368)])
def test_residue_pass_keeps_tau_in_the_keys_where_packing_does_not_pay(n, r, keyed):
    # tenengolts at "complete", keyed = min(r^n, C(n+r-1, r-1) keys / r).
    # Packed tau holds (n+1)^(r-1) digits per state: 14^2 * 117 = 22,932 at
    # n=13 r=3 (packed), but 8^6 * 343 and 7^7 * 384 at r >= 7, past the
    # default budget, where the type-vector keys answer.  A budget below
    # the packed digits falls back to the keys, whose bound it then meets
    spec = make_family("tenengolts", n=n, r=r, a1=0, a2=0)
    with pytest.raises(BudgetExceededError, match=f"up to {keyed} terms exceeds"):
        compute(spec, "complete", budget=keyed - 1)
    enum = compute(spec, "complete")
    assert enum.method == "transfer"
    assert enum.cardinality() == tenengolts_cardinality(n, r, 0, 0)
    assert specialize(enum, "hamming").poly == tenengolts_hamming(n, r, 0, 0).poly


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
                        ) == sum(oracle.terms.values())


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
            assert tenengolts_hamming(n, r, 0, 0).cardinality() == expected
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
    for n in range(1, 7):
        for r in (2, 3, 4):
            poly = full_space_enumerator(n, r, (GAMMA_GT, SIGMA))
            order = n * r
            for u1 in range(n):
                for u2 in range(r):
                    # z1 = e(u1/n), z2 = e(u2/r), w0 = 1 and every other w_j = w
                    by_weight = {}
                    for (k1, k2, _, *tau), c in poly.terms.items():
                        twist = (k1 * u1 * r + k2 * u2 * n, c)
                        by_weight.setdefault(sum(tau), []).append(twist)
                    lhs = MultiPoly(
                        ("w",),
                        {(d,): cyc.value(cyc.fold(order, t)) for d, t in by_weight.items()},
                    )
                    g = gcd(n, u1)
                    d = n // g
                    coef = -1 + (r if (d * u2) % r == 0 else 0)
                    # (1 + coef w^d)^g by the binomial theorem
                    rhs = {(d * k,): comb(g, k) * coef**k for k in range(g + 1)}
                    assert lhs == MultiPoly(("w",), rhs)


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
    oracle = compute(spec, "hamming", "oracle")
    assert auto.poly == oracle.poly
    # only a forced oracle says "oracle"; without a closed form the
    # residue-keyed transfer pass answers
    assert auto.method == ("closed_form" if closed else "transfer")
    assert oracle.method == "oracle"
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


@pytest.mark.parametrize(
    "family,params",
    [(f, p) for f, p, _ in ROUTE_CASES],
    ids=[f"{f}-{i}" for i, (f, _, _) in enumerate(ROUTE_CASES)],
)
def test_oracle_below_extended_is_the_scan_complete_enumerator(family, params, monkeypatch):
    spec = make_family(family, **params)
    extended = oracle_extended(spec)
    complete = compute(spec, "complete", "oracle")
    assert complete.kind == "complete" and complete.method == "oracle"
    assert complete.poly == specialize(extended, "complete").poly
    assert complete.poly == complete_weight_enumerator(enumerate_codewords(spec), spec.r)
    assert compute(spec, "hamming", "oracle").poly == specialize(extended, "hamming").poly
    # the oracle's cardinality counts the scanned words and builds no polynomial
    monkeypatch.setattr(MultiPoly, "__init__", mock.Mock(side_effect=AssertionError))
    assert compute(spec, "cardinality", "oracle") == extended.cardinality()


def test_compute_rejects_unknown_kind_and_method():
    spec = make_family("binary_vt", n=3)
    with pytest.raises(ValueError, match="kind"):
        compute(spec, "weight")
    with pytest.raises(ValueError, match="method"):
        compute(spec, "hamming", "fast")


@pytest.mark.parametrize(
    "family,params",
    [(f, p) for f, p, closed in ROUTE_CASES if closed and f != "tenengolts"],
)
def test_linear_congruence_route_does_no_cyclotomic_arithmetic(family, params, monkeypatch):
    spec = make_family(family, **params)
    expected = {kind: compute(spec, kind, "oracle") for kind in ("hamming", "cardinality")}

    def refuse(*args):
        raise AssertionError("cyclotomic arithmetic on a linear-congruence route")

    monkeypatch.setattr(CycElement, "to_integer", refuse)
    assert compute(spec, "hamming").poly == expected["hamming"].poly
    assert compute(spec, "cardinality") == expected["cardinality"]
