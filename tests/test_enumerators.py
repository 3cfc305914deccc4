import ast
import contextlib
import copy
import inspect
import itertools
import operator
import random
import tracemalloc
from collections import Counter
from math import comb, factorial, gcd, prod
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cyclotomic_reference as cyc
from statistic_reference import reference_statistic
from tenengolts_reference import base_reference, cardinality_reference
from ntcodes import codes, enumerators
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
    is_member,
    lc,
    linear,
    make_family,
    type_vector,
)
from ntcodes.enumerators import (
    KINDS,
    METHODS,
    Enumerator,
    _PackedSpace,
    argmax_cardinality,
    complete_weight_enumerator,
    compute,
    enumerator_from_dict,
    enumerator_to_dict,
    full_space_enumerator,
    specialize,
    tenengolts_cardinality,
    tenengolts_hamming,
    tenengolts_variant_transform,
    w_variables,
    z_variables,
)
from ntcodes.exactalg import CycElement, IntegralityError, MultiPoly
from ntcodes.macwilliams import build_code, verify_macwilliams
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


def test_extended_oracle_t33():
    enum = compute(make_family("tenengolts", n=3, r=3, a1=0, a2=0), "extended", "oracle")
    assert enum.poly == T33_EXTENDED
    assert str(enum.poly) == (
        "w0^3 + z2^3*w0*w1*w2 + z2^3*w1^3 + z1^3*z2^3*w0*w1*w2 + z2^6*w2^3"
    )
    assert enum.method == "oracle"


def test_oracle_on_empty_and_tiny_codes():
    empty = CodeSpec(2, 2, ((SIGMA, 4, 3),))
    assert compute(empty, "extended", "oracle").poly == MultiPoly(("z1", "w0", "w1"))
    one_symbol = CodeSpec(1, 2, ((SIGMA, 1, 0),))
    enum = compute(one_symbol, "extended", "oracle")
    assert enum.poly == MultiPoly(
        ("z1", "w0", "w1"), {(0, 1, 0): 1, (1, 0, 1): 1}
    )


def test_specialize_chain():
    enum = compute(make_family("tenengolts", n=3, r=3, a1=0, a2=0), "extended", "oracle")
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
        enum = compute(spec, source, "oracle")
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


REPEATS = custom(lambda word: sum(x == y for x, y in zip(word, word[1:])))


@st.composite
def oracle_specs(draw):
    # n < 2 takes the plain scan, a custom statistic too; up to three
    # constraints reach the multi-constraint recheck
    n = draw(st.integers(0, 7))
    r = draw(st.integers(1, 4 if n <= 5 else 3))
    weights = st.lists(st.integers(-4, 6), min_size=n, max_size=n).map(linear)
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        stat = draw(st.sampled_from((*BUILTIN_STATS, REPEATS)) | weights)
        m = draw(st.integers(1, 7))
        constraints.append((stat, m, draw(st.integers(0, m - 1))))
    return CodeSpec(n, r, tuple(constraints))


@given(oracle_specs())
@example(CodeSpec(3, 2, ((SIGMA, 5, 4),)))  # empty
@example(CodeSpec(0, 3, ((OMEGA, 2, 1),)))  # empty, n = 0
@example(CodeSpec(4, 3, ((REPEATS, 2, 1), (linear((2, -3, 0, 1)), 3, 0))))
def test_oracle_tally_matches_a_reference_at_every_kind(spec):
    # the reference: every word of [0, r)^n filtered by is_member, tallied by
    # its type vector, and by statistic values evaluated word by word
    n, r = spec.n, spec.r
    words = [word for word in itertools.product(range(r), repeat=n) if is_member(spec, word)]
    taus = [type_vector(word, r) for word in words]
    values = [tuple(evaluate_statistic(c.stat, word) for c in spec.constraints) for word in words]
    w = tuple(f"w{j}" for j in range(r))
    expected = {
        "hamming": (("w",), Counter((sum(tau[1:]),) for tau in taus)),
        "complete": (w, Counter(taus)),
        "extended": (
            tuple(f"z{i}" for i in range(1, spec.s + 1)) + w,
            Counter(rho + tau for rho, tau in zip(values, taus)),
        ),
    }
    assert compute(spec, "cardinality", "oracle") == len(words)
    for kind, (variables, terms) in expected.items():
        if kind == "extended" and any(v < 0 for rho in values for v in rho):
            # negative weights are answered below "extended" only: no exponent is negative
            with pytest.raises(ValueError, match="negative value"):
                compute(spec, kind, "oracle")
            continue
        got = compute(spec, kind, "oracle")
        assert (got.kind, got.method, got.spec) == (kind, "oracle", spec)
        assert (got.poly.variables, got.poly.terms) == (variables, dict(terms))


@given(full_space_cases())
def test_transfer_full_space_matches_oracle_for_every_statistic(case):
    n, r, stats = case
    whole_space = CodeSpec(n, r, tuple((stat, 1, 0) for stat in stats))
    expected = compute(whole_space, "extended", "oracle").poly
    with (
        mock.patch.object(enumerators, "_exact_pass", wraps=enumerators._exact_pass) as exact_pass,
        mock.patch.object(enumerators, "tally_codewords") as scan,
    ):
        # each call runs its pass afresh, not from the passes kept by the one before
        enumerators._PASSES.clear()
        space, kept = enumerators._theorem1_terms(n, r, whole_space.constraints, None, n)
        enumerators._PASSES.clear()
        assert full_space_enumerator(n, r, stats) == expected
    # built by the exact pass, not scanned
    assert exact_pass.call_count == 2 and not scan.called
    assert space.read(kept, "extended") == expected
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
    assert full_space_enumerator(4, 3, (repeats, SIGMA)) == compute(whole_space, "extended", "oracle").poly


def test_full_space_refuses_past_the_budget():
    # omega over [0, 3)^6: min(3^6, C(8, 2) (1 + 2 * 21)) = 729 terms
    with pytest.raises(
        BudgetExceededError, match=r"^full-space transfer pass of up to 729 terms exceeds the budget 10$"
    ):
        full_space_enumerator(6, 3, (OMEGA,), budget=10)


def test_packed_key_round_trip_and_carry():
    space = _PackedSpace(("z1", "w0", "w1"), (3, 2, 2))
    assert space.strides == (1, 3, 6)
    exps = list(itertools.product(range(3), range(2), range(2)))
    keys = [sum(map(operator.mul, e, space.strides)) for e in exps]
    assert space.decode(keys) == exps
    # from digit 1 on: each key given as key // strides[1]
    assert space.decode([key // 3 for key in keys], 1) == [e[1:] for e in exps]
    # 3 * 2 * 2, the key of exponents (0, 0, 2), carries past the last digit
    with pytest.raises(IntegralityError, match="^packed key carries 1 past its last digit$"):
        space.decode([*keys, 12])


@given(st.lists(st.integers(1, 40), max_size=8), st.data())
def test_decode_matches_a_divmod_loop(radices, data):
    # every key's digits from a start digit on, as a plain divmod loop reads
    # them; a key with anything left past the last digit raises, naming it
    space = _PackedSpace([f"x{i}" for i in range(len(radices))], radices)
    start = data.draw(st.integers(0, len(radices)), label="start")
    keys = data.draw(st.lists(st.integers(0, 3 * prod(radices[start:])), max_size=6), label="keys")

    def reference(key):
        digits = []
        for radix in radices[start:]:
            key, digit = divmod(key, radix)
            digits.append(digit)
        return tuple(digits), key

    decoded = [reference(key) for key in keys]
    carried = next((left for _, left in decoded if left), 0)
    if carried:
        with pytest.raises(IntegralityError, match=f"^packed key carries {carried} past its last digit$"):
            space.decode(keys, start)
    else:
        assert space.decode(keys, start) == [digits for digits, _ in decoded]


@pytest.mark.parametrize("r", range(1, 5))
def test_increment_tables_sum_to_the_statistics(r):
    # each statistic's table: a word's summed increments are its value, as
    # the definitions written out as plain loops give it
    for n in range(6):
        stats = [*BUILTIN_STATS, linear((2, 0, 3, 1, 4)[:n])]
        lasts = (None, *range(r))
        for st in stats:
            lin, ups, ones = enumerators._increment_tables(n, r, st, lasts)
            for word in itertools.product(range(r), repeat=n):
                steps = enumerate(zip((None, *word), word))
                summed = sum(x * lin[j] + j * ups[p][x] + ones[p][x] for j, (p, x) in steps)
                assert summed == reference_statistic(st, word), (st, word)


@pytest.mark.parametrize(
    "call, tables",
    [
        # the MacWilliams right side's passes have no digits
        (lambda: verify_macwilliams(build_code(3, [[1, 1, 1]])), 0),
        # the residue pass of one congruence
        (lambda: compute(lc(6, 7, 2, (1, 2, 3, 4, 5, 6), 0), "hamming"), 1),
        # theorem 1's exact pass of a descent statistic and sigma
        (lambda: compute(make_family("tenengolts", n=6, r=3, a1=0, a2=0), "extended", "theorem1"), 2),
    ],
    ids=["macwilliams", "residue", "theorem1"],
)
def test_every_digit_steps_through_its_own_table(call, tables):
    # one increment table per digit of a pass, and none for a pass of no digits
    with mock.patch.object(enumerators, "_increment_tables", wraps=enumerators._increment_tables) as built:
        call()
    assert built.call_count == tables


def test_custom_statistic_full_space_is_enumerated():
    repeats = custom(lambda word: sum(1 for i in range(1, len(word)) if word[i] == word[i - 1]))
    spec = CodeSpec(4, 3, ((repeats, 2, 1), (SIGMA, 3, 0)))
    # the full space is the oracle's one tally at moduli 1, with no exact pass
    with (
        mock.patch.object(enumerators, "_exact_pass") as exact_pass,
        mock.patch.object(enumerators, "tally_codewords", wraps=enumerators.tally_codewords) as scan,
    ):
        full = full_space_enumerator(4, 3, (repeats, SIGMA))
        # theorem 1 has no increments to run: it refuses the statistic
        with pytest.raises(ValueError, match="custom statistic"):
            compute(spec, "extended", "theorem1")
    assert scan.call_count == 1 and not exact_pass.called
    (scanned, kind, _), _ = scan.call_args
    assert kind == "extended"
    assert scanned == CodeSpec(4, 3, ((repeats, 1, 0), (SIGMA, 1, 0)))
    assert full == compute(scanned, "extended", "oracle").poly
    # "auto" sends the spec to the oracle
    got = compute(spec, "extended")
    assert got.method == "oracle"
    assert got.poly == compute(spec, "extended", "oracle").poly


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
                    engine = compute(spec, "extended", "theorem1")
                    assert engine.method == "character_sum"
                    assert engine.poly == compute(spec, "extended", "oracle").poly


def test_theorem1_trivial_modulus_gives_full_space():
    spec = CodeSpec(3, 2, ((OMEGA, 1, 0),))
    engine = compute(spec, "extended", "theorem1")
    assert engine.poly == full_space_enumerator(3, 2, (OMEGA,))


def test_theorem1_cardinality_example():
    spec = make_family("tenengolts", n=3, r=3, a1=1, a2=0)
    assert specialize(compute(spec, "extended", "theorem1"), "cardinality") == 2


def test_theorem1_fast_path_and_forced_character_sum_agree():
    # mixed statistics take the transfer-built full space through the
    # residue join and keep the theorem-1 label
    spec = CodeSpec(4, 3, ((GAMMA_GT, 3, 1), (DELTA, 2, 1), (SIGMA, 3, 0)))
    fast = compute(spec, "extended", "theorem1")
    assert fast.method == "character_sum"
    assert fast.poly == compute(spec, "extended", "oracle").poly


def test_theorem1_rejects_negative_full_space_coefficient(monkeypatch):
    # binary_vt n=2 at k = n; the single pass's term of the word 00, the
    # left half's count of exponents (0, 2, 0), is given the count -1
    spec = make_family("binary_vt", n=2, a=0)
    exact_pass = enumerators._exact_pass

    def negating(*args):
        space, run = exact_pass(*args)

        def run_negated(positions, states):
            out = run(positions, states)
            if positions == range(spec.n):
                key = 2 * space.strides[1]
                out[None][key] = -out[None][key]
            return out

        return space, run_negated

    monkeypatch.setattr(enumerators, "_exact_pass", negating)
    with pytest.raises(IntegralityError, match=r"negative full-space coefficient -1 for \(0, 2, 0\)"):
        enumerators._theorem1_terms(spec.n, spec.r, spec.constraints, None, spec.n)


def test_theorem1_rejects_negative_half_space_count(monkeypatch):
    # ternary_integer n=8 splits at k=4; the right half's first term, the
    # word 0000 of positions 4..7, is given the count -1
    spec = make_family("ternary_integer", n=8, a=5)
    exact_pass, runs = enumerators._exact_pass, []

    def negating(*args):
        space, run = exact_pass(*args)

        def run_negated(positions, states):
            runs.append(positions)
            out = run(positions, states)
            if positions.start:
                for terms in out.values():
                    first = next(iter(terms))
                    terms[first] = -terms[first]
            return out

        return space, run_negated

    monkeypatch.setattr(enumerators, "_exact_pass", negating)
    with pytest.raises(IntegralityError, match=r"negative full-space coefficient -1 for \(0, 4, 0, 0\)"):
        compute(spec, "extended", "theorem1")
    # split at n // 2 = 4, refused before the join
    assert runs == [range(4), range(4, 8)]


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
    engine = compute(spec, "extended", "theorem1")
    assert engine.method == "character_sum"
    expected = compute(spec, "extended", "oracle").poly
    assert (engine.poly.variables, engine.poly) == (expected.variables, expected)


def test_theorem1_top_word_is_kept():
    spec = _top_word_spec(4, 4, (OMEGA, SIGMA, GAMMA_GE))
    # omega 3 * 10, sigma 3 * 4 and gamma_ge 1 + 2 + 3 of the word 3333
    assert compute(spec, "extended", "theorem1").poly.terms == {(30, 12, 6, 0, 0, 0, 4): 1}


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
        compute(spec, "extended", "theorem1", budget=1000)


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
    # joins the two halves, or where the pairs outnumber the single pass's
    # bound joins the single pass, run from position 0, with the empty half
    def kept(k):
        return enumerators._theorem1_terms(spec.n, spec.r, spec.constraints, None, k)

    space, single = kept(spec.n)
    expected = compute(spec, "extended", "oracle").poly
    assert (space.variables, space.read(single, "extended")) == (expected.variables, expected)
    for k in range(spec.n):
        assert kept(k)[1] == single


@given(split_specs(), st.data())
def test_kept_forms_the_pairs_of_a_naive_join(spec, data):
    # every left key against every right key of the same start: the pairs
    # whose statistic digits hit the code's residues, and their number, which
    # `_kept` refuses exactly when it exceeds the limit
    n, r, cons = spec.n, spec.r, spec.constraints
    k = data.draw(st.integers(0, n), label="k")
    stats = [c.stat for c in cons]
    space, run = enumerators._exact_pass(n, r, stats)
    left = run(range(k), {None: {0: 1}})
    right = {p: run(range(k, n), {p: {0: 1}})[None] for p in left}
    digits = list(zip(space.strides, space.radices, cons))
    expected, pairs = Counter(), 0
    for p, terms in right.items():
        for (lk, lc), (rk, rc) in itertools.product(left[p].items(), terms.items()):
            if all(((lk + rk) // stride % radix - c.a) % c.m == 0 for stride, radix, c in digits):
                pairs += 1
                expected[lk + rk] += lc * rc
    # the same halves, grouped at the code's moduli
    _, _, _, left, right = enumerators._passes(n, r, stats, k, tuple(c.m for c in cons))
    assert enumerators._kept(cons, left, right, pairs) == expected
    assert enumerators._kept(cons, left, right, pairs - 1) is None


@given(split_specs().filter(lambda spec: prod(c.m for c in spec.constraints) <= 64))
# the join at a = 2 keeps nothing; at a = 0 its 4 pairs outnumber the single pass's 3 terms
@example(lc(2, 3, 2, (0, 0), 2))
@example(CodeSpec(3, 2, ((SIGMA, 4, 1), (OMEGA, 8, 5))))
def test_one_entry_answers_every_residue_tuple(spec):
    # after one join, every a in prod Z_{m_i} is answered from the kept
    # halves as the oracle answers it, with no pass run; only where a join's
    # pairs outnumber the single pass's bound is that pass run, once, and
    # kept.  The answers add up to the full space
    n, r, cons = spec.n, spec.r, spec.constraints
    stats = tuple(c.stat for c in cons)
    compute(spec, "extended", "theorem1")
    single = (n, r, stats, n) in enumerators._PASSES
    answers = []
    with mock.patch.object(enumerators, "_exact_pass", wraps=enumerators._exact_pass) as exact_pass:
        for a in itertools.product(*(range(c.m) for c in cons)):
            code = CodeSpec(n, r, tuple((c.stat, c.m, ai) for c, ai in zip(cons, a)))
            answers.append((code, compute(code, "extended", "theorem1").poly))
    assert exact_pass.call_count == (not single and (n, r, stats, n) in enumerators._PASSES)
    total = Counter()
    for code, poly in answers:
        assert poly == compute(code, "extended", "oracle").poly
        total.update(poly.terms)
    full = full_space_enumerator(n, r, stats)
    assert (poly.variables, dict(total)) == (full.variables, full.terms)


@given(split_specs())
@example(CodeSpec(0, 3, ((GAMMA_GT, 4, 0), (OMEGA, 2, 0))))
@example(CodeSpec(5, 3, ((DELTA, 4, 1), (SIGMA, 3, 0))))
def test_theorem1_is_independent_of_the_oracle(spec):
    # with the oracle's tally and the codeword scan both raising, theorem 1
    # answers at every k; it refuses a custom statistic, which "auto" sends
    # to the oracle at every kind
    def refuse(*args, **kwargs):
        raise AssertionError("theorem 1 reached the oracle")

    with_custom = CodeSpec(spec.n, spec.r, (*spec.constraints, (REPEATS, 2, 0)))
    with (
        mock.patch.object(codes, "enumerate_codewords", refuse),
        mock.patch.object(codes, "tally_codewords", refuse),
        mock.patch.object(enumerators, "tally_codewords", refuse),
    ):
        space, single = enumerators._theorem1_terms(spec.n, spec.r, spec.constraints, None, spec.n)
        for k in range(spec.n):
            assert enumerators._theorem1_terms(spec.n, spec.r, spec.constraints, None, k)[1] == single
        assert compute(spec, "extended", "theorem1").poly == space.read(single, "extended")
        with pytest.raises(ValueError, match="custom statistic"):
            compute(with_custom, "extended", "theorem1")
    assert compute(with_custom, "cardinality") == compute(with_custom, "cardinality", "oracle")
    for kind in KINDS:
        got = compute(with_custom, kind)
        assert (got.kind, got.method) == (kind, "oracle")
        assert got.poly == compute(with_custom, kind, "oracle").poly


def _recorded_runs(monkeypatch) -> list:
    """The positions of every exact pass run from here on, in order."""
    exact_pass, runs = enumerators._exact_pass, []

    def recording(*args):
        space, run = exact_pass(*args)

        def recorded(positions, states):
            runs.append(positions)
            return run(positions, states)

        return space, recorded

    monkeypatch.setattr(enumerators, "_exact_pass", recording)
    return runs


@pytest.mark.parametrize(
    "spec, budget, refusal",
    [
        (make_family("levenshtein", n=40, m=3, a=0), None, None),
        (make_family("shifted_vt", n=40, m=5, a=0, parity=0), None, None),
        (make_family("ternary_integer", n=16, a=5), None, None),
        (make_family("exponential_coefficient", n=18, m=18, a=5), None, None),
        (make_family("binary_vt", n=14, a=0), None, None),
        (make_family("tenengolts", n=12, r=2, a1=0, a2=0), None, None),
        # a half of 3^8 terms is over the budget, and so is the single pass
        (
            make_family("ternary_integer", n=16, a=5),
            1000,
            (BudgetExceededError, "^full-space transfer pass of up to 40102677 terms exceeds the budget 1000$"),
        ),
        (make_family("binary_vt", n=2, a=0), None, None),
        (CodeSpec(12, 3, ((custom(sum), 7, 0),)), None, (ValueError, "custom statistic")),
    ],
    ids=[
        "levenshtein",
        "shifted_vt",
        "ternary_integer",
        "exponential_coefficient",
        "binary_vt",
        "tenengolts",
        "budget",
        "tiny",
        "custom",
    ],
)
def test_split_point_is_read_off_the_statistics(monkeypatch, spec, budget, refusal):
    # theorem 1 splits at k = n // 2 and runs the right half once per start,
    # r of them when a descent statistic reads the previous symbol, then
    # runs the single pass from position 0 where the pairs overflow
    # (levenshtein and shifted_vt at n = 40); a refusal comes before any
    # pass runs
    runs = _recorded_runs(monkeypatch)
    if refusal:
        with pytest.raises(refusal[0], match=refusal[1]):
            compute(spec, "extended", "theorem1", budget)
        assert runs == []
        return
    compute(spec, "extended", "theorem1", budget)
    n, k = spec.n, spec.n // 2
    starts = spec.r if enumerators._reads_previous(c.stat for c in spec.constraints) else 1
    assert runs[: 1 + starts] == [range(k)] + [range(k, n)] * starts
    assert runs[1 + starts :] in ([], [range(n)])


def test_theorem1_falls_back_to_the_single_pass_past_its_bound(monkeypatch):
    # zero weights put every term at residue 0: the halves' 495 terms each
    # would make 495^2 = 245025 pairs, over the single pass's bound of
    # C(20, 4) = 4845 terms, so the single pass runs over positions 0..15
    # and is joined with the empty right half instead; no pair of the two
    # halves is formed
    spec = lc(16, 1000, 5, [0] * 16, 0)
    runs = _recorded_runs(monkeypatch)
    tracemalloc.start()
    try:
        result = compute(spec, "extended", "theorem1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    # the halves at n // 2, then the single pass from position 0
    assert runs == [range(8), range(8, 16), range(16)]
    assert result.poly == full_space_enumerator(16, 5, [linear([0] * 16)])
    assert result.cardinality() == 5**16


def test_theorem1_runs_the_single_pass_where_the_halves_do_not_fit(monkeypatch):
    # delta over [0, 6)^5: the right half's 6 starts of 216 terms each make
    # 1296, over the single pass's bound of 1260; under a budget between the
    # two the single pass runs, with no half, and answers
    spec = CodeSpec(5, 6, ((DELTA, 3, 1),))
    runs = _recorded_runs(monkeypatch)
    assert compute(spec, "extended", "theorem1", budget=1270).poly == compute(spec, "extended", "oracle").poly
    assert runs == [range(5)]
    refusal = "^full-space transfer pass of up to 1260 terms exceeds the budget 1259$"
    with pytest.raises(BudgetExceededError, match=refusal):
        compute(spec, "extended", "theorem1", budget=1259)
    assert runs == [range(5)]


def test_theorem1_refuses_join_pairs_past_the_budget(monkeypatch):
    # weights 1000 * 3^j are 0 mod 1000 and keep every sum distinct: halves
    # of 3^6 terms fit the budget, their 3^12 pairs and the single pass's
    # 3^12 terms do not, so the single pass's refusal comes before any pair
    spec = lc(12, 1000, 3, [1000 * 3**j for j in range(12)], 0)
    runs = _recorded_runs(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="pass of up to 531441 terms exceeds the budget 10000"):
            compute(spec, "extended", "theorem1", budget=10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    # both halves at n // 2 ran; the single pass did not
    assert runs == [range(6), range(6, 12)]


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
        engine = compute(spec, "extended", "theorem1")
        assert engine.poly == compute(spec, "extended", "oracle").poly


def test_negative_weights_rejected_by_enumerator_paths():
    from ntcodes.codes import linear

    bad = CodeSpec(2, 2, ((linear((-1, 2)), 3, 0),))
    with pytest.raises(ValueError):
        compute(bad, "extended", "theorem1")
    # the oracle complains only when a codeword actually hits a negative value
    member_negative = CodeSpec(2, 2, ((linear((-1, 2)), 3, 2),))
    with pytest.raises(ValueError):
        compute(member_negative, "extended", "oracle")


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


def test_lc_closed_hamming_examples():
    enum = compute(lc(4, 5, 2, (1, 2, 3, 4), 0), "hamming", "closed")
    assert enum.poly == hamming_oracle(make_family("binary_vt", n=4, a=0))
    assert enum.cardinality() == 4
    # whole space at m=1
    whole = compute(lc(3, 1, 3, (1, 1, 1), 0), "hamming", "closed")
    # (1 + 2w)^3 = 1 + 6w + 12w^2 + 8w^3
    assert whole.poly == MultiPoly(("w",), {(0,): 1, (1,): 6, (2,): 12, (3,): 8})
    # single position fixed to zero
    assert compute(lc(1, 2, 2, (1,), 0), "hamming", "closed").poly == MultiPoly(("w",), {(0,): 1})
    # the binary code is r = 2
    blc = make_family("blc", n=5, m=4, h=(1, 1, 2, 3, 3), a=2)
    assert compute(lc(5, 4, 2, (1, 1, 2, 3, 3), 2), "hamming", "closed").poly == hamming_oracle(blc)


def test_lc_closed_hamming_negative_weights():
    # the Hamming closed form has no z-exponents, so any integer weights work
    h = (-1, 2, 5)
    m, r, a = 3, 3, 1
    enum = compute(lc(3, m, r, h, a), "hamming", "closed")
    hist = {}
    for word in itertools.product(range(r), repeat=3):
        if sum(hi * x for hi, x in zip(h, word)) % m == a:
            hwt = sum(1 for x in word if x)
            hist[hwt] = hist.get(hwt, 0) + 1
    assert enum.poly == MultiPoly(("w",), {(d,): c for d, c in hist.items()})


def test_lc_closed_hamming_random_against_oracle():
    rng = random.Random(11)
    for _ in range(12):
        r = rng.randint(2, 4)
        n = rng.randint(1, 6)
        m = rng.randint(1, 9)
        h = tuple(rng.randrange(max(m, 2)) for _ in range(n))
        a = rng.randrange(m)
        spec = make_family("lc", n=n, m=m, r=r, h=h, a=a)
        assert compute(lc(n, m, r, h, a), "hamming", "closed").poly == hamming_oracle(spec)


def twisted_point_lc_sum(n, m, r, h, a):
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
def test_lc_closed_hamming_matches_oracle(case):
    n, m, r, h, a = case
    spec = CodeSpec(n, r, ((linear(h), m, a),))
    assert compute(lc(n, m, r, h, a), "hamming", "closed").poly == hamming_oracle(spec)


@given(
    split_specs() | lc_cases().map(lambda case: lc(*case)),
    st.sampled_from(["complete", "hamming", "cardinality"]),
)
@example(make_family("lc", n=4, m=3, r=2, h=(-3, -7, 2, 5), a=2), "complete")
@example(CodeSpec(3, 3, ((linear((-3, 4, -1)), 9, 2), (DELTA, 1, 0))), "hamming")
def test_theorem1_reads_its_kept_keys_at_every_kind(spec, kind):
    # below "extended" theorem 1 reads its kept keys straight at the kind,
    # building no extended enumerator: the projection of theorem 1's
    # extended enumerator, with negative weights reduced, and the oracle's
    # answer, labelled as theorem 1's and tagged with the spec asked
    with (
        mock.patch.object(enumerators, "MultiPoly", wraps=MultiPoly) as built,
        mock.patch.object(enumerators, "specialize", side_effect=AssertionError("specialized")),
    ):
        got = compute(spec, kind, "theorem1")
    projected = specialize(compute(enumerators._nonnegative_weights(spec), "extended", "theorem1"), kind)
    expected = compute(spec, kind, "oracle")
    if kind == "cardinality":
        assert got == projected == expected
        assert not built.called
        return
    assert (got.kind, got.method, got.spec) == (kind, "character_sum", spec)
    assert (got.poly.variables, got.poly) == (expected.poly.variables, expected.poly)
    assert got.poly == projected.poly
    assert [call.args[0] for call in built.call_args_list] == [got.poly.variables]


def test_lc_closed_hamming_equals_twisted_point_sum():
    rng = random.Random(2024)
    for _ in range(30):
        n, r = rng.randint(0, 5), rng.randint(1, 4)
        m = rng.choice((12, 24, 30, rng.randint(1, 20)))
        d = rng.choice(divisors(m))
        h = tuple(rng.choice((rng.randint(-m, 2 * m), d * rng.randint(-2, 2))) for _ in range(n))
        a = rng.randrange(m)
        assert compute(lc(n, m, r, h, a), "hamming", "closed").poly == twisted_point_lc_sum(n, m, r, h, a)


def test_lc_closed_hamming_budget_checked_before_the_pass():
    # bound min(r^n, m (n + 1)): min(3^6, 24 * 7) = 168; the 3^6 words fill
    # at most 729 (state, weight) digits however large m is
    with pytest.raises(BudgetExceededError, match="up to 168 terms exceeds the budget 100"):
        compute(lc(6, 24, 3, (1, 2, 3, 4, 5, 6), 0), "hamming", "closed", budget=100)
    with pytest.raises(BudgetExceededError, match="up to 729 terms exceeds the budget 728"):
        compute(lc(6, 10**7, 3, (1, 2, 3, 4, 5, 6), 0), "hamming", "closed", budget=728)
    assert compute(lc(6, 10**7, 3, (1, 2, 3, 4, 5, 6), 0), "hamming", "closed", budget=729).cardinality() == 1
    # the cardinality carries no Hamming weight: min(3^6, 24) = 24
    spec = make_family("lc", n=6, m=24, r=3, h=(1, 2, 3, 4, 5, 6), a=0)
    with pytest.raises(BudgetExceededError, match="up to 24 terms exceeds the budget 23"):
        compute(spec, "cardinality", budget=23)
    hamming = compute(lc(6, 24, 3, (1, 2, 3, 4, 5, 6), 0), "hamming", "closed")
    assert compute(spec, "cardinality", budget=24) == hamming.cardinality()


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_lc_closed_hamming_packed_digits_at_their_widest(r):
    # modulus 1: the one residue holds all r^n words, so each packed
    # Hamming digit reaches its largest count C(n, k) (r - 1)^k
    rng = random.Random(r)
    for n in range(65):
        h = tuple(rng.randint(-9, 9) for _ in range(n))
        enum = compute(lc(n, 1, r, h, 0), "hamming", "closed")
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
def residue_pass_cases(
    draw, alphabets=st.integers(1, 3), lengths=st.integers(0, 5), moduli=st.integers(1, 7) | st.integers(8, 250)
):
    """Specs over every built-in statistic, linear weights negative and
    zero included, with 1-3 constraints, moduli drawn from `moduli` (by
    default from 1 to past n + 1 and r^n), and r and n drawn from
    `alphabets` and `lengths` (by default r down to 1)."""
    n = draw(lengths)
    r = draw(alphabets)
    weights = st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(linear)
    stat = st.sampled_from(BUILTIN_STATS) | weights
    cons = []
    for _ in range(draw(st.integers(1, 3))):
        # past n + 1 and r^n (3^5 = 243) too, where the layouts part
        m = draw(moduli)
        cons.append((draw(stat), m, draw(st.integers(0, m - 1))))
    return CodeSpec(n, r, tuple(cons))


@given(residue_pass_cases(), st.sampled_from(["complete", "hamming", "cardinality"]))
@example(CodeSpec(0, 1, ((OMEGA, 1, 0),)), "hamming")
@example(CodeSpec(3, 2, ((OMEGA, 4, 1),)), "hamming")
@example(CodeSpec(5, 2, ((OMEGA, 5, 1),)), "hamming")
@example(CodeSpec(4, 2, ((GAMMA_GT, 5, 3), (SIGMA, 1, 0))), "hamming")
@example(CodeSpec(3, 3, ((linear((-3, 4, -1)), 9, 2), (DELTA, 1, 0))), "hamming")
@example(CodeSpec(5, 3, ((DELTA, 2, 1), (linear((2, -1, 0, 5, -3)), 13, 4), (SIGMA, 3, 2))), "hamming")
@example(CodeSpec(5, 3, ((DELTA, 2, 1), (linear((2, -1, 0, 5, -3)), 13, 4), (SIGMA, 3, 2))), "cardinality")
# descent statistics at n = 1 and 2: the last symbol is keyed before
# position n - 1 only, in both layouts (cyclic at n = 2)
@example(CodeSpec(1, 3, ((GAMMA_GT, 2, 0),)), "complete")
@example(CodeSpec(1, 3, ((GAMMA_GT, 2, 0),)), "hamming")
@example(CodeSpec(1, 3, ((GAMMA_GT, 2, 0),)), "cardinality")
@example(CodeSpec(2, 3, ((GAMMA_GT, 3, 1),)), "complete")
@example(CodeSpec(2, 3, ((GAMMA_GT, 3, 1),)), "hamming")
@example(CodeSpec(2, 3, ((GAMMA_GT, 3, 1),)), "cardinality")
@example(CodeSpec(1, 2, ((DELTA, 2, 0),)), "complete")
@example(CodeSpec(1, 2, ((DELTA, 2, 0),)), "hamming")
@example(CodeSpec(1, 2, ((DELTA, 2, 0),)), "cardinality")
@example(CodeSpec(2, 3, ((DELTA, 3, 1),)), "complete")
@example(CodeSpec(2, 3, ((DELTA, 3, 1),)), "hamming")
@example(CodeSpec(2, 3, ((DELTA, 3, 1),)), "cardinality")
# cyclic at "complete" with a descent statistic: tau and the last symbol keyed,
# the sigma residue in the keys (fixed by tau) or as the cyclic digits
@example(CodeSpec(4, 2, ((GAMMA_GT, 9, 3), (SIGMA, 2, 1))), "complete")
@example(CodeSpec(3, 3, ((DELTA, 2, 1), (SIGMA, 5, 2))), "complete")
@example(CodeSpec(5, 3, ((LAMBDA_LE, 7, 4), (DELTA, 2, 0), (SIGMA, 3, 1))), "complete")
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
    rule = enumerators._digit_congruence
    # tau in the keys, in the layout the rule picks and in the keyed one; then
    # tau packed wherever the rule keeps the keyed layout; each layout runs
    # its own pass, not the one kept by the layout before
    for excess, layout in [(0, rule), (0, lambda *args: None), (10**9, rule)]:
        with (
            mock.patch.object(enumerators, "_PACKED_EXCESS", excess),
            mock.patch.object(enumerators, "_digit_congruence", layout),
        ):
            enumerators._PASSES.clear()
            got = compute(spec, "complete")
        assert got.method == "transfer"
        assert got.poly.variables == expected.poly.variables
        assert got.poly == expected.poly


def test_custom_statistic_and_extended_kind_keep_theorem1():
    # a custom statistic goes to the oracle at every kind, and theorem 1
    # refuses it; built-in statistics without a closed form keep theorem 1
    # at "extended"
    repeats = custom(lambda word: sum(1 for i in range(1, len(word)) if word[i] == word[i - 1]))
    with_custom = CodeSpec(4, 3, ((repeats, 2, 1), (SIGMA, 3, 0)))
    assert compute(with_custom, "cardinality") == compute(with_custom, "cardinality", "oracle")
    for kind in KINDS:
        got = compute(with_custom, kind)
        assert got.method == "oracle"
        assert got.poly == compute(with_custom, kind, "oracle").poly
        with pytest.raises(ValueError, match="custom statistic"):
            compute(with_custom, kind, "theorem1")
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
            enumerators._residue_pass(spec, kind, bound - 1)
    assert compute(spec, "cardinality", budget=234) == compute(spec, "hamming").cardinality()
    # r^n caps the states, not the digits each holds: min(2^3, 100 * 2) * (3 + 1)
    # packed, against min(2^3, C(4, 1) * 100) with tau in the keys
    small = CodeSpec(3, 2, ((linear((1, 2, 3)), 100, 0), (SIGMA, 2, 0)))
    with pytest.raises(BudgetExceededError, match="up to 8 terms exceeds"):
        enumerators._residue_pass(small, "complete", 7)
    expected = compute(small, "complete", "oracle").poly
    # "auto" passes the residue pass's refusal over to theorem 1, which fits 7
    assert compute(small, "complete", budget=7).method == "character_sum"
    assert compute(small, "complete", budget=7).poly == expected
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


def test_theorem1_reuses_its_passes_at_other_moduli_and_residues():
    # the exact passes read n, r, the statistics and the split, never a
    # modulus or a residue: a later code over the same statistics joins the
    # kept halves at its own residues and runs no pass
    compute(make_family("shifted_vt", n=12, m=7, a=3, parity=0), "extended", "theorem1")
    later = make_family("shifted_vt", n=12, m=9, a=5, parity=1)
    with mock.patch.object(enumerators, "_exact_pass", wraps=enumerators._exact_pass) as exact_pass:
        warm = compute(later, "extended", "theorem1")
    assert not exact_pass.called
    assert warm.poly == compute(later, "extended", "oracle").poly


@given(theorem1_specs(), st.data())
def test_theorem1_answers_alike_from_kept_and_fresh_passes(spec, data):
    # every kind and the full space, each from an empty map, then again from
    # the passes a code of other moduli and residues kept, with no pass run
    stats = [c.stat for c in spec.constraints]
    moduli = [data.draw(st.integers(1, 12), label="m") for _ in stats]
    residues = [data.draw(st.integers(0, m - 1), label="a") for m in moduli]
    other = CodeSpec(spec.n, spec.r, tuple(zip(stats, moduli, residues)))
    calls = [lambda kind=kind: compute(spec, kind, "theorem1") for kind in (*KINDS, "cardinality")]
    calls.append(lambda: full_space_enumerator(spec.n, spec.r, stats))
    fresh = []
    for call in calls:
        enumerators._PASSES.clear()
        fresh.append(call())
    enumerators._PASSES.clear()
    compute(other, "extended", "theorem1")
    full_space_enumerator(other.n, other.r, stats)
    with mock.patch.object(enumerators, "_exact_pass", wraps=enumerators._exact_pass) as exact_pass:
        warm = [call() for call in calls]
    assert not exact_pass.called
    assert warm == fresh
    assert [getattr(e, "poly", e).variables for e in warm[:3]] == [e.poly.variables for e in fresh[:3]]


@pytest.mark.parametrize(
    "spec, warm, budget, refusal",
    [
        # the halves fit 4844 and are kept; their pairs outnumber it, so the
        # single pass of 4845 terms is refused after the join of kept halves
        (lc(16, 1000, 5, [0] * 16, 0), None, 4844, "^full-space transfer pass of up to 4845 terms exceeds the budget 4844$"),
        # the halves do not fit 1270 and the single pass is kept; at 1259 it
        # is refused before the map is read
        (CodeSpec(5, 6, ((DELTA, 3, 1),)), 1270, 1259, "^full-space transfer pass of up to 1260 terms exceeds the budget 1259$"),
    ],
    ids=["after_the_join", "before_the_lookup"],
)
def test_kept_passes_refuse_as_fresh_ones(spec, warm, budget, refusal):
    with pytest.raises(BudgetExceededError, match=refusal):
        compute(spec, "extended", "theorem1", budget)
    enumerators._PASSES.clear()
    other = CodeSpec(spec.n, spec.r, tuple((c.stat, c.m, (c.a + 1) % c.m) for c in spec.constraints))
    compute(other, "extended", "theorem1", warm)
    kept = list(enumerators._PASSES)
    with (
        mock.patch.object(enumerators, "_exact_pass", wraps=enumerators._exact_pass) as exact_pass,
        pytest.raises(BudgetExceededError, match=refusal),
    ):
        compute(spec, "extended", "theorem1", budget)
    assert not exact_pass.called and list(enumerators._PASSES) == kept


def _bytes(counts) -> int:
    """The bytes a kept entry of these counts is charged: 64 a term besides
    each count's own."""
    counts = list(counts)
    return 64 * len(counts) + sum(map(int.bit_length, counts)) // 8


def _sizes() -> dict:
    """The kept entries' sizes by key, least recently used first, each checked
    to be the bytes of the terms its passes hold."""
    for size, _, _, left, right in enumerators._PASSES.values():
        assert size == _bytes(count for half in (left, right) for terms in half.values() for _, count in terms)
    return {key: entry[0] for key, entry in enumerators._PASSES.items()}


def test_kept_passes_stay_within_their_bound(monkeypatch):
    # least recently used out first: with room for the passes of n = 8 and
    # n = 9, asking n = 8 again and then n = 7 drops those of n = 9
    for n in (8, 9):
        compute(make_family("levenshtein", n=n, m=3, a=0), "extended", "theorem1")
    (eight, size), (nine, more) = _sizes().items()
    monkeypatch.setattr(enumerators, "_PASSES_BYTES", size + more)
    compute(make_family("levenshtein", n=8, m=5, a=1), "extended", "theorem1")
    compute(make_family("levenshtein", n=7, m=3, a=0), "extended", "theorem1")
    kept = list(_sizes())
    assert len(kept) == 2 and kept[0] == eight and nine not in kept
    # an entry larger than the bound is not kept, and drops none; the size
    # counts terms and counts, so one of few terms over a wide alphabet is
    # kept: at n = 1, the empty left half and the right half's 100 words,
    # each of count 1
    before = _sizes()
    compute(make_family("levenshtein", n=24, m=3, a=0), "extended", "theorem1")
    assert _sizes() == before
    monkeypatch.setattr(enumerators, "_PASSES_BYTES", 1 << 18)
    compute(make_family("tenengolts", n=1, r=100, a1=0, a2=0), "extended", "theorem1")
    assert list(_sizes().values()) == [*before.values(), 64 * 101 + 101 // 8]
    # any sequence: the sizes never add up past the bound
    monkeypatch.setattr(enumerators, "_PASSES_BYTES", 20_000)
    enumerators._PASSES.clear()
    for n in range(1, 13):
        for family in (make_family("levenshtein", n=n, m=3, a=0), make_family("tenengolts", n=n, r=3, a1=0, a2=0)):
            compute(family, "extended", "theorem1")
            assert sum(_sizes().values()) <= 20_000


def test_mutating_an_answer_leaves_the_kept_passes_alone():
    spec = make_family("tenengolts", n=6, r=3, a1=1, a2=2)
    stats = [c.stat for c in spec.constraints]
    expected = compute(spec, "extended", "theorem1").poly, full_space_enumerator(6, 3, stats)
    for poly in (compute(spec, "extended", "theorem1").poly, full_space_enumerator(6, 3, stats)):
        for exps in list(poly.terms):
            poly.terms[exps] = -7
        poly.terms[(9,) * len(poly.variables)] = 1
    enumerators._theorem1_terms(6, 3, spec.constraints, None, 3)[1].clear()
    assert (compute(spec, "extended", "theorem1").poly, full_space_enumerator(6, 3, stats)) == expected


def test_theorem1_keeps_the_single_pass_where_the_join_overflows(monkeypatch):
    # levenshtein n=24 m=7: at a = 0 and a = 3 the halves' pairs outnumber
    # the single pass's bound, so each code joins the single pass over
    # 0..23; it is run once and kept with the halves
    runs, joins, join = _recorded_runs(monkeypatch), [], enumerators._kept
    monkeypatch.setattr(enumerators, "_kept", lambda *args: joins.append(join(*args)) or joins[-1])
    for a in (0, 3):
        spec = make_family("levenshtein", n=24, m=7, a=a)
        assert specialize(compute(spec, "extended", "theorem1"), "hamming").poly == compute(spec, "hamming").poly
    assert [kept is None for kept in joins] == [True, False, True, False]
    assert runs == [range(12), range(12, 24), range(24)]


def test_the_single_pass_of_an_overflowing_join_is_the_full_space():
    # levenshtein n=24 m=7 a=0 overflows its join at k = 12 and keeps the
    # single pass, built from position 0, as the entry at k = n: the full
    # space over omega is that entry and runs no pass, and the bytes of the
    # single pass's 2325 terms are held there alone, not under k = 12 as well
    compute(make_family("levenshtein", n=24, m=7, a=0), "extended", "theorem1")
    with mock.patch.object(enumerators, "_exact_pass", wraps=enumerators._exact_pass) as exact_pass:
        full = full_space_enumerator(24, 2, [OMEGA])
    assert not exact_pass.called
    sizes = {key[3]: entry[0] for key, entry in enumerators._PASSES.items()}
    single = _bytes([*full.terms.values(), 1])  # and the empty right half's word
    assert list(sizes) == [12, 24] and sizes[24] == single and sizes[12] < _bytes(full.terms.values())


def test_the_single_pass_where_the_halves_do_not_fit_is_the_full_space():
    # delta over [0, 6)^5 at budget 1270: the halves do not fit, so theorem 1
    # runs the single pass, kept at k = n, which the full space then reads
    compute(CodeSpec(5, 6, ((DELTA, 3, 1),)), "extended", "theorem1", budget=1270)
    with mock.patch.object(enumerators, "_exact_pass", wraps=enumerators._exact_pass) as exact_pass:
        full = full_space_enumerator(5, 6, [DELTA])
    assert not exact_pass.called
    assert full == compute(CodeSpec(5, 6, ((DELTA, 1, 0),)), "extended", "oracle").poly


@given(split_specs())
def test_a_cold_overflowing_join_falls_back_to_the_single_pass(spec):
    # from an empty map, with the first join made to overflow, theorem 1 at
    # k = n // 2 answers as the oracle, and the entry at k = n it leaves is
    # the one a cold call at k = n builds
    n, r, cons = spec.n, spec.r, spec.constraints
    key = (n, r, tuple(c.stat for c in cons), n)
    join, joins = enumerators._kept, []

    def overflowing(*args):
        joins.append(args)
        return None if len(joins) == 1 else join(*args)

    def single() -> tuple:
        size, space, moduli, left, right = enumerators._PASSES[key]
        return size, space.variables, space.radices, moduli, left, right

    enumerators._PASSES.clear()
    with mock.patch.object(enumerators, "_kept", overflowing):
        space, kept = enumerators._theorem1_terms(n, r, cons, None, n // 2)
    expected = compute(spec, "extended", "oracle").poly
    assert len(joins) == 2
    assert (space.variables, space.read(kept, "extended")) == (expected.variables, expected)
    fallback = single()
    enumerators._PASSES.clear()
    enumerators._theorem1_terms(n, r, cons, None, n)
    assert single() == fallback


def test_kept_passes_are_plain_terms():
    # split, overflowing, unsplit and full-space entries alike: each key is
    # (n, r, statistics, k), each value an immutable tuple of no callable,
    # its size the bytes of the terms it holds, and each term a (key,
    # count) pair of integers in a tuple filed under the class number of its
    # start and its statistic residues mod the entry's moduli
    compute(make_family("levenshtein", n=24, m=7, a=0), "extended", "theorem1")
    compute(CodeSpec(5, 6, ((DELTA, 3, 1),)), "extended", "theorem1", budget=1270)
    compute(make_family("tenengolts", n=6, r=3, a1=1, a2=2), "extended", "theorem1")
    full_space_enumerator(4, 3, [GAMMA_GT, SIGMA])
    assert len(_sizes()) == 5
    for key, entry in enumerators._PASSES.items():
        assert len(key) == 4 and type(entry) is tuple and not any(map(callable, entry))
        _, space, moduli, left, right = entry
        assert len(moduli) == len(key[2])
        *places, top = enumerators._places(moduli)
        digits = list(zip(space.strides, space.radices, moduli, places))
        for c, terms in (item for half in (left, right) for item in half.items()):
            # the start digit: 0 for no last symbol, else the last symbol + 1
            assert type(terms) is tuple and c // top <= key[1]
            for term in terms:
                assert type(term) is tuple and list(map(type, term)) == [int, int]
                assert c % top == sum(term[0] // stride % radix % m * place for stride, radix, m, place in digits)


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

    def record(bound, _budget, what):
        # the pass's bound on terms; its check of the n positions comes after
        if "terms" in what:
            bounds.append(bound)

    monkeypatch.setattr(enumerators, "check_budget", record)
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
        enumerators._residue_pass(spec, "complete", keyed - 1)
    enum = compute(spec, "complete")
    assert enum.method == "transfer"
    assert enum.cardinality() == tenengolts_cardinality(n, r, 0, 0)
    assert specialize(enum, "hamming").poly == tenengolts_hamming(n, r, 0, 0).poly


def test_residue_pass_decodes_keyed_type_vectors_without_unpack(monkeypatch):
    # r = 40, n = 2: 3^39 packed digits are past the budget, so tau stays in
    # the keys, and the read-out decodes the 40 digits of radix n + 1 = 3 of
    # each of the C(41, 2) type vectors in one `decode` call, not one a key
    spec, other = lc(2, 7, 40, [1, 3], 2), lc(2, 7, 40, [1, 3], 5)
    expected = compute(spec, "complete", "theorem1").poly, compute(other, "complete", "oracle").poly
    decode, calls = enumerators._PackedSpace.decode, []

    def spy(space, keys, start=0):
        calls.append(len(keys))
        return decode(space, keys, start)

    monkeypatch.setattr(enumerators._PackedSpace, "decode", spy)
    for code, poly in zip((spec, other), expected):
        calls.clear()
        enum = compute(code, "complete")
        assert (enum.method, enum.poly) == ("transfer", poly)
        # a kept entry is read the same way at another residue
        assert calls == [comb(41, 2)]


def _digit_congruences(monkeypatch) -> list:
    """Spy on the residue pass's layout rule: the index of the congruence it
    carries as cyclic digits, or None for the keyed layout, per pass."""
    seen = []
    rule = enumerators._digit_congruence

    def spy(*args):
        seen.append(rule(*args))
        return seen[-1]

    monkeypatch.setattr(enumerators, "_digit_congruence", spy)
    return seen


@pytest.mark.parametrize(
    "spec, kind, budget, star",
    [
        # m* = n against m* = n + 1 at "hamming": n + 1 cyclic states of the
        # Hamming weight against the m* keyed ones, ties cyclic
        (lc(6, 6, 2, (1, 2, 3, 4, 5, 6), 1), "hamming", None, None),
        (lc(6, 7, 2, (1, 2, 3, 4, 5, 6), 1), "hamming", None, 0),
        # keys = r^n and r^n + 1, 3^4 = 81: one cyclic state (five at
        # "hamming") against min(81, keys) keyed ones, so both are cyclic
        (lc(4, 81, 3, (1, 3, 9, 27), 40), "cardinality", None, 0),
        (lc(4, 82, 3, (1, 3, 9, 27), 40), "cardinality", None, 0),
        (lc(4, 81, 3, (1, 3, 9, 27), 40), "hamming", None, 0),
        (lc(4, 82, 3, (1, 3, 9, 27), 40), "hamming", None, 0),
        # keys times r per last symbol: 8 * 2 = 2^4 and 9 * 2, 2 cyclic states
        (CodeSpec(4, 2, ((GAMMA_GT, 8, 3),)), "cardinality", None, 0),
        (CodeSpec(4, 2, ((GAMMA_GT, 9, 3),)), "cardinality", None, 0),
        # cells = 7 Hamming weights * 500 digits against the budget; past it the
        # keyed layout answers within today's bound min(3^6, 3500) = 729
        (lc(6, 500, 3, (1, 5, 25, 125, 625, 3125), 7), "hamming", 3500, 0),
        (lc(6, 500, 3, (1, 5, 25, 125, 625, 3125), 7), "hamming", 3499, None),
        (lc(6, 500, 3, (1, 5, 25, 125, 625, 3125), 7), "hamming", 1000, None),
        # the first congruence of largest modulus is the digits, the rest keyed
        (CodeSpec(5, 3, ((SIGMA, 2, 1), (OMEGA, 9, 4), (linear((2, -1, 0, 5, 3)), 9, 2))), "hamming", None, 1),
        (CodeSpec(5, 3, ((DELTA, 2, 1), (GAMMA_GE, 5, 2), (SIGMA, 3, 0))), "cardinality", None, 1),
        # "complete": C(6, 2) = 15 type vectors against tau keyed, min(81, 15 * 81)
        (lc(4, 81, 3, (1, 3, 9, 27), 40), "complete", None, 0),
        # nonbinary_svt n=11 r=2 m=9, keys 9 * 2 * 2 * 2: 12 type vectors * 8 / sigma's 2
        # = 48 cyclic states against 72 with tau packed
        (make_family("nonbinary_svt", n=11, r=2, m=9, a=3, b=1, c=0), "complete", None, 0),
        # sigma as the cyclic digits: tau fixes no residue left in the keys, so
        # min(3^2, C(4, 2) * 2) = 9 cyclic states against 3 * 2 keyed ones
        (CodeSpec(2, 3, ((OMEGA, 2, 1), (SIGMA, 3, 2))), "complete", None, None),
        # C(14, 2) = 91 type vectors against 17 keys with tau packed
        (lc(12, 17, 3, tuple(range(1, 13)), 4), "complete", None, None),
        # exponential_coefficient n=m=6: keys 65 > 2^6, 7 cyclic states against 64
        (make_family("exponential_coefficient", n=6, m=6, a=5), "hamming", None, 0),
        # le_nguyen n=5 r=3, m=189: 21 type vectors against tau keyed, min(3^5, 21 * 189),
        # as long as their 21 * 189 = 3969 cells fit the budget
        (make_family("le_nguyen", n=5, r=3, t=2, a=7), "complete", None, 0),
        (make_family("le_nguyen", n=5, r=3, t=2, a=7), "complete", 3969, 0),
        (make_family("le_nguyen", n=5, r=3, t=2, a=7), "complete", 3968, None),
    ],
)
def test_residue_pass_layout_rule_at_its_boundaries(spec, kind, budget, star, monkeypatch):
    seen = _digit_congruences(monkeypatch)
    got = compute(spec, kind, budget=budget)
    expected = compute(spec, kind, "oracle")
    assert seen == [star]
    if kind != "cardinality":
        got, expected = got.poly, expected.poly
    assert got == expected


def test_state_count_has_one_home():
    # every pass's bounds and layout choice read its states off `_states`;
    # `_residue_pass` caps only the (n + 1)^(r - 1) packed tau digits of a
    # state, so that a large alphabet never builds that power
    tree = ast.parse(inspect.getsource(enumerators))
    callers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "capped_power"
    }
    assert callers == {"_states", "_residue_pass"}


def test_every_route_is_asked_of_compute():
    # no public function of the package only forwards to `compute`: a caller
    # names its route there, with the spec
    wrappers = []
    for path in sorted(Path(enumerators.__file__).parent.glob("*.py")):
        for func in ast.parse(path.read_text()).body:
            if not isinstance(func, ast.FunctionDef) or func.name.startswith("_"):
                continue
            body = func.body[1:] if ast.get_docstring(func) is not None else func.body
            if (
                len(body) == 1
                and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Call)
                and getattr(body[0].value.func, "id", None) == "compute"
            ):
                wrappers.append((path.stem, func.name))
    assert wrappers == []


def _stepped_runs() -> tuple:
    """A patch of `_transfer` whose runs step one position at a time, and
    the record of each run: its positions, whether it starts from the empty
    word, and the (last symbol, key) entries it holds after each position."""
    runs, transfer = [], enumerators._transfer

    def spy(*args):
        run = transfer(*args)

        def stepped(positions, states):
            runs.append((list(positions), list(states.values()) == [{0: 1}], []))
            for j in runs[-1][0]:
                states = run((j,), states)
                runs[-1][2].append(sum(map(len, states.values())))
            return states

        return stepped

    return mock.patch.object(enumerators, "_transfer", spy), runs


@given(residue_pass_cases(st.integers(1, 4), st.integers(0, 7)))
@example(make_family("nonbinary_svt", n=7, r=4, m=9, a=3, b=1, c=0))
@example(CodeSpec(7, 2, ((DELTA, 1, 0),)))
def test_no_transfer_run_outgrows_its_states(spec):
    # after every position each run holds at most the `_states` of its pass's
    # digits: the residue pass at every kind, in the layout the rule picks and
    # forced keyed, tau keyed and packed at "complete"; theorem 1's halves and
    # its single pass, each over the positions since its empty word
    n, r, cons = spec.n, spec.r, spec.constraints
    held = [(c.stat, c.m) for c in cons] + [(None, r)] * enumerators._reads_previous(c.stat for c in cons)
    rule = enumerators._digit_congruence
    for kind, excess in [("cardinality", 16), ("hamming", 16), ("complete", 0), ("complete", 10**9)]:
        for forced in (False, True):
            stars = []

            def layout(*args):
                stars.append(None if forced else rule(*args))
                return stars[-1]

            patch, runs = _stepped_runs()
            # each forced layout runs its own pass, none kept by an earlier one
            enumerators._PASSES.clear()
            with (
                patch,
                mock.patch.object(enumerators, "_digit_congruence", layout),
                mock.patch.object(enumerators, "_PACKED_EXCESS", excess),
            ):
                enumerators._residue_pass(spec, kind, None)
            if stars[0] is None:
                bound = enumerators._states(r, n, held, kind == "complete" and not excess)
            else:
                digits = held[: stars[0]] + held[stars[0] + 1 :] + [(None, n + 1)] * (kind == "hamming")
                bound = enumerators._states(r, n, digits, kind == "complete")
            [(_, _, entries)] = runs
            assert max(entries, default=1) <= bound, (kind, excess, stars)
    base = enumerators._nonnegative_weights(spec)
    stats = [c.stat for c in base.constraints]
    # every example runs theorem 1's passes afresh, none kept by an earlier one
    enumerators._PASSES.clear()
    for k in (n // 2, n):
        patch, runs = _stepped_runs()
        with patch:
            enumerators._theorem1_terms(n, r, base.constraints, None, k)
        for positions, empty, entries in runs:
            if positions:
                lo, hi = positions[0] if empty else 0, positions[-1] + 1
                tops = [st.form.top(r, lo, hi) for st in stats]
                bound = enumerators._states(r, hi - lo, zip(stats, [1 + top for top in tops]), True)
                assert max(entries) <= bound, (k, positions, empty)


#: the residue pass's layouts, each forced: (name, whether a congruence is
#: carried cyclically, _PACKED_EXCESS).  At "complete" the keyed layout
#: packs tau into the counts or keeps it in the keys; the cyclic one keys it
RESIDUE_LAYOUTS = [("keyed", False, 10**9), ("cyclic", True, 10**9), ("tau_keyed", False, 0)]


def _forced_layout(cyclic: bool, excess: int):
    """Patches that force the residue pass's layout: the first congruence of
    largest modulus cyclic, or none, and tau packed up to `excess` times its
    keyed bound."""
    def layout(n, r, cons, *_):
        moduli = [c.m for c in cons]
        return moduli.index(max(moduli)) if cyclic else None

    return (
        mock.patch.object(enumerators, "_digit_congruence", layout),
        mock.patch.object(enumerators, "_PACKED_EXCESS", excess),
    )


def _at(spec, residues) -> CodeSpec:
    return CodeSpec(spec.n, spec.r, tuple((c.stat, c.m, a) for c, a in zip(spec.constraints, residues)))


@given(
    residue_pass_cases(),
    st.sampled_from(["complete", "hamming", "cardinality"]),
    st.sampled_from(RESIDUE_LAYOUTS),
    st.data(),
)
@example(make_family("nonbinary_svt", n=4, r=3, m=5, a=1, b=0, c=2), "complete", RESIDUE_LAYOUTS[1], None)
def test_kept_residue_pass_reads_as_a_fresh_one(spec, kind, layout, data):
    # a later request over the same congruences at other residues reads the
    # kept states, runs no pass, and answers as a fresh pass and the oracle
    # do, in every layout; no read changes the kept entry
    name, cyclic, excess = layout
    moduli = [c.m for c in spec.constraints]
    residues = [tuple(c.a for c in spec.constraints)]
    if data is not None:
        residues += [data.draw(st.tuples(*(st.integers(0, m - 1) for m in moduli)), label="a") for _ in range(3)]
    codes_at = [_at(spec, a) for a in residues]
    patches = _forced_layout(cyclic, excess)
    with patches[0], patches[1]:
        fresh = []
        for code in codes_at:
            enumerators._PASSES.clear()
            fresh.append(enumerators._residue_pass(code, kind, None))
        enumerators._PASSES.clear()
        passes, transfer = [], enumerators._transfer

        def copied(*args):
            # a copy of the states the pass returns, before any read
            run = transfer(*args)
            return lambda *state: passes.append(run(*state)) or copy.deepcopy(passes[-1])

        with mock.patch.object(enumerators, "_transfer", copied):
            enumerators._residue_pass(codes_at[-1], kind, None)
        [(_, terms, *_)] = enumerators._PASSES.values()
        with mock.patch.object(enumerators, "_transfer", wraps=transfer) as spy:
            warm = [enumerators._residue_pass(code, kind, None) for code in codes_at]
    assert not spy.called
    assert warm == fresh and [{None: terms}] == passes
    for code, got in zip(codes_at, warm):
        expected = compute(code, kind, "oracle")
        assert got == (expected if kind == "cardinality" else expected.poly), name


def _whole_space(n: int, r: int, kind: str):
    """[0, r)^n at `kind`: r^n words, (1 + (r - 1) w)^n, or (w_0 + ... + w_(r-1))^n."""
    if kind == "cardinality":
        return r**n
    if kind == "hamming":
        return {(k,): comb(n, k) * (r - 1) ** k for k in range(n + 1) if r > 1 or k == 0}
    return {tau: factorial(n) // prod(map(factorial, tau)) for tau in compositions(n, r)}


@given(
    residue_pass_cases(moduli=st.integers(1, 7)),
    st.sampled_from(["complete", "hamming", "cardinality"]),
    st.sampled_from(RESIDUE_LAYOUTS),
)
def test_every_residue_from_one_kept_pass_adds_up_to_the_whole_space(spec, kind, layout):
    # the codes at every residue tuple partition [0, r)^n: read from the one
    # kept pass, their results add up to the whole space at each kind
    _, cyclic, excess = layout
    n, r = spec.n, spec.r
    patches = _forced_layout(cyclic, excess)
    with patches[0], patches[1]:
        enumerators._residue_pass(spec, kind, None)
        with mock.patch.object(enumerators, "_transfer", wraps=enumerators._transfer) as transfer:
            results = [
                enumerators._residue_pass(_at(spec, a), kind, None)
                for a in itertools.product(*(range(c.m) for c in spec.constraints))
            ]
    assert not transfer.called
    if kind == "cardinality":
        assert sum(results) == _whole_space(n, r, kind)
        return
    total = Counter()
    for poly in results:
        total.update(poly.terms)
    assert dict(total) == _whole_space(n, r, kind)


def _kept_bytes() -> dict:
    """The kept entries' byte sizes by key, least recently used first."""
    return {key: entry[0] for key, entry in enumerators._PASSES.items()}


def test_kept_residue_pass_refuses_as_a_fresh_one(monkeypatch):
    # nonbinary_svt n=40 m=13 at "hamming": 41 * 234 = 9594 terms.  Entries
    # for its congruences at other residues and budgets are kept, none at
    # 9593, so the request there runs every check and is refused as cold
    monkeypatch.setattr(enumerators, "_PASSES_BYTES", 1 << 20)
    spec = make_family("nonbinary_svt", n=40, r=3, m=13, a=0, b=0, c=0)
    refusal = "^residue transfer pass of up to 9594 terms exceeds the budget 9593$"
    with pytest.raises(BudgetExceededError, match=refusal):
        enumerators._residue_pass(spec, "hamming", 9593)
    assert enumerators._PASSES == {}
    other = make_family("nonbinary_svt", n=40, r=3, m=13, a=5, b=1, c=2)
    for budget in (None, 9594, 10**5):
        enumerators._residue_pass(other, "hamming", budget)
    kept = _kept_bytes()
    assert [key[-1] for key in kept] == [10**7, 9594, 10**5]
    for code in (spec, other):
        with (
            mock.patch.object(enumerators, "_transfer", wraps=enumerators._transfer) as transfer,
            pytest.raises(BudgetExceededError, match=refusal),
        ):
            enumerators._residue_pass(code, "hamming", 9593)
        assert not transfer.called and _kept_bytes() == kept


def test_kept_residue_pass_is_read_at_its_own_budget_only():
    # an entry built at the default budget is not read at a smaller one, even
    # where the smaller budget fits: that request runs its own checks and pass
    spec = make_family("nonbinary_svt", n=12, r=3, m=5, a=0, b=0, c=0)
    expected = enumerators._residue_pass(spec, "complete", None)
    with mock.patch.object(enumerators, "_transfer", wraps=enumerators._transfer) as transfer:
        enumerators._residue_pass(_at(spec, (1, 1, 1)), "complete", None)
        assert not transfer.called
        assert enumerators._residue_pass(spec, "complete", 10**6) == expected
        assert transfer.call_count == 1
    assert [key[-1] for key in _kept_bytes()] == [10**7, 10**6]


def test_a_residue_pass_hit_builds_no_table_and_runs_no_pass():
    # the second request over the same congruences, at another residue, only
    # reads: no check, no layout choice, no increment table, no pass
    enumerators._residue_pass(make_family("le_nguyen", n=5, r=3, t=2, a=7), "hamming", None)
    second = make_family("le_nguyen", n=5, r=3, t=2, a=3)
    names = ("_transfer", "_increment_tables", "_digit_congruence", "check_budget", "_states")
    with contextlib.ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(enumerators, name, wraps=getattr(enumerators, name))) for name in names]
        got = compute(second, "hamming")
    assert [spy.call_count for spy in spies] == [0] * len(names)
    assert got.poly == compute(second, "hamming", "oracle").poly


def test_kept_residue_passes_stay_within_their_bytes(monkeypatch):
    # least recently used out first: with room for two entries, asking the
    # first again and then a third drops the second
    specs = [make_family("nonbinary_svt", n=n, r=3, m=7, a=0, b=0, c=0) for n in (7, 8, 6)]
    for spec in specs[:2]:
        enumerators._residue_pass(spec, "complete", None)
    (seven, size), (eight, more) = _kept_bytes().items()
    monkeypatch.setattr(enumerators, "_PASSES_BYTES", size + more)
    enumerators._residue_pass(_at(specs[0], (1, 1, 1)), "complete", None)
    enumerators._residue_pass(specs[2], "complete", None)
    kept = _kept_bytes()
    assert len(kept) == 2 and list(kept)[0] == seven and eight not in kept
    # an entry larger than the cap is not kept, and drops none, though it answers
    monkeypatch.setattr(enumerators, "_PASSES_BYTES", 1000)
    big = make_family("nonbinary_svt", n=9, r=3, m=7, a=0, b=0, c=0)
    assert enumerators._residue_pass(big, "complete", None) == compute(big, "complete", "oracle").poly
    assert _kept_bytes() == kept
    # any sequence: the bytes never add up past the cap
    monkeypatch.setattr(enumerators, "_PASSES_BYTES", 20_000)
    enumerators._PASSES.clear()
    for n in range(1, 10):
        for kind in ("cardinality", "hamming", "complete"):
            enumerators._residue_pass(make_family("nonbinary_svt", n=n, r=3, m=7, a=0, b=0, c=0), kind, None)
            assert sum(_kept_bytes().values()) <= 20_000


def test_one_store_keeps_both_passes_within_its_bytes(monkeypatch):
    # theorem 1's entries and the residue pass's share one map and one byte
    # bound, least recently used out first, whichever pass built them
    residue = make_family("nonbinary_svt", n=7, r=3, m=7, a=0, b=0, c=0)
    compute(make_family("levenshtein", n=8, m=3, a=0), "extended", "theorem1")
    enumerators._residue_pass(residue, "complete", None)
    (theorem1, size), (first, more) = _kept_bytes().items()
    monkeypatch.setattr(enumerators, "_PASSES_BYTES", size + more)
    # a theorem-1 hit, then a residue entry of as many bytes, kept at another
    # budget: the older residue entry goes
    compute(make_family("levenshtein", n=8, m=5, a=1), "extended", "theorem1")
    enumerators._residue_pass(residue, "complete", 10**6)
    (kept, second) = _kept_bytes()
    assert kept == theorem1 and first not in _kept_bytes()
    # then a smaller theorem-1 entry: the older theorem-1 entry goes
    compute(make_family("levenshtein", n=7, m=3, a=0), "extended", "theorem1")
    (kept, third) = _kept_bytes()
    assert kept == second and third[:2] == (7, 2)
    # a request refused before its pass keeps nothing, in either pass
    held = dict(enumerators._PASSES)
    with pytest.raises(BudgetExceededError):
        compute(make_family("levenshtein", n=12, m=3, a=0), "extended", "theorem1", 10)
    with pytest.raises(BudgetExceededError):
        enumerators._residue_pass(make_family("nonbinary_svt", n=12, r=3, m=7, a=0, b=0, c=0), "complete", 10)
    assert enumerators._PASSES == held
    # any mixed sequence: the bytes never add up past the bound
    monkeypatch.setattr(enumerators, "_PASSES_BYTES", 20_000)
    enumerators._PASSES.clear()
    for n in range(1, 10):
        compute(make_family("levenshtein", n=n, m=3, a=0), "extended", "theorem1")
        assert sum(_kept_bytes().values()) <= 20_000
        for kind in ("cardinality", "hamming", "complete"):
            enumerators._residue_pass(make_family("nonbinary_svt", n=n, r=3, m=7, a=0, b=0, c=0), kind, None)
            assert sum(_kept_bytes().values()) <= 20_000


def test_carry_message_has_one_home():
    # one decoder, `_PackedSpace.decode`, reads every packed key of the
    # passes, so one carry check raises the one message
    assert inspect.getsource(enumerators).count("past its last digit") == 1


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


def _descent_sum_draws() -> list:
    """(n, r, a1, a2, variant) at r = 4 (n <= 12) and r = 5, 6 (n <= 8):
    every a2 at every length, with a seeded draw of a1 and the variant."""
    rng = random.Random(0)
    return [
        (n, r, rng.randrange(n), a2, rng.choice((">", ">=", "<", "<=")))
        for r, top in ((4, 12), (5, 8), (6, 8))
        for n in range(1, top + 1)
        for a2 in range(r)
    ]


def test_tenengolts_closed_forms_match_theorem1_at_every_gcd():
    draws = _descent_sum_draws()
    # the d | n with gcd(r, d) | a2 reach every divisor g of r at a2 = 0 and
    # every proper one at a2 != 0, where the sum's two weights differ
    reached = {
        (r, gcd(r, d), a2 != 0)
        for n, r, _, a2, _ in draws
        for d in divisors(n)
        if a2 % gcd(r, d) == 0
    }
    assert reached == {(r, g, a2 != 0) for r in (4, 5, 6) for g in divisors(r) for a2 in {0, g % r}}
    assert {variant for *_, variant in draws} == {">", ">=", "<", "<="}
    for n, r, a1, a2, variant in draws:
        spec = make_family("tenengolts", n=n, r=r, a1=a1, a2=a2, variant=variant)
        expected = compute(spec, "hamming", "theorem1")
        assert tenengolts_hamming(n, r, a1, a2, variant).poly == expected.poly
        assert tenengolts_cardinality(n, r, a1, a2, variant) == expected.cardinality()


def test_tenengolts_closed_forms_are_one_sum_over_the_divisors_of_n(monkeypatch):
    # one table of Ramanujan sums c_d(a1') over d | n, no sum over e | r
    calls = []
    real_sums = enumerators.ramanujan_sums
    monkeypatch.setattr(enumerators, "ramanujan_sums", lambda n, a: calls.append((n, a)) or real_sums(n, a))
    for closed_form in (tenengolts_hamming, tenengolts_cardinality):
        calls.clear()
        # "<" maps a1 = 5 to a1' = 12 - 5
        closed_form(12, 6, 5, 2, "<")
        assert calls == [(12, 7)]


def test_tenengolts_hamming_expands_by_a_running_binomial(monkeypatch):
    # C(k, i) is stepped from C(k, i - 1), never computed afresh
    calls = []
    real_comb = enumerators.comb
    monkeypatch.setattr(enumerators, "comb", lambda *args: calls.append(args) or real_comb(*args))
    for n, r, a1, a2, variant in [(12, 6, 5, 2, "<"), (30, 4, 0, 0, ">"), (7, 3, 1, 0, ">=")]:
        enum = tenengolts_hamming(n, r, a1, a2, variant)
        assert enum.cardinality() == tenengolts_cardinality(n, r, a1, a2, variant)
    assert calls == []


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


def test_variant_transform_reads_the_written_rules():
    # every variant at every a1 gives the reference's base parameter and
    # reversal flag; n is checked first, then a1, then the variant, each
    # with its own message, and a variant that is no key is unknown too
    for n in range(1, 13):
        for a1 in range(n):
            for variant, reverses in ((">", False), ("<", True), ("<=", False), (">=", True)):
                assert tenengolts_variant_transform(variant, n, a1) == (base_reference(variant, n, a1), reverses)
    for args, message in [
        ((">", 0, 0), "n must be positive"),
        (("!=", 0, 5), "n must be positive"),
        (("<", 3, 3), r"a1 must lie in \[0, 3\), got 3"),
        (("!=", 3, -1), r"a1 must lie in \[0, 3\), got -1"),
        (("!=", 3, 0), "unknown variant '!='"),
        (([">"], 3, 0), r"unknown variant \['>'\]"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            tenengolts_variant_transform(*args)


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


@pytest.mark.parametrize(
    "n, r, a1, a2, variant",
    [(n, r, 7, 0, ">") for n in (5040, 55440) for r in range(2, 7)]
    + [(5040, 6, 11, 3, "<="), (55440, 4, 1000, 2, "<"), (55440, 3, 0, 1, ">=")]
    + [(720720, 2, 0, 0, ">"), (720720, 4, 360360, 2, "<"), (720720, 4, 5, 0, ">=")],
)
def test_tenengolts_cardinality_matches_the_term_by_term_sum_past_the_oracle(n, r, a1, a2, variant):
    assert tenengolts_cardinality(n, r, a1, a2, variant) == cardinality_reference(n, r, a1, a2, variant)


@pytest.mark.parametrize("r, variant", [(2, ">"), (3, "<"), (4, ">="), (5, "<="), (6, ">")])
def test_tenengolts_cardinalities_partition_the_space_at_n_360(r, variant):
    n = 360
    total = sum(tenengolts_cardinality(n, r, a1, a2, variant) for a1 in range(n) for a2 in range(r))
    assert total == r**n


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
        engine = compute(spec, "extended", "theorem1")
        assert engine.method == "character_sum"
        assert engine.poly == compute(spec, "extended", "oracle").poly


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
        oracle = compute(spec, "extended", "oracle")
        assert compute(spec, "extended", "theorem1").poly == oracle.poly


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
    extended = compute(spec, "extended", "oracle")
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


def test_route_choice_has_one_home():
    # every route is declared once, as a row of `_ROUTES`: no helper picks a
    # closed form, and no function of the package calls a runner itself
    tree = ast.parse(inspect.getsource(enumerators))
    functions = [func for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)]
    assert "_closed_form" not in {func.name for func in functions}
    runners = {run.__name__ for *_, run in enumerators._ROUTES}
    table = next(
        node
        for node in tree.body
        if isinstance(node, ast.Assign) and [target.id for target in node.targets] == ["_ROUTES"]
    )
    named = Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id in runners)
    in_table = Counter(node.id for node in ast.walk(table) if isinstance(node, ast.Name) and node.id in runners)
    assert named == in_table


def _rows_agree_with_the_oracle(spec) -> set:
    """Run each row of the route table that admits the spec, alone, at every
    kind it declares: it answers as the oracle does, bit for bit, labelled
    by its row.  The indices of the rows run."""
    expected = {kind: compute(spec, kind, "oracle") for kind in (*KINDS, "cardinality")}
    ran = set()
    for index, row in enumerate(enumerators._ROUTES):
        label, methods, kinds, admits, _ = row
        if not admits(spec):
            continue
        ran.add(index)
        with mock.patch.object(enumerators, "_ROUTES", (row,)):
            for kind in kinds:
                got = compute(spec, kind, methods[0])
                if kind == "cardinality":
                    assert got == expected[kind], (label, kind)
                    continue
                want = expected[kind].poly
                assert (got.kind, got.method, got.poly.variables, got.poly) == (kind, label, want.variables, want)
    return ran


@st.composite
def descent_sum_specs(draw):
    n, r = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    a1, a2 = draw(st.integers(0, n - 1)), draw(st.integers(0, r - 1))
    return make_family("tenengolts", n=n, r=r, a1=a1, a2=a2, variant=draw(st.sampled_from([">", ">=", "<", "<="])))


@given(theorem1_specs() | descent_sum_specs())
def test_every_route_that_admits_a_spec_matches_the_oracle(spec):
    _rows_agree_with_the_oracle(spec)


def test_route_cases_run_every_route():
    # a new route is checked by adding its row: each row admits one of them
    ran = set()
    for family, params, _ in ROUTE_CASES:
        ran |= _rows_agree_with_the_oracle(make_family(family, **params))
    assert ran == set(range(len(enumerators._ROUTES)))


def _spied_routes():
    """A patch of `_ROUTES` whose runners record their names as they are
    run, one spy per runner, and the record."""
    calls, spies = [], {}
    for *_, run in enumerators._ROUTES:

        def spy(*args, run=run):
            calls.append(run.__name__)
            return run(*args)

        spies.setdefault(run, spy)
    routes = tuple((*row[:-1], spies[row[-1]]) for row in enumerators._ROUTES)
    return mock.patch.object(enumerators, "_ROUTES", routes), calls


def test_a_refused_runner_is_not_run_again():
    # binary_vt n=8 at "hamming": the residue pass's bound of 81 terms is
    # past 27, theorem 1 fits it.  Its closed-form row is refused, its
    # transfer row not run, and theorem 1 answers
    spec = make_family("binary_vt", n=8, a=0)
    with pytest.raises(BudgetExceededError, match="residue transfer pass"):
        enumerators._residue_pass(spec, "hamming", 27)
    patch, calls = _spied_routes()
    with patch:
        got = compute(spec, "hamming", budget=27)
    assert calls == ["_residue_pass", "_theorem1"]
    assert got.method == "character_sum" and got.poly == compute(spec, "hamming", "oracle").poly
    # "closed" selects no theorem 1 row: its one refusal is raised
    patch, calls = _spied_routes()
    with patch, pytest.raises(BudgetExceededError, match="residue transfer pass"):
        compute(spec, "hamming", "closed", 27)
    assert calls == ["_residue_pass"]


def test_every_refusal_raises_the_first():
    # a descent/sum code past the budget: the divisor sum, the residue pass
    # and theorem 1 each refuse it, once, and the divisor sum's refusal is
    # raised, at r = 1 too, where theorem 1 holds one state per position
    for r in (3, 1):
        spec = make_family("tenengolts", n=5000, r=r, a1=0, a2=0)
        patch, calls = _spied_routes()
        with patch, pytest.raises(BudgetExceededError, match="^descent/sum divisor sum over 5000 positions"):
            compute(spec, "cardinality", budget=1000)
        assert calls == ["_divisor_sums", "_residue_pass", "_theorem1"]


def test_methods_are_read_off_the_routes():
    assert METHODS == ("auto", "closed", "theorem1", "oracle")
    assert set(METHODS) == {method for row in enumerators._ROUTES for method in row[1]}
    with pytest.raises(ValueError, match="^unknown method 'fast', choose one of auto, closed, theorem1, oracle$"):
        compute(make_family("binary_vt", n=3), "hamming", "fast")
