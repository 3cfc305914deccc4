import ast
import copy
import inspect
import itertools
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ntcodes.codes
import ntcodes.macwilliams
from ntcodes.cli import main
from ntcodes.codes import (
    STAT_KINDS,
    BudgetExceededError,
    CodeSpec,
    Constraint,
    DELTA,
    GAMMA_GT,
    OMEGA,
    SIGMA,
    Statistic,
    capped_power,
    count_text,
    custom,
    enumerate_codewords,
    evaluate_statistic,
    is_member,
    lc,
    linear,
    make_family,
    spec_from_dict,
    spec_to_dict,
    weight_sequence,
)
from ntcodes.codes import _membership_test, check_budget
from ntcodes.enumerators import _scan_terms, compute
from ntcodes.exactalg import IntegralityError
from statistic_reference import reference_statistic

# desk-reference codeword sets for the ternary descent/sum code, n=3 r=3
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

# n=2 r=3, per variant
T23_SETS = {
    ">": {
        (0, 0): {"00", "12"},
        (0, 1): {"01", "22"},
        (0, 2): {"02", "11"},
        (1, 0): {"21"},
        (1, 1): {"10"},
        (1, 2): {"20"},
    },
    ">=": {
        (0, 0): {"12"},
        (0, 1): {"01"},
        (0, 2): {"02"},
        (1, 0): {"00", "21"},
        (1, 1): {"10", "22"},
        (1, 2): {"11", "20"},
    },
    "<": {
        (0, 0): {"00", "21"},
        (0, 1): {"10", "22"},
        (0, 2): {"11", "20"},
        (1, 0): {"12"},
        (1, 1): {"01"},
        (1, 2): {"02"},
    },
    "<=": {
        (0, 0): {"21"},
        (0, 1): {"10"},
        (0, 2): {"20"},
        (1, 0): {"00", "12"},
        (1, 1): {"01", "22"},
        (1, 2): {"02", "11"},
    },
}


def words_of(spec, budget=None):
    return {"".join(map(str, w)) for w in enumerate_codewords(spec, budget)}


def test_statistic_values_from_t33_table():
    rows = {
        "000": (0, 0, (3, 0, 0)),
        "012": (0, 3, (1, 1, 1)),
        "111": (0, 3, (0, 3, 0)),
        "210": (3, 3, (1, 1, 1)),
        "222": (0, 6, (0, 0, 3)),
    }
    from ntcodes.codes import type_vector

    for text, (gamma, sigma, tau) in rows.items():
        word = tuple(int(c) for c in text)
        assert evaluate_statistic(GAMMA_GT, word) == gamma
        assert evaluate_statistic(SIGMA, word) == sigma
        assert type_vector(word, 3) == tau


@given(
    st.sampled_from(STAT_KINDS[:-1]),
    st.integers(1, 5).flatmap(lambda r: st.lists(st.integers(0, r - 1), max_size=9)),
    st.lists(st.integers(-6, 6), min_size=9, max_size=9),
)
def test_every_statistic_matches_its_definition(kind, word, h):
    # the definitions written out as plain loops share nothing with the form
    # table that the oracle and the transfer kernel both read
    stat = builtin_statistic(kind, h[: len(word)])
    assert evaluate_statistic(stat, tuple(word)) == reference_statistic(stat, word)


def test_statistic_edge_cases():
    assert evaluate_statistic(OMEGA, ()) == 0
    assert evaluate_statistic(OMEGA, (0, 0, 0, 0)) == 0
    assert evaluate_statistic(OMEGA, (1, 0, 1)) == 4
    assert evaluate_statistic(DELTA, (2, 1, 1, 0)) == 2
    assert evaluate_statistic(linear((5, -2)), (1, 1)) == 3
    with pytest.raises(ValueError):
        evaluate_statistic(linear((1, 2, 3)), (0, 1))


def test_custom_statistic():
    stat = custom(lambda w: len(w))
    assert evaluate_statistic(stat, (0, 1, 2)) == 3


def test_statistic_validation():
    with pytest.raises(ValueError):
        Statistic("nonsense")
    with pytest.raises(ValueError):
        Statistic("linear")
    with pytest.raises(ValueError):
        Statistic("sigma", h=(1,))


def test_membership_examples():
    spec = make_family("tenengolts", n=3, r=3, a1=0, a2=0)
    assert is_member(spec, (0, 1, 2))
    assert not is_member(spec, (0, 0, 1))
    assert is_member(spec, (0, 0, 0))
    with pytest.raises(ValueError):
        is_member(spec, (0, 1))
    with pytest.raises(ValueError):
        is_member(spec, (0, 1, 5))


def test_t33_codeword_table():
    for (a1, a2), expected in T33_SETS.items():
        spec = make_family("tenengolts", n=3, r=3, a1=a1, a2=a2)
        assert words_of(spec) == expected


def test_t23_variant_tables():
    for variant, table in T23_SETS.items():
        for (a1, a2), expected in table.items():
            spec = make_family("tenengolts", n=2, r=3, a1=a1, a2=a2, variant=variant)
            assert words_of(spec) == expected


def test_trivial_modulus_keeps_everything():
    spec = CodeSpec(2, 2, ((OMEGA, 1, 0),))
    assert words_of(spec) == {"00", "01", "10", "11"}


def refuse_split_scan(*_args):
    raise AssertionError("the split scan was entered")


def test_enumeration_budget(monkeypatch):
    spec = CodeSpec(8, 3, ((SIGMA, 1, 0),))
    with pytest.raises(BudgetExceededError):
        enumerate_codewords(spec, budget=100)
    assert len(list(enumerate_codewords(spec, budget=3**8))) == 3**8
    # the call itself refuses, on all r^n words, before any table is built
    monkeypatch.setattr(ntcodes.codes, "_split_scan", refuse_split_scan)
    with pytest.raises(BudgetExceededError, match="3\\^8"):
        enumerate_codewords(spec, budget=3**8 - 1)


def test_binary_vt_codewords():
    # brute force over 16 words: position-weighted sum divisible by 5
    expected = {
        "".join(map(str, w))
        for w in itertools.product((0, 1), repeat=4)
        if sum(i * x for i, x in enumerate(w, start=1)) % 5 == 0
    }
    assert expected == {"0000", "1001", "0110", "1111"}
    assert words_of(make_family("binary_vt", n=4, a=0)) == expected


def test_levenshtein_generalizes_binary_vt():
    assert words_of(make_family("levenshtein", n=4, m=5, a=0)) == words_of(
        make_family("binary_vt", n=4, a=0)
    )


def test_linear_code_parity():
    spec = make_family("linear_code", r=2, rows=[[1, 1]])
    assert words_of(spec) == {"00", "11"}


def test_lc_and_blc():
    spec = make_family("lc", n=4, m=5, r=2, h=(1, 2, 3, 4), a=0)
    assert words_of(spec) == {"0000", "1001", "0110", "1111"}
    assert words_of(make_family("blc", n=4, m=5, h=(1, 2, 3, 4), a=0)) == words_of(spec)
    # length 0: the empty word, whose weighted sum is 0
    assert words_of(lc(0, 5, 2, (), 0)) == {""}
    assert words_of(make_family("blc", n=0, m=5, h=(), a=1)) == set()
    with pytest.raises(ValueError, match="need n >= 0"):
        lc(-1, 5, 2, (), 0)


def test_shifted_vt_and_svt_constraints():
    spec = make_family("shifted_vt", n=3, m=4, a=1, parity=1)
    for w in enumerate_codewords(spec):
        assert sum(i * x for i, x in enumerate(w, start=1)) % 4 == 1
        assert sum(w) % 2 == 1
    svt = make_family("nonbinary_svt", n=3, r=3, m=2, a=0, b=1, c=2)
    for w in enumerate_codewords(svt):
        assert evaluate_statistic(GAMMA_GT, w) % 2 == 0
        assert evaluate_statistic(DELTA, w) % 2 == 1
        assert sum(w) % 3 == 2


def test_weight_sequence_examples():
    assert weight_sequence(1, 2, 6) == [1, 2, 3, 4, 5, 6]
    assert weight_sequence(2, 2, 6) == [1, 2, 4, 7, 12, 20]
    assert weight_sequence(3, 2, 1) == [1]
    # r-ary case: each step adds (r-1) times the window sum
    assert weight_sequence(1, 3, 4) == [1, 3, 7, 15]


def test_weight_sequence_recursion_oracle():
    for t in (1, 2, 3):
        for r in (2, 3):
            g = weight_sequence(t, r, 9)
            for i in range(9):
                window = sum(g[j] for j in range(max(i - t, 0), i))
                assert g[i] == 1 + (r - 1) * window


def test_helberg_and_le_nguyen():
    spec = make_family("helberg", n=4, t=2, a=0)
    g = weight_sequence(2, 2, 5)
    assert spec.constraints[0].m == g[4]
    assert spec.constraints[0].stat.h == tuple(g[:4])
    ln = make_family("le_nguyen", n=3, r=3, t=1, a=2)
    assert ln.r == 3
    for w in enumerate_codewords(ln):
        assert sum(h * x for h, x in zip((1, 3, 7), w)) % 15 == 2


def test_table_one_liner_families():
    ti = make_family("ternary_integer", n=3, a=0)
    assert ti.constraints[0].stat.h == (1, 3, 7)
    assert ti.constraints[0].m == 2**4 + 1
    oc = make_family("odd_coefficient", n=4, m=5, a=1)
    assert oc.constraints[0].stat.h == (1, 3, 5, 7)
    assert oc.constraints[0].m == 10
    an = make_family("an_code", p=5, a=0)
    assert an.n == 8 and an.constraints[0].m == 5
    with pytest.raises(ValueError):
        make_family("an_code", p=9, a=0)
    ec = make_family("exponential_coefficient", n=3, m=3, a=0)
    assert ec.constraints[0].stat.h == (1, 2, 4)
    assert ec.constraints[0].m == 9
    hv = make_family("han_vinck_morita", n=3, a=0, b=1)
    assert [c.m for c in hv.constraints] == [4, 3]


def test_single_linear_congruence_families_are_lc_specs():
    # each family is `lc` with its own modulus and weights, and keeps its errors
    assert make_family("le_nguyen", n=3, r=3, t=1, a=2) == lc(3, 15, 3, (1, 3, 7), 2)
    assert make_family("helberg", n=4, t=2, a=1) == lc(4, 12, 2, (1, 2, 4, 7), 1)
    assert make_family("ternary_integer", n=3, a=5) == lc(3, 17, 3, (1, 3, 7), 5)
    assert make_family("odd_coefficient", n=3, m=2, a=3) == lc(3, 4, 2, (1, 3, 5), 3)
    # an_code is omega mod p, the code of lc's consecutive weights 1..2^(p-2)
    assert make_family("an_code", p=5, a=4) == CodeSpec(8, 2, ((OMEGA, 5, 4),))
    assert make_family("exponential_coefficient", n=3, m=2, a=4) == lc(3, 5, 2, (1, 2, 4), 4)
    for family, params, bound in [
        ("le_nguyen", {"n": 3, "r": 3, "t": 1}, 15),
        ("ternary_integer", {"n": 3}, 17),
        ("odd_coefficient", {"n": 3, "m": 2}, 4),
        ("an_code", {"p": 5}, 5),
        ("exponential_coefficient", {"n": 3, "m": 2}, 5),
    ]:
        with pytest.raises(ValueError, match=rf"^a must lie in \[0, {bound}\), got {bound}$"):
            make_family(family, **params, a=bound)
    # helberg checks its own parameters: it takes no r
    for params in ({"n": 3, "t": 0}, {"n": 0, "t": 1}):
        with pytest.raises(ValueError, match=r"^n and t must be positive$"):
            make_family("helberg", **params, a=0)
    with pytest.raises(ValueError, match=r"^n, r, and t must be positive$"):
        make_family("le_nguyen", n=3, r=0, t=1, a=0)


@given(st.integers(1, 40), st.integers(0, 300), st.integers(1, 2**400))
def test_capped_power_is_the_min(r, n, cap):
    assert capped_power(r, n, cap) == min(r**n, cap)


def test_capped_power_never_builds_a_huge_power():
    # 3^(10^12) has about 2 * 10^11 bytes; only bit lengths are compared
    assert capped_power(3, 10**12, 10**7) == 10**7
    assert capped_power(1, 10**12, 5) == 1
    assert capped_power(2, 24, 2**24) == capped_power(2, 24, 2**24 + 1) == 2**24


def test_count_text_exact_below_two_to_the_64():
    assert count_text(234) == "234" and count_text(2**31 + 1) == "2147483649"
    assert count_text(2**64 - 1) == str(2**64 - 1)
    assert count_text(2**64) == "2^64" and count_text(2**64 + 1) == "2^65"
    assert count_text(2**20000) == "2^20000" and count_text(3**20000) == "2^31700"
    # a sentinel's negative integers keep their sign
    assert count_text(-(2**64) + 1) == str(-(2**64) + 1) and count_text(-(2**70)) == "-2^70"


def test_tenengolts_variants_share_the_module_records():
    records = ntcodes.codes._VARIANT_RECORDS
    kinds = {">": "gamma_gt", ">=": "gamma_ge", "<": "lambda_lt", "<=": "lambda_le"}
    assert ntcodes.codes.VARIANT_STATS == kinds and list(records) == list(kinds)
    for variant, stat in records.items():
        assert stat is getattr(ntcodes.codes, stat.kind.upper())
        descent, sums = make_family("tenengolts", n=6, r=3, a1=1, a2=2, variant=variant).constraints
        assert (descent.stat, descent.m, descent.a) == (stat, 6, 1) and descent.stat is stat
        assert (sums.stat, sums.m, sums.a) == (SIGMA, 3, 2)


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        make_family("tenengolts", n=3, r=3, a1=3, a2=0)
    with pytest.raises(ValueError):
        make_family("tenengolts", n=3, r=3, a1=0, a2=-1)
    with pytest.raises(ValueError):
        make_family("tenengolts", n=3, r=3, a1=0, a2=0, variant="!=")
    with pytest.raises(ValueError):
        make_family("no_such_family", n=1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Statistic("custom"), "custom statistic needs a callable"),
        (lambda: CodeSpec(-1, 2, ((SIGMA, 2, 0),)), "length must be non-negative, got -1"),
        (lambda: CodeSpec(2, 0, ((SIGMA, 2, 0),)), "alphabet size must be positive, got 0"),
        (lambda: CodeSpec(2, 2, ()), "a code spec needs at least one constraint"),
        (lambda: weight_sequence(0, 2, 3), "t, r, and length must all be positive"),
        (lambda: weight_sequence(1, 0, 3), "t, r, and length must all be positive"),
        (lambda: weight_sequence(1, 2, 0), "t, r, and length must all be positive"),
    ],
)
def test_library_only_range_checks(build, message):
    # checks no CLI argument reaches: the families check their own first
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_constraint_normalizes_residue():
    con = Constraint(SIGMA, 3, 7)
    assert con.a == 1
    with pytest.raises(ValueError):
        Constraint(SIGMA, 0, 0)


def test_records_compare_hash_freeze_and_show_their_fields():
    from ntcodes.enumerators import Enumerator
    from ntcodes.exactalg import MultiPoly
    from ntcodes.macwilliams import build_code, verify_macwilliams

    # equal specs are equal and hash alike; a record equals no other class
    spec = CodeSpec(3, 3, ((GAMMA_GT, 3, 0), (SIGMA, 3, 0)))
    same = make_family("tenengolts", n=3, r=3, a1=0, a2=0)
    assert spec == same and hash(spec) == hash(same) and spec is not same
    assert spec != CodeSpec(3, 3, ((GAMMA_GT, 3, 1), (SIGMA, 3, 0)))
    assert spec != (3, 3, spec.constraints) and Constraint(SIGMA, 3, 1) != (SIGMA, 3, 1)
    assert Constraint(SIGMA, 3, 4) == Constraint(SIGMA, 3, 1)
    assert hash(Constraint(SIGMA, 3, 4)) == hash(Constraint(SIGMA, 3, 1))
    # a statistic compares by kind and weights, never by its callable
    assert custom(len) == custom(sum) and hash(custom(len)) == hash(custom(sum))
    assert linear([1, 2]) == linear((1, 2)) and linear((1, 2)) != linear((1, 3))
    assert Statistic("omega") == OMEGA and OMEGA != SIGMA
    assert {OMEGA: 1}[Statistic("omega")] == 1

    code = build_code(2, [[1, 1]])
    assert code == build_code(2, [[1, 1]]) and hash(code) == hash(build_code(2, [[1, 1]]))
    for record, name in ((spec, "n"), (spec.constraints[0], "a"), (SIGMA, "kind"), (SIGMA, "form"), (code, "dual")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert spec.n == 3 and SIGMA.kind == "sigma" and code.dual == ((0, 0), (1, 1))

    assert repr(CodeSpec(2, 3, ((SIGMA, 2, 3), (linear([1, 2]), 5, 4)))) == (
        "CodeSpec(n=2, r=3, constraints=(Constraint(stat=Statistic(kind='sigma', h=None, fn=None), m=2, a=1), "
        "Constraint(stat=Statistic(kind='linear', h=(1, 2), fn=None), m=5, a=4)))"
    )
    assert repr(code) == "ZrLinearCode(r=2, n=2, s=1, matrix=((1, 1),), code=((0, 0), (1, 1)), dual=((0, 0), (1, 1)))"

    # the enumerator and the report stay mutable and unhashable
    poly = MultiPoly(("w",), {(0,): 1})
    enum = Enumerator("hamming", poly, "oracle")
    assert enum == Enumerator("hamming", poly, "oracle") != Enumerator("hamming", poly, "transfer")
    assert repr(enum) == "Enumerator(kind='hamming', poly=MultiPoly(('w',), '1'), method='oracle', spec=None)"
    enum.method = "closed_form"
    assert enum.method == "closed_form" and enum == Enumerator("hamming", poly, "closed_form")
    report = verify_macwilliams(code)
    report.verified = False
    assert not report.verified and report != verify_macwilliams(code)
    for record in (enum, report):
        with pytest.raises(TypeError):
            hash(record)

    # pickle and copy rebuild every record, the frozen ones included
    for record in (spec, linear((1, 2)), code, enum, report):
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record) == copy.copy(record)


def test_spec_json_round_trip():
    spec = CodeSpec(3, 3, ((GAMMA_GT, 3, 2), (linear((1, 2, 3)), 5, 4)))
    data = spec_to_dict(spec)
    assert data["constraints"][0]["stat"] == "gamma_gt"
    assert data["constraints"][1]["stat"] == {"linear": [1, 2, 3]}
    assert spec_from_dict(data) == spec
    with pytest.raises(ValueError):
        spec_to_dict(CodeSpec(2, 2, ((custom(len), 2, 0),)))


# ---------------------------------------------------------------------------
# structural properties of the descent statistics


def full_space(n, r):
    return itertools.product(range(r), repeat=n)


def variant_sets(n, r, variant):
    out = {}
    stat = {">": "gamma_gt", ">=": "gamma_ge", "<": "lambda_lt", "<=": "lambda_le"}[variant]
    for w in full_space(n, r):
        key = (evaluate_statistic(Statistic(stat), w) % n, sum(w) % r)
        out.setdefault(key, set()).add(w)
    return out


def test_variant_equivalences():
    # reversal and parameter-shift identities between the four variants
    for n in range(1, 7):
        for r in (2, 3, 4):
            base = variant_sets(n, r, ">")
            ge = variant_sets(n, r, ">=")
            lt = variant_sets(n, r, "<")
            le = variant_sets(n, r, "<=")
            for a1 in range(n):
                bar = (n - a1) if a1 else 0
                if n % 2:
                    prime = (n - a1) if a1 else 0
                else:
                    prime = n // 2 - a1 + (n if a1 > n // 2 else 0)
                for a2 in range(r):
                    rev = {w[::-1] for w in base.get((bar, a2), set())}
                    assert lt.get((a1, a2), set()) == rev
                    rev_ge = {w[::-1] for w in ge.get((bar, a2), set())}
                    assert le.get((a1, a2), set()) == rev_ge
                    assert le.get((a1, a2), set()) == base.get((prime, a2), set())
                    assert ge.get((a1, a2), set()) == lt.get((prime, a2), set())


def test_partition_property():
    # the (a1, a2) classes partition the full space
    for n in range(1, 7):
        for r in (2, 3, 4):
            cells = variant_sets(n, r, ">")
            total = sum(len(v) for v in cells.values())
            assert total == r**n
            seen = set()
            for cell in cells.values():
                assert not (seen & cell)
                seen |= cell


@given(st.integers(2, 8), st.data())
def test_descent_ascent_complementarity(n, data):
    word = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
    gamma = evaluate_statistic(GAMMA_GT, word)
    lam_le = evaluate_statistic(Statistic("lambda_le"), word)
    assert gamma + lam_le == n * (n - 1) // 2
    lam_lt_rev = evaluate_statistic(Statistic("lambda_lt"), word[::-1])
    assert (lam_lt_rev + gamma) % n == 0


# ---------------------------------------------------------------------------
# the meet-in-the-middle scan against the plain scan it replaced


def plain_scan(spec, budget=None):
    """Reference: the codeword scan before the split, every word of
    [0, r)^n in lexicographic order filtered by the membership test."""
    total = spec.r**spec.n
    check_budget(total, budget, f"enumerating {spec.r}^{spec.n} = {total} words")
    test = _membership_test(spec)
    return [word for word in itertools.product(range(spec.r), repeat=spec.n) if test(word)]


BUILTIN_KINDS = tuple(kind for kind in STAT_KINDS if kind != "custom")


def builtin_statistic(kind, h):
    return linear(h) if kind == "linear" else Statistic(kind)


@st.composite
def split_specs(draw):
    n = draw(st.integers(0, 8))
    r = draw(st.integers(1, 4 if n <= 6 else 3))
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(BUILTIN_KINDS))
        h = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
        m = draw(st.integers(1, 9))
        constraints.append((builtin_statistic(kind, h), m, draw(st.integers(0, m - 1))))
    return CodeSpec(n, r, tuple(constraints))


@settings(max_examples=300)
@given(split_specs())
def test_split_scan_equals_plain_scan(spec):
    assert list(enumerate_codewords(spec)) == plain_scan(spec)


TALLY_KINDS = ("cardinality", "hamming", "complete", "extended")

#: the built-in kinds whose increments read no previous symbol, and the rest
FREE_KINDS = ("omega", "sigma", "linear")
READING_KINDS = tuple(kind for kind in BUILTIN_KINDS if kind not in FREE_KINDS)


def plain_tally(spec, kind, words=None):
    """Reference: the oracle's per-word tally before the split scan carried
    keys, over every word of [0, r)^n that `is_member` accepts (or
    `words`): its number at "cardinality", else each codeword keyed by its
    Hamming weight, its type vector, or at "extended" its statistic values,
    each from `reference_statistic`, then its type vector; a negative value
    there raises ValueError."""
    n, r = spec.n, spec.r
    if words is None:
        words = [w for w in itertools.product(range(r), repeat=n) if is_member(spec, w)]
    if kind == "cardinality":
        return len(words)
    terms = {}
    for word in words:
        tau = tuple(word.count(x) for x in range(r))
        if kind == "hamming":
            key = (n - tau[0],)
        elif kind == "complete":
            key = tau
        else:
            values = tuple(reference_statistic(c.stat, word) for c in spec.constraints)
            if any(v < 0 for v in values):
                raise ValueError("a statistic took a negative value")
            key = values + tau
        terms[key] = terms.get(key, 0) + 1
    return terms


@st.composite
def tally_specs(draw):
    """Specs of 1-3 built-in constraints whose statistics all read no
    previous symbol, all read it, or some of each."""
    n = draw(st.integers(0, 8))
    r = draw(st.integers(1, 4 if n <= 6 else 3))
    mode = draw(st.sampled_from(("free", "reading", "mixed")))
    if mode == "mixed":
        pools = draw(st.permutations([FREE_KINDS, READING_KINDS, BUILTIN_KINDS][: draw(st.integers(2, 3))]))
    else:
        pools = [FREE_KINDS if mode == "free" else READING_KINDS] * draw(st.integers(1, 3))
    constraints = []
    for pool in pools:
        h = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
        m = draw(st.integers(1, 9))
        constraints.append((builtin_statistic(draw(st.sampled_from(pool)), h), m, draw(st.integers(0, m - 1))))
    return CodeSpec(n, r, tuple(constraints))


@settings(max_examples=150, deadline=None)
@given(tally_specs())
@example(CodeSpec(3, 2, ((linear((-1, 2, 0)), 1, 0),)))
@example(CodeSpec(5, 3, ((linear((-6, 0, 6, -1, 3)), 4, 1), (DELTA, 2, 1))))
@example(CodeSpec(1, 3, ((SIGMA, 2, 0),)))
def test_tally_equals_plain_tally(spec):
    words = [w for w in itertools.product(range(spec.r), repeat=spec.n) if is_member(spec, w)]
    for kind in TALLY_KINDS:
        try:
            expected = plain_tally(spec, kind, words)
        except ValueError:
            with pytest.raises(ValueError, match="negative value"):
                _scan_terms(spec, kind, None)
            continue
        got = _scan_terms(spec, kind, None)
        assert (got if kind == "cardinality" else dict(got)) == expected, kind


def test_split_scan_every_kind_and_length():
    for kind in BUILTIN_KINDS:
        for n in range(9):
            # zero and negative weights
            h = tuple((-1) ** i * i for i in range(n))
            stat = builtin_statistic(kind, h)
            for r, m in ((1, 2), (3, 1), (3, n + 2), (2, 2 * n + 1)):
                for a in {0, m // 2, m - 1}:
                    spec = CodeSpec(n, r, ((stat, m, a),))
                    assert list(enumerate_codewords(spec)) == plain_scan(spec), (kind, n, r, m, a)
    svt = make_family("nonbinary_svt", n=8, r=3, m=5, a=2, b=1, c=0)
    assert list(enumerate_codewords(svt)) == plain_scan(svt)


def test_custom_statistic_takes_the_plain_scan(monkeypatch):
    monkeypatch.setattr(ntcodes.codes, "_split_scan", refuse_split_scan)
    spec = CodeSpec(4, 3, ((custom(lambda w: w[0] * w[-1]), 3, 1), (SIGMA, 2, 0)))
    assert list(enumerate_codewords(spec)) == plain_scan(spec)
    # so do words too short to split
    assert list(enumerate_codewords(CodeSpec(1, 3, ((SIGMA, 2, 0),)))) == [(0,), (2,)]
    with pytest.raises(AssertionError, match="split scan"):
        enumerate_codewords(CodeSpec(2, 3, ((SIGMA, 2, 0),)))


def test_split_scan_recheck_raises_integrality_error(monkeypatch, capsys):
    split = ntcodes.codes.Form.split

    def off_by_one(form, n, k, r):
        prefix, suffix, boundary = split(form, n, k, r)
        return (lambda word: prefix(word) + 1), suffix, boundary

    monkeypatch.setattr(ntcodes.codes.Form, "split", off_by_one)
    spec = CodeSpec(4, 3, ((SIGMA, 3, 0),))
    with pytest.raises(IntegralityError, match="non-codeword"):
        list(enumerate_codewords(spec))
    # the oracle's tally rechecks every codeword at every kind
    for kind in TALLY_KINDS:
        with pytest.raises(IntegralityError, match="non-codeword"):
            compute(spec, kind, "oracle")
    # two constraints: the multi-constraint recheck
    argv = ["tenengolts", "--n", "4", "--r", "3", "--a1", "0", "--a2", "0", "--method", "oracle"]
    for request in (["card", *argv], ["enum", *argv, "--kind", "hamming"]):
        assert main(request) == 4
        assert "non-codeword" in capsys.readouterr().err


def _off_by_one_suffix(split):
    def mutant(form, n, k, r):
        prefix, suffix, boundary = split(form, n, k, r)
        return prefix, (lambda word: suffix(word) + 1), boundary

    return mutant


def _corrupted_table_key(split):
    # the pair across the split adds one more than it should, so each
    # prefix looks up the table key of the wrong suffix residues
    def mutant(form, n, k, r):
        prefix, suffix, boundary = split(form, n, k, r)
        return prefix, suffix, tuple(tuple(x + 1 for x in row) for row in boundary)

    return mutant


@pytest.mark.parametrize("mutant", [_off_by_one_suffix, _corrupted_table_key])
def test_tally_recheck_raises_integrality_error(monkeypatch, capsys, mutant):
    # the tally path, where no statistic reads the previous symbol: every
    # codeword it counts is rechecked from the weights, apart from the
    # table, so a wrong suffix residue or table key raises at every kind
    h = (1, 2, 0, 4, 3, 1)
    spec = lc(6, 5, 3, h, 2)
    two = CodeSpec(6, 3, ((linear(h), 5, 2), (OMEGA, 4, 1)))
    monkeypatch.setattr(ntcodes.codes.Form, "split", mutant(ntcodes.codes.Form.split))
    for code in (spec, two):
        for kind in TALLY_KINDS:
            with pytest.raises(IntegralityError, match="non-codeword"):
                compute(code, kind, "oracle")
        with pytest.raises(IntegralityError, match="non-codeword"):
            list(enumerate_codewords(code))
    argv = ["lc", "--n", "6", "--m", "5", "--r", "3", "--h", "1,2,0,4,3,1", "--a", "2", "--method", "oracle"]
    for request in (["card", *argv], *(["enum", *argv, "--kind", kind] for kind in TALLY_KINDS[1:])):
        assert main(request) == 4
        assert "non-codeword" in capsys.readouterr().err


def test_lc_oracle_builds_no_word(monkeypatch):
    # an lc request at "cardinality" or "hamming" adds each prefix's key to
    # each suffix's: no product of length n, no word built, no full-word
    # membership test or statistic evaluation
    h = [random.Random(48).randrange(1, 13) for _ in range(16)]
    spec = lc(16, 13, 2, h, 5)
    expected = {kind: compute(spec, kind, "theorem1") for kind in ("cardinality", "hamming")}
    repeats = []
    product = itertools.product

    def recording_product(*args, repeat=1):
        repeats.append(repeat)
        return product(*args, repeat=repeat)

    def refuse(*_args):
        raise AssertionError("a whole word was built or tested")

    monkeypatch.setattr(itertools, "product", recording_product)
    for name in ("_membership_test", "_congruence_test", "statistic_evaluator", "_split_words", "_word_tally"):
        monkeypatch.setattr(ntcodes.codes, name, refuse)
    assert compute(spec, "cardinality", "oracle") == expected["cardinality"]
    assert compute(spec, "hamming", "oracle").poly == expected["hamming"].poly
    assert repeats == [8, 8] * 2


def test_tenengolts_oracle_evaluates_every_codeword_in_full(monkeypatch):
    # the descent statistic reads the previous symbol: its recheck and its
    # value at "extended" still evaluate it on each whole codeword
    spec = make_family("tenengolts", n=6, r=3, a1=2, a2=1)
    codewords = plain_scan(spec)
    evaluator, evaluated = ntcodes.codes.statistic_evaluator, []

    def recording(stat, n):
        value = evaluator(stat, n)

        def record(word):
            evaluated.append((stat.kind, word))
            return value(word)

        return record

    monkeypatch.setattr(ntcodes.codes, "statistic_evaluator", recording)
    for kind in TALLY_KINDS:
        evaluated.clear()
        compute(spec, kind, "oracle")
        assert {word for stat, word in evaluated if stat == "gamma_gt"} == set(codewords), kind
        assert {word for stat, word in evaluated if stat == "sigma"} == (set(codewords) if kind == "extended" else set())


def test_codes_imports_nothing_from_enumerators():
    # the oracle must share no code with the transfer kernel it checks
    source = inspect.getsource(ntcodes.codes)
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert not any("enumerators" in name for name in modules), modules
    assert not any(name in source for name in ("_increments", "_transfer", "_exact_pass", "_residue_pass"))


#: the only places that may test a statistic's kind against a built-in kind
#: name; the form table is a dict keyed by kind and tests none
KIND_TEST_SITES = {
    ("codes", "Statistic.__init__"),
    ("codes", "_stat_to_json"),
    ("codes", "_stat_from_json"),
    ("enumerators", "_is_descent_sum"),
}


def _tables(source: str) -> dict:
    """{name: its string keys or elements} of each module-level dict,
    tuple, list or set literal."""
    tables = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            held = value.keys if isinstance(value, ast.Dict) else getattr(value, "elts", [])
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    tables[target.id] = {x.value for x in held if isinstance(x, ast.Constant)}
    return tables


def _kind_tests(source: str, tables: dict) -> list:
    """(site, line) of every ==, !=, in or not in test of a kind against a
    built-in kind name other than "linear" and "custom": a string, a
    literal collection holding one, or a name of `tables` (`_tables`)
    holding one.  A kind is a `.kind` attribute, a local name bound from
    one, or a parameter of the enclosing function (or of one it is nested
    in).  The site is the qualified name of the enclosing function, or
    "<module>"."""
    names = set(STAT_KINDS) - {"linear", "custom"}
    tree = ast.parse(source)

    def builtin(node) -> bool:
        if isinstance(node, ast.Constant):
            return node.value in names
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(builtin, node.elts))
        return isinstance(node, ast.Name) and bool(names & tables.get(node.id, set()))

    def kind_names(func) -> set:
        # its parameters, and the names it binds from a `.kind` attribute
        args = func.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        bound = {
            target.id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute) and node.value.attr == "kind"
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        return {a.arg for a in params if a is not None} | bound

    found = []

    def visit(node, site, kinds):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name if site == "<module>" else f"{site}.{child.name}", kinds)
                continue
            if isinstance(child, ast.FunctionDef):
                name = child.name if site == "<module>" else f"{site}.{child.name}"
                visit(child, name, kinds | kind_names(child))
                continue
            if isinstance(child, ast.Compare) and all(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in child.ops
            ):
                sides = [child.left, *child.comparators]
                if any(
                    isinstance(x, ast.Attribute) and x.attr == "kind" or isinstance(x, ast.Name) and x.id in kinds
                    for x in sides
                ):
                    if any(builtin(x) for x in sides):
                        found.append((site, child.lineno))
            visit(child, site, kinds)

    visit(tree, "<module>", set())
    return found


def test_statistic_kinds_are_tested_only_at_their_sites():
    # every reader of an increment takes the statistic's form, so a new kind
    # is added in one place; the scan itself catches a planted test, also of
    # a kind copied into a local or passed as a parameter
    planted = "def f(st):\n    return st.kind == 'delta' or st.kind in TABLE\n"
    assert _kind_tests(planted, _tables("TABLE = {'omega': 1}")) == [("f", 2), ("f", 2)]
    planted = "def f(st):\n    k = st.kind\n    return k == 'delta'\n\n\ndef g(kind):\n    return kind in ('omega',)\n"
    assert _kind_tests(planted, {}) == [("f", 3), ("g", 7)]
    assert _kind_tests("def f(st):\n    return st.kind == 'custom' or st.kind in ('linear',)\n", {}) == []
    paths = sorted(Path(ntcodes.codes.__file__).parent.glob("*.py"))
    # a table may be imported from another module of the package
    tables = {name: held for path in paths for name, held in _tables(path.read_text()).items()}
    sites = set()
    for path in paths:
        for site, line in _kind_tests(path.read_text(), tables):
            assert (path.stem, site) in KIND_TEST_SITES, (path.name, site, line)
            sites.add((path.stem, site))
    assert ("codes", "Statistic.__init__") in sites


def test_macwilliams_cli_unchanged_under_the_plain_scan(capsys, monkeypatch):
    rng = random.Random(8)
    cases = []
    for _ in range(50):
        r = rng.randint(2, 6)
        s = rng.randint(1, 3)
        n = rng.randint(s, 7)
        rows = [[rng.randrange(r) for _ in range(n)] for _ in range(s)]
        if s > 1 and rng.random() < 0.3:
            rows[-1] = [2 * x % r for x in rows[0]]
        matrix = ";".join(",".join(map(str, row)) for row in rows)
        cases.append(["macwilliams", "--r", str(r), "--H", matrix])

    def outputs():
        results = []
        for argv in cases:
            code = main(argv)
            results.append((code, capsys.readouterr().out))
        return results

    split = outputs()
    monkeypatch.setattr(ntcodes.macwilliams, "enumerate_codewords", plain_scan)
    assert outputs() == split
    assert any("rank deficient" in out for _, out in split)
