import functools
import inspect
import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ntcodes
import ntcodes.enumerators
import ntcodes.macwilliams
from ntcodes.codes import make_family, type_vector
from ntcodes.enumerators import compute, specialize, w_variables
from ntcodes.exactalg import MultiPoly
from ntcodes.macwilliams import (
    _dual_at_characters,
    build_code,
    complete_weight_enumerator,
    row_span,
    verify_macwilliams,
)


def kernel_oracle(r, rows):
    n = len(rows[0])
    return {
        x
        for x in itertools.product(range(r), repeat=n)
        if all(sum(h * xi for h, xi in zip(row, x)) % r == 0 for row in rows)
    }


def test_parity_code_self_dual():
    code = build_code(2, [[1, 1]])
    assert set(code.code) == {(0, 0), (1, 1)}
    assert set(code.dual) == {(0, 0), (1, 1)}
    report = verify_macwilliams(code)
    expected = MultiPoly(w_variables(2), {(2, 0): 1, (0, 2): 1})
    assert report.left == expected
    assert report.right == expected
    assert report.verified and report.full_rank
    assert report.dual_size == 2


def test_identity_matrix_code():
    code = build_code(2, [[1, 0], [0, 1]])
    assert set(code.code) == {(0, 0)}
    assert set(code.dual) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    report = verify_macwilliams(code)
    assert report.left == MultiPoly(w_variables(2), {(2, 0): 1})
    assert report.verified


def test_rank_deficient_reported_not_raised():
    code = build_code(2, [[0, 0]])
    report = verify_macwilliams(code)
    assert not report.full_rank
    assert not report.verified
    assert report.right is None
    assert report.dual_size == 1


def test_duplicated_row_is_rank_deficient():
    code = build_code(3, [[1, 2], [2, 1]])
    # second row is twice the first mod 3, so the span is too small
    assert len(code.dual) == 3 < 9
    assert not verify_macwilliams(code).full_rank


def test_ternary_kernels():
    code = build_code(3, [[1, 1]])
    assert set(code.code) == {(0, 0), (1, 2), (2, 1)} == kernel_oracle(3, [(1, 1)])
    cwe = complete_weight_enumerator(code.code, 3)
    assert cwe == MultiPoly(w_variables(3), {(2, 0, 0): 1, (0, 1, 1): 2})
    assert verify_macwilliams(code).verified

    diag = build_code(3, [[1, 2]])
    assert set(diag.code) == {(0, 0), (1, 1), (2, 2)} == kernel_oracle(3, [(1, 2)])
    assert complete_weight_enumerator(diag.code, 3) == MultiPoly(
        w_variables(3), {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    )
    assert verify_macwilliams(diag).verified


def test_complete_weight_enumerator_examples():
    assert complete_weight_enumerator([(0, 0, 0)], 2) == MultiPoly(
        w_variables(2), {(3, 0): 1}
    )
    assert complete_weight_enumerator([], 2) == MultiPoly(w_variables(2))


def random_full_rank_code(rng, max_r=6, max_n=6, max_s=3):
    while True:
        r = rng.randint(2, max_r)
        s = rng.randint(1, max_s)
        n = rng.randint(s, max_n)
        rows = [[rng.randrange(r) for _ in range(n)] for _ in range(s)]
        code = build_code(r, rows)
        if len(code.dual) == r**s:
            return code


def test_randomized_identity_and_size_product():
    rng = random.Random(2024)
    for _ in range(20):
        code = random_full_rank_code(rng, max_r=5, max_n=5)
        report = verify_macwilliams(code)
        assert report.verified, f"identity failed for r={code.r} H={code.matrix}"
        assert len(code.code) * len(code.dual) == code.r**code.n


def test_consistency_with_character_sum_complete_enumerator():
    rng = random.Random(99)
    for _ in range(6):
        code = random_full_rank_code(rng, max_r=4, max_n=5, max_s=2)
        spec = make_family("linear_code", r=code.r, rows=list(code.matrix))
        complete = specialize(compute(spec, "extended", "theorem1"), "complete")
        assert complete.poly == complete_weight_enumerator(code.code, code.r)


def test_build_code_validation():
    with pytest.raises(ValueError):
        build_code(2, [])
    with pytest.raises(ValueError):
        build_code(2, [[1, 0], [1]])
    from ntcodes.codes import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        build_code(4, [[1] * 20], budget=1000)


def test_row_span_is_the_dual_and_checks_its_budget():
    for r, rows in ((3, [[1, 2], [2, 1]]), (4, [[1, 2, 3], [0, 2, 2]]), (2, [[0, 0]])):
        assert row_span(r, rows) == build_code(r, rows).dual
    assert row_span(3, [[1, 2], [2, 1]]) == ((0, 0), (1, 2), (2, 1))
    from ntcodes.codes import BudgetExceededError

    # 4^6 span elements are refused although the kernel scan's 4^2 are not
    with pytest.raises(BudgetExceededError, match="Z_4\\^6"):
        build_code(4, [[1, 3]] * 6, budget=1000)
    with pytest.raises(BudgetExceededError, match="Z_4\\^6"):
        row_span(4, [[1, 3]] * 6, budget=1000)


def test_row_span_validates_its_rows():
    with pytest.raises(ValueError, match="at least one row"):
        row_span(2, [])
    with pytest.raises(ValueError, match="inconsistent lengths"):
        row_span(2, [[1, 0], [1]])
    with pytest.raises(ValueError, match="positive"):
        row_span(0, [[1]])
    # entries are reduced mod r, as in the parity-check matrix
    assert row_span(3, [[4, -1]]) == row_span(3, [[1, 2]])


@functools.cache
def dual_term_expansion(r, tau):
    """Reference for one dual type vector: prod_i (sum_k w_k X^(ik))^(tau_i)
    expanded from scratch, as a map from w-exponent vectors to length-r
    coefficient vectors in Z[X]/(X^r - 1) (the right side's former
    per-type-vector expansion).  Memoized per (r, tau), since hypothesis
    draws the same small type vectors again and again: callers only read
    the returned dict."""
    poly = {(0,) * r: [1] + [0] * (r - 1)}
    for i, t in enumerate(tau):
        for _ in range(t):
            nxt = {}
            for exps, vec in poly.items():
                for k in range(r):
                    shift = (i * k) % r
                    key = exps[:k] + (exps[k] + 1,) + exps[k + 1 :]
                    acc = nxt.setdefault(key, [0] * r)
                    for p, c in enumerate(vec):
                        if c:
                            acc[(p + shift) % r] += c
            poly = nxt
    return {exps: tuple(vec) for exps, vec in poly.items()}


def per_type_vector_sum(r, counts):
    """sum_tau counts[tau] * dual_term_expansion(r, tau), one type vector at
    a time."""
    acc = {}
    for tau, cnt in counts.items():
        for exps, vec in dual_term_expansion(r, tau).items():
            dest = acc.setdefault(exps, [0] * r)
            for p, c in enumerate(vec):
                dest[p] += cnt * c
    return {exps: tuple(vec) for exps, vec in acc.items()}


def dual_counts(code):
    return Counter(type_vector(y, code.r) for y in code.dual)


@st.composite
def parity_check_matrices(draw):
    r = draw(st.integers(1, 6))
    s = draw(st.integers(1, 3))
    n = draw(st.integers(s, 6))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, r - 1), min_size=n, max_size=n), min_size=s, max_size=s
        )
    )
    return r, rows


@settings(max_examples=120, deadline=None)
@given(parity_check_matrices())
def test_horner_right_side_equals_per_type_vector_sum(case):
    r, rows = case
    code = build_code(r, rows)
    counts = dual_counts(code)
    assert _dual_at_characters(r, code.n, counts) == per_type_vector_sum(r, counts)


@pytest.mark.parametrize(
    "r,rows",
    [
        (2, [[0, 0, 0]]),  # the dual is the zero word alone: one type vector
        (1, [[0, 0, 0, 0]]),  # r = 1: one type vector, no rotation
        (2, [[1, 1, 0], [0, 1, 1]]),
        (2, [[1, 0, 1, 1, 0, 1]]),
        (6, [[1, 2, 3, 4, 5, 0], [0, 1, 1, 2, 3, 5], [2, 0, 5, 1, 1, 3]]),
    ],
)
def test_horner_right_side_edge_cases(r, rows):
    code = build_code(r, rows)
    counts = dual_counts(code)
    assert _dual_at_characters(r, code.n, counts) == per_type_vector_sum(r, counts)


def test_horner_walks_a_trie_deeper_than_the_recursion_limit():
    # the words w_(r-1) and w_(r-2) first differ at tau_(r-2), so their
    # trie is r - 1 levels deep; the walk must not take a Python frame per
    # level
    r = 120
    low, high = [0] * r, [0] * r
    low[r - 1], high[r - 2] = 1, 1
    counts = {tuple(low): 3, tuple(high): 2}
    expected = per_type_vector_sum(r, counts)
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        right = _dual_at_characters(r, 1, counts)
    finally:
        sys.setrecursionlimit(limit)
    assert right == expected


def test_single_type_vector_counts():
    # a lone type vector is expanded directly, scaled by its count
    for r, tau, cnt in ((2, (2, 1), 3), (4, (0, 2, 0, 1), 5), (6, (1, 0, 0, 1, 0, 2), 1)):
        expected = {
            exps: tuple(cnt * c for c in vec) for exps, vec in dual_term_expansion(r, tau).items()
        }
        assert _dual_at_characters(r, sum(tau), {tau: cnt}) == expected


def test_right_side_keeps_no_cache():
    for name, value in vars(ntcodes.macwilliams).items():
        assert not hasattr(value, "cache_info"), f"ntcodes.macwilliams.{name} is cached"


def test_complete_weight_enumerator_has_one_home():
    func = ntcodes.enumerators.complete_weight_enumerator
    assert ntcodes.macwilliams.complete_weight_enumerator is func
    assert ntcodes.complete_weight_enumerator is func


def test_transfer_kernel_has_one_home():
    assert ntcodes.macwilliams._transfer is ntcodes.enumerators._transfer


def test_right_side_runs_one_transfer_pass_per_symbol(monkeypatch):
    # every product by v_i is a pass of the shared kernel, whose counts are
    # the r cyclic digits of a group-ring element, folded at r digits
    calls = []

    def recording(n, r, digits, unit, shifts, span):
        calls.append((n, r, digits, span))
        return ntcodes.enumerators._transfer(n, r, digits, unit, shifts, span)

    monkeypatch.setattr(ntcodes.macwilliams, "_transfer", recording)
    code = build_code(3, [[1, 1, 1]])
    assert verify_macwilliams(code).verified
    width = (len(code.dual) * 3**code.n).bit_length()
    assert calls == [(3, 3, (), 3 * width)] * 3
