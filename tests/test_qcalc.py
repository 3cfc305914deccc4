import itertools
from math import comb

import pytest

import cyclotomic_reference as cyc
from ntcodes.exactalg import MultiPoly
from ntcodes.numtheory import divisors
from ntcodes.qcalc import (
    compositions,
    multinomial,
    q_binomial,
    q_integer,
    q_multinomial,
    q_multinomial_at_root,
)


def descent_number(word):
    return sum(i for i in range(1, len(word)) if word[i - 1] > word[i])


def words_of_type(t):
    """All words with symbol counts t, as an oracle for the descent identity."""
    symbols = []
    for value, count in enumerate(t):
        symbols.extend([value] * count)
    return set(itertools.permutations(symbols))


def dense(poly):
    out = [0] * (max((e for (e,) in poly.terms), default=0) + 1)
    for (e,), c in poly.terms.items():
        out[e] = c
    return out


# in-test q-factorial arithmetic, used only as an independent oracle
def upoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def upoly_div_exact(num, den):
    num = list(num)
    quo = [0] * (len(num) - len(den) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        quo[i] = q
        for k, d in enumerate(den):
            num[i + k] -= q * d
    assert not any(num)
    return quo


def q_factorial_dense(n):
    out = [1]
    for i in range(1, n + 1):
        out = upoly_mul(out, [1] * i)
    return out


def test_q_integer_examples():
    assert dense(q_integer(1)) == [1]
    assert dense(q_integer(3)) == [1, 1, 1]
    assert sum(c * (-1) ** e for (e,), c in q_integer(2).terms.items()) == 0
    with pytest.raises(ValueError):
        q_integer(0)


def test_q_binomial_examples():
    assert dense(q_binomial(1, 1)) == [1, 1]
    assert dense(q_binomial(2, 1)) == [1, 1, 1]
    assert q_binomial(0, 7) == MultiPoly(("q",), {(0,): 1})


def test_q_binomial_recurrence_agrees_with_factorial_division():
    for a in range(0, 7):
        for b in range(0, 7):
            via_division = upoly_div_exact(
                q_factorial_dense(a + b),
                upoly_mul(q_factorial_dense(a), q_factorial_dense(b)),
            )
            got = dense(q_binomial(a, b))
            got += [0] * (len(via_division) - len(got))
            assert got == via_division


def test_q_binomial_symmetry_and_degree():
    for a in range(0, 7):
        for b in range(0, 7):
            p = q_binomial(a, b)
            assert p == q_binomial(b, a)
            assert max((e for (e,) in p.terms), default=0) == a * b
            assert sum(p.terms.values()) == comb(a + b, a)


def test_q_multinomial_examples():
    assert dense(q_multinomial((1, 1, 1))) == [1, 2, 2, 1]
    assert q_multinomial((5,)) == MultiPoly(("q",), {(0,): 1})
    assert sum(q_multinomial((2, 2)).terms.values()) == 6


def test_q_multinomial_telescoping_matches_q_binomial():
    assert q_multinomial((2, 3)) == q_binomial(2, 3)


def test_descent_generating_function_identity():
    # brute-force sum of q^descents over words of a fixed type
    for n in range(0, 8):
        for r in (1, 2, 3):
            for t in compositions(n, r):
                hist = {}
                for word in words_of_type(t):
                    g = descent_number(word)
                    hist[g] = hist.get(g, 0) + 1
                assert hist == {e: c for (e,), c in q_multinomial(t).terms.items()}


def test_at_root_examples():
    assert q_multinomial_at_root((1, 1), 2) == 0
    assert q_multinomial_at_root((2, 2), 2) == 2
    assert q_multinomial_at_root((3, 3, 3), 3) == 6
    with pytest.raises(ValueError):
        q_multinomial_at_root((1, 2), 2)


def test_at_root_matches_polynomial_evaluation():
    for total in range(1, 11):
        for r in (2, 3, 4):
            for t in compositions(total, r):
                poly = q_multinomial(t)
                for d in divisors(total):
                    value = cyc.value(cyc.fold(d, ((e, c) for (e,), c in poly.terms.items())))
                    assert value == q_multinomial_at_root(t, d)


def test_multinomial_against_factorials():
    from math import factorial

    for t in [(2, 1), (3, 3), (1, 2, 3), (0, 4)]:
        expected = factorial(sum(t))
        for part in t:
            expected //= factorial(part)
        assert multinomial(t) == expected


def test_composition_validation():
    with pytest.raises(ValueError):
        q_multinomial(())
    with pytest.raises(ValueError):
        q_multinomial((1, -1))
    with pytest.raises(ValueError):
        list(compositions(3, 0))
