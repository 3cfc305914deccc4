import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ntcodes.numtheory as numtheory
from cyclotomic_reference import fold, value
from ntcodes.numtheory import (
    divisors,
    euler_phi,
    factorize,
    gcd,
    mobius,
    ramanujan_sum,
    ramanujan_sums,
)
from tenengolts_reference import ramanujan_reference


def brute_gcd(a, b):
    a, b = abs(a), abs(b)
    if a == 0 and b == 0:
        return 0
    best = 0
    for d in range(1, max(a, b) + 1):
        if (a == 0 or a % d == 0) and (b == 0 or b % d == 0):
            best = d
    return best


def exponential_ramanujan(d, a):
    """Direct evaluation of sum over j coprime to d of e(a j / d)."""
    return value(fold(d, ((a * j, 1) for j in range(1, d + 1) if gcd(j, d) == 1)))


def test_gcd_examples():
    assert gcd(3, 3) == 3
    assert gcd(4, 6) == 2 == brute_gcd(4, 6)
    assert gcd(0, 5) == 5
    assert gcd(0, 0) == 0


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=-40, max_value=40))
def test_gcd_matches_brute_force(a, b):
    assert gcd(a, b) == brute_gcd(a, b)


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(1) == []
    assert factorize(7) == [(7, 1)]


@pytest.mark.parametrize("n", range(1, 201))
def test_factorize_reconstructs_and_sorted(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac:
        assert e >= 1
        # primality by scan
        assert p >= 2 and all(p % q for q in range(2, p))
        prod *= p**e
    assert prod == n
    assert [p for p, _ in fac] == sorted({p for p, _ in fac})


def test_euler_phi_against_counting_oracle():
    assert euler_phi(1) == 1
    for n in range(1, 1001):
        expected = sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)
        assert euler_phi(n) == expected


def test_mobius_against_squarefree_oracle():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1
    for n in range(1, 1001):
        fac = factorize(n)
        if any(e > 1 for _, e in fac):
            assert mobius(n) == 0
        else:
            assert mobius(n) == (-1) ** len(fac)


def test_divisors_examples_and_oracle():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(7) == [1, 7]
    for n in range(1, 200):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_ramanujan_paper_values():
    assert ramanujan_sum(1, 0) == 1
    assert ramanujan_sum(3, 0) == 2
    assert ramanujan_sum(3, 1) == -1
    assert ramanujan_sum(3, 2) == -1
    assert ramanujan_sum(6, 0) == 2 == exponential_ramanujan(6, 0)


def test_ramanujan_matches_exponential_sum():
    for d in range(1, 25):
        for a in range(d):
            assert ramanujan_sum(d, a) == exponential_ramanujan(d, a)


def test_ramanujan_periodicity():
    for d in range(1, 30):
        for a in range(-2 * d, 2 * d + 1):
            assert ramanujan_sum(d, a) == ramanujan_sum(d, a % d)


def test_ramanujan_divisor_sum_identity():
    # sum over d | n of c_d(b) equals n when n | b, else 0
    for n in range(1, 25):
        for b in range(0, 2 * n + 1):
            total = sum(ramanujan_sum(d, b) for d in divisors(n))
            assert total == (n if b % n == 0 else 0)


def test_ramanujan_sums_match_the_exponential_sum_at_every_divisor():
    # a -> a u for a unit u mod d permutes the j coprime to d, and the a of
    # one gcd(a, d) form one such orbit, so the oracle runs once per
    # (d, gcd) while the table is checked at every a
    oracle = {}
    for n in range(1, 301):
        divs = divisors(n)
        for a in range(-3, 2 * n + 1):
            expected = {}
            for d in divs:
                key = (d, gcd(a, d))
                if key not in oracle:
                    oracle[key] = exponential_ramanujan(d, a)
                expected[d] = oracle[key]
            assert ramanujan_sums(n, a) == expected, (n, a)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=-(10**7), max_value=10**7))
@example(720720, 360360)
@example(2**19, -(2**18))
def test_ramanujan_sums_match_the_totient_mobius_formula(n, a):
    assert ramanujan_sums(n, a) == {d: ramanujan_reference(d, a) for d in divisors(n)}


def test_ramanujan_sums_come_in_ascending_divisor_order():
    # the descent/sum closed forms read d ascending (the cardinality adds
    # its terms smallest power first), and dict equality ignores order;
    # a = g for each g | n puts a in every gcd class of n
    for n in range(1, 501):
        divs = divisors(n)
        for a in divs:
            assert list(ramanujan_sums(n, a)) == divs, (n, a)
    divs = divisors(720720)
    for a in (0, 1, 7, 16, 360360, 720719):
        assert list(ramanujan_sums(720720, a)) == divs, a


def test_ramanujan_sums_factor_n_once(monkeypatch):
    calls = []
    real = numtheory.factorize
    monkeypatch.setattr(numtheory, "factorize", lambda n: calls.append(n) or real(n))
    assert ramanujan_sums(720720, 7)[720720] == 0
    assert calls == [720720]


@pytest.mark.parametrize("fn", [factorize, euler_phi, mobius, divisors])
def test_rejects_non_positive(fn):
    with pytest.raises(ValueError):
        fn(0)
    with pytest.raises(ValueError):
        fn(-3)


def test_ramanujan_rejects_non_positive_modulus():
    with pytest.raises(ValueError):
        ramanujan_sum(0, 1)
    with pytest.raises(ValueError):
        ramanujan_sums(-4, 1)
