"""Elementary number-theoretic kernel.

Factorization, Euler's totient, the Mobius function, divisor lists, and
Ramanujan's sums, all over plain Python integers.  `ramanujan_sums` gives
c_d(a) at every d | n, d ascending, from one factorization of n and one
sort, since c_d is multiplicative in d; `ramanujan_sum` reads one entry
of that table.
Inputs are desk-scale by design, so trial division is enough.
"""

from __future__ import annotations

from math import gcd

__all__ = [
    "gcd",
    "factorize",
    "euler_phi",
    "mobius",
    "divisors",
    "ramanujan_sum",
    "ramanujan_sums",
]


def _check_positive(n: int, name: str = "n") -> None:
    if n <= 0:
        raise ValueError(f"{name} must be a positive integer, got {n}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending.

    factorize(1) is the empty list.
    """
    _check_positive(n)
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def euler_phi(n: int) -> int:
    """Euler's totient: the number of 1 <= j <= n coprime to n."""
    _check_positive(n)
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def mobius(n: int) -> int:
    """Mobius function: (-1)^k for squarefree n with k prime factors, else 0."""
    _check_positive(n)
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    _check_positive(n)
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def ramanujan_sums(n: int, a: int) -> dict[int, int]:
    """Ramanujan's sums {d: c_d(a)} at every d | n, d ascending, from one
    factorization of n.

    c_d(a) is the sum of e(a*j/d) over j in [1, d] coprime to d.  It is
    multiplicative in d, and at a prime power c_(p^e)(a) is phi(p^e) when
    p^e | a, -p^(e-1) when only p^(e-1) | a, and 0 otherwise; the defining
    exponential sum is kept only as a test oracle.  Each prime power of n
    extends one list of (d, c_d(a)) pairs, which is sorted once at the end:
    the closed forms of `enumerators` rely on d ascending.
    """
    pairs = [(1, 1)]
    for p, e in factorize(n):
        local, below = [(1, 1)], 1  # (p^k, c_(p^k)(a)) for k = 0..e
        for _ in range(e):
            q = below * p
            local.append((q, q - below if a % q == 0 else -below if a % below == 0 else 0))
            below = q
        pairs = [(d * q, c * cq) for d, c in pairs for q, cq in local]
    pairs.sort()
    return dict(pairs)


def ramanujan_sum(d: int, a: int) -> int:
    """Ramanujan's sum c_d(a), the sum of e(a*j/d) over j in [1, d] coprime
    to d: one entry of `ramanujan_sums`."""
    _check_positive(d, "d")
    return ramanujan_sums(d, a)[d]
