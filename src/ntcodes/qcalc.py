"""q-integers, Gaussian binomials, and q-multinomial coefficients.

All results are exact polynomials in the single variable q.  Values at
primitive roots of unity come from a closed form, never from a limit; the
polynomial-evaluation route survives only as a test oracle.
"""

from __future__ import annotations

import functools
from math import comb

from .exactalg import MultiPoly

Q_VARS = ("q",)


def q_integer(n: int) -> MultiPoly:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return MultiPoly(Q_VARS, {(i,): 1 for i in range(n)})


@functools.lru_cache(maxsize=None)
def q_binomial(a: int, b: int) -> MultiPoly:
    """Gaussian binomial coefficient [a+b choose a]_q.

    Built by the Pascal-type recurrence, so no q-factorial is ever
    materialized and no division occurs.  Degree is a*b; the value at q=1
    is the ordinary binomial coefficient.
    """
    if a < 0 or b < 0:
        raise ValueError("q_binomial needs non-negative arguments")
    if a == 0 or b == 0:
        return MultiPoly(Q_VARS, {(0,): 1})
    terms = dict(q_binomial(a - 1, b).terms)
    for (e,), c in q_binomial(a, b - 1).terms.items():
        key = (e + a,)
        terms[key] = terms.get(key, 0) + c
    return MultiPoly(Q_VARS, terms)


def compositions(total: int, parts: int):
    """Yield all tuples of `parts` non-negative integers summing to `total`."""
    if parts < 1:
        raise ValueError("parts must be at least 1")
    if total < 0:
        raise ValueError("total must be non-negative")
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def _validated(parts) -> tuple[int, ...]:
    parts = tuple(parts)
    if not parts:
        raise ValueError("a composition needs at least one part")
    if any(t < 0 for t in parts):
        raise ValueError(f"negative part in composition {parts}")
    return parts


def q_multinomial(parts) -> MultiPoly:
    """q-multinomial [sum(parts); parts]_q via telescoping Gaussian binomials."""
    parts = _validated(parts)
    terms = {(0,): 1}
    prefix = 0
    for t in parts:
        # one-variable convolution of the running product with the next factor
        factor = q_binomial(prefix, t).terms
        product: dict = {}
        for (d,), b in terms.items():
            for (e,), c in factor.items():
                product[(d + e,)] = product.get((d + e,), 0) + b * c
        terms = product
        prefix += t
    return MultiPoly(Q_VARS, terms)


def multinomial(parts) -> int:
    """Ordinary multinomial coefficient of a composition."""
    parts = _validated(parts)
    out = 1
    prefix = 0
    for t in parts:
        prefix += t
        out *= comb(prefix, t)
    return out


def q_multinomial_at_root(parts, d: int) -> int:
    """Value of the q-multinomial at a primitive d-th root of unity.

    Requires d | sum(parts).  Equals the multinomial coefficient of the
    d-divided composition when d divides every part, and 0 otherwise.
    """
    parts = _validated(parts)
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    if sum(parts) % d:
        raise ValueError(f"{d} does not divide the composition total {sum(parts)}")
    if any(t % d for t in parts):
        return 0
    return multinomial(tuple(t // d for t in parts))
