"""Linear codes over Z_r and the complete-weight-enumerator duality check.

A code is materialized from its parity-check matrix by the codeword scan
of `codes.enumerate_codewords`; its dual is the row span.  Verification
substitutes v_i = sum_k w_k e(ik/r) into the dual's complete weight
enumerator, expands exactly over root-of-unity coefficients, divides by
r^s, and compares with the primal enumerator coefficient by coefficient.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .codes import check_budget, enumerate_codewords, linear_code, type_vector
from .enumerators import w_variables
from .exactalg import CycElement, IntegralityError, MultiPoly, NonDivisibleError


@dataclass(frozen=True)
class ZrLinearCode:
    """A linear code over Z_r with its dual, both fully materialized."""

    r: int
    n: int
    s: int
    matrix: tuple
    code: tuple
    dual: tuple


def build_code(r: int, rows, budget: int | None = None) -> ZrLinearCode:
    """Materialize the kernel of the parity-check matrix and the row span."""
    spec = linear_code(r, rows)
    rows = [c.stat.h for c in spec.constraints]
    n, s = spec.n, spec.s
    check_budget(r**s, budget, f"spanning Z_{r}^{s}")
    code = tuple(enumerate_codewords(spec, budget))
    span = {
        tuple(sum(ui * row[j] for ui, row in zip(u, rows)) % r for j in range(n))
        for u in itertools.product(range(r), repeat=s)
    }
    return ZrLinearCode(r, n, s, tuple(rows), code, tuple(sorted(span)))


def complete_weight_enumerator(words, r: int) -> MultiPoly:
    """Sum over words of the monomial prod_j w_j^(count of symbol j)."""
    terms: dict = {}
    for word in words:
        key = type_vector(word, r)
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(w_variables(r), terms)


@functools.lru_cache(maxsize=None)
def _dual_term_expansion(r: int, tau: tuple):
    """Expansion of prod_i (sum_k w_k e(ik/r))^(tau_i): a map from
    w-exponent vectors to length-r root-of-unity coefficient vectors."""
    poly = {(0,) * r: [1] + [0] * (r - 1)}
    for i, t in enumerate(tau):
        for _ in range(t):
            nxt: dict = {}
            for exps, vec in poly.items():
                for k in range(r):
                    shift = (i * k) % r
                    key = exps[:k] + (exps[k] + 1,) + exps[k + 1 :]
                    acc = nxt.get(key)
                    if acc is None:
                        acc = [0] * r
                        nxt[key] = acc
                    for p, c in enumerate(vec):
                        if c:
                            acc[(p + shift) % r] += c
            poly = nxt
    return {exps: tuple(vec) for exps, vec in poly.items()}


@dataclass
class MacWilliamsReport:
    """Both sides of the duality identity plus the verdict.

    When the matrix is rank deficient (fewer than r^s distinct row-span
    elements) the right side is not computed and `verified` is False.
    """

    left: MultiPoly
    right: Optional[MultiPoly]
    verified: bool
    full_rank: bool
    dual_size: int


def verify_macwilliams(code: ZrLinearCode) -> MacWilliamsReport:
    """Check that the primal complete weight enumerator equals the dual's
    under the root-of-unity substitution, normalized by r^s."""
    r, s = code.r, code.s
    left = complete_weight_enumerator(code.code, r)
    dual_size = len(code.dual)
    if dual_size != r**s:
        return MacWilliamsReport(left, None, False, False, dual_size)
    counts = Counter(type_vector(y, r) for y in code.dual)
    acc: dict = {}
    for tau, cnt in counts.items():
        for exps, vec in _dual_term_expansion(r, tau).items():
            dest = acc.get(exps)
            if dest is None:
                dest = [0] * r
                acc[exps] = dest
            for p, c in enumerate(vec):
                if c:
                    dest[p] += cnt * c
    denom = r**s
    terms: dict = {}
    for exps, vec in acc.items():
        value = CycElement(r, vec).to_integer()
        q, rem = divmod(value, denom)
        if rem:
            raise NonDivisibleError(
                f"dual expansion for {exps} gave {value}, not divisible by {denom}"
            )
        if q < 0:
            raise IntegralityError(f"negative coefficient {q} for {exps}")
        if q:
            terms[exps] = q
    right = MultiPoly(w_variables(r), terms)
    return MacWilliamsReport(left, right, left == right, True, dual_size)
