"""Linear codes over Z_r and the complete-weight-enumerator duality check.

A code is materialized from its parity-check matrix by the codeword scan
of `codes.enumerate_codewords`; its dual is the row span (`row_span`),
which has at most r^s elements and so can rule out a rank-deficient
matrix before the code is scanned.  Verification evaluates the dual's
complete weight enumerator at v_i = sum_k w_k X^(ik), with coefficients
in the group ring Z[X]/(X^r - 1) (X standing for e(1/r)), by Horner's
rule over the dual's type vectors one symbol at a time, each product by
v_i a pass of the one transfer kernel (`enumerators._transfer`); it then
reduces each coefficient to an integer, divides by r^s and compares with
the primal enumerator coefficient by coefficient.  The right side is
built from the dual's type counts alone, so the identity checks the
codeword scan and that kernel against each other.
"""

from __future__ import annotations

import operator
from typing import Optional

from .codes import FrozenRecord, Record, check_budget, enumerate_codewords, linear_code
from .enumerators import _PackedSpace, _states, _transfer, complete_weight_enumerator, w_variables
from .exactalg import CycElement, MultiPoly, count_text, exact_quotient


class ZrLinearCode(FrozenRecord):
    """A linear code over Z_r with its dual, both fully materialized."""

    __slots__ = _fields = ("r", "n", "s", "matrix", "code", "dual")
    _key = operator.attrgetter(*_fields)

    def __init__(self, r: int, n: int, s: int, matrix: tuple, code: tuple, dual: tuple):
        for name, value in zip(self.__slots__, (r, n, s, matrix, code, dual)):
            object.__setattr__(self, name, value)


def row_span(r: int, rows, budget: int | None = None) -> tuple:
    """The sorted row span over Z_r of s equal-length rows, validated as a
    parity-check matrix by `linear_code`.  Refuses when its bound r^s
    exceeds the budget, before any work."""
    rows = [c.stat.h for c in linear_code(r, rows).constraints]
    s = len(rows)
    check_budget(r**s, budget, f"spanning Z_{r}^{s}")
    # the span one row at a time: the span so far plus each multiple
    span = {(0,) * len(rows[0])}
    for row in rows:
        multiples = {tuple([c * h % r for h in row]) for c in range(r)}
        span = {
            tuple([(x + y) % r for x, y in zip(word, multiple)])
            for word in span
            for multiple in multiples
        }
    return tuple(sorted(span))


def build_code(r: int, rows, budget: int | None = None) -> ZrLinearCode:
    """Materialize the kernel of the parity-check matrix and the row span.
    For a full-rank matrix, the right side that `verify_macwilliams` builds
    is charged first: up to r Horner levels, each of at most `_states`
    w-monomials of r digits."""
    spec = linear_code(r, rows)
    rows = tuple(c.stat.h for c in spec.constraints)
    dual = row_span(r, rows, budget)
    if len(dual) == r**spec.s:
        digits = r * r * _states(r, spec.n, (), True)
        check_budget(digits, budget, f"MacWilliams right side of up to {count_text(digits)} digits")
    code = tuple(enumerate_codewords(spec, budget))
    return ZrLinearCode(r, spec.n, spec.s, rows, code, dual)


def _dual_at_characters(r: int, n: int, counts: dict) -> dict:
    """sum_tau counts[tau] prod_i v_i^(tau_i), v_i = sum_k w_k X^(ik), over
    type vectors tau of length-n words: a map from w-exponent vectors to
    length-r coefficient vectors in Z[X]/(X^r - 1).

    Horner's rule, one level per symbol from the last: level i sums the
    type vectors that share tau_0..tau_(i-1), each group adjacent in
    descending order, and for t_1 > t_2 > ... the group's sum is
    sum_t v_i^t F_t = v_i^(t_last) (... (F_(t_1) v_i^(t_1 - t_2) + F_(t_2))
    ...), F_t the sum of level i + 1 at tau_i = t, so every product by
    v_0..v_(i-1) is shared by the whole group.  Each product by v_i is a
    pass of the one transfer kernel, `enumerators._transfer`, with no
    statistic: symbol k adds w_k's stride to the key of the w-exponents,
    packed and decoded by `_PackedSpace`, and rotates the group-ring element,
    packed as the r cyclic digits of its count, by X^(ik).  Every
    coefficient is non-negative and all of them sum to sum(counts) * r^n,
    so no digit carries into the next."""
    space = _PackedSpace(w_variables(r), [n + 1] * r)
    width = (sum(counts.values()) * r**n).bit_length()
    passes = [
        _transfer(n, r, (), space.strides, [i * k % r * width for k in range(r)], r * width)
        for i in range(r)
    ]

    def times_v(poly: dict, i: int, times: int) -> dict:
        return passes[i](range(times), {None: poly})[None]

    # the type vectors in descending order, each with the length of the
    # prefix it shares with the next one, and the sum of its group
    taus = sorted(counts, reverse=True)
    shares = [next(j for j, (x, y) in enumerate(zip(a, b)) if x != y) for a, b in zip(taus, taus[1:])]
    level = [(tau, share, {0: counts[tau]}) for tau, share in zip(taus, shares + [-1])]
    for i in reversed(range(r)):
        summed, acc = [], {}
        for tau, share, poly in level:
            if acc:
                acc = times_v(acc, i, t - tau[i])
                for key, vec in poly.items():
                    acc[key] = acc.get(key, 0) + vec
            else:
                acc = poly
            t = tau[i]
            if share < i:
                # the next type vector differs before tau_i: the group ends
                summed.append((tau, share, times_v(acc, i, t)))
                acc = {}
        level = summed
    digit, summed = (1 << width) - 1, level[0][2]
    return {
        exps: tuple([vec >> p * width & digit for p in range(r)])
        for exps, vec in zip(space.decode(summed), summed.values())
    }


class MacWilliamsReport(Record):
    """Both sides of the duality identity plus the verdict.

    When the matrix is rank deficient (fewer than r^s distinct row-span
    elements) the right side is not computed and `verified` is False.
    """

    __slots__ = _fields = ("left", "right", "verified", "full_rank", "dual_size")
    _key = operator.attrgetter(*_fields)

    def __init__(
        self, left: MultiPoly, right: Optional[MultiPoly], verified: bool, full_rank: bool, dual_size: int
    ):
        self.left, self.right, self.verified = left, right, verified
        self.full_rank, self.dual_size = full_rank, dual_size


def verify_macwilliams(code: ZrLinearCode) -> MacWilliamsReport:
    """Check that the primal complete weight enumerator equals the dual's
    under the root-of-unity substitution, normalized by r^s."""
    r, s = code.r, code.s
    left = complete_weight_enumerator(code.code, r)
    dual_size = len(code.dual)
    if dual_size != r**s:
        return MacWilliamsReport(left, None, False, False, dual_size)
    counts = complete_weight_enumerator(code.dual, r).terms
    terms = {
        exps: exact_quotient(CycElement(r, vec).to_integer(), dual_size, f"dual term {exps}")
        for exps, vec in _dual_at_characters(r, code.n, counts).items()
    }
    right = MultiPoly(w_variables(r), terms)
    return MacWilliamsReport(left, right, left == right, True, dual_size)
