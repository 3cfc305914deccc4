"""Linear codes over Z_r and the complete-weight-enumerator duality check.

A code is materialized from its parity-check matrix by the codeword scan
of `codes.enumerate_codewords`; its dual is the row span (`row_span`),
which has at most r^s elements and so can rule out a rank-deficient
matrix before the code is scanned.  Verification evaluates the dual's
complete weight enumerator at v_i = sum_k w_k X^(ik), with coefficients
in the group ring Z[X]/(X^r - 1) (X standing for e(1/r)), by Horner's
rule over the trie of the dual's type vectors, each product by v_i a pass
of the one transfer kernel (`enumerators._transfer`); it then reduces each
coefficient to an integer, divides by r^s and compares with the primal
enumerator coefficient by coefficient.  The right side is built from the
dual's type counts alone, so the identity checks the codeword scan and
that kernel against each other.
"""

from __future__ import annotations

import itertools
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

    Horner's rule on the trie of the type vectors: at depth i the type
    vectors sharing tau_0..tau_(i-1) are grouped by tau_i, and for
    t_1 < t_2 < ... the group's sum is sum_t v_i^t F_t =
    v_i^(t_1) (F_(t_1) + v_i^(t_2 - t_1) (F_(t_2) + ...)), so every
    product by v_0..v_(i-1) is shared by the whole group; a group of one
    type vector is expanded directly.  Each product by v_i is a pass of
    the one transfer kernel, `enumerators._transfer`, with no statistic:
    symbol k adds w_k's stride to the key of the w-exponents, packed as by
    `_PackedSpace`, and rotates the group-ring element, packed as the r
    cyclic digits of its count, by X^(ik).  Every coefficient is
    non-negative and all of them sum to sum(counts) * r^n, so no digit
    carries into the next."""
    space = _PackedSpace(w_variables(r), [n + 1] * r)
    width = (sum(counts.values()) * r**n).bit_length()
    passes = [
        _transfer(n, r, (), space.strides, [i * k % r * width for k in range(r)], r * width)
        for i in range(r)
    ]

    def times_v(poly: dict, i: int, times: int) -> dict:
        return passes[i](range(times), {None: poly})[None]

    def horner(entries: list) -> dict:
        """The sum over the entries (tau_0, ..., tau_(r-1), count), in
        descending order, of count * prod_j v_j^(tau_j).  The trie is r
        levels deep, so it is walked with an explicit stack, not a Python
        frame per level: a frame [i, runs, acc, higher] holds a group's
        runs by tau_i still to come and the sum acc of those done, which
        is multiplied by v_i^(higher - t) as the run of tau_i = t begins."""
        stack: list = []
        group, i = entries, 0
        while True:
            while len(group) > 1:
                runs = itertools.groupby(group, operator.itemgetter(i))
                higher, run = next(runs)
                stack.append([i, runs, {}, higher])
                group, i = list(run), i + 1
            entry = group[0]
            done = {0: entry[r]}
            for j in range(i, r):
                done = times_v(done, j, entry[j])
            while stack:
                frame = stack[-1]
                i, runs, acc, higher = frame
                for key, vec in done.items():
                    acc[key] = acc.get(key, 0) + vec
                following = next(runs, None)
                if following is not None:
                    t, run = following
                    frame[2:] = times_v(acc, i, higher - t), t
                    group, i = list(run), i + 1
                    break
                stack.pop()
                done = times_v(acc, i, higher)
            else:
                return done

    entries = sorted((tau + (cnt,) for tau, cnt in counts.items()), reverse=True)
    digit = (1 << width) - 1
    return {
        space.unpack(key): tuple([vec >> p * width & digit for p in range(r)])
        for key, vec in horner(entries).items()
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
