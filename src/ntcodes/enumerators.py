"""Weight enumerators: brute-force oracles, the character-sum engine, and
the closed forms for linear-congruence and descent/sum codes.

The extended enumerator of a code tracks every constrained statistic in a
z-variable exponent and every symbol count in a w-variable exponent.  The
character-sum engine (theorem 1) recovers a code's enumerator from the
full-space enumerator W_full as a sum over residue tuples u of
W_full(e(u_i/m_i) z_i, w), each weighted by e(-sum_i u_i a_i/m_i), divided
by prod m_i.  On an expanded full-space polynomial the orthogonality of
characters, sum_{u mod m} e(uk/m) = m [m | k], reduces that sum to
keeping a term exactly when each statistic exponent is congruent to its
residue: pure integer arithmetic, which checks that every full-space
coefficient is non-negative.

Every built-in statistic adds an increment that depends only on the
position, the symbol and the symbol before it (`_stepper`), so two
transfer passes over the positions (the transfer-matrix method) never
list the words.  The exact pass keys each term by one mixed-radix
integer, whose digits are the exact statistic values and the type
vector, each radix 1 + the largest value of its digit, so no digit
carries; a step adds one integer to every key.  W_full is the product of
the enumerators of positions 0..k-1 and k..n-1, so theorem 1 keeps its
terms by one join on residues: the exact pass runs on the two halves,
with the full-length radices so that a left key plus a right key is the
joined word's key, and a left term of residues rho pairs only with the
right terms of residues a - rho.  Its work is the two halves plus the
pairs kept, and the split point is read off bounds of the statistics
before any pass.  At k = n the right half is empty, its one term the
empty word; at moduli 1 the join keeps every term, which is
`full_space_enumerator`.  A custom statistic has no increments: its left
half is a scan of [0, r)^n, packed the same way.

The residue pass counts the code itself: keyed by residues mod m_i, with
the Hamming weight, or the type vector where its digits stay few, packed
into each count as Kronecker digits, it evaluates the linear-congruence
character sum of `lc_hamming`, which orthogonality turns into the
coefficient of x^a in a product taken in Z[x]/(x^m - 1), and answers
every spec without a closed form below kind "extended".
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from math import comb, gcd, prod
from typing import Optional

from .codes import (
    DESCENT_COMPARISONS,
    SIGMA,
    VARIANT_STATS,
    CodeSpec,
    Constraint,
    budget_limit,
    capped_power,
    check_budget,
    count_text,
    enumerate_codewords,
    lc,
    linear,
    linear_weights,
    statistic_evaluator,
    tenengolts as tenengolts_spec,
    type_vector,
)
from .exactalg import IntegralityError, MultiPoly, NonDivisibleError
from .numtheory import divisors, ramanujan_sum

KINDS = ("extended", "complete", "hamming")
METHODS = ("auto", "closed", "theorem1", "oracle")

#: the residue pass packs tau while its bound is at most this many times the
#: bound of tau in the keys: up to here packing measured no more memory
_PACKED_EXCESS = 16

#: descent/sum variant keyed by the statistic kind of its first constraint
_VARIANT_OF_STAT = {stat: variant for variant, stat in VARIANT_STATS.items()}


def z_variables(s: int) -> tuple[str, ...]:
    return tuple(f"z{i}" for i in range(1, s + 1))


def w_variables(r: int) -> tuple[str, ...]:
    return tuple(f"w{j}" for j in range(r))


@dataclass
class Enumerator:
    """A weight enumerator polynomial tagged with how it was produced."""

    kind: str
    poly: MultiPoly
    method: str
    spec: Optional[CodeSpec] = None

    def cardinality(self) -> int:
        """The number of codewords: the sum of the coefficients, which is
        the polynomial evaluated at all ones."""
        return sum(self.poly.terms.values())


def _scan_terms(spec: CodeSpec, budget: int | None) -> dict:
    """Counts of the codewords by their statistic values followed by their
    type vector, from the oracle's scan."""
    evaluators = [statistic_evaluator(c.stat, spec.n) for c in spec.constraints]
    terms: dict = {}
    for word in enumerate_codewords(spec, budget):
        rho = tuple(value(word) for value in evaluators)
        if any(v < 0 for v in rho):
            raise ValueError(
                "a statistic took a negative value; enumerator exponents must be non-negative"
            )
        key = rho + type_vector(word, spec.r)
        terms[key] = terms.get(key, 0) + 1
    return terms


def oracle_extended(spec: CodeSpec, budget: int | None = None) -> Enumerator:
    """Extended weight enumerator by summing one monomial per codeword."""
    variables = z_variables(spec.s) + w_variables(spec.r)
    return Enumerator("extended", MultiPoly(variables, _scan_terms(spec, budget)), "oracle", spec)


def complete_weight_enumerator(words, r: int) -> MultiPoly:
    """Sum over words of the monomial prod_j w_j^(count of symbol j)."""
    return MultiPoly(w_variables(r), Counter(type_vector(word, r) for word in words))


def specialize(enum: Enumerator, target: str):
    """Walk the extended -> complete -> hamming -> cardinality chain by
    projecting exponent vectors: "complete" keeps the type vector tau (the
    w-exponents) and drops the z-exponents, "hamming" maps tau to the one
    exponent sum_{j>=1} tau_j.  Coefficients of equal images add up."""
    if target == "cardinality":
        return enum.cardinality()
    if target not in KINDS:
        raise ValueError(f"unknown enumerator kind {target!r}")
    if KINDS.index(target) < KINDS.index(enum.kind):
        raise ValueError(f"cannot specialize {enum.kind} to {target}")
    if target == enum.kind:
        return enum
    # positions of the type vector: every variable but the z's of an extended enumerator
    variables = enum.poly.variables
    tau = [i for i, v in enumerate(variables) if enum.kind != "extended" or not v.startswith("z")]
    if target == "complete":
        variables = tuple(variables[i] for i in tau)
    else:
        # the Hamming weight counts every symbol but 0
        tau = [i for i in tau if variables[i] != "w0"]
        variables = ("w",)
    terms: dict = {}
    for exps, coeff in enum.poly.terms.items():
        key = tuple(exps[i] for i in tau) if target == "complete" else (sum(exps[i] for i in tau),)
        terms[key] = terms.get(key, 0) + coeff
    return Enumerator(target, MultiPoly(variables, terms), enum.method, enum.spec)


# ---------------------------------------------------------------------------
# full-space enumerators


def _stepper(n: int, stats):
    """`step(j, previous, x)`, the statistics' increments for symbol x at
    position j after `previous`, and whether any of them reads `previous`.
    Every built-in statistic is a sum of such increments: h_j x for omega,
    sigma and linear statistics, and j (1 for delta) when the statistic's
    comparison of (previous, x) holds.  So a pass keeps one {key: count}
    dict per last symbol when some statistic reads it, else a single one."""
    weights = [linear_weights(st, n) for st in stats]
    compares = [DESCENT_COMPARISONS.get(st.kind) for st in stats]

    def step(j: int, previous, x: int) -> tuple:
        inc = []
        for st, w, cmp in zip(stats, weights, compares):
            if w is not None:
                inc.append(w[j] * x)
            elif j and cmp(previous, x):
                inc.append(1 if st.kind == "delta" else j)
            else:
                inc.append(0)
        return tuple(inc)

    return step, any(cmp is not None for cmp in compares)


class _PackedSpace:
    """The layout of a packed full-space enumerator: one mixed-radix
    integer key per term.

    Exponent i (of `variables`) is digit i of the key, of radix
    `radices[i]` and place value `strides[i]`, the product of the radices
    before it: one digit per statistic, then one per tau_x.  Each radix is
    1 + the largest value its exponent can take, so no digit carries into
    the next and `unpack` reads the exponents back."""

    __slots__ = ("variables", "radices", "strides")

    def __init__(self, variables, radices) -> None:
        self.variables = tuple(variables)
        self.radices = tuple(radices)
        self.strides = tuple(itertools.accumulate(self.radices[:-1], operator.mul, initial=1))

    def pack(self, exps) -> int:
        return sum(map(operator.mul, exps, self.strides))

    def unpack(self, key: int) -> tuple:
        """The exponents of a key; anything left past the last digit means
        a digit carried, and raises IntegralityError."""
        exps = []
        for radix in self.radices:
            key, digit = divmod(key, radix)
            exps.append(digit)
        if key:
            raise IntegralityError(f"packed key carries {key} past its last digit")
        return tuple(exps)

    def poly(self, terms: dict) -> MultiPoly:
        """The {key: count} terms, unpacked into one MultiPoly."""
        return MultiPoly(self.variables, {self.unpack(key): count for key, count in terms.items()})


def _tops(n: int, r: int, stats, lo: int, hi: int) -> list:
    """Each statistic's largest value over positions lo..hi-1, the sum of
    its largest increments there: (r-1) h_j for omega, sigma and linear
    statistics, j (1 for delta) for a descent statistic at j >= 1.
    Negative weights are refused, so no increment is negative."""
    if any(x < 0 for st in stats if st.kind == "linear" for x in st.h):
        raise ValueError("full-space enumerators need non-negative weights")
    tops = []
    for st in stats:
        if st.kind == "linear":
            tops.append((r - 1) * sum(itertools.islice(st.h, lo, hi)))
        elif st.kind == "omega":
            tops.append((r - 1) * (hi * (hi + 1) - lo * (lo + 1)) // 2)
        elif st.kind == "sigma":
            tops.append((r - 1) * (hi - lo))
        elif st.kind == "delta":
            tops.append(max(hi - max(lo, 1), 0))
        else:
            tops.append((hi * (hi - 1) - lo * (lo - 1)) // 2)
    return tops


def _pass_bound(r: int, stats, tops, length: int) -> int:
    """Bound on the keys of an exact pass over `length` positions on which
    each statistic's largest value is `tops`: min(r^length,
    C(length+r-1, r-1) type vectors times 1 + each top), sigma adding no
    factor beside the type vector that fixes it.  Read off the
    statistics, before any weight vector or r^length is built."""
    factors = (1 + top for st, top in zip(stats, tops) if st.kind != "sigma")
    return capped_power(r, length, comb(length + r - 1, r - 1) * prod(factors))


def _check_pass(bound: int, budget: int | None) -> None:
    check_budget(bound, budget, f"full-space transfer pass of up to {count_text(bound)} terms")


def _exact_pass(n: int, r: int, stats, tops):
    """The packed layout of the full space [0, r)^n and `run(positions,
    states)`, the transfer pass over `positions` from `states`, {last
    symbol (None when no statistic reads it): {key: count}}, which returns
    the states after the last of them: one state None after position
    n - 1, whose symbol nothing reads.  A statistic's radix is 1 + its
    largest value on [0, r)^n, `tops` (sigma's is (r-1)n), each tau_x's is
    n + 1, whatever the positions, so the keys of passes over disjoint
    positions add up to the key of the joined words and no digit carries.

    A step adds one integer to every key: the increments of `_stepper`
    times their statistics' strides, plus tau_x's stride.  For symbol x at
    position j after `previous` that is x lin[j] + j ups[previous][x] +
    ones[previous][x] + tau[x]: lin[j] sums the linear statistics' weights
    at j times their strides, ups the strides of the gamma/lambda
    statistics whose comparison of (previous, x) holds, ones those of
    delta.  The caller checks the pass's bound (`_pass_bound`) first: the
    weight vectors are built here."""
    s = len(stats)
    space = _PackedSpace(z_variables(s) + w_variables(r), [1 + top for top in tops] + [n + 1] * r)
    strides, tau = space.strides[:s], space.strides[s:]
    lin = [0] * n
    # the rows of None, the previous "symbol" at position 0 or when no
    # statistic reads it, stay 0
    ups = {p: [0] * r for p in (None, *range(r))}
    ones = {p: [0] * r for p in ups}
    for st, stride in zip(stats, strides):
        weights = linear_weights(st, n)
        if weights is not None:
            lin = [acc + h * stride for acc, h in zip(lin, weights)]
            continue
        compare, table = DESCENT_COMPARISONS[st.kind], ones if st.kind == "delta" else ups
        for p, x in itertools.product(range(r), repeat=2):
            table[p][x] += stride * compare(p, x)
    reads_previous = any(st.kind in DESCENT_COMPARISONS for st in stats)

    def run(positions, states: dict) -> dict:
        for j in positions:
            nxt: dict = {}
            keyed = reads_previous and j < n - 1
            for previous, terms in states.items():
                up, one = ups[previous], ones[previous]
                for x in range(r):
                    inc = x * lin[j] + j * up[x] + one[x] + tau[x]
                    dest = nxt.setdefault(x if keyed else None, {})
                    for key, count in terms.items():
                        key += inc
                        dest[key] = dest.get(key, 0) + count
            states = nxt
        return states

    return space, run


def full_space_enumerator(n: int, r: int, stats, budget: int | None = None) -> MultiPoly:
    """Extended enumerator of the whole space [0, r)^n for the given
    statistics, in variables z1..zs, w0..w(r-1): theorem 1's engine at
    moduli 1, where every term is kept."""
    space, kept = _theorem1_terms(n, r, [Constraint(st, 1, 0) for st in stats], budget, n)
    return space.poly(kept)


# ---------------------------------------------------------------------------
# the character-sum engine

#: theorem 1 splits the positions only where the split's estimated work is
#: below the single pass's bound by this factor
_SPLIT_GAIN = 2

#: the fixed cost of one more transfer pass, in terms, charged to the split
#: for each of its right passes: below about this many terms a pass's own
#: overhead outweighs what the split saves
_PASS_TERMS = 64


def _split_point(spec: CodeSpec, budget: int | None) -> int:
    """Where theorem 1 splits the positions: k = n // 2, or k = n (one pass
    over every position, joined with the empty right half).  The split is
    taken when each half's bound fits the budget and its estimated work,
    left + s (right + _PASS_TERMS) + left right / prod m_i pairs, with s = r
    right passes when a descent statistic reads the previous symbol and
    s = 1 otherwise, is below the single pass's bound by _SPLIT_GAIN.  The
    bounds are read off the statistics, before any pass: each half's from
    its own largest values, which add up to the whole space's."""
    n, r, cons = spec.n, spec.r, spec.constraints
    stats = [c.stat for c in cons]
    starts = r if any(st.kind in DESCENT_COMPARISONS for st in stats) else 1
    # the split's work is over s _PASS_TERMS, the single pass's at most r^n
    least = _SPLIT_GAIN * starts * _PASS_TERMS
    if capped_power(r, n, least) < least or any(st.kind == "custom" for st in stats):
        return n
    k = n // 2
    tops = _tops(n, r, stats, 0, k), _tops(n, r, stats, k, n)
    left, right = _pass_bound(r, stats, tops[0], k), _pass_bound(r, stats, tops[1], n - k)
    single = _pass_bound(r, stats, list(map(operator.add, *tops)), n)
    work = left + starts * (right + _PASS_TERMS) + left * right // prod(c.m for c in cons)
    fits = max(left, starts * right) <= budget_limit(budget)
    return k if fits and _SPLIT_GAIN * work < single else n


def _join(space: _PackedSpace, cons, left: dict, right: dict):
    """The pairs of a left and a right term whose statistic digits add up
    to the code's residues, a right term pairing only with the left terms
    of the last symbol p it started from: [(left terms, left keys, right
    group)], each left key to be paired with each (key, count) of the
    group, and the number of pairs.  The right keys are grouped by the
    residues a left key needs, (a_i - key // stride % radix) % m_i, and
    each left key looks its own residues up.  No pair is formed here."""
    digits = list(zip(space.strides, space.radices, cons))

    def rows(columns):
        # without constraints every key's residues are ()
        return zip(*columns) if digits else itertools.repeat(())

    matched, pairs = [], 0
    for p, terms in right.items():
        keys = list(terms)
        needs = rows([[(c.a - key // stride % radix) % c.m for key in keys] for stride, radix, c in digits])
        groups: dict = {}
        for need, key in zip(needs, keys):
            groups.setdefault(need, []).append((key, terms[key]))
        keys, found = list(left[p]), {}
        rhos = rows([[key // stride % radix % c.m for key in keys] for stride, radix, c in digits])
        for rho, key in zip(rhos, keys):
            if rho in groups:
                found.setdefault(rho, []).append(key)
        for rho, keys in found.items():
            pairs += len(keys) * len(groups[rho])
            matched.append((left[p], keys, groups[rho]))
    return matched, pairs


def _kept(space: _PackedSpace, cons, left: dict, right: dict, limit: int):
    """The code's terms, {key: count}: each pair `_join` matches, its keys
    added and its counts multiplied, or None where the pairs outnumber
    `limit`.  A negative count of either half raises IntegralityError,
    with its exponents, before any pair is matched."""
    for half in (*left.values(), *right.values()):
        if min(half.values(), default=0) < 0:
            key, coeff = next((key, coeff) for key, coeff in half.items() if coeff < 0)
            raise IntegralityError(f"negative full-space coefficient {coeff} for {space.unpack(key)}")
    matched, pairs = _join(space, cons, left, right)
    if pairs > limit:
        return None
    kept: dict = {}
    for terms, keys, group in matched:
        for rk, rc in group:
            for lk in keys:
                kept[lk + rk] = kept.get(lk + rk, 0) + terms[lk] * rc
    return kept


def _theorem1_terms(n: int, r: int, cons, budget: int | None, k: int):
    """The packed space and the code's full-space terms, {key: count}: the
    join of the exact passes over positions 0..k-1 and k..n-1, k = n
    joining the single pass with the empty right half, whose one term is
    the empty word (see `theorem1_extended`)."""
    stats = [c.stat for c in cons]
    if any(st.kind == "custom" for st in stats):
        # no increments: the left half is the oracle's scan of [0, r)^n (every
        # word satisfies moduli 1), packed with radices 1 + the largest values
        # it saw, at k = n
        terms = _scan_terms(CodeSpec(n, r, tuple((st, 1, 0) for st in stats)), budget)
        tops = [max((exps[i] for exps in terms), default=0) for i in range(len(stats))]
        variables = z_variables(len(stats)) + w_variables(r)
        space = _PackedSpace(variables, [1 + top for top in tops] + [n + 1] * r)
        left = {None: {space.pack(exps): count for exps, count in terms.items()}}
        return space, _kept(space, cons, left, {None: {0: 1}}, len(terms))
    tops = _tops(n, r, stats, 0, n)
    single = _pass_bound(r, stats, tops, n)
    if k == n:
        # the single pass; `_split_point` checked the halves' bounds where it split
        _check_pass(single, budget)
    space, run = _exact_pass(n, r, stats, tops)
    left = run(range(k), {None: {0: 1}})
    right = {p: run(range(k, n), {p: {0: 1}})[None] for p in left}
    kept = _kept(space, cons, left, right, min(single, budget_limit(budget)))
    if kept is None:
        # more pairs than the single pass's bound, or than the budget: the
        # left half continues over the right's positions if the pass fits
        _check_pass(single, budget)
        kept = _kept(space, cons, run(range(k, n), left), {None: {0: 1}}, single)
    return space, kept


def theorem1_extended(spec: CodeSpec, budget: int | None = None) -> Enumerator:
    """Extended enumerator of a congruence code from the full-space
    enumerator, by theorem 1:
    (1/prod m_i) sum_u e(-sum_i u_i a_i/m_i) W_full(e(u_i/m_i) z_i, w).

    A full-space term with statistic exponents k_i picks up the factor
    prod_i e(u_i (k_i - a_i)/m_i), and sum_{u mod m} e(u(k - a)/m) is m
    when m | k - a and 0 otherwise.  So the sum keeps exactly the terms
    with k_i = a_i (mod m_i) for every constraint, with their coefficients.

    Over [0, r)^n, W_full is the product of the enumerators of positions
    0..k-1 and k..n-1, so keeping those terms is a join on residues: a
    left term of statistic residues rho pairs only with right terms of
    residues a - rho.  The exact pass runs on each half with the
    full-length radices, so a left key plus a right key is the joined
    word's key; when a descent statistic reads the previous symbol, the
    right half starts once from each last symbol p of the left half and
    joins only its terms.  `_split_point` picks k from bounds read off the
    statistics; at k = n the right half is empty, its one term the empty
    word, and a custom statistic's left half is the oracle's scan.  The
    join counts its pairs before it forms any; past the single pass's
    bound (or the budget) the left half continues over the remaining
    positions and is joined with the empty right half, or the request is
    refused with the single pass's message.  A negative count of either
    half raises IntegralityError.  Only the kept keys are unpacked.
    """
    k = _split_point(spec, budget)
    space, kept = _theorem1_terms(spec.n, spec.r, spec.constraints, budget, k)
    return Enumerator("extended", space.poly(kept), "character_sum", spec)


# ---------------------------------------------------------------------------
# the residue-keyed pass and the closed form for linear congruence codes


def _residue_pass(spec: CodeSpec, kind: str, budget: int | None):
    """The spec's enumerator of kind "complete" or "hamming", or its
    cardinality, from one transfer pass keyed by the statistics' residues
    mod m_i (built-in statistics, any integer weights), read at the code's
    residues a_i.  Labelled "transfer".  The Hamming weight, or tau with
    tau_x at digit (n+1)^(x-1), is packed into each count as Kronecker
    digits bit_length(r^n) rounded up to bytes wide, which never carry.
    With keys = prod_i m_i, times r when kept per last symbol, the bound
    checked before the pass, and before any weight vector is built, is
    min(r^n, keys), keys times n + 1 at "hamming".  Packed tau stores all
    (n+1)^(r-1) digits of a state, though only C(n+r-1, r-1) can be
    nonzero, bounded by min(r^n, keys) (n+1)^(r-1).  Past the budget or
    _PACKED_EXCESS times the bound of tau in the keys, min(r^n,
    C(n+r-1, r-1) keys / sigma's m_i), tau stays in the keys."""
    n, r, cons = spec.n, spec.r, spec.constraints
    moduli = [c.m for c in cons]
    reads_previous = any(c.stat.kind in DESCENT_COMPARISONS for c in cons)
    keys = prod(moduli) * (r if reads_previous else 1)
    axes, tail = int(kind == "hamming"), 0  # digit axes packed; tau_x kept in the keys
    bound = capped_power(r, n, keys * (n + 1) ** axes)
    if kind == "complete":
        sigma = prod(c.m for c in cons if c.stat.kind == "sigma")
        bound = capped_power(r, n, comb(n + r - 1, r - 1) * keys // sigma)
        packed = capped_power(r, n, keys) * (n + 1) ** (r - 1)
        if packed <= min(_PACKED_EXCESS * bound, budget_limit(budget)):
            axes, bound = r - 1, packed
        else:
            tail = r - 1
    check_budget(bound, budget, f"residue transfer pass of up to {count_text(bound)} terms")
    step, _ = _stepper(n, [c.stat for c in cons])
    size = -(-(r**n).bit_length() // 8)
    unit = [tuple(int(t == x) for t in range(1, 1 + tail)) for x in range(r)]
    # digit place a symbol adds to: tau_x's, the Hamming weight's 1, or none
    places = [(n + 1) ** (x - 1) if kind == "complete" and axes else axes for x in range(1, r)]
    shifts = [0] + [8 * size * place for place in places]
    key_moduli = moduli + [n + 1] * tail
    states = {None: {(0,) * len(key_moduli): 1}}
    for j in range(n):
        nxt: dict = {}
        for previous, terms in states.items():
            for x in range(r):
                inc, shift = step(j, previous, x) + unit[x], shifts[x]
                dest = nxt.setdefault(x if reads_previous else None, {})
                for exps, count in terms.items():
                    key = tuple(map(operator.mod, map(operator.add, exps, inc), key_moduli))
                    dest[key] = dest.get(key, 0) + (count << shift)
        states = nxt
    s, target, kept = len(cons), tuple(c.a for c in cons), Counter()
    for terms in states.values():
        kept.update({key[s:]: count for key, count in terms.items() if key[:s] == target})
    if kind == "cardinality":
        return sum(kept.values())
    cells = [(0, ())]  # (digit index, exponents on its axes), of total at most n
    for axis in range(axes):
        cells = [
            (i + t * (n + 1) ** axis, e + (t,)) for i, e in cells for t in range(n + 1 - sum(e))
        ]
    terms = {}
    for head, packed in kept.items():
        raw = packed.to_bytes(size * (n + 1) ** axes, "little")
        for i, exps in cells:
            count = int.from_bytes(raw[i * size : (i + 1) * size], "little")
            if count:
                exps = head + exps
                terms[(n - sum(exps),) + exps if kind == "complete" else exps] = count
    variables = ("w",) if kind == "hamming" else w_variables(r)
    return Enumerator(kind, MultiPoly(variables, terms), "transfer", spec)


def lc_hamming(n: int, m: int, r: int, h, a: int, budget: int | None = None) -> Enumerator:
    """Hamming weight enumerator of the r-ary linear congruence code.

    The paper's character sum (1/m) sum_u e(-au/m) prod_j (1 + w sum_{k>=1}
    e(h_j k u/m)) is, by orthogonality, the coefficient of x^a in
    prod_j (1 + w sum_{k>=1} x^(h_j k)) taken in Z[x]/(x^m - 1).  That
    coefficient is what `compute` returns for this one congruence at
    method "closed": the residue pass, with the weighted sum kept mod m and
    the Hamming weight packed into each count, in integer arithmetic, for
    any integer weights.  There are no twisted points and no division by
    m, so no integrality sentinel can fire.  The pass's bound
    min(r^n, m (n+1)) is checked against `budget` before it starts."""
    return compute(lc(n, m, r, h, a), "hamming", "closed", budget)


# ---------------------------------------------------------------------------
# closed forms for descent/sum codes


def tenengolts_variant_transform(variant: str, n: int, a1: int) -> tuple[int, bool]:
    """Base-code parameter with the same Hamming enumerator as the variant,
    plus whether the variant's codewords are the reversals of the base's."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= a1 < n:
        raise ValueError(f"a1 must lie in [0, {n}), got {a1}")
    if variant == ">":
        return a1, False
    bar = (n - a1) if a1 else 0
    if variant == "<":
        return bar, True
    if n % 2:
        def prime(x):
            return (n - x) if x else 0
    else:
        def prime(x):
            return n // 2 - x + (n if x > n // 2 else 0)
    if variant == "<=":
        return prime(a1), False
    if variant == ">=":
        return prime(bar), True
    raise ValueError(f"unknown variant {variant!r}")


def tenengolts_hamming(n: int, r: int, a1: int, a2: int, variant: str = ">") -> Enumerator:
    """Hamming weight enumerator of the r-ary descent/sum code, in pure
    integer arithmetic over divisor pairs weighted by Ramanujan sums."""
    spec = tenengolts_spec(n, r, a1, a2, variant)
    base_a1, _ = tenengolts_variant_transform(variant, n, a1)
    coeffs = [0] * (n + 1)
    for d in divisors(n):
        cd = ramanujan_sum(d, base_a1)
        if not cd:
            continue
        k = n // d
        for e in divisors(r):
            ce = ramanujan_sum(e, a2)
            if not ce:
                continue
            # {1 - w^d + r w^d [e | d]}^(n/d)
            base = (r - 1) if d % e == 0 else -1
            weight = cd * ce
            for i in range(k + 1):
                coeffs[d * i] += weight * comb(k, i) * base**i
    denom = n * r
    terms: dict = {}
    for deg, c in enumerate(coeffs):
        q, rem = divmod(c, denom)
        if rem:
            raise NonDivisibleError(f"weight-{deg} total {c} not divisible by {denom}")
        if q < 0:
            raise IntegralityError(f"negative weight-{deg} coefficient {q}")
        if q:
            terms[(deg,)] = q
    return Enumerator("hamming", MultiPoly(("w",), terms), "closed_form", spec)


def tenengolts_cardinality(n: int, r: int, a1: int, a2: int, variant: str = ">") -> int:
    """Cardinality of the r-ary descent/sum code from the divisor sum
    (1/nr) sum_{d | n} c_d(a1) r^(n/d) (r, d) [ (r, d) | a2 ]."""
    tenengolts_spec(n, r, a1, a2, variant)  # checks the parameters
    base_a1, _ = tenengolts_variant_transform(variant, n, a1)
    total = 0
    for d in divisors(n):
        g = gcd(r, d)
        if a2 % g:
            continue
        total += ramanujan_sum(d, base_a1) * r ** (n // d) * g
    q, rem = divmod(total, n * r)
    if rem:
        raise NonDivisibleError(f"cardinality total {total} not divisible by {n * r}")
    if q < 0:
        raise IntegralityError(f"negative cardinality {q}")
    return q


def argmax_cardinality(n: int, r: int, variant: str = ">") -> list[tuple[int, int]]:
    """All (a1, a2) parameter pairs of maximum cardinality, sorted."""
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    grid = {
        (a1, a2): tenengolts_cardinality(n, r, a1, a2, variant)
        for a1 in range(n)
        for a2 in range(r)
    }
    best = max(grid.values())
    return sorted(pair for pair, value in grid.items() if value == best)


# ---------------------------------------------------------------------------
# route choice


def _closed_form(spec: CodeSpec, kind: str, budget: int | None):
    """The closed-form result the spec's congruences admit at this kind,
    or None when they admit none."""
    if kind not in ("hamming", "cardinality"):
        return None
    cons = spec.constraints
    if (
        len(cons) == 2
        and cons[0].stat.kind in _VARIANT_OF_STAT
        and cons[0].m == spec.n
        and cons[1].stat == SIGMA
        and cons[1].m == spec.r
    ):
        variant = _VARIANT_OF_STAT[cons[0].stat.kind]
        args = (spec.n, spec.r, cons[0].a, cons[1].a, variant)
        if kind == "cardinality":
            return tenengolts_cardinality(*args)
        return tenengolts_hamming(*args)
    if len(cons) == 1 and cons[0].stat.kind in ("omega", "sigma", "linear"):
        # the character sum of a linear congruence, evaluated by the residue pass
        result = _residue_pass(spec, kind, budget)
        if kind == "cardinality":
            return result
        return Enumerator(kind, result.poly, "closed_form", spec)
    return None


def _nonnegative_weights(spec: CodeSpec) -> CodeSpec:
    """The same code with each linear statistic that has a negative weight
    given its weights reduced mod the modulus.  The congruences are
    unchanged; only the z-exponents differ."""
    cons = tuple(
        Constraint(linear([x % c.m for x in c.stat.h]), c.m, c.a)
        if c.stat.kind == "linear" and min(c.stat.h, default=0) < 0
        else c
        for c in spec.constraints
    )
    return CodeSpec(spec.n, spec.r, cons)


def compute(spec: CodeSpec, kind: str, method: str = "auto", budget: int | None = None):
    """The spec's enumerator of the given kind, or its cardinality (an int)
    when `kind` is "cardinality".

    This is the one place a route is chosen; the command line and
    `lc_hamming` reach every route through it.  The route is read off the
    spec's congruences, whatever family built it.  At kinds "hamming" and
    "cardinality", a descent/sum code (a descent statistic mod n, then the
    symbol sum mod r) takes the divisor sums of `tenengolts_hamming` /
    `tenengolts_cardinality`, and a single linear congruence (an omega,
    sigma or linear statistic) takes the residue pass on the spec itself,
    labelled "closed_form" at "hamming" and with nothing packed for its
    cardinality.  Method "auto" uses these closed forms when
    they apply.  Otherwise, below kind "extended" and without a custom
    statistic, it takes the residue-keyed transfer pass (method label
    "transfer"), which carries only what the kind needs: the type vector
    (packed, or in the keys), the Hamming weight or nothing; at "extended"
    or with a custom statistic it takes theorem 1.  "closed" raises ValueError when no
    closed form applies; "theorem1" and "oracle" force the character-sum
    engine and brute force.  Below kind "extended" the oracle counts the
    type vectors of the scanned codewords and evaluates no statistic, and
    theorem 1 gets the spec with its negative linear weights reduced mod
    their moduli (the kind drops the z-exponents they change), so negative
    weights are no obstacle there.  `budget` bounds every route but the
    descent/sum divisor sums, before its work starts.
    """
    if kind != "cardinality" and kind not in KINDS:
        raise ValueError(f"unknown enumerator kind {kind!r}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, choose one of {', '.join(METHODS)}")
    if method in ("auto", "closed"):
        result = _closed_form(spec, kind, budget)
        if result is not None:
            return result
        if method == "closed":
            stats = ", ".join(c.stat.kind for c in spec.constraints)
            raise ValueError(f"no closed form for statistics ({stats}) at kind {kind}")
        if kind != "extended" and all(c.stat.kind != "custom" for c in spec.constraints):
            return _residue_pass(spec, kind, budget)
    if method == "oracle" and kind == "cardinality":
        return sum(1 for _ in enumerate_codewords(spec, budget))
    if method == "oracle" and kind != "extended":
        words = enumerate_codewords(spec, budget)
        base = Enumerator("complete", complete_weight_enumerator(words, spec.r), "oracle", spec)
    elif method == "oracle":
        base = oracle_extended(spec, budget)
    elif kind == "extended":
        base = theorem1_extended(spec, budget)
    else:
        base = theorem1_extended(_nonnegative_weights(spec), budget)
        base.spec = spec
    return specialize(base, kind)


# ---------------------------------------------------------------------------
# JSON wire format


def enumerator_to_dict(enum: Enumerator) -> dict:
    return {
        "kind": enum.kind,
        "variables": list(enum.poly.variables),
        "terms": [
            {"exp": list(exps), "coef": str(coeff)}
            for exps, coeff in enum.poly.sorted_terms()
        ],
        "cardinality": str(enum.cardinality()),
        "method": enum.method,
    }


def enumerator_from_dict(data: dict) -> Enumerator:
    poly = MultiPoly(
        tuple(data["variables"]),
        {tuple(t["exp"]): int(t["coef"]) for t in data["terms"]},
    )
    return Enumerator(data["kind"], poly, data.get("method", "oracle"))
