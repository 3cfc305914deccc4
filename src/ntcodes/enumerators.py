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
position, the symbol and the symbol before it (its `codes.Form`), so one
transfer pass over the positions (the transfer-matrix method, `_transfer`)
never lists the words.  It keys each count by one integer whose digits are
either exact, never wrapped, or residues, wrapped back below their moduli,
each stepped through its own statistic's increment table, and it may
shift the counts and fold them cyclically.  Both routes below
run it, and so does the right side of the MacWilliams identity
(`macwilliams._dual_at_characters`).

Theorem 1 runs it in the exact layout (`_exact_pass`): each term's key is
one mixed-radix integer of the exact statistic values and the type
vector, each radix 1 + the largest value of its digit, so no digit
carries.  W_full is the product of the enumerators of positions 0..k-1
and k..n-1, so theorem 1 keeps its terms by one join on residues,
`_kept`: a left term of residues rho pairs only with the right terms of
residues a - rho (`_theorem1_terms`).  At moduli 1 the join keeps every
term, which is `full_space_enumerator`.  Below kind "extended" the kept
keys are read straight at the kind (`_PackedSpace.read`): the type
vector's digits, or the Hamming weight n - tau_0, or the sum of the
counts.  A custom statistic has no increments, so theorem 1 refuses it
and `compute` sends it to the oracle; its full space is the oracle's
tally at moduli 1.

The passes read n, r, the statistics and k, never a modulus or a
residue.  So theorem 1 keeps the halves its passes return in `_PASSES`,
one least recently used map keyed by (n, r, statistics, k), each half's
terms grouped by their residues mod the moduli of the last join
(`_grouped`).  A later code over the same statistics pays only the join,
one lookup per left class, and the read at its kind; at other moduli the
entry is grouped again first, in place.  The single pass is the entry at
k = n, whose right half is the empty word, built like every entry from
position 0: `full_space_enumerator` and theorem 1's one fallback share
it.  Every budget check runs before the lookup, so a refusal reads the
same either way, and each entry's halves are checked once for a negative
count, when they are built.  The map holds at most `_PASSES_SIZE` terms;
an entry larger than that is not kept.

The residue pass (`_residue_pass`) counts the code itself, keyed by the
statistics' residues, in the keyed or the cyclic layout that
`_digit_congruence` picks.  Every pass's size is the count of `_states`.
It evaluates the linear-congruence character sum, the closed form for one
congruence, and answers every spec without a closed form below kind
"extended"; where it is refused, "auto" asks theorem 1 (`_ROUTES`).
Its pass counts every residue class and reads n, r, the statistics, the
moduli, the kind and the budget in force, never a residue.  So it keeps
its final states in `_RESIDUE_PASSES`, a second least recently used map
keyed by those, and a later request over the same congruences at other
residues pays only the read-out at its own (`_residue_read`).  Only a
pass whose checks passed is kept, so a refusal reads the same either
way.  That map holds at most `_RESIDUE_PASSES_BYTES` bytes of counts;
`_keep` evicts from both maps.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from math import comb, gcd, prod
from typing import Optional

from .codes import (
    SIGMA,
    VARIANT_STATS,
    BudgetExceededError,
    CodeSpec,
    Constraint,
    Record,
    _check_tenengolts,
    budget_limit,
    capped_power,
    check_budget,
    linear,
    tally_codewords,
    tenengolts as tenengolts_spec,
    type_vector,
)
from .exactalg import IntegralityError, MultiPoly, count_text, exact_quotient
from .numtheory import ramanujan_sums

KINDS = ("extended", "complete", "hamming")

#: the residue pass packs tau while its bound is at most this many times the
#: bound of tau in the keys: up to here packing measured no more memory
_PACKED_EXCESS = 16

#: descent/sum variant keyed by the statistic kind of its first constraint
_VARIANT_OF_STAT = {stat: variant for variant, stat in VARIANT_STATS.items()}


def z_variables(s: int) -> tuple[str, ...]:
    return tuple(f"z{i}" for i in range(1, s + 1))


def w_variables(r: int) -> tuple[str, ...]:
    return tuple(f"w{j}" for j in range(r))


class Enumerator(Record):
    """A weight enumerator polynomial tagged with how it was produced."""

    __slots__ = _fields = ("kind", "poly", "method", "spec")
    _key = operator.attrgetter(*_fields)

    def __init__(self, kind: str, poly: MultiPoly, method: str, spec: Optional[CodeSpec] = None):
        self.kind, self.poly, self.method, self.spec = kind, poly, method, spec

    def cardinality(self) -> int:
        """The number of codewords: the sum of the coefficients, which is
        the polynomial evaluated at all ones."""
        return sum(self.poly.terms.values())


def _variables(spec: CodeSpec, kind: str) -> tuple[str, ...]:
    """The variables of the spec's enumerator of the given kind."""
    if kind == "hamming":
        return ("w",)
    if kind == "complete":
        return w_variables(spec.r)
    return z_variables(spec.s) + w_variables(spec.r)


def _scan_terms(spec: CodeSpec, kind: str, budget: int | None):
    """The oracle's one tally of the scanned codewords, `codes.tally_codewords`:
    their number at kind "cardinality", else {key: count} with one key per
    codeword, its Hamming weight at "hamming", its type vector at
    "complete", and at "extended" its statistic values, then its type
    vector; a negative statistic value raises ValueError there.  Where no
    statistic reads the previous symbol, each codeword costs O(1): its
    recheck compares a prefix's weighted sum plus a suffix's, from
    `Form.weights` and so independent of the split and its table, and its
    key is the prefix's key plus the suffix's, with no word built.  Specs
    with a statistic that reads the previous symbol, custom statistics and
    n < 2 still build each codeword and key it from its symbols."""
    terms = tally_codewords(spec, kind, budget)
    if kind == "extended" and any(v < 0 for key in terms for v in key[: spec.s]):
        raise ValueError("a statistic took a negative value; enumerator exponents must be non-negative")
    return terms


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


def _increment_tables(n: int, r: int, stat, lasts):
    """The statistic's form (`codes.Form`) as the tables (lin, ups, ones) of
    h_j, U(p, x) and D(p, x): symbol x at position j after `previous` adds
    x lin[j] + j ups[previous][x] + ones[previous][x].  `ups` and `ones`
    hold one row per entry of `lasts`: None, the previous "symbol" at
    position 0 or when no statistic of the pass reads it, then every
    symbol where one does.  Rows of None, and the parts the form lacks,
    are one shared row of zeros."""
    form, zero = stat.form, [0] * r

    def table(compare):
        return {p: zero if compare is None or p is None else [compare(p, x) for x in range(r)] for p in lasts}

    return form.weights(n) or (0,) * n, table(form.up), table(form.down)


def _reads_previous(stats) -> bool:
    """Whether a statistic's form reads the previous symbol (U or D): a pass
    then keeps its counts per last symbol."""
    return any(st.form.reads for st in stats)


def _transfer(n: int, r: int, digits, unit, shifts, span: int):
    """The one transfer pass over the positions of [0, r)^n, as
    `run(positions, states)`: from `states`, {last symbol: {key: count}},
    the states after the last of `positions`.  The last symbol is None
    when no statistic reads it, and at position n - 1, whose symbol
    nothing reads.

    Each count is keyed by one integer, and `digits` holds one (stat, m,
    stride, place) per statistic, each stepped through its own
    `_increment_tables`.  A digit adds its increment v, or with m > 0
    v mod m, times `stride` to the key, and shifts the count by v `place`
    bits.  It is exact (m = 0, place 0): the statistic's value, never
    wrapped; a keyed residue (place 0): the value mod m, of radix 2 m at
    `stride`, so that a step never carries it and wraps it back below m;
    or a cyclic residue (stride 0): the value mod m in the count's
    rotation.  Symbol x adds unit[x] to every key and shifts every count
    by shifts[x] bits besides.  With a nonzero `span`, after each position
    the bits of a count past `span` are added back at bit 0: shifts are
    then rotations of its span bits.  A step that wraps no digit and
    shifts nothing only adds to the keys.

    Its clients: theorem 1's exact pass (`_exact_pass`), the residue pass
    (`_residue_pass`), and the MacWilliams right side, which has no
    digits, so no tables, and multiplies by v_i = sum_k w_k X^(ik) with
    symbol k adding w_k's stride and rotating the count by X^(ik)."""
    reads = _reads_previous(d[0] for d in digits)
    lasts = (None, *range(r)) if reads else (None,)
    tables = [
        (*_increment_tables(n, r, st, lasts), m, stride, place, (stride, 2 * m, m, m * stride))
        for st, m, stride, place in digits
    ]
    full = (1 << span) - 1

    def run(positions, states: dict) -> dict:
        for j in positions:
            nxt: dict = {}
            keyed = reads and j < n - 1
            for previous, terms in states.items():
                for x in range(r):
                    inc, shift, wraps = unit[x], shifts[x], ()
                    for lin, ups, ones, m, stride, place, wrap in tables:
                        v = x * lin[j] + j * ups[previous][x] + ones[previous][x]
                        if m:
                            v %= m
                            if v and stride:
                                wraps += (wrap,)
                        inc += v * stride
                        shift += v * place
                    dest = nxt.setdefault(x if keyed else None, {})
                    if wraps or shift:
                        for key, count in terms.items():
                            key += inc
                            for stride, radix, m, back in wraps:
                                if key // stride % radix >= m:
                                    key -= back
                            dest[key] = dest.get(key, 0) + (count << shift)
                    else:
                        for key, count in terms.items():
                            key += inc
                            dest[key] = dest.get(key, 0) + count
            if span:
                for terms in nxt.values():
                    for key, count in terms.items():
                        terms[key] = (count & full) + (count >> span)
            states = nxt
        return states

    return run


class _PackedSpace:
    """The layout of a packed full-space enumerator: one mixed-radix
    integer key per term.

    Exponent i (of `variables`) is digit i of the key, of radix
    `radices[i]` and place value `strides[i]`, the product of the radices
    before it: one digit per statistic, then one per tau_x.  Each radix is
    1 + the largest value its exponent can take, so no digit carries into
    the next and `unpack` reads the exponents back, `read` the terms at
    any kind."""

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
            raise IntegralityError(f"packed key carries {count_text(key)} past its last digit")
        return tuple(exps)

    def read(self, terms: dict, kind: str):
        """The {key: count} terms as the polynomial of `kind`, or their
        number of words at "cardinality", the sum of the counts: "extended"
        unpacks every digit; "complete" reads the type vector tau, the
        digits of key // its stride, and "hamming" the weight n - tau_0.
        Counts of equal images add up, as `specialize` adds them."""
        if kind == "cardinality":
            return sum(terms.values())
        if kind == "extended":
            return MultiPoly(self.variables, {self.unpack(key): count for key, count in terms.items()})
        s = self.variables.index("w0")
        stride, taus = self.strides[s], {}
        for key, count in terms.items():
            taus[key // stride] = taus.get(key // stride, 0) + count
        images: dict = {}
        for tau, count in taus.items():
            exps = self.unpack(tau * stride)[s:]
            image = exps if kind == "complete" else (self.radices[s] - 1 - exps[0],)
            images[image] = images.get(image, 0) + count
        return MultiPoly(self.variables[s:] if kind == "complete" else ("w",), images)


def _states(r: int, length: int, digits, tau: bool) -> int:
    """The states a transfer pass over `length` positions can reach, the
    one count behind every bound and layout choice of both passes:
    min(r^length, the product of the value counts of the `digits` its keys
    hold, times the C(length+r-1, r-1) type vectors when tau is in the
    keys).  Each digit is (statistic, or None for the last symbol or the
    Hamming weight, count); with tau in the keys a sigma digit counts 1, as
    tau fixes sigma.  Read off the digits, before r^length is built."""
    counts = (1 if tau and st == SIGMA else count for st, count in digits)
    return capped_power(r, length, prod(counts) * (comb(length + r - 1, r - 1) if tau else 1))


def _check_pass(bound: int, budget: int | None) -> None:
    check_budget(bound, budget, f"full-space transfer pass of up to {count_text(bound)} terms")


def _check_tables(r: int, stats, tau_digits: int, budget: int | None) -> None:
    """Refuse, before `_increment_tables` builds them, the (r+1) r cells of each
    table that a statistic reading the previous symbol needs; then the
    strides of `tau_digits` tau digits, in the keys or packed in the
    counts: tau_x's spans the x digits below it, so they hold
    tau_digits (tau_digits - 1) / 2 digits, which no bound on the states
    counts."""
    if _reads_previous(stats):
        cells = (r + 1) * r
        check_budget(cells, budget, f"increment tables of {count_text(cells)} cells")
    cells = tau_digits * (tau_digits - 1) // 2
    check_budget(cells, budget, f"type vector strides of {count_text(cells)} digits")


def _exact_pass(n: int, r: int, stats):
    """The packed layout of the full space [0, r)^n and its `run(positions,
    states)`, the `_transfer` pass with exact digits only, which returns
    one state None after position n - 1.  A statistic's radix is 1 + its
    largest value on [0, r)^n (`Form.top`), each tau_x's is n + 1,
    whatever the positions, so the keys of passes over disjoint positions
    add up to the key of the joined words and no digit carries.
    Symbol x adds tau_x's stride besides its statistics' increments.  The
    caller checks the pass's states (`_states`) first: the weight vectors
    are built here."""
    radices = [1 + st.form.top(r, 0, n) for st in stats] + [n + 1] * r
    space = _PackedSpace(z_variables(len(stats)) + w_variables(r), radices)
    digits = [(st, 0, stride, 0) for st, stride in zip(stats, space.strides)]
    return space, _transfer(n, r, digits, space.strides[len(stats) :], (0,) * r, 0)


def full_space_enumerator(n: int, r: int, stats, budget: int | None = None) -> MultiPoly:
    """Extended enumerator of the whole space [0, r)^n for the given
    statistics, in variables z1..zs, w0..w(r-1): theorem 1's engine at
    moduli 1, where every term is kept, or for a custom statistic, which
    has no increments, the oracle's tally at moduli 1."""
    cons = [Constraint(st, 1, 0) for st in stats]
    if any(st.kind == "custom" for st in stats):
        return compute(CodeSpec(n, r, tuple(cons)), "extended", "oracle", budget).poly
    space, kept = _theorem1_terms(n, r, cons, budget, n)
    return space.read(kept, "extended")


# ---------------------------------------------------------------------------
# the character-sum engine

def _places(moduli) -> list:
    """The place value of each residue in a class number, the product of
    the moduli before it, and last that of the start digit, the product
    of them all."""
    return [prod(moduli[:i]) for i in range(len(moduli) + 1)]


def _kept(cons, left: dict, right: dict, limit: int):
    """The code's terms, {key: count}, by theorem 1's one join of halves
    grouped at the moduli of `cons` (`_grouped`): each pair of a left and a
    right term of the same start p whose statistic residues add up to the
    code's a_i mod m_i, keys added and counts multiplied, or None where the
    pairs outnumber `limit`.  Each left class of residues rho looks up the
    one right class of its start and residues a - rho, and the pairs are
    counted before any is formed."""
    *places, top = _places([c.m for c in cons])
    # the class number of a - rho for every left class at once, one residue at a time
    needs = [c - c % top for c in left]
    for con, place in zip(cons, places):
        needs = [need + (con.a - c // place) % con.m * place for need, c in zip(needs, left)]
    matched = [(terms, group) for terms, group in zip(left.values(), map(right.get, needs)) if group]
    if sum(len(terms) * len(group) for terms, group in matched) > limit:
        return None
    kept: dict = {}
    get = kept.get
    for terms, group in matched:
        for rk, rc in group:
            for lk, lc in terms:
                key = lk + rk
                kept[key] = get(key, 0) + lc * rc
    return kept


def _grouped(space: _PackedSpace, moduli: tuple, starts) -> dict:
    """A half's terms as {c: ((key, count), ...)}, grouped by their class
    number c = sum_i rho_i place_i + q place_s (`_places`): their
    statistic residues rho_i = key // stride % radix % m_i and the start
    digit q of their start symbol p, 0 for None and p + 1 for a symbol.
    `starts` gives (q, (key, count) pairs): each p's states of a pass, or
    an entry's classes.  A half is one dict, its class numbers ints, small
    ones shared, and each class one tuple: grouped per start symbol by
    residue tuples into lists, the `brute-force` benchmark's store held
    82% more bytes."""
    *places, top = _places(moduli)
    terms, numbers = [], []
    for q, pairs in starts:
        numbers += [q * top] * len(pairs)
        terms += pairs
    for stride, radix, m, place in zip(space.strides, space.radices, moduli, places):
        numbers = [c + key // stride % radix % m * place for c, (key, _) in zip(numbers, terms)]
    classes: dict = {}
    for c, term in zip(numbers, terms):
        classes.setdefault(c, []).append(term)
    return {c: tuple(group) for c, group in classes.items()}


#: theorem 1's exact passes by all they read, least recently used first:
#: (n, r, statistics, k) -> (size, space, moduli, left, right), the left
#: half's terms and the right halves' of every start symbol, grouped by
#: start and statistic residues mod `moduli` (`_grouped`), `size` the terms
#: they hold.
#: A plain dict in insertion order: iterating an OrderedDict's values hashes
#: every key again, each statistic by a Python-level __hash__
_PASSES: dict = {}

#: the most terms that _PASSES holds in all
_PASSES_SIZE = 1 << 13


def _keep(store: dict, key, entry: tuple, cap: int) -> None:
    """Keep `entry` under `key` as the most recently used entry of `store`,
    a plain dict in least recently used order whose entries each lead with
    their size: the least recently used are dropped until the sizes add up
    to at most `cap`.  An entry larger than `cap` on its own is not kept,
    and drops none."""
    size = entry[0]
    if size > cap:
        return
    total = size + sum(held[0] for held in store.values())
    while total > cap:
        total -= store.pop(next(iter(store)))[0]
    store[key] = entry


def _passes(n: int, r: int, stats, k: int, moduli: tuple):
    """Theorem 1's exact passes split at k, grouped at `moduli`, from
    `_PASSES` or built and kept there: (size, space, moduli, left, right),
    the left half's states over positions 0..k-1 from the empty word and
    the right halves' over k..n-1, one per start symbol, their terms
    grouped by start and statistic residues mod `moduli` (`_grouped`), and
    the number of terms they hold.  Every entry is built so; at k = n the left
    half is the single pass and the right half is the empty word.  A new
    entry's states are checked for a negative count before they are
    grouped: IntegralityError, with the term's exponents.  A hit at the
    entry's moduli groups nothing and only becomes the most recently used
    entry; at other moduli the entry's terms are grouped again and that
    entry replaces it, the most recently used.  No stored term is ever
    changed.  A new entry drops the least recently used until the sizes
    add up to at most _PASSES_SIZE; one larger than that on its own is not
    kept."""
    key = (n, r, tuple(stats), k)
    entry = _PASSES.pop(key, None)
    if entry is not None:
        if entry[2] != moduli:
            size, space, held, *halves = entry
            top = prod(held)
            starts = (((c // top, terms) for c, terms in half.items()) for half in halves)
            entry = (size, space, moduli, *(_grouped(space, moduli, half) for half in starts))
        _PASSES[key] = entry
        return entry
    space, run = _exact_pass(n, r, stats)
    left = run(range(k), {None: {0: 1}})
    right = {None: {0: 1}} if k == n else {p: run(range(k, n), {p: {0: 1}})[None] for p in left}
    states = (*left.values(), *right.values())
    for terms in states:
        if min(terms.values(), default=0) < 0:
            term, coeff = next((term, coeff) for term, coeff in terms.items() if coeff < 0)
            raise IntegralityError(f"negative full-space coefficient {count_text(coeff)} for {space.unpack(term)}")
    size = sum(map(len, states))
    starts = (((0 if p is None else p + 1, terms.items()) for p, terms in half.items()) for half in (left, right))
    entry = (size, space, moduli, *(_grouped(space, moduli, half) for half in starts))
    _keep(_PASSES, key, entry, _PASSES_SIZE)
    return entry


def _theorem1_terms(n: int, r: int, cons, budget: int | None, k: int):
    """The packed space and the code's terms, {key: count}, by theorem 1:
    its extended enumerator is
    (1/prod m_i) sum_u e(-sum_i u_i a_i/m_i) W_full(e(u_i/m_i) z_i, w).
    A full-space term with statistic exponents k_i picks up the factor
    prod_i e(u_i (k_i - a_i)/m_i), and sum_{u mod m} e(u(k - a)/m) is m
    when m | k - a and 0 otherwise.  So the sum keeps exactly the terms
    with k_i = a_i (mod m_i) for every constraint, with their coefficients.

    Over [0, r)^n, W_full is the product of the enumerators of positions
    0..k-1 and k..n-1, so keeping those terms is one join on residues,
    `_kept`: a left term of statistic residues rho pairs only with right
    terms of residues a - rho.  The exact pass runs on each half with the
    full-length radices, so a left key plus a right key is the joined
    word's key; when a descent statistic reads the previous symbol, the
    right half starts once from each last symbol p of the left half and
    joins only its terms.  k = n joins the single pass with the empty
    right half, whose one term is the empty word.  A negative count of
    either half raises IntegralityError.

    Both halves' `_states`, and at least their positions, which only r = 1
    leaves above the states, are read off the statistics before any pass,
    increment table or stride of the type vector, the right half's counted
    once per start, r when a descent statistic reads the previous symbol.
    Any k answers, with one fallback, the single pass at k = n: taken where
    the halves do not fit the budget, or where the join's pairs outnumber
    the single pass's bound or the budget, after that bound is checked
    against the budget, with its own message.

    The passes come from `_passes`, kept in `_PASSES` under (n, r,
    statistics, k) and grouped at the moduli: the residues enter only at
    the join, so a later call over the same key runs no pass, and at the
    same moduli groups nothing.  The budget checks above come before the
    lookup, and the one after an overflowing join after it, as without the
    map.  A custom statistic has no increments and raises ValueError."""
    stats = [c.stat for c in cons]
    if any(st.kind == "custom" for st in stats):
        raise ValueError("theorem 1 needs built-in statistics: a custom statistic has no increments")
    if any(x < 0 for st in stats for x in st.form.h or ()):
        raise ValueError("full-space enumerators need non-negative weights")

    def states(lo: int, hi: int) -> int:
        # the keys: each statistic's exact value on positions lo..hi-1, and tau;
        # a pass steps once per position even when it holds one state
        return max(hi - lo, _states(r, hi - lo, [(st, 1 + st.form.top(r, lo, hi)) for st in stats], True))

    single, limit = states(0, n), budget_limit(budget)
    starts = r if _reads_previous(stats) else 1
    if max(states(0, k), starts * states(k, n)) > limit:
        _check_pass(single, budget)
        k = n
    _check_tables(r, stats, r, budget)
    moduli = tuple(c.m for c in cons)
    _, space, _, left, right = _passes(n, r, stats, k, moduli)
    kept = _kept(cons, left, right, min(single, limit))
    if kept is None:
        _check_pass(single, budget)
        _, space, _, left, right = _passes(n, r, stats, n, moduli)
        kept = _kept(cons, left, right, single)
    return space, kept


# ---------------------------------------------------------------------------
# the residue pass and the closed form for linear congruence codes


def _digit_congruence(n: int, r: int, cons, kind: str, digits, keyed: int, budget: int | None):
    """Before the pass, the index of the congruence whose residues the
    residue pass carries as the cyclic digits of each count, the first of
    largest modulus m*, or None for the keyed layout.  This is the one
    layout rule: cyclic wherever its states, the `_states` of the keyed
    `digits` but m*'s, with tau in the keys at "complete", are no more than
    the keyed layout's, `keyed`, and its cells, states m*, fit the budget."""
    moduli = [c.m for c in cons]
    star = moduli.index(max(moduli))
    states = _states(r, n, digits[:star] + digits[star + 1 :], kind == "complete")
    if states <= keyed and states * moduli[star] <= budget_limit(budget):
        return star
    return None


#: the residue pass's final states by all its checks and the pass read,
#: least recently used first: (n, r, statistics, moduli, kind, budget in
#: force) -> (size, states, strides, head, star, width, digit bytes, packed
#: axes, keyed axes), never the residues a_i, and `size` an estimate of
#: the bytes its counts hold: 64 per term besides each count's own.  With
#: its dicts and int objects an entry measured 1.2 to 2.3 times that
#: (`sys.getsizeof`, Python 3.11), so the map's resident size stays under
#: about 2.3 times _RESIDUE_PASSES_BYTES.  A plain dict in insertion order,
#: as _PASSES
_RESIDUE_PASSES: dict = {}

#: the most bytes that _RESIDUE_PASSES holds in all: 64 KiB keeps every
#: repeat of the `closed-forms` benchmark (entries of at most 17 KB), and
#: raised the `brute-force` one's peak RSS by under 1%
_RESIDUE_PASSES_BYTES = 1 << 16


def _residue_pass(spec: CodeSpec, kind: str, budget: int | None):
    """The spec's enumerator polynomial of kind "complete" or "hamming", or
    its cardinality, from the `_transfer` pass over the statistics' residues
    mod m_i (built-in statistics, any integer weights), read at the code's
    residues a_i (`_residue_read`).  A state's key is
    one integer: a residue digit of radix 2 m_i per keyed residue, then any
    keyed tau_x or Hamming weight, of radix n + 1, exact digits that never
    wrap.

    Keyed layout: every residue is in the keys, and the Hamming weight, or
    tau with tau_x at digit (n+1)^(x-1), is packed into each count as
    Kronecker digits bit_length(r^n) rounded up to bytes wide, or tau
    stays in the keys.  Cyclic layout: the residues mod m* are the m*
    cyclic digits of each count, each bit_length(r^n) wide, and the keys
    keep the other residues, the last symbol and the Hamming weight or
    tau.  A symbol of increment k rotates the count by k digits, folded
    back once per position; the code's count is digit a*.  No digit
    carries: a state's counts are non-negative and sum to at most r^n.
    `_digit_congruence` picks the layout.

    Its keys' digits are the residues mod m_i, the last symbol where a
    statistic reads it, and at "hamming" the Hamming weight.  The bound
    checked before the pass and any weight vector is their `_states`; the
    keyed layout's states leave out the Hamming weight.  Packed tau stores
    all (n+1)^(r-1) digits of a state, though only C(n+r-1, r-1) can be
    nonzero: bound keyed (n+1)^(r-1).  Past the budget or _PACKED_EXCESS
    times the bound of tau in the keys, tau stays in the keys, and that
    bound is the keyed layout's states.  Then the n positions, the n r
    symbol steps, and the increment tables and, at "complete", the places
    of the r - 1 tau digits (`_check_tables`) are checked against the
    budget.

    The pass and every check above read n, r, the statistics, the moduli,
    the kind and the budget in force, never a residue.  So its final
    states and the layout the read-out needs are kept in
    `_RESIDUE_PASSES` under those, and a later request over the same
    congruences at other residues skips the checks, the layout choice,
    the increment tables and the pass, and pays only the read-out.  A
    refused request keeps nothing, so a hit has passed the very checks a
    miss would run.  A new entry drops the least recently used until the
    entries' bytes add up to at most _RESIDUE_PASSES_BYTES; one larger
    than that on its own is not kept."""
    n, r, cons = spec.n, spec.r, spec.constraints
    key = (n, r, tuple(c.stat for c in cons), tuple(c.m for c in cons), kind, budget_limit(budget))
    entry = _RESIDUE_PASSES.pop(key, None)
    if entry is not None:
        _RESIDUE_PASSES[key] = entry
        return _residue_read(spec, kind, entry)
    held = [(c.stat, c.m) for c in cons] + [(None, r)] * _reads_previous(c.stat for c in cons)
    axes, tail = int(kind == "hamming"), 0  # digit axes packed; tau digits in the keys
    keyed = _states(r, n, held, False)  # the keyed layout's states
    held += [(None, n + 1)] * axes
    bound = _states(r, n, held, kind == "complete")
    if kind == "complete":
        limit = min(_PACKED_EXCESS * bound, budget_limit(budget))
        packed = keyed * capped_power(n + 1, r - 1, limit + 1)
        if packed <= limit:
            axes, bound = r - 1, packed
        else:
            tail, keyed = r - 1, bound
    check_budget(bound, budget, f"residue transfer pass of up to {count_text(bound)} terms")
    # one step per position, and a weight vector of n entries: a bound of few
    # keys still refuses a length past the budget before r^n or the weights;
    # then the r symbols per position, before the r-entry lists below
    check_budget(n, budget, f"residue transfer pass over {count_text(n)} positions")
    check_budget(n * r, budget, f"residue transfer pass of {count_text(n * r)} symbol steps")
    star = _digit_congruence(n, r, cons, kind, held, keyed, budget)
    _check_tables(r, [c.stat for c in cons], (r - 1) * (kind == "complete"), budget)
    bits = (r**n).bit_length()
    size = -(-bits // 8)
    width, span = 8 * size, 0  # keyed: Kronecker digits of whole bytes, sliced below
    if star is not None:
        # m* cyclic digits per count, each bit_length(r^n) wide; the Hamming weight or tau keyed
        width, span, axes, tail = bits, cons[star].m * bits, 0, axes + tail
    # the keyed residues' digits below `head`, the keyed tau_x or Hamming weight above
    digits, head = [], 1
    for i, c in enumerate(cons):
        digits.append((c.stat, c.m, 0, width) if i == star else (c.stat, c.m, head, 0))
        head *= 1 if i == star else 2 * c.m
    # digit place of each symbol: tau_x's, the Hamming weight's 1, or none
    places = [(n + 1) ** (x - 1) if kind == "complete" else int(kind == "hamming") for x in range(1, r)]
    shifts = [0] + [width * place if axes else 0 for place in places]
    unit = [0] + [head * place if tail else 0 for place in places]
    states = _transfer(n, r, digits, unit, shifts, span)(range(n), {None: {0: 1}})
    layout = (states, [d[2] for d in digits], head, star, width, size, axes, tail)
    nbytes = 64 * sum(map(len, states.values()))
    if nbytes <= _RESIDUE_PASSES_BYTES:  # else too large to keep, whatever its counts' bit lengths
        nbytes += sum(sum(map(int.bit_length, terms.values())) // 8 for terms in states.values())
        _keep(_RESIDUE_PASSES, key, (nbytes, *layout), _RESIDUE_PASSES_BYTES)
    return _residue_read(spec, kind, (nbytes, *layout))


def _residue_read(spec: CodeSpec, kind: str, entry: tuple):
    """The read-out of a residue pass's entry (`_residue_pass`) at the
    spec's residues a_i: the counts of the keys whose residue digits below
    `head`, at `strides`, are the a_i, in the cyclic layout only their
    digit a* of `width` bits, added up by the keyed tau or Hamming weight
    above `head`, whose digits are then read off all kept keys at once;
    then the `axes` packed digits of `size` bytes each.  It reads the
    entry's states and never writes them."""
    n, cons = spec.n, spec.constraints
    _, states, strides, head, star, width, size, axes, tail = entry
    target = sum(c.a * stride for c, stride in zip(cons, strides))
    offset, digit = (0, -1) if star is None else (cons[star].a * width, (1 << width) - 1)
    kept: dict = {}  # the counts by their keyed tau or Hamming weight, the digits above `head`
    for terms in states.values():
        for key, count in terms.items():
            if key % head == target:
                above = key // head
                kept[above] = kept.get(above, 0) + (count >> offset & digit)
    if kind == "cardinality":
        return sum(kept.values())
    top = (n + 1) ** tail
    if max(kept, default=0) >= top:
        raise IntegralityError(f"packed key carries {count_text(max(kept) // top)} past its last digit")

    def image(exps):  # tau_0 is what the other symbols leave of n
        return (n - sum(exps), *exps) if kind == "complete" else exps

    # the keyed digits, read off all keys at once: tau_1.. or the Hamming weight
    digits = [[above // (n + 1) ** x % (n + 1) for above in kept] for x in range(tail)]
    keyed = zip(zip(*digits) if digits else itertools.repeat(()), kept.values())
    if not axes:
        terms = {image(exps): count for exps, count in keyed if count}
    else:
        cells = [(0, ())]  # (digit index, exponents on its axes), of total at most n
        for axis in range(axes):
            cells = [(i + t * (n + 1) ** axis, e + (t,)) for i, e in cells for t in range(n + 1 - sum(e))]
        terms = {}
        for front, packed in keyed:
            raw = packed.to_bytes(size * (n + 1) ** axes, "little")
            for i, exps in cells:
                count = int.from_bytes(raw[i * size : (i + 1) * size], "little")
                if count:
                    terms[image(front + exps)] = count
    return MultiPoly(_variables(spec, kind), terms)


# ---------------------------------------------------------------------------
# closed forms for descent/sum codes


def tenengolts_variant_transform(variant: str, n: int, a1: int) -> tuple[int, bool]:
    """Base-code parameter with the same Hamming enumerator as the variant,
    plus whether the variant's codewords are the reversals of the base's.
    Mod n the parameter is a1, -a1, h - a1 and h + a1 for ">", "<", "<="
    and ">=", where h is n/2 for even n and 0 for odd n."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= a1 < n:
        raise ValueError(f"a1 must lie in [0, {n}), got {a1}")
    h = 0 if n % 2 else n // 2
    if variant == ">":
        return a1, False
    if variant == "<":
        return -a1 % n, True
    if variant == "<=":
        return (h - a1) % n, False
    if variant == ">=":
        return (h + a1) % n, True
    raise ValueError(f"unknown variant {variant!r}")


def _descent_sum(n: int, r: int, a1: int, a2: int, variant: str):
    """The one divisor sum of the descent/sum closed forms: n r times the
    Hamming enumerator is sum_{d | n} p (1 + (r-1) w^d)^(n/d) + q (1 - w^d)^(n/d).
    Yields (d, n/d, p, q), d ascending, with g = gcd(r, d), a1' the
    variant's base parameter, p = c_d(a1') g [g | a2] and
    q = c_d(a1') r [a2 = 0] - p: the sum over e | r of c_e(a2), split by
    e | d, by sum_{e | g} c_e(a) = g [g | a].  Every c_d(a1') comes from
    one table, `ramanujan_sums`, over one factorization of n; a d with
    p = q = 0 (c_d(a1') = 0, or g not dividing a2) is skipped.  The callers
    check the parameters."""
    base_a1, _ = tenengolts_variant_transform(variant, n, a1)
    for d, cd in ramanujan_sums(n, base_a1).items():
        g = gcd(r, d)
        if cd and a2 % g == 0:
            p = cd * g
            yield d, n // d, p, (cd * r if a2 == 0 else 0) - p


def tenengolts_hamming(n: int, r: int, a1: int, a2: int, variant: str = ">") -> Enumerator:
    """Hamming weight enumerator of the r-ary descent/sum code: the one
    divisor sum over d | n of `_descent_sum`, its weights folded by
    sum_{e | g} c_e(a) = g [g | a], expanded in integers and divided by n r."""
    spec = tenengolts_spec(n, r, a1, a2, variant)
    return Enumerator("hamming", _descent_sum_hamming(spec, variant), "closed_form", spec)


def _descent_sum_hamming(spec: CodeSpec, variant: str) -> MultiPoly:
    """The polynomial of `tenengolts_hamming` of a checked descent/sum spec:
    a descent statistic of `variant` mod n, then sigma mod r."""
    n, r, a1, a2 = spec.n, spec.r, spec.constraints[0].a, spec.constraints[1].a
    coeffs = [0] * (n + 1)
    for d, k, p, q in _descent_sum(n, r, a1, a2, variant):
        # C(k, i), p (r-1)^i and q (-1)^i, each stepped from i to i + 1
        binomial, up, down = 1, p, q
        for i in range(k + 1):
            coeffs[d * i] += binomial * (up + down)
            binomial, up, down = binomial * (k - i) // (i + 1), up * (r - 1), -down
    terms = {
        (deg,): exact_quotient(c, n * r, f"weight-{deg} coefficient")
        for deg, c in enumerate(coeffs)
        if c
    }
    return MultiPoly(("w",), terms)


def tenengolts_cardinality(n: int, r: int, a1: int, a2: int, variant: str = ">") -> int:
    """Cardinality of the r-ary descent/sum code: the divisor sum of
    `_descent_sum` at w = 1, (1/nr) sum_{d | n} c_d(a1') g [g | a2] r^(n/d)
    with g = gcd(r, d), by sum_{e | g} c_e(a) = g [g | a].  The terms are
    added smallest power first (largest d first), so each addition copies
    a total about the size of its own term, not of r^n; and r^k is odd^k
    shifted left by e k bits, r = odd 2^e, since r**k squares its way up
    even when r is a power of two.  It checks the parameters as
    `codes.tenengolts` does, with the same messages, and builds no spec."""
    _check_tenengolts(n, r, a1, a2, variant)
    e = (r & -r).bit_length() - 1
    odd = r >> e
    total = 0
    for _, k, p, _ in reversed(list(_descent_sum(n, r, a1, a2, variant))):
        total += p * odd**k << e * k
    return exact_quotient(total, n * r, "cardinality")


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


def _is_descent_sum(spec: CodeSpec) -> bool:
    """Whether the spec is a descent/sum code, whatever family built it: a
    descent statistic mod n, then sigma mod r."""
    cons = spec.constraints
    descent = len(cons) == 2 and cons[0].stat.kind in _VARIANT_OF_STAT and cons[0].m == spec.n
    return descent and cons[1].stat.kind == "sigma" and cons[1].m == spec.r


def _divisor_sums(spec: CodeSpec, kind: str, budget: int | None):
    """A descent/sum code's closed forms, once n fits the budget: the divisor
    sums of `tenengolts_cardinality` and `tenengolts_hamming`."""
    n, (descent, total) = spec.n, spec.constraints
    check_budget(n, budget, f"descent/sum divisor sum over {count_text(n)} positions")
    variant = _VARIANT_OF_STAT[descent.stat.kind]
    if kind == "cardinality":
        return tenengolts_cardinality(n, spec.r, descent.a, total.a, variant)
    return _descent_sum_hamming(spec, variant)


def _is_linear_congruence(spec: CodeSpec) -> bool:
    """Whether the spec is one omega, sigma or linear congruence, whose
    character sum is a closed form.  For modulus m,
    (1/m) sum_u e(-au/m) prod_j (1 + w sum_{k>=1} e(h_j k u/m)) is by
    orthogonality the coefficient of x^a in prod_j (1 + w sum_{k>=1}
    x^(h_j k)) taken in Z[x]/(x^m - 1).  The residue pass reads that
    coefficient in integer arithmetic, for any integer weights: the
    residues mod m are in the keys, or the cyclic digits of each count,
    rotated by h_j k digits by position j's factor.  No twisted point and
    no division by m, so no integrality sentinel can fire."""
    form = spec.constraints[0].stat.form
    return len(spec.constraints) == 1 and form is not None and not form.reads


def _theorem1(spec: CodeSpec, kind: str, budget: int | None):
    """Theorem 1's kept terms (`_theorem1_terms`), split at n // 2 and read
    straight at the kind.  Below "extended" it gets the spec with its
    negative linear weights reduced mod their moduli, which changes only
    the z-exponents the kind drops."""
    weighted = spec if kind == "extended" else _nonnegative_weights(spec)
    space, kept = _theorem1_terms(spec.n, spec.r, weighted.constraints, budget, spec.n // 2)
    return space.read(kept, kind)


def _oracle(spec: CodeSpec, kind: str, budget: int | None):
    """The oracle's tally of the scanned codewords, `_scan_terms`."""
    terms = _scan_terms(spec, kind, budget)
    return terms if kind == "cardinality" else MultiPoly(_variables(spec, kind), terms)


def _every_spec(spec: CodeSpec) -> bool:
    return True


#: every route, in the order "auto" asks them: (label, the methods that select
#: it, its kinds, whether it admits a spec, run(spec, kind, budget) -> the
#: polynomial, or the cardinality).  Theorem 1 refuses a custom statistic,
#: which "auto" sends to the oracle
_ROUTES = (
    ("closed_form", ("auto", "closed"), ("hamming", "cardinality"), _is_descent_sum, _divisor_sums),
    ("closed_form", ("auto", "closed"), ("hamming", "cardinality"), _is_linear_congruence, _residue_pass),
    ("transfer", ("auto",), ("complete", "hamming", "cardinality"), _every_spec, _residue_pass),
    ("character_sum", ("auto", "theorem1"), (*KINDS, "cardinality"), _every_spec, _theorem1),
    ("oracle", ("oracle",), (*KINDS, "cardinality"), _every_spec, _oracle),
)
METHODS = tuple(dict.fromkeys(method for route in _ROUTES for method in route[1]))


def compute(spec: CodeSpec, kind: str, method: str = "auto", budget: int | None = None):
    """The spec's enumerator of the given kind, or its cardinality (an int)
    at kind "cardinality": the one place a route is chosen.  "auto" on a
    custom statistic asks the oracle; otherwise the first row of `_ROUTES`
    that the method, the kind and the spec admit answers, labelled by its
    row.  A row the budget refuses passes to the next admitted one whose
    run was not refused yet, and the first refusal is raised where all
    are.  Where none is admitted, which only "closed" leaves, it raises
    ValueError.  `budget` bounds every route before its work starts."""
    if kind != "cardinality" and kind not in KINDS:
        raise ValueError(f"unknown enumerator kind {kind!r}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, choose one of {', '.join(METHODS)}")
    if method == "auto" and any(c.stat.kind == "custom" for c in spec.constraints):
        method = "oracle"
    refusals: dict = {}  # the refusal of each run refused, in order
    for label, methods, kinds, admits, run in _ROUTES:
        if method in methods and kind in kinds and run not in refusals and admits(spec):
            try:
                result = run(spec, kind, budget)
            except BudgetExceededError as refusal:
                refusals[run] = refusal
                continue
            return result if kind == "cardinality" else Enumerator(kind, result, label, spec)
    if refusals:
        raise next(iter(refusals.values()))
    stats = ", ".join(c.stat.kind for c in spec.constraints)
    raise ValueError(f"no closed form for statistics ({stats}) at kind {kind}")


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
