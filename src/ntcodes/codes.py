"""Codeword statistics, congruence code specifications, and code families.

A word is a plain tuple of symbols drawn from [0, r).  A CodeSpec pins the
length n, the alphabet size r, and a list of constraints, each asking a
statistic of the word to fall in a fixed residue class.  Membership testing
and exhaustive (budgeted) codeword generation live here, together with
constructors for the classic congruence-defined code families.

Each built-in statistic is one increment form (`Form`, tabled in `FORMS`):
at position j, symbol x after p adds h_j x + j U(p, x) + D(p, x).  The
oracle's evaluators, its split scan, and the transfer kernel of
`enumerators` all read that one table, and share no other code.

Codeword generation is the brute-force oracle every faster route is checked
against.  It is a meet-in-the-middle scan: each statistic splits into a
prefix part, a suffix part and a term for the pair straddling the split,
k U + D, so a table of suffixes keyed by their residues answers each prefix
in r lookups, O(r^ceil(n/2) + |C|) word visits instead of r^n.

Every codeword the scan matches is rechecked apart from its table.  A
statistic that reads no previous symbol (omega, sigma, linear) is the
weighted sum sum_j h_j x_j of `Form.weights`, so each suffix carries,
and each prefix once, its own sum, built position by position from the
weights alone, not from `Form.split` or the table key; a codeword's
recheck is one compare, (prefix sum + suffix sum) = a (mod m), and a
wrong split or table key hands a prefix a suffix whose sum does not
complete it.  A statistic that reads the previous symbol is evaluated
on the whole word.  The oracle's tally by kind (`tally_codewords`, read
by `enumerators._scan_terms`) adds a prefix's key to a suffix's in the
same way, the Hamming weight, the type vector or the values, so where
no statistic reads the previous symbol a codeword costs O(1) and no
word is built.  Words are built for `enumerate_codewords`, for
statistics that read the previous symbol, and by the plain scan
(custom statistics, n < 2).
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from math import isqrt, prod
from typing import Callable, NamedTuple, Optional

from .exactalg import IntegralityError, count_text

DEFAULT_BUDGET = 10_000_000

STAT_KINDS = (
    "omega",
    "sigma",
    "gamma_gt",
    "gamma_ge",
    "lambda_lt",
    "lambda_le",
    "delta",
    "linear",
    "custom",
)

class BudgetExceededError(Exception):
    """Exhaustive enumeration would visit more words than the budget allows."""


def budget_limit(budget: int | None) -> int:
    """The budget in force: DEFAULT_BUDGET when `budget` is None."""
    return DEFAULT_BUDGET if budget is None else budget


def check_budget(work: int, budget: int | None, what: str) -> None:
    """Refuse `work` units of work (words, terms, span elements) above the
    budget, DEFAULT_BUDGET when `budget` is None; `what` names the work."""
    limit = budget_limit(budget)
    if work > limit:
        raise BudgetExceededError(f"{what} exceeds the budget {limit}")


def capped_power(r: int, n: int, cap: int) -> int:
    """min(r^n, cap), with r^n built only when its bit length does not
    already put it past the cap, so a bound check never pays for r^n."""
    if r > 1 and n * (r.bit_length() - 1) >= cap.bit_length():
        return cap
    return min(r**n, cap)


class Form(NamedTuple):
    """The increment a built-in statistic adds at position j (from 0) where x
    follows p, inc_j(p, x) = h_j x + j U(p, x) + D(p, x), summed over a word.
    The weights are `h`, or implicit, h_j = slope j + intercept, so a largest
    value costs O(1).  U (`up`) and D (`down`) are comparisons of (p, x), or
    None; at j = 0 there is no p, and they add nothing."""

    slope: int = 0
    intercept: int = 0
    h: Optional[tuple] = None
    up: Optional[Callable] = None
    down: Optional[Callable] = None

    @property
    def reads(self) -> bool:
        """Whether an increment reads the symbol before it: U or D is present."""
        return self.up is not None or self.down is not None

    def weights(self, n: int):
        """h_0..h_(n-1) on length-n words, or None without a linear part."""
        if self.h is not None:
            if len(self.h) != n:
                raise ValueError(f"weight vector of length {len(self.h)} for length-{n} words")
            return self.h
        if self.slope:
            return tuple(range(self.intercept, self.intercept + self.slope * n, self.slope))
        return (self.intercept,) * n if self.intercept else None

    def top(self, r: int, lo: int, hi: int) -> int:
        """The largest value over positions lo..hi-1, the sum of the largest
        increments there: (r-1) h_j + j [U present] + [D present] at j >= 1."""
        slope, intercept, h, up, down = self
        js = (hi * (hi - 1) - lo * (lo - 1)) // 2  # the sum of j over lo..hi-1
        weight = slope * js + intercept * (hi - lo) + (sum(h[lo:hi]) if h else 0)
        return (r - 1) * weight + (js if up else 0) + (max(hi - max(lo, 1), 0) if down else 0)

    def evaluator(self, n: int, lo: int = 0, hi: int | None = None) -> Callable:
        """The statistic of length-n words as a function of their symbols at
        positions lo..hi-1 (hi = n when None): one closure per part present,
        bound once per constraint, so no word pays a dispatch."""
        h, up, down, positions = self.weights(n), self.up, self.down, range(lo + 1, n if hi is None else hi)
        parts = []
        if h is not None:
            h = h[lo:hi]
            parts.append(lambda word: sum(map(operator.mul, h, word)))
        if up is not None:
            parts.append(lambda word: sum(itertools.compress(positions, map(up, word, word[1:]))))
        if down is not None:
            parts.append(lambda word: sum(map(down, word, word[1:])))
        return parts[0] if len(parts) == 1 else lambda word: sum(part(word) for part in parts)

    def split(self, n: int, k: int, r: int):
        """The statistic on length-n words split at 1 <= k < n, as (prefix,
        suffix, boundary): its value is prefix(x[:k]) + suffix(x[k:]) +
        boundary[x[k-1]][x[k]], the boundary the pair's increment k U + D."""
        up, down = self.up, self.down
        boundary = tuple(
            tuple((k * up(p, x) if up else 0) + (down(p, x) if down else 0) for x in range(r)) for p in range(r)
        )
        return self.evaluator(n, 0, k), self.evaluator(n, k), boundary


#: the form of each built-in kind but "linear", whose form is its weights h
FORMS = {
    "omega": Form(slope=1, intercept=1),
    "sigma": Form(intercept=1),
    "gamma_gt": Form(up=operator.gt),
    "gamma_ge": Form(up=operator.ge),
    "lambda_lt": Form(up=operator.lt),
    "lambda_le": Form(up=operator.le),
    "delta": Form(down=operator.gt),
}


class Record:
    """A record whose fields are its `__slots__`, shown by `_fields` and equal
    to a record of its class with the same `_key`, an `operator.attrgetter`
    (unbound: it takes the record).  A `FrozenRecord` is frozen and hashable."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        # pickle and copy rebuild it by its constructor, whose parameters are `_fields`
        return type(self), tuple([getattr(self, name) for name in self._fields])


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


#: sets a field of a frozen record, past its `__setattr__`
_setattr = object.__setattr__


class Statistic(FrozenRecord):
    """A named codeword statistic and its increment `form`; `linear` carries
    its weight vector, `custom` an arbitrary callable and no form (oracle only)."""

    __slots__ = ("kind", "h", "fn", "form")
    _fields = ("kind", "h", "fn")
    _key = operator.attrgetter("kind", "h")

    def __init__(self, kind: str, h: Optional[tuple] = None, fn: Optional[Callable] = None):
        _setattr(self, "kind", kind)
        _setattr(self, "h", h)
        _setattr(self, "fn", fn)
        if self.kind not in STAT_KINDS:
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        if self.kind == "linear":
            if self.h is None:
                raise ValueError("linear statistic needs a weight vector")
            _setattr(self, "h", tuple(int(x) for x in self.h))
        elif self.h is not None:
            raise ValueError(f"{self.kind} statistic takes no weight vector")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom statistic needs a callable")
        _setattr(self, "form", Form(h=self.h) if self.kind == "linear" else FORMS.get(self.kind))


OMEGA = Statistic("omega")
SIGMA = Statistic("sigma")
GAMMA_GT = Statistic("gamma_gt")
GAMMA_GE = Statistic("gamma_ge")
LAMBDA_LT = Statistic("lambda_lt")
LAMBDA_LE = Statistic("lambda_le")
DELTA = Statistic("delta")

#: the shared gamma-variant statistic keyed by the comparison it counts
_VARIANT_RECORDS = {">": GAMMA_GT, ">=": GAMMA_GE, "<": LAMBDA_LT, "<=": LAMBDA_LE}

#: gamma-variant statistic kind keyed by the comparison it counts
VARIANT_STATS = {variant: stat.kind for variant, stat in _VARIANT_RECORDS.items()}


def linear(h) -> Statistic:
    return Statistic("linear", h=tuple(h))


def custom(fn) -> Statistic:
    return Statistic("custom", fn=fn)


def evaluate_statistic(stat: Statistic, word) -> int:
    """Exact value of a statistic on a word; the empty word gives 0."""
    return statistic_evaluator(stat, len(word))(word)


def statistic_evaluator(stat: Statistic, n: int) -> Callable:
    """The statistic on length-n words: its form's evaluator, or its callable."""
    return stat.fn if stat.form is None else stat.form.evaluator(n)


def type_vector(word, r: int) -> tuple[int, ...]:
    """Symbol counts tau_j(word) for j in [0, r)."""
    tau = [0] * r
    for x in word:
        tau[x] += 1
    return tuple(tau)


class Constraint(FrozenRecord):
    __slots__ = _fields = ("stat", "m", "a")
    _key = operator.attrgetter(*_fields)

    def __init__(self, stat: Statistic, m: int, a: int):
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
        _setattr(self, "stat", stat)
        _setattr(self, "m", m)
        _setattr(self, "a", a % m)


class CodeSpec(FrozenRecord):
    """A simultaneous-congruence code over [0, r)^n."""

    __slots__ = _fields = ("n", "r", "constraints")
    _key = operator.attrgetter(*_fields)

    def __init__(self, n: int, r: int, constraints: tuple):
        if n < 0:
            raise ValueError(f"length must be non-negative, got {n}")
        if r < 1:
            raise ValueError(f"alphabet size must be positive, got {r}")
        cons = tuple(c if isinstance(c, Constraint) else Constraint(*c) for c in constraints)
        if not cons:
            raise ValueError("a code spec needs at least one constraint")
        _setattr(self, "n", n)
        _setattr(self, "r", r)
        _setattr(self, "constraints", cons)

    @property
    def s(self) -> int:
        return len(self.constraints)


def _membership_test(spec: CodeSpec) -> Callable:
    """Whether a length-n word satisfies every congruence of the spec: one
    closure per constraint evaluates the statistic from its definition and
    compares its residue, and a spec of one constraint is tested by that
    closure alone, so a word pays one call per constraint and no dispatch."""
    checks = [_congruence_test(c, spec.n) for c in spec.constraints]
    if len(checks) == 1:
        return checks[0]

    def test(word) -> bool:
        for check in checks:
            if not check(word):
                return False
        return True

    return test


def _congruence_test(c: Constraint, n: int) -> Callable:
    """The test of whether a length-n word satisfies the one congruence c."""
    m, a, form = c.m, c.a, c.stat.form
    if form is not None and not form.reads:
        h = form.weights(n)
        return lambda word: sum(map(operator.mul, h, word)) % m == a
    value = statistic_evaluator(c.stat, n)
    return lambda word: value(word) % m == a


def is_member(spec: CodeSpec, word) -> bool:
    """Whether the word satisfies every congruence of the spec."""
    if len(word) != spec.n:
        raise ValueError(f"word of length {len(word)} against a length-{spec.n} spec")
    if any(not 0 <= x < spec.r for x in word):
        raise ValueError(f"word {word} leaves the alphabet [0, {spec.r})")
    return _membership_test(spec)(word)


def _check_scan(spec: CodeSpec, budget: int | None) -> None:
    """Refuse, before any work, a scan of more than `budget` words (default
    10**7), counting all r^n words whatever the scan visits."""
    words = capped_power(spec.r, spec.n, budget_limit(budget) + 1)
    check_budget(words, budget, f"enumerating {spec.r}^{spec.n} words")


def _splits(spec: CodeSpec) -> bool:
    """Whether the split scan applies: words of length n >= 2 and built-in
    statistics; otherwise every word of [0, r)^n is tested."""
    return spec.n >= 2 and all(c.stat.kind != "custom" for c in spec.constraints)


def _words(spec: CodeSpec, valued: bool = False):
    """The codewords of the spec in lexicographic order, from the split
    scan, or from every word filtered by the membership test; with
    `valued`, each as (word, its statistics' values)."""
    if _splits(spec):
        return _split_words(spec, _split_scan(spec), valued)
    test = _membership_test(spec)
    words = (word for word in itertools.product(range(spec.r), repeat=spec.n) if test(word))
    if not valued:
        return words
    values = [statistic_evaluator(c.stat, spec.n) for c in spec.constraints]
    return ((word, tuple([value(word) for value in values])) for word in words)


def enumerate_codewords(spec: CodeSpec, budget: int | None = None):
    """Generate the codewords of the spec in lexicographic order.

    Refuses at call time to scan more than `budget` words (default 10**7),
    counting all r^n words.  Words of length n >= 2 under built-in
    statistics come from the split scan (`_split_scan`): a table of the
    r^(n - n//2) suffixes keyed by first symbol and statistic residues,
    probed by each of the r^(n//2) prefixes with the residues that complete
    it.  Every word it yields is rechecked, and a failed recheck raises
    IntegralityError.  A congruence whose statistic reads no previous
    symbol costs O(1) a word: one compare of the prefix's weighted sum
    plus the suffix's with a, each built from `Form.weights` alone and so
    independent of `Form.split` and the table key.  Any other is evaluated
    on the whole word.  This generator builds every word it yields; the
    oracle's tally (`tally_codewords`) builds none where no statistic
    reads the previous symbol.  Custom statistics and shorter words take
    the plain scan of all r^n words.
    """
    _check_scan(spec, budget)
    return _words(spec)


def tally_codewords(spec: CodeSpec, kind: str, budget: int | None = None):
    """The oracle's tally of the spec's codewords: their number at kind
    "cardinality", else {key: count} with one key per codeword, its
    Hamming weight (a 1-tuple) at "hamming", its type vector at
    "complete", and at "extended" its statistic values followed by its
    type vector.  Refuses the scan as `enumerate_codewords` does.

    Where no statistic reads the previous symbol, a codeword's values,
    Hamming weight and type vector are its prefix's plus its suffix's, so
    the split scan carries each prefix's key and each suffix's, packed in
    one integer (`_packing`), besides their weighted sums: a codeword costs
    one residue compare for its recheck and one key addition for its
    tally, and builds no word.  Otherwise, and on the plain scan, every
    codeword is built and keyed from its symbols, its statistics
    evaluated from their definitions (`_word_tally`)."""
    _check_scan(spec, budget)
    if not _splits(spec) or any(c.stat.form.reads for c in spec.constraints):
        return _word_tally(_words(spec, kind == "extended"), spec, kind)
    place, strides, radices, lows = _packing(spec, kind)
    tally: dict = {}
    get = tally.get
    for _, head_key, groups in _split_scan(spec, place, strides):
        for tail_key, count in groups.items():
            key = head_key + tail_key
            tally[key] = get(key, 0) + count
    if kind == "cardinality":
        return sum(tally.values())
    return {_unpack(key, radices, lows): count for key, count in tally.items()}


def _word_tally(words, spec: CodeSpec, kind: str):
    """`tally_codewords` over codewords built in full: each keyed from its
    symbols, and at "extended", where `words` gives (word, its statistics'
    values) pairs, from those values."""
    n, r = spec.n, spec.r
    if kind == "cardinality":
        return sum(1 for _ in words)
    if kind == "hamming":
        zeros = Counter(map(tuple.count, words, itertools.repeat(0)))
        return {(n - z,): count for z, count in zeros.items()}
    if kind == "complete":
        return Counter(map(type_vector, words, itertools.repeat(r)))
    return Counter(values + type_vector(word, r) for word, values in words)


def _packing(spec: CodeSpec, kind: str):
    """How the split scan packs a part's tally key in one integer, as
    (place, strides, radices, lows): the key of a prefix or suffix is
    place[x] summed over its symbols x plus each constraint's weighted
    sum times its stride, so a codeword's key is its prefix's plus its
    suffix's.  Digit i of that key, of radix `radices[i]`, is its value
    minus `lows[i]` (`_unpack`), and no digit carries: at "extended" each
    statistic's, of radix 1 + (r-1) sum_j |h_j|, then the type vector's
    tau_x in base n+1; the type vector alone at "complete"; the Hamming
    weight at "hamming"; and no digit at "cardinality"."""
    n, r = spec.n, spec.r
    if kind == "cardinality":
        return [0] * r, [], [], []
    if kind == "hamming":
        return [0] + [1] * (r - 1), [], [n + 1], [0]
    strides, radices, lows = [], [], []
    if kind == "extended":
        for c in spec.constraints:
            h = c.stat.form.weights(n) or ()
            strides.append(prod(radices))
            lows.append((r - 1) * sum(x for x in h if x < 0))
            radices.append(1 + (r - 1) * sum(map(abs, h)))
    stride = prod(radices)
    place = [stride * (n + 1) ** x for x in range(r)]
    return place, strides, radices + [n + 1] * r, lows + [0] * r


def _unpack(key: int, radices, lows) -> tuple:
    """The values packed in a codeword's key (`_packing`); anything left
    past the last digit means a digit carried, and raises IntegralityError."""
    values = []
    for radix, low in zip(radices, lows):
        key, digit = divmod(key - low, radix)
        values.append(digit + low)
    if key:
        raise IntegralityError(f"tally key carries {count_text(key)} past its last digit")
    return tuple(values)


def _split_scan(spec: CodeSpec, place=None, strides=()):
    """The meet-in-the-middle scan of `enumerate_codewords`, for n >= 2 and
    built-in statistics: for each prefix, then each first suffix symbol,
    in lexicographic order, (prefix, its key, entry), the entry the
    suffixes that complete the prefix, in lexicographic order, or with
    `place` given {suffix key: count}.

    The table is keyed by `Form.split`'s suffix evaluators.  Apart from
    them, each suffix carries, and each prefix once, its weighted sum
    from `Form.weights` for each congruence whose statistic reads no
    previous symbol, and its key, packed as `_packing` says; both are
    built position by position over all parts at once (`_part_sums`).
    Before an entry is handed on, every word it completes is rechecked,
    (prefix sum + suffix sum) = a (mod m) for each such congruence, as
    one compare of the suffix's residues with those the prefix needs; a
    failure raises IntegralityError."""
    n, r = spec.n, spec.r
    k = n // 2
    halves = [(c.stat.form.split(n, k, r), c.m, c.a) for c in spec.constraints]
    suffix_values = [(suffix, m) for (_, suffix, _), m, _ in halves]
    free = [(c.stat.form.weights(n), c.m, c.a) for c in spec.constraints if not c.stat.form.reads]
    symbols = range(r)

    def sums(weights) -> list:
        return _part_sums([[w * x for x in symbols] for w in weights])

    def rows(columns):  # one tuple per part of its value in each column
        return zip(*columns) if columns else itertools.repeat(())

    def keys(lo, hi):
        if place is None:
            return itertools.repeat(None)
        weights = [sum(h[j] * stride for (h, _, _), stride in zip(free, strides)) for j in range(lo, hi)]
        return _part_sums([[p + w * x for x, p in enumerate(place)] for w in weights])

    table: dict = {}
    tails = itertools.product(symbols, repeat=n - k)
    residues = rows([[s % m for s in sums(h[k:])] for h, m, _ in free])
    for tail, found, tail_key in zip(tails, residues, keys(k, n)):
        key = (tail[0], *[value(tail) % m for value, m in suffix_values])
        entry = table.get(key)
        if entry is None:
            entry = table[key] = ([], [], {})
        entry[0].append(found)
        entry[1].append(tail)
        if place is not None:
            groups = entry[2]
            groups[tail_key] = groups.get(tail_key, 0) + 1
    get = table.get
    heads = itertools.product(symbols, repeat=k)
    # the residues a - (prefix sum) that each suffix's must equal
    residues = rows([[(a - s) % m for s in sums(h[:k])] for h, m, a in free])
    for head, need, head_key in zip(heads, residues, keys(0, k)):
        last = head[-1]
        # per constraint: the suffix value still needed, before the boundary
        needs = [(a - prefix(head), boundary[last], m) for (prefix, _, boundary), m, a in halves]
        for first in symbols:
            entry = get((first, *[(value - row[first]) % m for value, row, m in needs]))
            if entry is None:
                continue
            found, suffixes, groups = entry
            if found.count(need) != len(found):
                tail = next(t for t, x in zip(suffixes, found) if x != need)
                raise IntegralityError(f"split scan matched the non-codeword {head + tail}")
            yield head, head_key, suffixes if place is None else groups


def _part_sums(rows) -> list:
    """sum_j rows[j][x_j] for every word x over the positions of `rows`, in
    lexicographic order: one pass per position, each extending the sums
    of the words one symbol shorter by each step of its row."""
    sums = [0]
    for row in rows:
        sums = [s + step for s in sums for step in row]
    return sums


def _split_words(spec: CodeSpec, scan, valued: bool = False):
    """The codewords of the split scan `scan`, each built from its prefix
    and suffix; each congruence whose statistic reads the previous symbol
    rechecks every word by evaluating the statistic on it in full.  With
    `valued`, each comes as (word, its statistics' values), each statistic
    evaluated once a word: a recheck compares the value it yields."""
    n, cons = spec.n, spec.constraints
    if valued:
        values = [statistic_evaluator(c.stat, n) for c in cons]
        checks = [(i, c.m, c.a) for i, c in enumerate(cons) if c.stat.form.reads]
        for head, _, tails in scan:
            for tail in tails:
                word = head + tail
                found = tuple([value(word) for value in values])
                for i, m, a in checks:
                    if found[i] % m != a:
                        raise IntegralityError(f"split scan matched the non-codeword {word}")
                yield word, found
        return
    reading = tuple(c for c in cons if c.stat.form.reads)
    if not reading:
        for head, _, tails in scan:
            yield from map(head.__add__, tails)
        return
    test = _membership_test(CodeSpec(n, spec.r, reading))
    for head, _, tails in scan:
        for tail in tails:
            word = head + tail
            if not test(word):
                raise IntegralityError(f"split scan matched the non-codeword {word}")
            yield word


def weight_sequence(t: int, r: int, length: int) -> list[int]:
    """Recursive weight sequence g_i = 1 + (r-1) * (sum of the previous t
    terms), used by the bounded-run congruence code families."""
    if t < 1 or r < 1 or length < 1:
        raise ValueError("t, r, and length must all be positive")
    g: list[int] = []
    window = 0  # the sum of the last t terms
    for i in range(length):
        g.append(1 + (r - 1) * window)
        window += g[i] - (g[i - t] if i >= t else 0)
    return g


# ---------------------------------------------------------------------------
# code families


def _check_range(value, bound, name):
    if not 0 <= value < bound:
        raise ValueError(f"{name} must lie in [0, {count_text(bound)}), got {value}")


def binary_vt(n: int, a: int = 0) -> CodeSpec:
    """Binary single insertion/deletion correcting code: omega mod n+1."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_range(a, n + 1, "a")
    return CodeSpec(n, 2, ((OMEGA, n + 1, a),))


def levenshtein(n: int, m: int, a: int = 0) -> CodeSpec:
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    _check_range(a, m, "a")
    return CodeSpec(n, 2, ((OMEGA, m, a),))


def tenengolts(n: int, r: int, a1: int, a2: int, variant: str = ">") -> CodeSpec:
    """r-ary single insertion/deletion correcting code: the descent
    statistic mod n and the symbol sum mod r.

    `variant` picks the comparison in the descent statistic; the plain code
    uses ">".
    """
    stat = _check_tenengolts(n, r, a1, a2, variant)
    return CodeSpec(n, r, (Constraint(stat, n, a1), Constraint(SIGMA, r, a2)))


def _check_tenengolts(n: int, r: int, a1: int, a2: int, variant: str) -> Statistic:
    """The descent statistic of the descent/sum code's variant, once its
    parameters pass their checks: n and r, then a1, then a2, then the
    variant; the first to fail raises ValueError."""
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    _check_range(a1, n, "a1")
    _check_range(a2, r, "a2")
    stat = _VARIANT_RECORDS.get(variant)
    if stat is None:
        raise ValueError(f"variant must be one of {sorted(VARIANT_STATS)}, got {variant!r}")
    return stat


def shifted_vt(n: int, m: int, a: int, parity: int) -> CodeSpec:
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    _check_range(a, m, "a")
    _check_range(parity, 2, "parity")
    return CodeSpec(n, 2, ((OMEGA, m, a), (SIGMA, 2, parity)))


def han_vinck_morita(n: int, a: int, b: int) -> CodeSpec:
    if n < 1:
        raise ValueError("n must be positive")
    _check_range(a, n + 1, "a")
    _check_range(b, 3, "b")
    return CodeSpec(n, 2, ((OMEGA, n + 1, a), (SIGMA, 3, b)))


def nonbinary_svt(n: int, r: int, m: int, a: int, b: int, c: int) -> CodeSpec:
    if n < 1 or r < 1 or m < 1:
        raise ValueError("n, r, and m must be positive")
    _check_range(a, m, "a")
    _check_range(b, 2, "b")
    _check_range(c, r, "c")
    return CodeSpec(n, r, ((GAMMA_GT, m, a), (DELTA, 2, b), (SIGMA, r, c)))


def helberg(n: int, t: int, a: int) -> CodeSpec:
    """Binary t-insertion/deletion code with recursively defined weights."""
    if n < 1 or t < 1:
        raise ValueError("n and t must be positive")
    return le_nguyen(n, 2, t, a)


def le_nguyen(n: int, r: int, t: int, a: int) -> CodeSpec:
    if n < 1 or r < 1 or t < 1:
        raise ValueError("n, r, and t must be positive")
    g = weight_sequence(t, r, n + 1)
    return lc(n, g[n], r, g[:n], a)


def ternary_integer(n: int, a: int) -> CodeSpec:
    """Ternary code with weights 2^i - 1 modulo 2^(n+1) + 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return lc(n, 2 ** (n + 1) + 1, 3, (2**i - 1 for i in range(1, n + 1)), a)


def odd_coefficient(n: int, m: int, a: int) -> CodeSpec:
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    return lc(n, 2 * m, 2, (2 * i - 1 for i in range(1, n + 1)), a)


def an_code(p: int, a: int) -> CodeSpec:
    """Binary code of length 2^(p-2) with consecutive weights modulo a prime
    p: omega mod p, so no weight vector exists before a route needs one."""
    if p < 3:
        raise ValueError("p must be a prime of at least 3")
    if any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"p must be prime, got {count_text(p)}")
    _check_range(a, p, "a")
    return CodeSpec(2 ** (p - 2), 2, ((OMEGA, p, a),))


def exponential_coefficient(n: int, m: int, a: int) -> CodeSpec:
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    return lc(n, 2**m + 1, 2, (2**i for i in range(n)), a)


def lc(n: int, m: int, r: int, h, a: int) -> CodeSpec:
    """r-ary single linear congruence code with free weight vector; the
    other single-congruence families with linear weights are built by it."""
    if n < 0 or m < 1 or r < 1:
        raise ValueError("need n >= 0, m >= 1, r >= 1")
    h = tuple(int(x) for x in h)
    if len(h) != n:
        raise ValueError(f"weight vector of length {len(h)} for n={n}")
    _check_range(a, m, "a")
    return CodeSpec(n, r, ((linear(h), m, a),))


def blc(n: int, m: int, h, a: int) -> CodeSpec:
    return lc(n, m, 2, h, a)


def linear_code(r: int, rows) -> CodeSpec:
    """The code over Z_r with parity-check matrix `rows`: one congruence
    ``row . x = 0 (mod r)`` per row, entries reduced mod r."""
    if r < 1:
        raise ValueError("r must be positive")
    rows = [tuple(int(x) % r for x in row) for row in rows]
    if not rows:
        raise ValueError("the parity-check matrix needs at least one row")
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("parity-check rows have inconsistent lengths")
    return CodeSpec(n, r, tuple((linear(row), r, 0) for row in rows))


FAMILIES = {
    "binary_vt": binary_vt,
    "levenshtein": levenshtein,
    "tenengolts": tenengolts,
    "shifted_vt": shifted_vt,
    "han_vinck_morita": han_vinck_morita,
    "nonbinary_svt": nonbinary_svt,
    "helberg": helberg,
    "le_nguyen": le_nguyen,
    "ternary_integer": ternary_integer,
    "odd_coefficient": odd_coefficient,
    "an_code": an_code,
    "exponential_coefficient": exponential_coefficient,
    "lc": lc,
    "blc": blc,
    "linear_code": linear_code,
}


def make_family(name: str, **params) -> CodeSpec:
    """Construct a named code family; see FAMILIES for the catalogue."""
    try:
        builder = FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown code family {name!r}") from None
    return builder(**params)


# ---------------------------------------------------------------------------
# JSON wire format


def _stat_to_json(stat: Statistic):
    if stat.kind == "linear":
        return {"linear": list(stat.h)}
    if stat.kind == "custom":
        raise ValueError("custom statistics have no JSON form")
    return stat.kind


def _stat_from_json(obj) -> Statistic:
    if isinstance(obj, str):
        return Statistic(obj)
    if isinstance(obj, dict) and set(obj) == {"linear"}:
        return linear(obj["linear"])
    raise ValueError(f"cannot decode statistic {obj!r}")


def spec_to_dict(spec: CodeSpec) -> dict:
    return {
        "n": spec.n,
        "r": spec.r,
        "constraints": [
            {"stat": _stat_to_json(c.stat), "m": c.m, "a": c.a} for c in spec.constraints
        ],
    }


def spec_from_dict(data: dict) -> CodeSpec:
    constraints = tuple(
        Constraint(_stat_from_json(c["stat"]), int(c["m"]), int(c["a"]))
        for c in data["constraints"]
    )
    return CodeSpec(int(data["n"]), int(data["r"]), constraints)
