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

Every word the scan yields is rechecked from the definitions
(`_membership_test`), and the oracle's tally of the codewords by kind is
`enumerators._scan_terms`.
"""

from __future__ import annotations

import itertools
import operator
from math import isqrt
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


def enumerate_codewords(spec: CodeSpec, budget: int | None = None):
    """Generate the codewords of the spec in lexicographic order.

    Refuses at call time to scan more than `budget` words (default 10**7),
    counting all r^n words.  Words of length n >= 2 under built-in
    statistics come from a meet-in-the-middle scan: a table of the
    r^(n - n//2) suffixes keyed by first symbol and statistic residues,
    probed by each of the r^(n//2) prefixes with the residues that complete
    it.  Every word it yields is rechecked against the definition of the
    spec, and a failed recheck raises IntegralityError.  Custom statistics
    and shorter words take the plain scan of all r^n words.
    """
    words = capped_power(spec.r, spec.n, budget_limit(budget) + 1)
    check_budget(words, budget, f"enumerating {spec.r}^{spec.n} words")
    test = _membership_test(spec)
    if spec.n < 2 or any(c.stat.kind == "custom" for c in spec.constraints):
        return (word for word in itertools.product(range(spec.r), repeat=spec.n) if test(word))
    return _split_scan(spec, test)


def _split_scan(spec: CodeSpec, test: Callable):
    """The codewords of a spec with n >= 2 and built-in statistics, in
    lexicographic order, by the meet-in-the-middle scan of
    `enumerate_codewords`."""
    n, r = spec.n, spec.r
    k = n // 2
    halves = [(c.stat.form.split(n, k, r), c.m, c.a) for c in spec.constraints]
    suffix_values = [(suffix, m) for (_, suffix, _), m, _ in halves]
    table: dict = {}
    for tail in itertools.product(range(r), repeat=n - k):
        key = (tail[0], *[value(tail) % m for value, m in suffix_values])
        table.setdefault(key, []).append(tail)
    get = table.get
    for head in itertools.product(range(r), repeat=k):
        last = head[-1]
        # per constraint: the suffix value still needed, before the boundary
        needs = [(a - prefix(head), boundary[last], m) for (prefix, _, boundary), m, a in halves]
        for first in range(r):
            for tail in get((first, *[(need - row[first]) % m for need, row, m in needs]), ()):
                word = head + tail
                if not test(word):
                    raise IntegralityError(f"split scan yielded the non-codeword {word}")
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
