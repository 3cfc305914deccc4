"""Codeword statistics, congruence code specifications, and code families.

A word is a plain tuple of symbols drawn from [0, r).  A CodeSpec pins the
length n, the alphabet size r, and a list of constraints, each asking a
statistic of the word to fall in a fixed residue class.  Membership testing
and exhaustive (budgeted) codeword generation live here, together with
constructors for the classic congruence-defined code families.

Codeword generation is the brute-force oracle every faster route is checked
against, so it works from the statistics' definitions alone and shares no
code with the transfer kernel of `enumerators`.  It is a meet-in-the-middle
scan: each statistic splits into a prefix part, a suffix part and a term
for the pair straddling the split, so a table of suffixes keyed by their
residues answers each prefix in r lookups, O(r^ceil(n/2) + |C|) word visits
instead of r^n.  Each word the scan yields is still checked word by word
against the spec's congruences.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

from .exactalg import IntegralityError

Word = tuple

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

#: gamma-variant statistic kind keyed by the comparison it counts
VARIANT_STATS = {
    ">": "gamma_gt",
    ">=": "gamma_ge",
    "<": "lambda_lt",
    "<=": "lambda_le",
}

#: comparison of (previous symbol, symbol) that each descent-type statistic
#: counts at a position i >= 1: the gamma/lambda variants add i, delta adds 1
DESCENT_COMPARISONS = {
    "gamma_gt": operator.gt,
    "gamma_ge": operator.ge,
    "lambda_lt": operator.lt,
    "lambda_le": operator.le,
    "delta": operator.gt,
}


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


def count_text(count: int) -> str:
    """A bound for a budget message: exact below 2^64, else the least power
    of two at or above it, so no message converts thousands of digits."""
    return str(count) if count.bit_length() <= 64 else f"2^{(count - 1).bit_length()}"


@dataclass(frozen=True)
class Statistic:
    """A named codeword statistic; `linear` carries its weight vector and
    `custom` an arbitrary callable (brute-force paths only)."""

    kind: str
    h: Optional[tuple] = None
    fn: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in STAT_KINDS:
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        if self.kind == "linear":
            if self.h is None:
                raise ValueError("linear statistic needs a weight vector")
            object.__setattr__(self, "h", tuple(int(x) for x in self.h))
        elif self.h is not None:
            raise ValueError(f"{self.kind} statistic takes no weight vector")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom statistic needs a callable")


OMEGA = Statistic("omega")
SIGMA = Statistic("sigma")
GAMMA_GT = Statistic("gamma_gt")
GAMMA_GE = Statistic("gamma_ge")
LAMBDA_LT = Statistic("lambda_lt")
LAMBDA_LE = Statistic("lambda_le")
DELTA = Statistic("delta")


def linear(h) -> Statistic:
    return Statistic("linear", h=tuple(h))


def custom(fn) -> Statistic:
    return Statistic("custom", fn=fn)


def evaluate_statistic(stat: Statistic, word) -> int:
    """Exact value of a statistic on a word; the empty word gives 0."""
    return statistic_evaluator(stat, len(word))(word)


def statistic_evaluator(stat: Statistic, n: int) -> Callable:
    """The statistic as a function of words of length n.  A scan binds it
    once per constraint, so no word pays the dispatch on the kind."""
    h = linear_weights(stat, n)
    if h is not None:
        return lambda word: sum(map(operator.mul, h, word))
    cmp = DESCENT_COMPARISONS.get(stat.kind)
    if cmp is None:
        return stat.fn
    if stat.kind == "delta":
        return lambda word: sum(map(cmp, word, word[1:]))
    positions = range(1, n)
    return lambda word: sum(itertools.compress(positions, map(cmp, word, word[1:])))


def linear_weights(stat: Statistic, n: int):
    """Weight vector when the statistic is a linear form on words of
    length n, else None."""
    if stat.kind == "omega":
        return tuple(range(1, n + 1))
    if stat.kind == "sigma":
        return (1,) * n
    if stat.kind == "linear":
        if len(stat.h) != n:
            raise ValueError(f"weight vector of length {len(stat.h)} for length-{n} words")
        return stat.h
    return None


def type_vector(word, r: int) -> tuple[int, ...]:
    """Symbol counts tau_j(word) for j in [0, r)."""
    tau = [0] * r
    for x in word:
        tau[x] += 1
    return tuple(tau)


@dataclass(frozen=True)
class Constraint:
    stat: Statistic
    m: int
    a: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"modulus must be positive, got {self.m}")
        object.__setattr__(self, "a", self.a % self.m)


@dataclass(frozen=True)
class CodeSpec:
    """A simultaneous-congruence code over [0, r)^n."""

    n: int
    r: int
    constraints: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"length must be non-negative, got {self.n}")
        if self.r < 1:
            raise ValueError(f"alphabet size must be positive, got {self.r}")
        cons = tuple(
            c if isinstance(c, Constraint) else Constraint(*c) for c in self.constraints
        )
        if not cons:
            raise ValueError("a code spec needs at least one constraint")
        object.__setattr__(self, "constraints", cons)

    @property
    def s(self) -> int:
        return len(self.constraints)


def _membership_test(spec: CodeSpec) -> Callable:
    """Whether a length-n word satisfies every congruence of the spec, with
    each constraint's evaluator bound once."""
    checks = [(statistic_evaluator(c.stat, spec.n), c.m, c.a) for c in spec.constraints]

    def test(word) -> bool:
        for value, m, a in checks:
            if (value(word) - a) % m:
                return False
        return True

    return test


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


def _split_statistic(stat: Statistic, n: int, k: int, r: int):
    """A built-in statistic on length-n words split into x[:k] and x[k:],
    as (prefix value, suffix value, boundary): the statistic of a word is
    prefix(x[:k]) + suffix(x[k:]) + boundary[x[k-1]][x[k]], for 1 <= k < n."""
    h = linear_weights(stat, n)
    if h is not None:
        head, tail = h[:k], h[k:]
        return (
            lambda word: sum(map(operator.mul, head, word)),
            lambda word: sum(map(operator.mul, tail, word)),
            ((0,) * r,) * r,
        )
    cmp = DESCENT_COMPARISONS[stat.kind]
    if stat.kind == "delta":
        weight = 1
        prefix = suffix = lambda word: sum(map(cmp, word, word[1:]))
    else:
        weight = k
        head, tail = range(1, k), range(k + 1, n)
        prefix = lambda word: sum(itertools.compress(head, map(cmp, word, word[1:])))
        suffix = lambda word: sum(itertools.compress(tail, map(cmp, word, word[1:])))
    boundary = tuple(tuple(weight * cmp(x, y) for y in range(r)) for x in range(r))
    return prefix, suffix, boundary


def _split_scan(spec: CodeSpec, test: Callable):
    """The codewords of a spec with n >= 2 and built-in statistics, in
    lexicographic order, by the meet-in-the-middle scan of
    `enumerate_codewords`."""
    n, r = spec.n, spec.r
    k = n // 2
    halves = [(_split_statistic(c.stat, n, k, r), c.m, c.a) for c in spec.constraints]
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
    for i in range(length):
        g.append(1 + (r - 1) * sum(g[max(i - t, 0) : i]))
    return g


# ---------------------------------------------------------------------------
# code families


def _check_range(value, bound, name):
    if not 0 <= value < bound:
        raise ValueError(f"{name} must lie in [0, {bound}), got {value}")


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
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    _check_range(a1, n, "a1")
    _check_range(a2, r, "a2")
    if variant not in VARIANT_STATS:
        raise ValueError(f"variant must be one of {sorted(VARIANT_STATS)}, got {variant!r}")
    stat = Statistic(VARIANT_STATS[variant])
    return CodeSpec(n, r, ((stat, n, a1), (SIGMA, r, a2)))


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
    """Binary code of length 2^(p-2) with consecutive weights modulo a prime p."""
    if p < 3:
        raise ValueError("p must be a prime of at least 3")
    if any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"p must be prime, got {p}")
    n = 2 ** (p - 2)
    return lc(n, p, 2, range(1, n + 1), a)


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
