"""Weight enumerators: brute-force oracles, the character-sum engine, and
the closed forms for linear-congruence and descent/sum codes.

The extended enumerator of a code tracks every constrained statistic in a
z-variable exponent and every symbol count in a w-variable exponent.  The
character-sum engine recovers a code's enumerator from the full-space
enumerator by summing the full space at root-of-unity twists of the
z-variables; everything stays in exact cyclotomic arithmetic and the final
coefficients are checked to be non-negative integers divisible by the
product of the moduli.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import comb, gcd, lcm
from typing import Optional

from .codes import (
    SIGMA,
    VARIANT_STATS,
    CodeSpec,
    Statistic,
    enumerate_codewords,
    evaluate_statistic,
    linear_weights,
    tenengolts as tenengolts_spec,
    lc as lc_spec,
    type_vector,
)
from .exactalg import (
    CycElement,
    IntegralityError,
    MultiPoly,
    NonDivisibleError,
    cyc_root,
)
from .numtheory import divisors, ramanujan_sum
from .qcalc import compositions, q_multinomial

KINDS = ("extended", "complete", "hamming")
METHODS = ("auto", "closed", "theorem1", "oracle")

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
        """The number of codewords: the polynomial evaluated at all ones."""
        return self.poly.evaluate({v: 1 for v in self.poly.variables})


def oracle_extended(spec: CodeSpec, budget: int | None = None) -> Enumerator:
    """Extended weight enumerator by summing one monomial per codeword."""
    variables = z_variables(spec.s) + w_variables(spec.r)
    terms: dict = {}
    for word in enumerate_codewords(spec, budget):
        rho = tuple(evaluate_statistic(c.stat, word) for c in spec.constraints)
        if any(v < 0 for v in rho):
            raise ValueError(
                "a statistic took a negative value; enumerator exponents must be non-negative"
            )
        key = rho + type_vector(word, spec.r)
        terms[key] = terms.get(key, 0) + 1
    return Enumerator("extended", MultiPoly(variables, terms), "oracle", spec)


def specialize(enum: Enumerator, target: str):
    """Walk the extended -> complete -> hamming -> cardinality chain."""
    if target == "cardinality":
        return enum.cardinality()
    if target not in KINDS:
        raise ValueError(f"unknown enumerator kind {target!r}")
    if KINDS.index(target) < KINDS.index(enum.kind):
        raise ValueError(f"cannot specialize {enum.kind} to {target}")
    kind, poly = enum.kind, enum.poly
    if kind == "extended" and target != "extended":
        zmap = {v: 1 for v in poly.variables if v.startswith("z")}
        if zmap:
            poly = poly.substitute(zmap)
        kind = "complete"
    if kind == "complete" and target == "hamming":
        w = MultiPoly(("w",), {(1,): 1})
        mapping = {v: (1 if v == "w0" else w) for v in poly.variables}
        poly = poly.substitute(mapping, variables=("w",))
        kind = "hamming"
    return Enumerator(kind, poly, enum.method, enum.spec)


# ---------------------------------------------------------------------------
# full-space enumerators


def _product_form(n: int, r: int, weights) -> dict:
    """Expand prod_j sum_k w_k prod_i z_i^(h_ij * k) as a terms dict."""
    s = len(weights)
    width = s + r
    cur = {(0,) * width: 1}
    for j in range(n):
        options = []
        for k in range(r):
            zpart = tuple(w[j] * k for w in weights)
            wpart = tuple(1 if t == k else 0 for t in range(r))
            options.append(zpart + wpart)
        nxt: dict = {}
        for exps, c in cur.items():
            for opt in options:
                key = tuple(a + b for a, b in zip(exps, opt))
                nxt[key] = nxt.get(key, 0) + c
        cur = nxt
    return cur


def _full_space(n: int, r: int, stats, budget: int | None):
    """Full-space extended enumerator and the form that produced it:
    "product" (all statistics linear), "descent_sum" (descent statistic
    paired with the symbol sum), or "enumeration" (brute force)."""
    stats = list(stats)
    variables = z_variables(len(stats)) + w_variables(r)
    weights = [linear_weights(st, n) for st in stats]
    if all(w is not None for w in weights):
        if any(x < 0 for w in weights for x in w):
            raise ValueError("closed-form enumerators need non-negative weights")
        return MultiPoly(variables, _product_form(n, r, weights)), "product"
    if (
        len(stats) == 2
        and stats[0].kind == "gamma_gt"
        and stats[1].kind == "sigma"
    ):
        terms: dict = {}
        for t in compositions(n, r):
            sigma = sum(j * tj for j, tj in enumerate(t))
            for (g,), c in q_multinomial(t).terms.items():
                key = (g, sigma) + t
                terms[key] = terms.get(key, 0) + c
        return MultiPoly(variables, terms), "descent_sum"
    from .codes import DEFAULT_BUDGET, BudgetExceededError

    limit = DEFAULT_BUDGET if budget is None else budget
    if r**n > limit:
        raise BudgetExceededError(
            f"full-space scan of {r}^{n} words exceeds the budget {limit}"
        )
    terms = {}
    for word in itertools.product(range(r), repeat=n):
        rho = tuple(evaluate_statistic(st, word) for st in stats)
        if any(v < 0 for v in rho):
            raise ValueError(
                "a statistic took a negative value; enumerator exponents must be non-negative"
            )
        key = rho + type_vector(word, r)
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(variables, terms), "enumeration"


def full_space_enumerator(
    n: int, r: int, stats, budget: int | None = None
) -> MultiPoly:
    """Extended enumerator of the whole space [0, r)^n for the given
    statistics, in variables z1..zs, w0..w(r-1)."""
    poly, _ = _full_space(n, r, stats, budget)
    return poly


# ---------------------------------------------------------------------------
# the character-sum engine


def theorem1_extended(
    spec: CodeSpec, budget: int | None = None, force_character_sum: bool = False
) -> Enumerator:
    """Extended enumerator of a congruence code from the full-space
    enumerator.

    When the full-space polynomial comes from a closed form, the code's
    enumerator is extracted by the character sum over all residue tuples
    u, twisting z_i by e(u_i/m_i), with exact cyclotomic accumulation at
    order lcm(m_i) and an exact final division by the product of moduli.
    When the full-space polynomial was itself built by brute force, plain
    residue filtering is equivalent and is used instead (unless
    `force_character_sum` asks for the long way).
    """
    cons = spec.constraints
    stats = [c.stat for c in cons]
    poly, form = _full_space(spec.n, spec.r, stats, budget)
    s = len(cons)
    if form == "enumeration" and not force_character_sum:
        kept = {
            exps: c
            for exps, c in poly.terms.items()
            if all((exps[i] - cons[i].a) % cons[i].m == 0 for i in range(s))
        }
        return Enumerator("extended", MultiPoly(poly.variables, kept), "oracle", spec)

    moduli = [c.m for c in cons]
    order = lcm(*moduli)
    denom = math.prod(moduli)
    steps = [order // m for m in moduli]
    # terms whose statistics land in the same residue pattern share one
    # character sum, so each pattern's sum is evaluated exactly once
    pattern_cache: dict = {}
    out: dict = {}
    for exps, coeff in poly.terms.items():
        key = tuple(
            (steps[i] * ((exps[i] - cons[i].a) % cons[i].m)) % order for i in range(s)
        )
        value = pattern_cache.get(key)
        if value is None:
            # accumulate sum over u of e(sum_i k_i u_i / order), one
            # constraint at a time, in the group-ring basis
            cur = {0: 1}
            for k, m in zip(key, moduli):
                nxt: dict = {}
                for p, c in cur.items():
                    for u in range(m):
                        q = (p + k * u) % order
                        nxt[q] = nxt.get(q, 0) + c
                cur = nxt
            vec = [0] * order
            for p, c in cur.items():
                vec[p] = c
            value = CycElement(order, vec).to_integer()
            pattern_cache[key] = value
        total = coeff * value
        q, rem = divmod(total, denom)
        if rem:
            raise NonDivisibleError(
                f"character sum for {exps} gave {total}, not divisible by {denom}"
            )
        if q < 0:
            raise IntegralityError(f"negative coefficient {q} for {exps}")
        if q:
            out[exps] = q
    return Enumerator("extended", MultiPoly(poly.variables, out), "character_sum", spec)


# ---------------------------------------------------------------------------
# closed forms for linear congruence codes


def lc_hamming(n: int, m: int, r: int, h, a: int) -> Enumerator:
    """Hamming weight enumerator of the r-ary linear congruence code, by
    the character sum (1/m) sum_u e(-au/m) prod_j (1 + w sum_k e(h_j k u / m))."""
    if n < 0 or m < 1 or r < 1:
        raise ValueError("need n >= 0, m >= 1, r >= 1")
    h = tuple(int(x) for x in h)
    if len(h) != n:
        raise ValueError(f"weight vector of length {len(h)} for n={n}")
    if not 0 <= a < m:
        raise ValueError(f"a must lie in [0, {m}), got {a}")
    zero = CycElement.integer(0, m)
    totals = [zero] * (n + 1)
    for u in range(m):
        cur = [cyc_root(m, 0)]
        for j in range(n):
            inner = zero
            for k in range(1, r):
                inner = inner + cyc_root(m, h[j] * k * u)
            nxt = []
            for d in range(len(cur) + 1):
                val = cur[d] if d < len(cur) else zero
                if d:
                    val = val + cur[d - 1] * inner
                nxt.append(val)
            cur = nxt
        pref = cyc_root(m, -a * u)
        for d in range(n + 1):
            totals[d] = totals[d] + pref * cur[d]
    terms: dict = {}
    for d, val in enumerate(totals):
        value = val.to_integer()
        q, rem = divmod(value, m)
        if rem:
            raise NonDivisibleError(f"weight-{d} character sum {value} not divisible by {m}")
        if q < 0:
            raise IntegralityError(f"negative weight-{d} coefficient {q}")
        if q:
            terms[(d,)] = q
    spec = lc_spec(n, m, r, h, a) if n >= 1 else None
    return Enumerator("hamming", MultiPoly(("w",), terms), "closed_form", spec)


def blc_hamming(n: int, m: int, h, a: int) -> Enumerator:
    """Binary specialization of lc_hamming."""
    return lc_hamming(n, m, 2, h, a)


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
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    if not 0 <= a2 < r:
        raise ValueError(f"a2 must lie in [0, {r}), got {a2}")
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
    spec = tenengolts_spec(n, r, a1, a2, variant)
    return Enumerator("hamming", MultiPoly(("w",), terms), "closed_form", spec)


def tenengolts_cardinality(n: int, r: int, a1: int, a2: int, variant: str = ">") -> int:
    """Cardinality of the r-ary descent/sum code from the divisor sum
    (1/nr) sum_{d | n} c_d(a1) r^(n/d) (r, d) [ (r, d) | a2 ]."""
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    if not 0 <= a2 < r:
        raise ValueError(f"a2 must lie in [0, {r}), got {a2}")
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


def _closed_form(spec: CodeSpec, kind: str):
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
    if len(cons) == 1:
        con = cons[0]
        h = linear_weights(con.stat, spec.n)
        if h is not None:
            enum = lc_hamming(spec.n, con.m, spec.r, h, con.a)
            return enum.cardinality() if kind == "cardinality" else enum
    return None


def compute(spec: CodeSpec, kind: str, method: str = "auto", budget: int | None = None):
    """The spec's enumerator of the given kind, or its cardinality (an int)
    when `kind` is "cardinality".

    The route is read off the spec's congruences, whatever family built
    it.  At kinds "hamming" and "cardinality", a descent/sum code (a
    descent statistic mod n, then the symbol sum mod r) takes the divisor
    sums of `tenengolts_hamming` / `tenengolts_cardinality`, and a single
    linear congruence takes `lc_hamming`.  Method "auto" uses these closed
    forms when they apply and theorem 1 otherwise; "closed" raises
    ValueError when none applies; "theorem1" and "oracle" force the
    character-sum engine and brute force.  `budget` bounds the scans of
    the last two routes.
    """
    if kind != "cardinality" and kind not in KINDS:
        raise ValueError(f"unknown enumerator kind {kind!r}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, choose one of {', '.join(METHODS)}")
    if method in ("auto", "closed"):
        result = _closed_form(spec, kind)
        if result is not None:
            return result
        if method == "closed":
            stats = ", ".join(c.stat.kind for c in spec.constraints)
            raise ValueError(f"no closed form for statistics ({stats}) at kind {kind}")
    if method == "oracle":
        base = oracle_extended(spec, budget)
    else:
        base = theorem1_extended(spec, budget)
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
