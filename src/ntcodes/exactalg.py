"""Exact algebra substrate.

* ``MultiPoly`` - a sparse multivariate polynomial with integer
  coefficients, keyed by exponent vectors; every enumerator is one.  It
  is a plain value: the routes build its term map, and it only checks,
  prints and compares it.
* ``CycElement`` - a length-L vector of the group ring Z[x]/(x^L - 1),
  which ``to_integer`` reduces modulo the L-th cyclotomic polynomial to
  the rational integer it equals (or raises).  The MacWilliams check
  builds its right side in that ring and reduces each coefficient once.
  ``cyclotomic_polynomial`` builds Phi_L as the Mobius product of the
  x^d - 1, d | L, and ``_upoly_mod``, the one dense-polynomial routine,
  steps only its nonzero coefficients.
* ``exact_quotient`` - the one exact division behind the descent/sum
  closed forms and the MacWilliams check, with its integrality sentinels.

There is no floating point anywhere; enumerators and cardinalities are
all exact.
"""

from __future__ import annotations

import functools
import itertools

from .numtheory import divisors, mobius


class IntegralityError(Exception):
    """A quantity that must be integral by construction is not.

    These are bug sentinels (or, for MacWilliams verification, the symptom
    of a rank-deficient parity-check matrix), never ordinary data errors.
    """


class NotAnIntegerError(IntegralityError):
    """A cyclotomic element expected to be a rational integer is not one."""


class NonDivisibleError(IntegralityError):
    """Exact division was requested by a non-dividing integer."""


def count_text(count: int) -> str:
    """An integer for a message: exact below 2^64, else the least power of
    two at or above its magnitude, signed, so no message converts thousands
    of digits."""
    if count.bit_length() <= 64:
        return str(count)
    return f"{'-' if count < 0 else ''}2^{(abs(count) - 1).bit_length()}"


def exact_quotient(total: int, denom: int, what: str) -> int:
    """total / denom for a non-negative integer `what` that the theory says
    this division yields.  Raises NonDivisibleError on a remainder and
    IntegralityError on a negative quotient, naming `what` and the
    integers through `count_text`."""
    q, rem = divmod(total, denom)
    if rem:
        raise NonDivisibleError(f"{what}: total {count_text(total)} not divisible by {count_text(denom)}")
    if q < 0:
        raise IntegralityError(f"{what}: negative quotient {count_text(q)}")
    return q


# ---------------------------------------------------------------------------
# cyclotomic polynomials (dense coefficients, constant term first)


def _upoly_mod(num, den) -> list[int]:
    """Remainder of num by a monic divisor, over the integers.  Each step
    subtracts only the divisor's nonzero coefficients below its leading one."""
    deg = len(den) - 1
    steps = [(k, c) for k, c in enumerate(den[:deg]) if c]
    rem = list(num)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for k, dk in steps:
                rem[i - deg + k] -= c * dk
    return rem[:deg]


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients of the cyclotomic polynomial Phi_order, constant first.

    Computed as the Mobius product of (x^d - 1)^mu(order/d) over d | order:
    every factor of exponent +1 is multiplied in by one shift and one
    subtraction, then every factor of exponent -1 is divided out exactly by
    q_i = q_(i-d) - p_i.  Memoized; the fill is idempotent, so concurrent
    readers are safe.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    factors = [(d, mobius(order // d)) for d in divisors(order)]
    poly = [1]
    for d, mu in factors:
        if mu == 1:
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d, mu in factors:
        if mu == -1:
            quo = []
            for i, c in enumerate(poly):
                quo.append((quo[i - d] if i >= d else 0) - c)
            # past the quotient's degree the recurrence must give zeros
            if any(quo[-d:]):
                raise ArithmeticError(f"x^{d} - 1 does not divide the Mobius product for Phi_{order}")
            poly = quo[:-d]
    return tuple(poly)


class CycElement:
    """An integer combination of the order-th roots of unity, kept only to
    be reduced to the rational integer it equals.

    ``coeffs[j]`` is the coefficient of zeta^j, where zeta = e(1/order):
    a vector of the group ring Z[x]/(x^order - 1).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        coeffs = tuple(coeffs)
        if len(coeffs) != order:
            raise ValueError(f"need {order} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    def to_integer(self) -> int:
        """The rational-integer value of this element: the constant term of
        its remainder modulo Phi_order, stepping only Phi's nonzero terms.

        Raises NotAnIntegerError when the reduced form has a nonzero
        non-constant coordinate; by the theorems backing every caller this
        indicates an implementation bug, not bad data.
        """
        rem = _upoly_mod(self.coeffs, cyclotomic_polynomial(self.order))
        if any(rem[1:]):
            raise NotAnIntegerError(
                f"element of order {self.order} is not a rational integer: {self!r}"
            )
        return rem[0]

    def __repr__(self):
        nz = [(j, c) for j, c in enumerate(self.coeffs) if c]
        if not nz:
            return f"CycElement({self.order}, 0)"
        body = " + ".join(f"{count_text(c)}*z^{j}" if j else count_text(c) for j, c in nz)
        return f"CycElement({self.order}, {body})"


def _first_bad_term(exponents, width: int) -> None:
    """Raise ValueError for the first exponent vector, in the order given,
    that does not have `width` entries or has a negative entry."""
    for exps in exponents:
        if len(exps) != width:
            raise ValueError(f"exponent vector {exps} does not match {width} variables")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")


class MultiPoly:
    """Sparse multivariate polynomial with integer coefficients.

    Terms map exponent tuples (one non-negative entry per declared
    variable) to nonzero integer coefficients.  There is no arithmetic:
    callers build the term map, and an instance is treated as immutable.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None) -> None:
        variables = tuple(variables)
        width = len(variables)
        clean = {}
        if terms:
            # every term is checked, zero coefficients too, in bulk; a
            # failed check names the first bad term
            exponents = list(map(tuple, terms))
            entries = itertools.chain.from_iterable(exponents)
            if set(map(len, exponents)) != {width} or min(entries, default=0) < 0:
                _first_bad_term(exponents, width)
            clean = {exps: coeff for exps, coeff in zip(exponents, terms.values()) if coeff}
        self.variables = variables
        self.terms = clean

    # -- canonical form

    def sorted_terms(self) -> list:
        """Terms in canonical order: ascending total degree, then descending
        lexicographic exponent (the order used by the text format): the
        exponents sorted descending, then stably by total degree."""
        order = sorted(self.terms, reverse=True)
        order.sort(key=sum)
        return [(e, self.terms[e]) for e in order]

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        # the same polynomial over another variable list is another value
        return self.variables == other.variables and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for var, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(var)
                elif e:
                    factors.append(f"{var}^{e}")
            if coeff == 1 and factors:
                head = None
            else:
                head = str(coeff)
            parts.append("*".join(([head] if head else []) + factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.variables!r}, '{self}')"
