"""Single-order cyclotomic arithmetic, the tests' independent reference.

A value is a length-L integer vector of the group ring Z[x]/(x^L - 1),
x standing for e(1/L); `value` reduces it with the library's
CycElement(L, vec).to_integer().
"""

from ntcodes.exactalg import CycElement


def fold(order, terms):
    """sum c e(k/order) over the (k, c) pairs, as a group-ring vector."""
    vec = [0] * order
    for k, c in terms:
        vec[k % order] += c
    return vec


def add(a, b):
    return [x + y for x, y in zip(a, b)]


def convolve(a, b):
    """The product of two group-ring vectors of one order."""
    order = len(a)
    out = [0] * order
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % order] += x * y
    return out


def value(vec):
    """The rational integer a group-ring vector equals."""
    return CycElement(len(vec), vec).to_integer()
