"""The Tenengolts divisor sum evaluated term by term, the tests' reference.

`ramanujan_reference` is the integer closed form of Ramanujan's sum,
phi(d) mu(d/g) / phi(d/g) with g = gcd(a mod d, d), from a totient and a
Mobius value per divisor.  `cardinality_reference` sums
c_d(a1') g [g | a2] r^(n/d) over d | n, g = gcd(r, d), as the plain
`sum(p * r**k ...)` from d = 1 up, then divides by n r.
"""

from math import gcd

from ntcodes.enumerators import tenengolts_variant_transform
from ntcodes.numtheory import divisors, euler_phi, mobius


def ramanujan_reference(d, a):
    """c_d(a) = phi(d) mu(d/g) / phi(d/g), g = gcd(a mod d, d)."""
    reduced = d // gcd(a % d, d)
    q, rem = divmod(euler_phi(d) * mobius(reduced), euler_phi(reduced))
    assert rem == 0
    return q


def cardinality_reference(n, r, a1, a2, variant=">"):
    """The descent/sum code's cardinality, one r**(n // d) per divisor."""
    base_a1, _ = tenengolts_variant_transform(variant, n, a1)
    total = sum(
        ramanujan_reference(d, base_a1) * gcd(r, d) * r ** (n // d)
        for d in divisors(n)
        if a2 % gcd(r, d) == 0
    )
    q, rem = divmod(total, n * r)
    assert rem == 0
    return q
