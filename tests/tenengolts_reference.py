"""The Tenengolts divisor sum evaluated term by term, the tests' reference.

`ramanujan_reference` is the integer closed form of Ramanujan's sum,
phi(d) mu(d/g) / phi(d/g) with g = gcd(a mod d, d), from a totient and a
Mobius value per divisor.  `base_reference` is the variant's base
parameter a1', written out apart from the code's table: mod n it is a1,
-a1, h - a1 and h + a1 for ">", "<", "<=" and ">=", where h is n/2 for
even n and 0 for odd n.  `cardinality_reference` sums
c_d(a1') g [g | a2] r^(n/d) over d | n, g = gcd(r, d), as the plain
`sum(p * r**k ...)` from d = 1 up, then divides by n r.
"""

from math import gcd

from ntcodes.numtheory import divisors, euler_phi, mobius


def ramanujan_reference(d, a):
    """c_d(a) = phi(d) mu(d/g) / phi(d/g), g = gcd(a mod d, d)."""
    reduced = d // gcd(a % d, d)
    q, rem = divmod(euler_phi(d) * mobius(reduced), euler_phi(reduced))
    assert rem == 0
    return q


def base_reference(variant, n, a1):
    """a1' for the variant: a1, -a1, h - a1 or h + a1 mod n."""
    h = n // 2 if n % 2 == 0 else 0
    return {">": a1, "<": -a1, "<=": h - a1, ">=": h + a1}[variant] % n


def cardinality_reference(n, r, a1, a2, variant=">"):
    """The descent/sum code's cardinality, one r**(n // d) per divisor."""
    base_a1 = base_reference(variant, n, a1)
    total = sum(
        ramanujan_reference(d, base_a1) * gcd(r, d) * r ** (n // d)
        for d in divisors(n)
        if a2 % gcd(r, d) == 0
    )
    q, rem = divmod(total, n * r)
    assert rem == 0
    return q
