"""Exact weight enumerators and cardinalities for number-theoretic codes.

The package constructs codes defined by simultaneous congruences on
codeword statistics, computes their extended, complete, and Hamming weight
enumerators and cardinalities both by brute-force enumeration and by
closed-form character sums, and verifies the two routes agree bit-exactly.
All arithmetic is exact: arbitrary-precision integers and cyclotomic
integers, no floating point.
"""

from .codes import (
    BudgetExceededError,
    CodeSpec,
    Constraint,
    Statistic,
    enumerate_codewords,
    evaluate_statistic,
    is_member,
    make_family,
    weight_sequence,
)
from .enumerators import (
    Enumerator,
    argmax_cardinality,
    blc_hamming,
    compute,
    full_space_enumerator,
    lc_hamming,
    oracle_extended,
    specialize,
    tenengolts_cardinality,
    tenengolts_hamming,
    tenengolts_variant_transform,
    theorem1_extended,
)
from .exactalg import (
    CycElement,
    IntegralityError,
    MultiPoly,
    NonDivisibleError,
    NotAnIntegerError,
    cyc_root,
    cyclotomic_polynomial,
)
from .macwilliams import (
    MacWilliamsReport,
    ZrLinearCode,
    build_code,
    complete_weight_enumerator,
    verify_macwilliams,
)
from .numtheory import divisors, euler_phi, factorize, gcd, mobius, ramanujan_sum
from .qcalc import q_binomial, q_integer, q_multinomial, q_multinomial_at_root

__version__ = "0.1.0"
