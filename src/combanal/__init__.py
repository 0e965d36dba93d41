"""combanal: exact-arithmetic combinatory analysis.

Modules
-------
exactcore     rational polynomials, box-truncated series inversion, determinants, solving
partitions    partition counting/enumeration and the recurrence tradition
compositions  compositions, conjugations, trees, the pack-dealing problem
masterthm     condensed generating functions and the derangement family
invariants    binary-form operator calculus, seminvariants, syzygants
probelect     ballot probabilities and the two-party sampling model
recreations   cubes, tiles, foldings, contact systems, rulers, rooks
patterns      edge transforms, repeat tiles, tilings, the angle law
divisors      generalized divisor sums, potency, factorizations, totient
cli           the command-line surface over all of the above
"""

from . import (
    compositions,
    divisors,
    exactcore,
    invariants,
    masterthm,
    partitions,
    patterns,
    probelect,
    recreations,
)

__all__ = [
    "compositions",
    "divisors",
    "exactcore",
    "invariants",
    "masterthm",
    "partitions",
    "patterns",
    "probelect",
    "recreations",
]

__version__ = "0.1.0"
