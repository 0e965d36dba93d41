"""combanal: exact-arithmetic combinatory analysis.

Modules
-------
exactcore     rational polynomials, the cofactor determinant, the integer nullspace
partitions    partition counting/enumeration and the recurrence tradition
compositions  compositions, conjugations, trees, the pack-dealing problem
masterthm     condensed generating functions and the derangement family
invariants    binary-form operator calculus, seminvariants, syzygants
probelect     ballot probabilities and the two-party sampling model
recreations   cubes, tiles, foldings, contact systems, rulers, rooks
patterns      edge transforms, repeat tiles, tilings, the angle law
divisors      generalized divisor sums, potency, factorizations, totient
cli           the command-line surface over all of the above

Submodules load on first attribute access (PEP 562), so `import combanal`
compiles none of them and a CLI request loads only the modules it uses.
"""

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


class DomainError(ValueError):
    """A refusal of the input: out of the domain, infeasible, or past a
    work cap.  The CLI prints its message on one line and exits 1; any
    other exception is a bug."""


def __getattr__(name: str):
    if name in __all__:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
