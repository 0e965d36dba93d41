"""Benchmark workloads: fixed argv pools and the seeded request lists drawn
from them.

Every argv in a pool has a stored expected response in ``expected.json``
(regenerate with ``python3 bench/make_expected.py``).  The workload seed
only orders the pool: a session answers the whole pool once (``series``,
``linalg``, ``enumerate``, so no argv repeats inside one process) or
``CLI_MIX_ROUNDS`` freshly ordered rounds of it (``cli-mix``, the only
workload whose inputs recur).  Drawing the whole pool keeps the work per
session the same for every seed, so run-to-run spread measures the
machine and the program, not the draw.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List


def _derangement(n: int) -> str:
    return ";".join(",".join("0" if i == j else "1" for j in range(n)) for i in range(n))


def _coeff(matrix: str, degree: str) -> str:
    return f"master coeff --matrix {matrix} --degree {degree}"


def _denominator(matrix: str) -> str:
    return f"master coeff --matrix {matrix} --denominator"


D3, D4, D5, D6 = (_derangement(n) for n in (3, 4, 5, 6))
M2A, M2B = "1,2;3,4", "2,1;1,3"
M3A, M3B = "1,2,0;0,1,3;2,0,1", "1,1,1;1,2,1;1,1,3"
M4 = "1,0,1,2;2,1,0,1;0,2,1,1;1,1,2,0"
M5 = "1,2,0,1,1;0,1,1,2,0;1,0,2,1,1;2,1,0,1,0;0,1,1,0,2"

# Master Theorem coefficients (determinant, series inverse, truncation),
# plus the one-variable series users: sigma2, plane partitions and the
# bipartite composition count.
SERIES = [
    _coeff(D3, d) for d in ("1,1,1", "2,1,1", "2,2,2", "3,2,1", "3,3,3", "4,3,2", "4,4,4", "5,5,5")
] + [
    _coeff(D4, d) for d in ("1,1,1,1", "2,1,1,1", "2,2,1,1", "2,2,2,2", "3,2,2,1")
] + [
    _coeff(D5, d) for d in ("1,1,1,1,1", "2,1,1,1,1", "2,2,1,1,1")
] + [
    _coeff(D6, "1,1,1,1,1,1"),
    _coeff(M2A, "3,3"), _coeff(M2A, "6,6"), _coeff(M2A, "10,10"), _coeff(M2B, "7,3"),
    _coeff(M3A, "2,2,2"), _coeff(M3A, "3,2,1"), _coeff(M3B, "2,2,2"), _coeff(M3B, "3,3,3"),
    _coeff(M4, "1,1,1,1"), _coeff(M4, "2,2,1,1"), _coeff(M5, "1,1,1,1,1"),
    _denominator(D4), _denominator(D5), _denominator(D6), _denominator(M4), _denominator(M5),
    _denominator("1,2,3;4,5,6;7,8,10"),
    _coeff(D3, "3,3,2"), _coeff(D4, "2,2,2,1"), _coeff(M2B, "5,5"), _coeff(M3A, "3,3,2"),
    _coeff(M3B, "3,2,1"),
] + [
    f"divisor sigma2 {b}" for b in (6, 10, 14, 16, 18, 22, 26, 30)
] + [
    f"partition plane {n}" for n in (8, 16, 20, 24, 32, 40)
] + [
    f"compose count {p} {q}"
    for p, q in ((3, 3), (5, 5), (6, 4), (8, 8), (10, 6), (4, 9), (15, 5), (12, 12))
]

# Seminvariant kernels (dense Fraction Gauss-Jordan on untruncated
# MultiPoly coefficients), syzygants, invariance checks and covariants.
LINALG = [
    f"invariant basis {p} {j} {w}"
    for p, j, w in (
        (3, 4, 6), (3, 6, 9), (4, 2, 4), (4, 3, 6), (4, 4, 8), (4, 5, 10), (4, 6, 12),
        (4, 7, 12), (4, 7, 14), (5, 4, 8), (5, 4, 10), (5, 5, 10), (5, 6, 11), (5, 6, 13),
        (5, 6, 15), (6, 4, 8), (6, 4, 10), (6, 4, 12), (6, 5, 12), (6, 5, 13), (6, 5, 15),
        (6, 6, 12), (6, 6, 14), (6, 6, 16), (7, 4, 10), (7, 4, 12), (7, 4, 14), (7, 5, 14),
        (8, 4, 12), (8, 4, 14), (8, 4, 16), (8, 5, 16), (8, 6, 16),
    )
] + [
    "invariant basis 4 --protomorphs 6",
    "invariant basis 5 --protomorphs 7",
    "invariant basis 6 --protomorphs 8",
    "invariant weight 4 6",
    "invariant weight 2 3",
    "invariant syzygant --k 2",
    "invariant syzygant --k 3",
    "invariant syzygant --k 4",
    "invariant check a0*a4-4*a1*a3+3*a2^2 --p 4 --transform 2,1,0,3",
    "invariant check a0*a2-a1^2 --p 2 --transform 1,2,3,4",
    "invariant check a0*a2*a4+2*a1*a2*a3-a2^3-a0*a3^2-a1^2*a4 --p 4 --transform 1,1,0,1",
    "invariant check a0*a3-a1*a2 --p 3 --transform 1,1,0,1",
    "invariant check a0*a2-a1^2 --p 2 --transform 2,1,1,1",
    "invariant covariant a0*a2-a1^2 --p 2",
    "invariant covariant a0*a2-a1^2 --p 4",
    "invariant covariant a0*a4-4*a1*a3+3*a2^2 --p 4",
    "invariant covariant a0^2*a3-3*a0*a1*a2+2*a1^3 --p 3",
    "invariant covariant a0^2*a3-3*a0*a1*a2+2*a1^3 --p 5",
    "invariant roots --p 4 --trials 20",
    "invariant roots --p 5 --trials 30 --seed 1",
    "invariant roots --p 6 --trials 40 --seed 3",
    "invariant omega a0*a2-a1^2 --p 4",
    "invariant omega a0*a3-a1*a2 --p 3",
    "invariant oop a0*a2-a1^2 --p 4",
    "invariant oop a0*a4-4*a1*a3+3*a2^2 --p 4",
]

# Pure-Python search: tilings, puzzles, partition/composition enumeration,
# brute-force rencontres, Newcomb deals, the election simulator and
# ordered factorizations.  No exactcore work; large outputs.
ENUMERATE = [
    "pattern tiling --cairo --extent 4",
    "pattern tiling --cairo --extent 2",
    "pattern tiling --base triangle --extent 4",
    "pattern tiling --base triangle --extent 2",
    "pattern tiling --base hexagon --extent 2",
    "pattern tiling --extent 2",
    "pattern tiling --extent 3",
    "pattern tiling --cairo --extent 2 --format svg",
    "pattern tiling --base triangle --extent 2 --format json",
    "puzzle latin --reduced 6",
    "puzzle latin --reduced 5",
    "puzzle latin --reduced 4",
    "puzzle stamps 10",
    "puzzle stamps 9",
    "puzzle stamps 8",
    "puzzle stamps 6",
    "puzzle mayblox",
    "puzzle mayblox --target 5",
    "puzzle mayblox --target 12",
    "puzzle mayblox --any",
    "puzzle hexagon --border 2",
    "puzzle cubes --list",
    "puzzle triangles 6 --list",
    "puzzle triangles 5 --list",
    "puzzle triangles 4 --squares --list",
    "puzzle contacts 8 --list",
    "puzzle contacts 6 --list",
    "partition enum 40",
    "partition enum 30",
    "partition enum 24 --format json",
    "partition enum 40 --distinct",
    "partition enum 28 --distinct",
    "partition enum 36 --max-part 6",
    "partition enum 20 --max-part 5",
    "partition perfect 23",
    "partition perfect 15",
    "partition plane 12 --enum",
    "partition plane 8 --enum",
    "compose enum 16",
    "compose enum 14",
    "compose enum 12",
    "compose enum 8",
    "compose enum 10 --format json",
    "master rencontres 0 3,3,3",
    "master rencontres 2 2,2,2",
    "master rencontres 1 2,2,2,2",
    "master rencontres 0 2,2,2,2",
    "compose newcomb 2,2,2",
    "compose newcomb 2,2,1",
    "compose newcomb 3,3,2 --ascending",
    "compose count 4 4 --essential",
    "election simulate --share 0.53 --seed 1",
    "election simulate --share 0.51 --constituencies 200 --size 2001 --seed 2",
    "election simulate --share 0.6 --constituencies 50 --seed 4",
    "divisor factorize 720 --ordered",
    "divisor factorize 2520 --ordered",
    "divisor factorize 5040 --ordered",
    "divisor factorize 100000 --ordered",
    "partition count 200 --pattern >,>=,>",
]

# The CLI golden corpus (tests/test_cli.py, GOLDEN), byte for byte.
GOLDEN = [
    "partition count 30", "partition count 27", "partition count 38",
    "partition count 31 --parts 5 --min-part 3", "partition count 5 --elements 1,2",
    "partition count 9 --euler-primes 3", "partition count 10 --pattern >,>",
    "partition enum 4", "partition table --demorgan 10", "partition table --u3 60",
    "partition conj 4,2,1", "partition modular 8,5,2,1 --mod 4",
    "partition modular 8,5,2,1 --mod 3", "partition parity 1000",
    "partition parity --digits 20", "partition perfect 7", "partition plane 4",
    "partition scale 1,1,1", "compose enum 3", "compose conj 2,1,4",
    "compose conj 3,1;0,1;1,1", "compose zigzag 3,3,2,1", "compose count 2 2",
    "compose count 4 --order-k 2", "master derange 4", "master derange 6",
    "master rencontres 0 1,1,1,1", "master coeff --matrix 0,1;1,0 --degree 2,2",
    "invariant weight 3 4", "invariant oop a0*a2-a1^2 --p 4", "ballot ahead 2 1",
    "ballot neverbehind 3 2", "ballot order 2,1,1", "election cubelaw 53 47 100",
    "puzzle latin --reduced 5", "puzzle latin --reduced 4", "puzzle stamps 9",
    "puzzle contacts 4", "puzzle rod 8", "puzzle rod 8 --format json", "puzzle weights 7",
    "puzzle rooks 8 2", "puzzle triangles 4", "puzzle triangles 5",
    "puzzle triangles 3 --squares", "puzzle cubes", "divisor potency 33",
    "divisor factorize 12", "divisor factorize 8 --ordered", "divisor totient 12",
    "divisor sigma2 4", "pattern classify 0,0;1/2,1/3;1,0",
    "pattern angles 3/5,3/5,3/5,3/5,3/5", "pattern tetra",
]

FORMAT_VARIANTS = [
    "partition enum 6 --format json",
    "partition enum 6 --format csv",
    "partition table 20 --format csv",
    "divisor potency 33 --format json",
    "divisor sigma2 4 --format csv",
    "divisor series B --max-n 16 --max-k 5 --format csv",
    "compose newcomb 2,1 --format csv",
    "pattern tiling --cairo --extent 1 --format svg",
    "pattern tiling --extent 1 --format json",
    "master derange 6 --format json",
]

# Quick refusals: exit 1 (cap or domain refusal) and exit 2 (usage error).
REFUSALS = {
    "master coeff --matrix 0,1;1,0 --degree 20,20": [1],
    "puzzle stamps 20": [1],
    "puzzle stamps 13": [1],
    "compose newcomb 3,3,3,3": [1],
    "puzzle latin --reduced 7": [1],
    "partition count abc": [2],
    "master frob 3": [2],
    "partition count 5 --bogus": [2],
    "puzzle cubes --format svg": [2],
}

# Requests that break the README's exit-code contract at the commit that
# introduced the benchmark.  They are judged against the contract, so they
# count against ok_frac until fixed.  Accepted responses: the listed
# refusal codes, or, where "answer" is set, exit 0 with that stdout.
KNOWN_DEFECTS = {
    "partition count 100000 --parts 50": {
        "refuse": [1],
        "answer": "oracle",
        "defect": "RecursionError traceback from the recursive lru_cache in count_exact_parts",
    },
    "partition plane 5 --boxed 0,0": {
        "refuse": [2],
        "defect": "malformed --boxed exits 1 with a leaked unpacking message",
    },
    "invariant oop 1/0 --p 2": {
        "refuse": [2],
        "defect": "malformed polynomial exits 1 with 'error: Fraction(1, 0)'",
    },
    "invariant oop a0^-1 --p 2": {
        "refuse": [2],
        "defect": "malformed polynomial exits 1 with a leaked int() literal error",
    },
    "divisor series A --max-n -1": {
        "refuse": [1, 2],
        "defect": "negative --max-n exits 0 with empty output instead of a refusal",
    },
}

CLI_MIX = GOLDEN + FORMAT_VARIANTS + list(REFUSALS) + list(KNOWN_DEFECTS)
CLI_MIX_ROUNDS = 4

POOLS: Dict[str, List[str]] = {
    "series": SERIES,
    "linalg": LINALG,
    "enumerate": ENUMERATE,
    "cli-mix": CLI_MIX,
}


def session_list(workload: str, seed: int, session: int) -> List[str]:
    """The argv strings of one session, in order, for this seed."""
    pool = POOLS[workload]
    rng = random.Random(zlib.crc32(workload.encode()) ^ (seed * 1_000_003 + session))
    rounds = CLI_MIX_ROUNDS if workload == "cli-mix" else 1
    out: List[str] = []
    for _ in range(rounds):
        order = list(pool)
        rng.shuffle(order)
        out.extend(order)
    return out
