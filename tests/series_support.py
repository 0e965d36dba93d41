"""Oracles for the Master Theorem: box-truncated power-series inversion for
the condensed side, [x^e] 1/V_n; the one-sided Ryser sum for the coefficient;
and the multiset words for generalized rencontres.  Also Euler's pentagonal
recurrence for p(n), one term at a time."""

import itertools
import math
from fractions import Fraction
from operator import mul, sub

from combanal.compositions import distinct_arrangements
from combanal.exactcore import MultiPoly


class SingularSeriesError(ZeroDivisionError):
    """Series inversion requires a nonzero constant term."""


def series_inverse(p: MultiPoly, box) -> MultiPoly:
    """1/p as a power series, exact at every exponent componentwise within `box`.

    Exponents are non-negative, so only the terms of p inside the box reach
    a cell of it.  The cells are filled in lexicographic order from p*q = 1:
    q_e = -(1/c0) * sum over the non-constant terms p_f of p_f * q_{e-f}.
    """
    c0 = p.constant_term()
    if c0 == 0:
        raise SingularSeriesError("cannot invert a series with zero constant term")
    box = tuple(box)
    if any(b < 0 for b in box):
        raise ValueError(f"box {box} has a negative bound")
    rest = [(f, c) for f, c in p.truncate(box).terms.items() if any(f)]
    inverse = 1 / Fraction(c0)
    cells = itertools.product(*(range(b + 1) for b in box))
    q = {next(cells): inverse}  # the origin comes first
    for e in cells:
        total = 0
        for f, c in rest:
            # an e - f with a negative entry is not a key of q
            v = q.get(tuple(map(sub, e, f)))
            if v:
                total += c * v
        q[e] = -total * inverse
    return MultiPoly(p.names, q)  # integral coefficients come back as ints


def ryser_coefficient(matrix, multidegree) -> int:
    """[x^e] prod_i (sum_j a_ij x_j)^{e_i} as the one-sided mixed difference
    at 0 of that form F of degree N = sum e_j:

      [x^e] F = (1 / prod e_j!) sum_{0 <= k <= e} (-1)^(N - |k|) prod_j C(e_j, k_j) F(k),

    Ryser's permanent formula with repeated rows and columns, each F(k) from
    scratch."""
    rows = [(row, e) for row, e in zip(matrix, multidegree) if e]
    weights = [[(-1) ** (e - k) * math.comb(e, k) for k in range(e + 1)] for e in multidegree]
    acc = 0
    for k in itertools.product(*(range(e + 1) for e in multidegree)):
        value = math.prod(weights[j][kj] for j, kj in enumerate(k))
        for row, e in rows:
            value *= sum(map(mul, row, k)) ** e
        acc += value
    return acc // math.prod(map(math.factorial, multidegree))


def brute_force_rencontres(m: int, multidegree) -> int:
    """{m; e1 ... en} by enumerating the distinct words of the multiset 1^e1 ... n^en
    and counting those that agree with the sorted word in exactly m places."""
    reference = tuple(symbol for symbol, e in enumerate(multidegree, start=1) for _ in range(e))
    return sum(
        sum(a == b for a, b in zip(word, reference)) == m for word in distinct_arrangements(reference)
    )


def pentagonal_table_oracle(n: int) -> list:
    """[p(0), ..., p(n)] by Euler's pentagonal-number recurrence, each row
    summed one signed term p(m - g) at a time."""
    table = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table.append(total)
    return table
