"""The Master Theorem: condensed generating functions for coefficient
extraction, and the derangement family it was built to solve.

For linear forms X_i = sum_j a_ij x_j, the coefficient of
x1^e1 ... xn^en in prod X_i^{e_i} equals the same coefficient in
1/det(I - diag(x) A).  The determinant route turns redundant product
expansions into a single condensed series.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Sequence, Tuple

from .exactcore import MultiPoly, Scalar, poly_det, poly_ring, series_inverse

Multidegree = Tuple[int, ...]

DEGREE_CAP = 30
# Letters sum(e_i) that generalized_rencontres takes.
RENCONTRES_CAP = 200


def _names(n: int) -> Tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


def master_denominator(matrix: Sequence[Sequence[int]]) -> MultiPoly:
    """V_n = det(I - diag(x1..xn) * A), exact over the rationals."""
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("coefficient matrix must be square")
    names = _names(n)
    xs = poly_ring(*names)
    entries = [
        [
            (MultiPoly.const(names, 1) if i == j else MultiPoly.zero(names))
            - xs[i] * matrix[i][j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return poly_det(entries)


def master_coefficient(matrix: Sequence[Sequence[int]], multidegree: Multidegree) -> Scalar:
    """Coefficient of prod x_i^{e_i} in 1/V_n.

    Exact: only the cells of the box 0 <= f <= e reach x^e, so the series
    is expanded over that box alone.
    """
    multidegree = tuple(multidegree)
    if len(multidegree) != len(matrix):
        raise ValueError("multidegree length must match the matrix size")
    if any(e < 0 for e in multidegree):
        raise ValueError("multidegree entries must be non-negative")
    total = sum(multidegree)
    if total > DEGREE_CAP:
        raise ValueError(f"total degree {total} exceeds the cap {DEGREE_CAP}")
    return series_inverse(master_denominator(matrix), multidegree).coeff(multidegree)


def linear_forms(matrix: Sequence[Sequence[int]]) -> List[MultiPoly]:
    """The forms X_i = sum_j a_ij x_j over x1..xn."""
    n = len(matrix)
    names = _names(n)
    xs = poly_ring(*names)
    return [
        sum((xs[j] * matrix[i][j] for j in range(n)), MultiPoly.zero(names))
        for i in range(n)
    ]


def redundant_coefficient(
    matrix: Sequence[Sequence[int]], multidegree: Multidegree
) -> Scalar:
    """Coefficient of x^multidegree in prod X_i^{e_i}.

    This is the redundant-generating-function route; the Master Theorem
    asserts it agrees with `master_coefficient`.
    """
    forms = linear_forms(matrix)
    names = forms[0].names
    product = MultiPoly.const(names, 1)
    for form, e in zip(forms, multidegree):
        product = product * form**e
    return product.coeff(tuple(multidegree))


def derangement_matrix(n: int) -> List[List[int]]:
    """Zeros on the diagonal, ones elsewhere."""
    return [[0 if i == j else 1 for j in range(n)] for i in range(n)]


def derangements(n: int) -> int:
    """P_n by the condensed-series recurrence
    P_n = sum_{j=2..n} (j-1) C(n, j) P_{n-j}, with P_0 = 1, P_1 = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    table = [1, 0]
    for m in range(2, n + 1):
        total = 0
        for j in range(2, m + 1):
            total += (j - 1) * math.comb(m, j) * table[m - j]
        table.append(total)
    return table[n]


def brute_force_derangements(n: int) -> int:
    """Fixed-point-free permutations of n symbols by direct enumeration."""
    return sum(
        1
        for perm in itertools.permutations(range(n))
        if all(perm[i] != i for i in range(n))
    )


def _distinct_words(reference: Tuple[int, ...]):
    seen = set()
    for word in itertools.permutations(reference):
        if word not in seen:
            seen.add(word)
            yield word


def _check_rencontres(m: int, multidegree: Multidegree) -> Multidegree:
    multidegree = tuple(multidegree)
    if any(e < 0 for e in multidegree) or not any(multidegree):
        raise ValueError("multidegree must be non-negative and nonzero")
    if not 0 <= m <= sum(multidegree):
        raise ValueError("m out of range")
    return multidegree


def brute_force_rencontres(m: int, multidegree: Multidegree) -> int:
    """{m; e1 ... en} by enumerating the distinct words of the multiset;
    the independent oracle for generalized_rencontres."""
    multidegree = _check_rencontres(m, multidegree)
    reference: Tuple[int, ...] = ()
    for symbol, e in enumerate(multidegree, start=1):
        reference += (symbol,) * e
    count = 0
    for word in _distinct_words(reference):
        fixed = sum(1 for a, b in zip(word, reference) if a == b)
        if fixed == m:
            count += 1
    return count


def generalized_rencontres(m: int, multidegree: Multidegree) -> int:
    """{m; e1 e2 ... en}: distinct arrangements of the multiset
    1^e1 2^e2 ... n^en leaving exactly m positions unchanged.

    Each of the e_i positions holding symbol i takes a symbol from
    X_i = t*x_i + sum_{j != i} x_j, t marking a kept symbol, so the count
    is the coefficient of x^e t^m in prod X_i^{e_i}.  The Master Theorem
    reads it from 1/det(I - diag(x) A(t)), where A(t) = (t - 1) I + J
    factors per letter, and the coefficient separates (Even & Gillis):
    with u = t - 1 and N = sum e_i,

      {m; e} = [t^m] sum_{0 <= k_i <= e_i} (sum k_i)! prod C(e_i, k_i) u^(e_i - k_i) / k_i!.

    Every term with K = sum k_i has u-degree N - K, so one integer a_K per
    K is carried: adding letter i with k_i = k multiplies by
    C(K + k, k) C(e_i, k), which builds the multinomial step by step.  Then
    [t^m] sum_K a_K (t - 1)^(N - K) = sum_K a_K C(N - K, m) (-1)^(N - K - m).
    The cost is O(N^2) big-integer products, capped at RENCONTRES_CAP
    letters N.
    """
    multidegree = _check_rencontres(m, multidegree)
    total = sum(multidegree)
    if total > RENCONTRES_CAP:
        raise ValueError(f"{total} letters exceed the rencontres cap {RENCONTRES_CAP}")
    a = [1]
    for e in multidegree:
        nxt = [0] * (len(a) + e)
        for big_k, value in enumerate(a):
            for k in range(e + 1):
                nxt[big_k + k] += value * math.comb(big_k + k, k) * math.comb(e, k)
        a = nxt
    return sum(
        (-1) ** (total - big_k - m) * math.comb(total - big_k, m) * value
        for big_k, value in enumerate(a[: total - m + 1])
    )


def multiset_derangement_count(multidegree: Multidegree) -> int:
    """{0; e1 ... en}: no position keeps its original symbol."""
    return generalized_rencontres(0, multidegree)
