"""The Master Theorem, and the derangement family it was built to solve.

For linear forms X_i = sum_j a_ij x_j, the coefficient of x^e in
prod X_i^{e_i} equals the same coefficient in 1/V_n, where
V_n = det(I - diag(x) A).  `master_coefficient` reads it as a central
mixed difference of F = prod X_i^{e_i}:

  [x^e] F = (1 / (2^N prod e_j!)) sum_{0 <= t <= e} (-1)^|t| prod_j C(e_j, t_j) F(e - 2t),

with N = sum e_j.  The terms at t and e - t are equal, because the map
sends the point e - 2t to its negative and F(-d) = (-1)^N F(d), so half of
the points are walked.  `master_denominator` prints V_n from the principal
minors of A.
"""

from __future__ import annotations

import itertools
import math
from operator import add, itemgetter, mul
from typing import List, Sequence, Tuple

from . import DomainError
from .exactcore import MultiPoly, Scalar, poly_ring

Multidegree = Tuple[int, ...]

DEGREE_CAP = 30
# Finite-difference products prod(e_j + 1) * n^2: the points of the one-sided
# difference, n^2 integer products each.  master_coefficient walks about half of
# those points at one vector addition and n powers each; about 0.04 s at the cap.
FINITE_DIFFERENCE_CAP = 2**22
# Matrix order n of master_denominator: 2^n principal minors, 0.3 s at n = 13.
DENOMINATOR_ORDER_CAP = 13
# Letters sum(e_i) that generalized_rencontres takes, and n of derangements.
RENCONTRES_CAP = 200


def _names(n: int) -> Tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


def _check_square(matrix: Sequence[Sequence[int]]) -> int:
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise DomainError("coefficient matrix must be square")
    return n


def _det(m: List[List[int]]) -> int:
    """Determinant of a square integer matrix (1 when empty) by Bareiss
    fraction-free elimination, which divides exactly at every step."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, pivot_row = m[k][k], m[k]
        for row in m[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - lead * pivot_row[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def master_denominator(matrix: Sequence[Sequence[int]]) -> MultiPoly:
    """V_n = det(I - diag(x1..xn) * A) = sum over subsets S of
    (-1)^|S| det(A[S, S]) prod_{i in S} x_i: each x_i appears to degree at
    most one, and the principal minors of A are its coefficients."""
    n = _check_square(matrix)
    if n > DENOMINATOR_ORDER_CAP:
        raise DomainError(f"matrix order {n} exceeds the denominator cap {DENOMINATOR_ORDER_CAP}")
    terms = {}
    for exp in itertools.product((0, 1), repeat=n):
        s = [i for i in range(n) if exp[i]]
        terms[exp] = (-1) ** len(s) * _det([[matrix[i][j] for j in s] for i in s])
    return MultiPoly(_names(n), terms)


def master_coefficient(matrix: Sequence[Sequence[int]], multidegree: Multidegree) -> int:
    """Coefficient of x^e in 1/V_n, equal to that in the degree-N form
    F(x) = prod_i (sum_j a_ij x_j)^{e_i}, N = sum e_j, read as a central
    mixed difference of step 2 (Glynn's form of Ryser's permanent formula,
    with repeated rows and columns):

      [x^e] F = (1 / (2^N prod e_j!)) sum_{0 <= t <= e} (-1)^|t| prod_j C(e_j, t_j) F(e - 2t).

    On a monomial x^m of degree N the sum over t factors into one central
    difference per column, 2^e_j e_j! when m_j = e_j and 0 when m_j < e_j,
    so only x^e survives (a monomial of degree N other than x^e has some
    m_j < e_j).  The terms pair up:
      t -> e - t sends d = e - 2t to -d and multiplies the weight by (-1)^N;
      F(-d) = (-1)^N F(d), since F is a form of degree N, so the two terms are equal.
    So the walk visits one point of each pair and divides by 2^(N-1): depth-first over
    the columns with e_j > 0, while every earlier t_j sits at its middle
    e_j / 2 the next column takes only its lower half, and the all-middle
    point d = 0 is skipped, since F(0) = 0 for N > 0.  The row sums
    start at sum_j a_ij e_j and each step of t_j adds -2 a_ij to them, so a
    point costs one vector addition and the powers of its row sums.
    """
    n = _check_square(matrix)
    multidegree = tuple(multidegree)
    if len(multidegree) != n:
        raise DomainError("multidegree length must match the matrix size")
    if any(e < 0 for e in multidegree):
        raise DomainError("multidegree entries must be non-negative")
    total = sum(multidegree)
    if total > DEGREE_CAP:
        raise DomainError(f"total degree {total} exceeds the cap {DEGREE_CAP}")
    work = math.prod(e + 1 for e in multidegree) * n * n
    if work > FINITE_DIFFERENCE_CAP:
        raise DomainError(
            f"{work} finite-difference products exceed the cap {FINITE_DIFFERENCE_CAP}"
        )
    if not total:
        return 1
    rows = [row for row, e in zip(matrix, multidegree) if e]
    powers = [e for e in multidegree if e]
    # (e_j, the step -2 a_.j of the row sums, the weights (-1)^t C(e_j, t)),
    # the largest e_j innermost so that the loops over single points are longest
    columns = sorted(
        (
            (e, [-2 * row[j] for row in rows], [(-1) ** t * math.comb(e, t) for t in range(e + 1)])
            for j, e in enumerate(multidegree)
            if e
        ),
        key=itemgetter(0),
    )
    last = len(columns) - 1

    def walk(level: int, sums: List[int], free: bool) -> int:
        # sum of weight * F over the points of columns[level:], from the row
        # sums at t_level = 0; `free` once an earlier t_j is below its middle
        e, step, weights = columns[level]
        acc = 0
        visited = weights if free else weights[: (e + 1) // 2]
        if level == last:
            for w in visited:
                acc += w * math.prod(map(pow, sums, powers))
                sums = list(map(add, sums, step))
            return acc
        for w in visited:
            acc += w * walk(level + 1, sums, True)
            sums = list(map(add, sums, step))
        if not free and e % 2 == 0:
            acc += weights[e // 2] * walk(level + 1, sums, False)
        return acc

    start = [sum(map(mul, row, multidegree)) for row in rows]
    return walk(0, start, False) // (2 ** (total - 1) * math.prod(map(math.factorial, powers)))


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
    P_n = sum_{j=2..n} (j-1) C(n, j) P_{n-j}, with P_0 = 1, P_1 = 0.
    The rencontres number {0; 1^n}, so capped at RENCONTRES_CAP letters."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if n > RENCONTRES_CAP:
        raise DomainError(f"{n} letters exceed the rencontres cap {RENCONTRES_CAP}")
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


def _check_rencontres(m: int, multidegree: Multidegree) -> Multidegree:
    multidegree = tuple(multidegree)
    if any(e < 0 for e in multidegree) or not any(multidegree):
        raise DomainError("multidegree must be non-negative and nonzero")
    if not 0 <= m <= sum(multidegree):
        raise DomainError("m out of range")
    return multidegree


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
        raise DomainError(f"{total} letters exceed the rencontres cap {RENCONTRES_CAP}")
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

