"""Generalized divisor sums, the squared-divisor/plane-partition link,
potency and multiplicity, factorization counts, and the totient recast.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence, Tuple

from . import DomainError
from .partitions import plane_partition_gf, q_factor

SERIES_KINDS = ("A", "B", "C")
# Integer products k*n^2 that the divisor-series powers may take.
DIVISOR_SERIES_CAP = 10**7
# Cells max_n*max_k of one divisor-series table.
DIVISOR_TABLE_CELL_CAP = 10**5
# Trial divisors, up to sqrt(n), that divisors() and prime_factorization()
# may try: n below (2^20 + 1)^2, so 2^40 and every n below 10^12.
TRIAL_DIVISION_CAP = 2**20
# Table additions, sum of nu + 1 - p over the primes p <= nu, of one
# potency count: about half a second.
POTENCY_ADDITION_CAP = 2**22


def _check_trial_division(n: int) -> None:
    if n < 1:
        raise DomainError("n must be positive")
    if math.isqrt(n) > TRIAL_DIVISION_CAP:
        raise DomainError(
            f"n = {n} needs trial divisors up to {math.isqrt(n)}, past the cap of {TRIAL_DIVISION_CAP}"
        )


def divisors(n: int) -> List[int]:
    _check_trial_division(n)
    small: List[int] = []
    large: List[int] = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def _check_kind(kind: str) -> None:
    if kind not in SERIES_KINDS:
        raise ValueError(f"kind must be one of {SERIES_KINDS}")


def _divisor_series_powers(kind: str, max_n: int, max_k: int) -> List[List[int]]:
    """Rows k = 0..min(max_k, max_n) of [x^0..x^max_n] g^k, g = sum_w c_w x^w.

    c_w = sum over s*m = w of the kind's signed s, so [x^n] g^k sums the
    product s_1 ... s_k over ordered k-tuples of pairs with weight n.
    g^k vanishes below x^k, so the rows k > max_n are zero and not built.
    """
    _check_kind(kind)
    work = max_k * max_n * max_n
    if work > DIVISOR_SERIES_CAP:
        raise DomainError(f"k * n^2 = {work} exceeds the divisor-series cap {DIVISOR_SERIES_CAP}")
    g = [0] * (max_n + 1)
    for s in range(1, max_n + 1):
        value = -s if kind == "B" and s % 2 == 0 else s
        step = 2 * s if kind == "C" else s  # C: odd conjugates m only
        for w in range(s, max_n + 1, step):
            g[w] += value
    powers = [[1] + [0] * max_n]
    for k in range(1, min(max_k, max_n) + 1):
        prev = powers[-1]
        # g^(k-1) vanishes below x^(k-1) and g below x^1
        powers.append(
            [0] * k
            + [
                sum(g[w] * prev[n - w] for w in range(1, n - k + 2))
                for n in range(k, max_n + 1)
            ]
        )
    return powers


def divisor_series_coeff(kind: str, n: int, k: int) -> int:
    """a_{n,k} for series A, B or C.

    Sum over ordered k-tuples (s_1, m_1, ..., s_k, m_k) of positive
    integers with sum s_i m_i = n of the product s_1 ... s_k, where
      A: no restriction (k = 1 gives sigma(n));
      B: each factor signed by the parity of s_i (odd plus, even minus),
         the literal per-factor extension of the odd-minus-even excess;
      C: each conjugate m_i required odd.
    The tuples factor over the slots, so a_{n,k} = [x^n] g^k for the
    divisor generating function g = sum_w c_w x^w, c_w the single-slot
    sum at weight w; the powers cost k*n^2 integer products, capped at
    DIVISOR_SERIES_CAP.  Every part has weight at least 1, so a_{n,k} = 0
    for k > n at no cost.
    """
    if n < 1 or k < 1:
        raise DomainError("n and k must be positive")
    _check_kind(kind)
    if k > n:
        return 0
    return _divisor_series_powers(kind, n, k)[k][n]


def sigma(n: int, power: int = 1) -> int:
    return sum(d**power for d in divisors(n))


def sigma2_from_plane_partitions(bound: int) -> List[int]:
    """sigma_2(1..bound) as the coefficients of q = x f'(x)/f(x) for the
    plane-partition product f = prod (1 - x^k)^(-k).

    With f_0 = 1, matching x^n in q*f = x f' gives
    q_n = n f_n - sum_{j=1}^{n-1} q_j f_{n-j}.
    """
    if bound < 1:
        raise DomainError("bound must be at least 1")
    f = plane_partition_gf(bound)
    q = [0] * (bound + 1)
    for n in range(1, bound + 1):
        q[n] = n * f[n] - sum(q[j] * f[n - j] for j in range(1, n))
    return q[1:]


def prime_factorization(n: int) -> Dict[int, int]:
    _check_trial_division(n)
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def potency(n: int) -> int:
    """Sum of exponent * prime over the factorization; 0 for n = 1."""
    return sum(e * p for p, e in prime_factorization(n).items())


def multiplicity(n: int) -> int:
    """Total number of prime factors with repetition; 0 for n = 1."""
    return sum(prime_factorization(n).values())


def _primes_up_to(limit: int) -> List[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return list(itertools.compress(range(limit + 1), sieve))


def potency_count(nu: int) -> int:
    """Number of integers with potency nu: the prime partitions of nu,
    the coefficient of b^nu in prod over primes p of 1/(1 - b^p).

    Dividing by 1 - b^p takes nu + 1 - p additions; past
    POTENCY_ADDITION_CAP of them the count is refused.  The prime 2 alone
    takes nu - 1, so a nu past the cap is refused before the sieve.
    """
    if nu < 0:
        raise DomainError("nu must be non-negative")
    primes = _primes_up_to(nu) if nu - 1 <= POTENCY_ADDITION_CAP else [2]
    additions = sum(nu + 1 - p for p in primes)
    if additions > POTENCY_ADDITION_CAP:
        raise DomainError(
            f"potency {nu} needs {additions} or more table additions, past the cap of {POTENCY_ADDITION_CAP}"
        )
    table = [1] + [0] * nu  # table[0]: n = 1 with the empty factorization
    for p in primes:
        q_factor(table, p, -1)
    return table[nu]


def integers_with_potency(nu: int) -> List[int]:
    """Direct search: all n with potency nu (each is at most 2^nu)."""
    if nu < 0:
        raise DomainError("nu must be non-negative")
    if nu == 0:
        return [1]
    out = []

    def rec(primes: List[int], idx: int, remaining: int, product: int):
        if remaining == 0:
            out.append(product)
            return
        for i in range(idx, len(primes)):
            p = primes[i]
            if p > remaining:
                break
            rec(primes, i, remaining - p, product * p)

    rec(_primes_up_to(nu), 0, nu, 1)
    return sorted(out)


def goldbach_recast_holds(nu: int) -> bool:
    """Some integer of potency nu has multiplicity exactly 2."""
    return any(multiplicity(n) == 2 for n in integers_with_potency(nu))


def _divisor_lattice(m: int) -> Tuple[List[int], List[Tuple[int, int]]]:
    """The divisors of m indexed by their prime-exponent vectors, and the
    (exponent, stride) of each prime: divisor p1^a1 ... pk^ak sits at
    index sum a_i * stride_i, so m itself is last and every proper
    divisor of a divisor has a smaller index."""
    values = [1]
    radix: List[Tuple[int, int]] = []
    for p, e in sorted(prime_factorization(m).items()):
        radix.append((e, len(values)))
        values = [v * p**a for a in range(e + 1) for v in values]
    return values, radix


def _cofactor_divisors(i: int, radix: Sequence[Tuple[int, int]]) -> List[int]:
    """Indices, ascending, of the divisors of m / (divisor at index i)."""
    box = [0]
    for e, stride in radix:
        room = e - i // stride % (e + 1)
        box = [x + a * stride for a in range(room + 1) for x in box]
    return box


def ordered_factorization_totals(m: int) -> Tuple[int, int]:
    """(H(m), T(m)): the ordered factorizations of m into factors >= 2,
    and the sum of f - 1 over the factors f of all of them, which is the
    number of parts of all the perfect partitions of m - 1.  A last
    factor f >= 2 extends each of the H(c) factorizations of c = n/f, so
    H(n) = sum H(c) and T(n) = sum T(c) + (f - 1) H(c) over the pairs
    c * f = n, with H(1) = 1 and T(1) = 0.  Each divisor c, in index
    order, pushes into its multiples c * f | m: prod (e+1)(e+2)/2 pairs
    over the prime exponents e of m, no divisibility test."""
    values, radix = _divisor_lattice(m)
    h = [1] + [0] * (len(values) - 1)
    t = [0] * len(values)
    for c in range(len(values)):
        hc, tc = h[c], t[c]
        for f in _cofactor_divisors(c, radix)[1:]:
            h[c + f] += hc
            t[c + f] += tc + (values[f] - 1) * hc
    return h[-1], t[-1]


def factorizations(m: int, ordered: bool = False) -> int:
    """Factorizations of m into parts >= 2: multisets by default,
    sequences when ordered.  m = 1 counts the empty product once.

    The multisets are counted as coins: each factor d >= 2 of m in turn
    may be used any number of times, so ways[d * c] += ways[c] over the
    divisors c of m/d in index order, where c/d comes before c and has
    already counted the uses of d; the same pairs as the ordered count."""
    if m < 1:
        raise DomainError("m must be positive")
    if ordered:
        return ordered_factorization_totals(m)[0]
    values, radix = _divisor_lattice(m)
    ways = [1] + [0] * (len(values) - 1)
    for d in range(1, len(values)):
        for c in _cofactor_divisors(d, radix):
            ways[d + c] += ways[c]
    return ways[-1]


def totient_bipartite(n: int) -> int:
    """Number of splits n = a + (n - a), 1 <= a <= n-1, with the two
    parts coprime.  gcd(a, n - a) = gcd(a, n), and a = n is never coprime
    to n >= 2, so the count is the totient phi(n) = n prod (1 - 1/p) over
    the primes p dividing n.  n = 1 has no proper split and gives
    phi(1) = 1, the classical convention."""
    for p in prime_factorization(n):
        n = n // p * (p - 1)
    return n


def classical_totient(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def divisor_table(kind: str, max_n: int = 16, max_k: int = 5) -> List[List[int]]:
    """Rows n = 1..max_n, columns k = 1..max_k of a_{n,k}."""
    cells = max_n * max_k
    if cells > DIVISOR_TABLE_CELL_CAP:
        raise DomainError(
            f"{cells} table cells exceed the divisor-table cap {DIVISOR_TABLE_CELL_CAP}"
        )
    powers = _divisor_series_powers(kind, max_n, max_k)
    return [
        [powers[k][n] if k <= n else 0 for k in range(1, max_k + 1)]
        for n in range(1, max_n + 1)
    ]
