"""Generalized divisor sums, the squared-divisor/plane-partition link,
potency and multiplicity, factorization counts, and the totient recast.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Tuple

from .partitions import ordered_factorizations, plane_partition_gf, q_factor

SERIES_KINDS = ("A", "B", "C")


def divisors(n: int) -> List[int]:
    if n < 1:
        raise ValueError("n must be positive")
    small: List[int] = []
    large: List[int] = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def divisor_series_coeff(kind: str, n: int, k: int) -> int:
    """a_{n,k} for series A, B or C.

    Sum over ordered k-tuples (s_1, m_1, ..., s_k, m_k) of positive
    integers with sum s_i m_i = n of the product s_1 ... s_k, where
      A: no restriction (k = 1 gives sigma(n));
      B: each factor signed by the parity of s_i (odd plus, even minus),
         the literal per-factor extension of the odd-minus-even excess;
      C: each conjugate m_i required odd.
    """
    if kind not in SERIES_KINDS:
        raise ValueError(f"kind must be one of {SERIES_KINDS}")
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")

    def factor_values(total: int) -> List[Tuple[int, int]]:
        # (weight s*m = total) -> contributions s per (s, m) pair
        out = []
        for m in range(1, total + 1):
            if total % m == 0:
                s = total // m
                if kind == "C" and m % 2 == 0:
                    continue
                value = s if (kind != "B" or s % 2 == 1) else -s
                out.append((s, value))
        return out

    @lru_cache(maxsize=None)
    def rec(remaining: int, slots: int) -> int:
        if slots == 0:
            return 1 if remaining == 0 else 0
        total = 0
        for weight in range(1, remaining - slots + 2):
            contributions = sum(v for _, v in factor_values(weight))
            if contributions:
                total += contributions * rec(remaining - weight, slots - 1)
        return total

    return rec(n, k)


def sigma(n: int, power: int = 1) -> int:
    return sum(d**power for d in divisors(n))


def sigma2_from_plane_partitions(bound: int) -> List[int]:
    """sigma_2(1..bound) as the coefficients of q = x f'(x)/f(x) for the
    plane-partition product f = prod (1 - x^k)^(-k).

    With f_0 = 1, matching x^n in q*f = x f' gives
    q_n = n f_n - sum_{j=1}^{n-1} q_j f_{n-j}.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    f = plane_partition_gf(bound)
    q = [0] * (bound + 1)
    for n in range(1, bound + 1):
        q[n] = n * f[n] - sum(q[j] * f[n - j] for j in range(1, n))
    return q[1:]


def prime_factorization(n: int) -> Dict[int, int]:
    if n < 1:
        raise ValueError("n must be positive")
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
    return [p for p in range(2, limit + 1) if sieve[p]]


def potency_count(nu: int) -> int:
    """Number of integers with potency nu: the prime partitions of nu,
    the coefficient of b^nu in prod over primes p of 1/(1 - b^p)."""
    if nu < 0:
        raise ValueError("nu must be non-negative")
    table = [1] + [0] * nu  # table[0]: n = 1 with the empty factorization
    for p in _primes_up_to(nu):
        q_factor(table, p, -1)
    return table[nu]


def integers_with_potency(nu: int) -> List[int]:
    """Direct search: all n with potency nu (each is at most 2^nu)."""
    if nu < 0:
        raise ValueError("nu must be non-negative")
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


def factorizations(m: int, ordered: bool = False) -> int:
    """Factorizations of m into parts >= 2: multisets by default,
    sequences when ordered.  m = 1 counts the empty product once."""
    if m < 1:
        raise ValueError("m must be positive")
    if ordered:
        return len(ordered_factorizations(m))

    factors = divisors(m)[1:]  # every factor of a cofactor divides m too

    def count(n: int, max_factor: int) -> int:
        if n == 1:
            return 1
        total = 0
        for d in factors:
            if d > max_factor or d > n:
                break
            if n % d == 0:
                total += count(n // d, d)
        return total

    return count(m, m)


def totient_bipartite(n: int) -> int:
    """Number of splits n = a + (n - a), 1 <= a <= n-1, with the two
    parts coprime; equals the classical totient for n >= 2."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1  # classical convention; no proper splits exist
    return sum(1 for a in range(1, n) if math.gcd(a, n - a) == 1)


def classical_totient(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def divisor_table(kind: str, max_n: int = 16, max_k: int = 5) -> List[List[int]]:
    """Rows n = 1..max_n, columns k = 1..max_k of a_{n,k}."""
    return [
        [divisor_series_coeff(kind, n, k) for k in range(1, max_k + 1)]
        for n in range(1, max_n + 1)
    ]
