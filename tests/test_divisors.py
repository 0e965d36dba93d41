import functools
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combanal import divisors as dv
from combanal.partitions import enumerate_perfect, ordered_factorizations


def brute_series_coeff(kind, n, k):
    """Oracle: explicit sum over ordered k-tuples (s_i, m_i)."""
    pairs = [
        (s, m)
        for s in range(1, n + 1)
        for m in range(1, n + 1)
        if s * m <= n and (kind != "C" or m % 2 == 1)
    ]
    total = 0
    for combo in itertools.product(pairs, repeat=k):
        if sum(s * m for s, m in combo) != n:
            continue
        term = 1
        for s, _ in combo:
            term *= s if (kind != "B" or s % 2 == 1) else -s
        total += term
    return total


# hypothesis draws overlapping tables; each brute-force cell is summed once
cached_brute_series_coeff = functools.lru_cache(maxsize=None)(brute_series_coeff)


class TestDivisorSeries:
    def test_a_series_k1_is_sigma(self):
        assert dv.divisor_series_coeff("A", 6, 1) == 12
        for n in range(1, 101):
            assert dv.divisor_series_coeff("A", n, 1) == dv.sigma(n)

    def test_n1_k1(self):
        for kind in ("A", "B", "C"):
            assert dv.divisor_series_coeff(kind, 1, 1) == 1

    def test_b_series_k1_is_odd_minus_even(self):
        assert dv.divisor_series_coeff("B", 6, 1) == -4
        for n in range(1, 40):
            odd = sum(d for d in dv.divisors(n) if d % 2 == 1)
            even = sum(d for d in dv.divisors(n) if d % 2 == 0)
            assert dv.divisor_series_coeff("B", n, 1) == odd - even

    def test_c_series_k1_is_odd_conjugate_sum(self):
        for n in range(1, 40):
            expected = sum(n // m for m in dv.divisors(n) if m % 2 == 1)
            assert dv.divisor_series_coeff("C", n, 1) == expected

    def test_brute_force_small(self):
        for kind in ("A", "B", "C"):
            for n in range(1, 9):
                for k in range(1, 4):
                    assert dv.divisor_series_coeff(kind, n, k) == brute_series_coeff(
                        kind, n, k
                    ), (kind, n, k)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(dv.SERIES_KINDS), st.integers(1, 12), st.integers(1, 4))
    def test_table_matches_brute_force(self, kind, max_n, max_k):
        table = dv.divisor_table(kind, max_n, max_k)
        for n in range(1, max_n + 1):
            for k in range(1, max_k + 1):
                assert table[n - 1][k - 1] == cached_brute_series_coeff(kind, n, k), (kind, n, k)
                assert dv.divisor_series_coeff(kind, n, k) == table[n - 1][k - 1]

    def test_table_wider_than_tall_matches_brute_force(self):
        for kind in dv.SERIES_KINDS:
            table = dv.divisor_table(kind, 3, 6)
            for n in range(1, 4):
                for k in range(1, 7):
                    assert table[n - 1][k - 1] == cached_brute_series_coeff(kind, n, k), (kind, n, k)

    def test_more_slots_than_weight_is_zero_at_once(self):
        for kind in dv.SERIES_KINDS:
            assert dv.divisor_series_coeff(kind, 1, 10**6) == 0
            assert dv.divisor_series_coeff(kind, 5, 10**12) == 0
        with pytest.raises(ValueError, match="kind"):
            dv.divisor_series_coeff("D", 1, 2)

    def test_cap_is_checked_before_any_work(self):
        with pytest.raises(ValueError, match="cap"):
            dv.divisor_series_coeff("A", 1001, 10)
        with pytest.raises(ValueError, match="cap"):
            dv.divisor_table("C", 10**6, 1)
        with pytest.raises(ValueError, match="divisor-table cap"):
            dv.divisor_table("A", 1, 10**7)

    def test_table_shape(self):
        table = dv.divisor_table("A", max_n=16, max_k=5)
        assert len(table) == 16 and all(len(row) == 5 for row in table)


class TestSigma2:
    def test_n4_is_21(self):
        assert dv.sigma2_from_plane_partitions(4)[3] == 21

    def test_n1(self):
        assert dv.sigma2_from_plane_partitions(1) == [1]

    def test_matches_direct_divisor_squares_to_30(self):
        values = dv.sigma2_from_plane_partitions(30)
        for n in range(1, 31):
            assert values[n - 1] == dv.sigma(n, power=2)


class TestPotency:
    def test_33(self):
        assert dv.potency(33) == 14
        assert dv.multiplicity(33) == 2

    def test_1(self):
        assert dv.potency(1) == 0
        assert dv.multiplicity(1) == 0

    def test_12(self):
        assert dv.potency(12) == 7
        assert dv.multiplicity(12) == 3

    def test_counts(self):
        assert dv.potency_count(1) == 0
        assert dv.potency_count(5) == 2
        assert dv.integers_with_potency(5) == [5, 6]

    def test_counts_match_direct_search_to_20(self):
        for nu in range(0, 21):
            assert dv.potency_count(nu) == len(dv.integers_with_potency(nu)), nu

    def test_goldbach_recast(self):
        for nu in range(6, 61, 2):
            assert dv.goldbach_recast_holds(nu), nu


class TestFactorizations:
    def test_12_unordered(self):
        assert dv.factorizations(12) == 4  # 12, 2*6, 3*4, 2*2*3

    def test_prime(self):
        for p in (2, 3, 5, 7, 11):
            assert dv.factorizations(p) == 1
            assert dv.factorizations(p, ordered=True) == 1

    def test_8_ordered_matches_perfect_partitions_of_7(self):
        assert dv.factorizations(8, ordered=True) == 4 == len(enumerate_perfect(7))

    def test_ordered_matches_perfect_partitions_to_30(self):
        for n in range(1, 31):
            assert dv.factorizations(n + 1, ordered=True) == len(enumerate_perfect(n))

    def test_matches_range_loop_counts_to_300(self):
        # Oracle: trial division over every d in 2..m.
        def unordered(m, max_factor):
            if m == 1:
                return 1
            return sum(
                unordered(m // d, d) for d in range(2, min(m, max_factor) + 1) if m % d == 0
            )

        def ordered(m):
            if m == 1:
                return 1
            return sum(ordered(m // d) for d in range(2, m + 1) if m % d == 0)

        for m in range(1, 301):
            assert dv.factorizations(m) == unordered(m, m), m
            assert dv.factorizations(m, ordered=True) == ordered(m), m

    def test_ordered_count_matches_the_listing_to_2000(self):
        for m in range(1, 2001):
            assert dv.factorizations(m, ordered=True) == len(ordered_factorizations(m)), m

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=10**6))
    @example(720720)
    @example(997920)
    def test_coin_counts_match_the_divisor_recursion(self, m):
        # Oracle: the earlier recursion over the divisors, largest factor
        # first, and the earlier divisibility test over every divisor pair
        ds = dv.divisors(m)

        def unordered(n, max_factor):
            if n == 1:
                return 1
            return sum(unordered(n // d, d) for d in ds[1:] if d <= min(n, max_factor) and n % d == 0)

        h, t = {1: 1}, {1: 0}
        for n in ds[1:]:
            rest = [d for d in ds if d < n and n % d == 0]
            h[n] = sum(h[d] for d in rest)
            t[n] = sum(t[d] + (n // d - 1) * h[d] for d in rest)
        assert dv.factorizations(m) == unordered(m, m)
        assert dv.ordered_factorization_totals(m) == (h[m], t[m])

    def test_ordered_count_of_a_power_of_two(self):
        # an ordered factorization of 2^k is a composition of k
        for k in range(1, 41):
            assert dv.factorizations(2**k, ordered=True) == 2 ** (k - 1)


class TestDivisorList:
    def test_matches_trial_division(self):
        for n in range(1, 401):
            assert dv.divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


class TestTotient:
    def test_6(self):
        assert dv.totient_bipartite(6) == 2

    def test_primes(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert dv.totient_bipartite(p) == p - 1

    def test_12(self):
        assert dv.totient_bipartite(12) == 4 == dv.classical_totient(12)

    def test_matches_classical_to_200(self):
        for n in range(2, 201):
            assert dv.totient_bipartite(n) == dv.classical_totient(n)

    def test_n1_flagged_convention(self):
        assert dv.totient_bipartite(1) == 1

    def test_matches_the_split_count(self):
        # the splits n = a + (n - a) with coprime parts, counted one by one
        for n in range(2, 501):
            splits = sum(1 for a in range(1, n) if math.gcd(a, n - a) == 1)
            assert dv.totient_bipartite(n) == splits, n

    def test_large_n_from_the_factorization(self):
        assert dv.totient_bipartite(10**8) == 4 * 10**7
        assert dv.totient_bipartite(999983 * 1000003) == 999982 * 1000002


class TestTrialDivisionCap:
    # n below (2^20 + 1)^2 needs trial divisors up to 2^20 at most
    def test_edge(self):
        n = (2**20 + 1) ** 2 - 1
        assert dv.prime_factorization(n) == {2: 21, 3: 1, 174763: 1}
        assert dv.divisors(n)[:4] == [1, 2, 3, 4]
        for f in (dv.prime_factorization, dv.divisors):
            with pytest.raises(ValueError, match="past the cap of 1048576$"):
                f(n + 1)

    def test_potency_count_edge(self):
        # sum of 7877 - p over the primes p <= 7876 is 4194191 additions
        assert dv.potency_count(7876) > 0
        for nu in (7877, 10**7, 10**12):
            with pytest.raises(ValueError, match="past the cap of 4194304$"):
                dv.potency_count(nu)
