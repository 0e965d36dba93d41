import gc
import itertools
import math
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combanal import partitions as pt
from enumeration_support import (
    box_product_oracle,
    constraints,
    enumerate_partitions_oracle,
    perfect_partitions_oracle,
    plane_partitions_oracle,
    warburton_route1,
    warburton_route2,
)
from series_support import pentagonal_table_oracle

PENTAGONAL_TABLE = pentagonal_table_oracle(pt.PARTITION_TABLE_CAP)


def brute_partitions(n, max_part=None):
    """Independent partition enumerator used as the oracle."""
    max_part = n if max_part is None else max_part

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return list(rec(n, max_part))


@lru_cache(maxsize=None)
def plane_partitions(n):
    return pt.enumerate_plane_partitions(n)


RELATION_CHECKS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "*": lambda a, b: True,
}


def relation_pattern_oracle(n, pattern):
    """Every sequence by plain recursion: the oracle for the slot table."""
    checks = [RELATION_CHECKS[rel] for rel in pattern]
    s = len(pattern) + 1

    def rec(remaining, slot, prev):
        if s - slot == 1:
            return int(remaining >= 1 and (slot == 0 or checks[slot - 1](prev, remaining)))
        return sum(
            rec(remaining - v, slot + 1, v)
            for v in range(1, remaining - (s - slot - 1) + 1)
            if slot == 0 or checks[slot - 1](prev, v)
        )

    return rec(n, 0, None)


def relation_pattern_table_oracle(n, pattern):
    """The earlier route: the full slot table to n.  below[r][x] counts the
    fillings of the current slot and those after it that sum to r and
    start with a part at most x, filled slot by slot from the last."""
    s = len(pattern) + 1
    below = [[0] * r + [1] for r in range(n + 1)]
    below[0] = [0]
    for slot in range(s - 2, -1, -1):
        low, high = pt.RELATIONS[pattern[slot]]
        rows = [[0]]
        for r in range(1, n - slot + 1):
            row = [0]
            acc = 0
            for v in range(1, r):
                t = r - v
                nxt = below[t]
                acc += nxt[min(t, v + high) if high is not None else t] - (
                    nxt[min(t, v + low)] if low is not None else 0
                )
                row.append(acc)
            row.append(acc)
            rows.append(row)
        below = rows
    return below[n][n]


# Frozen from the De Morgan table (x up to 10, y = greatest part).  The
# printed row for x = 8 sums to 21 instead of p(8) = 22: its (8, 4) cell
# is a transcription slip for 5 (the five partitions with greatest part 4
# are 44, 431, 422, 4211, 41111), so the corrected value is frozen here.
DEMORGAN_TABLE = {
    (10, 1): 1, (10, 2): 5, (10, 3): 8, (10, 4): 9, (10, 5): 7,
    (10, 6): 5, (10, 7): 3, (10, 8): 2, (10, 9): 1, (10, 10): 1,
    (9, 3): 7, (8, 3): 5, (7, 3): 4, (6, 3): 3, (5, 3): 2,
    (6, 2): 3, (5, 2): 2, (4, 2): 2, (9, 4): 6, (8, 4): 5,
}

# Row 12 of the Warburton table: partitions of 12 by number of parts.
WARBURTON_ROW_12 = (1, 6, 12, 15, 13, 11, 7, 5, 3, 2, 1, 1)


class TestEnumerateAndCount:
    def test_partitions_of_four(self):
        got = pt.enumerate_partitions(4)
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_partition_of_zero(self):
        assert pt.enumerate_partitions(0) == [()]

    def test_fourteen_tripartitions_of_thirteen(self):
        got = pt.enumerate_partitions(
            13, pt.PartitionConstraint(num_parts=3, min_part=1)
        )
        assert len(got) == 14

    def test_count_matches_enumeration_up_to_40(self):
        for n in range(41):
            assert pt.count_partitions(n) == len(pt.enumerate_partitions(n))

    def test_published_table_values(self):
        assert pt.count_partitions(0) == 1
        assert pt.count_partitions(27) == 3010
        assert pt.count_partitions(30) == 5604
        assert pt.count_partitions(38) == 26015

    def test_p200_fast(self):
        # full table to 200 by the pentagonal recurrence
        assert pt.count_partitions(200) == 3972999029388

    def test_fresh_table_to_twelve(self):
        # rows 1, 5 and 6 read one offset on a side
        pt._PARTITION_TABLE[:] = [1]
        assert pt.count_partitions(12) == 77
        assert pt._PARTITION_TABLE == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
        assert pt.partition_counts(12) == pentagonal_table_oracle(12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 3000), min_size=1, max_size=12))
    def test_table_extended_in_steps_matches_the_oracle(self, ns):
        pt._PARTITION_TABLE[:] = [1]
        for n in sorted(ns):
            assert pt.count_partitions(n) == PENTAGONAL_TABLE[n]
            assert pt._PARTITION_TABLE == PENTAGONAL_TABLE[: len(pt._PARTITION_TABLE)]
        assert pt.partition_counts(max(ns)) == PENTAGONAL_TABLE[: max(ns) + 1]

    def test_table_read_one_row_at_a_time(self):
        pt._PARTITION_TABLE[:] = [1]
        assert [pt.count_partitions(m) for m in range(201)] == pt.partition_counts(200)
        assert pt.partition_counts(200) == PENTAGONAL_TABLE[:201]

    def test_fresh_table_to_the_cap_matches_the_oracle(self):
        pt._PARTITION_TABLE[:] = [1]
        assert pt.partition_counts(pt.PARTITION_TABLE_CAP) == PENTAGONAL_TABLE

    def test_ramanujan_congruences(self):
        for n in range(101):
            assert pt.count_partitions(5 * n + 4) % 5 == 0
            assert pt.count_partitions(7 * n + 5) % 7 == 0

    def test_constraints(self):
        got = pt.enumerate_partitions(
            6, pt.PartitionConstraint(distinct=True)
        )
        assert got == [(6,), (5, 1), (4, 2), (3, 2, 1)]
        got = pt.enumerate_partitions(6, pt.PartitionConstraint(max_part=2))
        assert all(max(p) <= 2 for p in got)
        assert pt.enumerate_partitions(
            5, pt.PartitionConstraint(allowed_parts=frozenset({4}))
        ) == []


class TestSuffixTableEnumeration:
    @settings(max_examples=300)
    @given(st.integers(0, 24), constraints())
    def test_matches_backtracking_oracle(self, n, c):
        assert pt.enumerate_partitions(n, c) == enumerate_partitions_oracle(n, c)

    def test_unconstrained_matches_oracle(self):
        for n in range(25):
            assert pt.enumerate_partitions(n) == enumerate_partitions_oracle(
                n, pt.PartitionConstraint()
            )

    def test_deep_single_value_answers(self):
        # one part value: the recursion is one level deep, not 3000
        assert pt.enumerate_partitions(3000, pt.PartitionConstraint(max_part=1)) == [(1,) * 3000]

    def test_memo_is_freed_without_the_collector(self):
        # the walk's dead-end memo, units and batch buffer: a reference
        # cycle would keep them alive until the next full collection
        gc.collect()
        gc.disable()
        try:
            pt.enumerate_partitions(12, pt.PartitionConstraint(num_parts=2))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_three_parts_of_three_hundred(self):
        got = pt.enumerate_partitions(300, pt.PartitionConstraint(num_parts=3))
        assert len(got) == 7500 == round(300**2 / 12)
        assert got[0] == (298, 1, 1) and got[-1] == (100, 100, 100)

    @settings(max_examples=200)
    @given(st.integers(0, 20), constraints(), st.sampled_from([" ", "+"]))
    def test_string_batches_join_the_oracle(self, n, c, sep):
        lines = [line for batch in pt.partition_batches(n, c, sep) for line in batch]
        assert lines == [sep.join(map(str, p)) for p in enumerate_partitions_oracle(n, c)]

    def test_batches_hold_about_4096(self):
        sizes = [len(batch) for batch in pt.partition_batches(40, sep=" ")]
        assert sum(sizes) == pt.count_partitions(40)
        assert len(sizes) > 1 and max(sizes) < 2 * 4096


class TestGcdPruning:
    @staticmethod
    def unpruned(n, c):
        walk = pt._PartitionWalk(n, c, pt._Units(lambda v: (v,)), (), 0)
        walk.gcds = None
        return [p for batch in walk.batches() for p in batch]

    @settings(max_examples=200)
    @given(
        st.integers(0, 40),
        st.integers(2, 5),
        st.frozensets(st.integers(1, 8), min_size=1, max_size=5),
        st.none() | st.integers(0, 8),
        st.booleans(),
    )
    def test_common_factor_matches_the_unpruned_walk(self, n, factor, multiples, parts, distinct):
        c = pt.PartitionConstraint(
            allowed_parts=frozenset(factor * m for m in multiples), num_parts=parts, distinct=distinct
        )
        assert pt.enumerate_partitions(n, c) == self.unpruned(n, c)


class TestListingCap:
    def test_unconstrained_past_the_cap_is_refused_before_any_batch(self):
        assert pt.count_partitions(55) <= pt.PARTITION_ENUM_CAP < pt.count_partitions(56)
        for n in (56, 90, 10**30):
            with pytest.raises(ValueError, match="output cap"):
                pt.partition_batches(n)

    def test_constrained_listing_past_p_n_is_counted(self):
        assert len(pt.enumerate_partitions(100, pt.PartitionConstraint(num_parts=2))) == 50
        for n, c in [
            (100, pt.PartitionConstraint(max_part=100)),
            (10**9, pt.PartitionConstraint(max_part=2)),  # one closed tail of 5 * 10^8 + 1 lines
            (10**9, pt.PartitionConstraint(distinct=True)),
        ]:
            with pytest.raises(ValueError, match="output cap"):
                pt.partition_batches(n, c)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_few_parts_bound_holds(self, k):
        # the bound that lets a listing of at most k parts skip its count
        for n in range(80):
            count = sum(pt.count_exact_parts(n, i) for i in range(k + 1))
            assert count <= math.comb(n + k * (k + 1) // 2 - 1, k - 1) // math.factorial(k)

    def test_only_listings_past_the_bound_are_counted(self, monkeypatch):
        walks = []
        walk = pt._PartitionWalk
        monkeypatch.setattr(pt, "_PartitionWalk", lambda *a: walks.append(a) or walk(*a))
        assert len(pt.enumerate_partitions(300, pt.PartitionConstraint(num_parts=3))) == 7500
        assert len(walks) == 1  # the bound is 7726
        walks.clear()
        got = pt.enumerate_partitions(60, pt.PartitionConstraint(num_parts=10))
        assert len(got) == pt.count_exact_parts(60, 10) and len(walks) == 2  # a count, then the list


class TestDeMorgan:
    def test_table_values(self):
        for (x, y), expected in DEMORGAN_TABLE.items():
            assert pt.demorgan_u(x, y) == expected

    def test_u10_3_is_8(self):
        assert pt.demorgan_u(10, 3) == 8

    def test_u_x_1_is_one(self):
        for x in range(1, 30):
            assert pt.demorgan_u(x, 1) == 1

    def test_row_sums_are_p_x(self):
        for x in range(1, 21):
            assert sum(pt.demorgan_u(x, y) for y in range(1, x + 1)) == pt.count_partitions(x)

    def test_exact_greatest_part_reading(self):
        for x in range(1, 13):
            for y in range(1, x + 1):
                oracle = sum(1 for p in brute_partitions(x) if p and p[0] == y)
                assert pt.demorgan_u(x, y) == oracle

    def test_row_reads_the_recurrence(self):
        for x in range(-2, 40):
            assert pt.demorgan_row(x) == [pt.demorgan_u(x, y) for y in range(1, x + 1)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 150))
    def test_random_row_reads_the_recurrence(self, x):
        assert pt.demorgan_row(x) == [pt.demorgan_u(x, y) for y in range(1, x + 1)]

    def test_euler_duality_with_warburton(self):
        for x in range(1, 21):
            for y in range(1, x + 1):
                assert pt.demorgan_u(x, y) == pt.warburton_count(x, y, 1)


class TestClosedForms:
    def test_u2(self):
        assert pt.closed_form_u2(5) == 2
        assert pt.closed_form_u2(2) == 1
        assert pt.closed_form_u2(101) == pt.demorgan_u(101, 2) == 50

    def test_u2_matches_recurrence_to_200(self):
        for x in range(2, 201):
            assert pt.closed_form_u2(x) == pt.demorgan_u(x, 2)

    def test_u3(self):
        assert pt.closed_form_u3(10) == 8
        assert pt.closed_form_u3(3) == 1
        assert pt.closed_form_u3(60) == pt.demorgan_u(60, 3) == 300

    def test_u3_matches_recurrence_to_200(self):
        for x in range(3, 201):
            assert pt.closed_form_u3(x) == pt.demorgan_u(x, 3)

    def test_u3_periodic_table_matches_root_of_unity_form(self):
        # beta^x + gamma^x is 2 when 3 | x and -1 otherwise.
        for x in range(0, 6):
            root_sum = 2 if x % 3 == 0 else -1
            assert pt._U3_PERIODIC[x] == -7 - 9 * (-1) ** x + 8 * root_sum

    def test_u3_is_nearest_integer_to_x2_over_12(self):
        for x in range(3, 201):
            nearest = int(round(x * x / 12))
            assert pt.closed_form_u3(x) == nearest


class TestWarburton:
    def test_101_example_both_routes(self):
        assert warburton_route1(31, 5, 3) == 101
        assert warburton_route2(31, 5, 3) == 101
        assert pt.warburton_count(31, 5, 3) == 101

    def test_route2_partial_sums(self):
        # [16, z_1] for z = 0..5 are 0, 1, 8, 21, 34, 37
        values = [pt.count_exact_parts(16, z) for z in range(6)]
        assert values == [0, 1, 8, 21, 34, 37]

    def test_all_parts_equal_h(self):
        for p in range(1, 6):
            for h in range(1, 5):
                assert pt.warburton_count(p * h, p, h) == 1

    def test_brute_force_agreement(self):
        for n in range(0, 18):
            for p in range(0, 6):
                for h in range(1, 4):
                    oracle = sum(
                        1
                        for part in brute_partitions(n)
                        if len(part) == p and all(v >= h for v in part)
                    )
                    assert pt.warburton_count(n, p, h) == oracle

    def test_table_matches_recursion(self):
        @lru_cache(maxsize=None)
        def exact_parts(n, k):
            # the earlier memoised recursion, kept as the oracle
            if n == 0 and k == 0:
                return 1
            if n <= 0 or k <= 0 or k > n:
                return 0
            return exact_parts(n - 1, k - 1) + exact_parts(n - k, k)

        for n in range(0, 61):
            for k in range(0, 62):
                assert pt.count_exact_parts(n, k) == exact_parts(n, k), (n, k)
            for p in range(0, 16):
                for h in range(1, 5):
                    m = n - p * h
                    expected = sum(exact_parts(m, z) for z in range(p + 1)) if m >= 0 else 0
                    assert pt.warburton_count(n, p, h) == expected, (n, p, h)

    def test_table_cap_refuses_before_work(self):
        # the cap bounds q-series work; no table is built
        with pytest.raises(ValueError, match="n \\* parts = 5000000 exceeds the exact-parts work cap"):
            pt.warburton_count(100000, 50, 1)
        with pytest.raises(ValueError, match="exceeds the exact-parts work cap"):
            pt.warburton_count(pt.EXACT_PARTS_CELL_CAP + 1, 1, 1)
        with pytest.raises(ValueError, match="x \\* x = 1002001 exceeds the exact-parts work cap"):
            pt.demorgan_row(1001)

    def test_table8_row_12(self):
        row = tuple(pt.warburton_count(12, p, 1) for p in range(1, 13))
        assert row == WARBURTON_ROW_12
        assert sum(row) == 77

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 10), st.integers(1, 5))
    def test_random_count_is_the_listing_length(self, n, p, h):
        listing = pt.enumerate_partitions(n, pt.PartitionConstraint(num_parts=p, min_part=h))
        assert pt.warburton_count(n, p, h) == len(listing)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 300), st.integers(0, 30), st.integers(1, 8))
    def test_random_count_matches_both_routes(self, n, p, h):
        assert pt.warburton_count(n, p, h) == warburton_route1(n, p, h) == warburton_route2(n, p, h)


class TestCayley:
    def test_p12_of_5(self):
        assert pt.cayley_denumerant([1, 2], 5) == 3

    def test_p1(self):
        for n in range(10):
            assert pt.cayley_denumerant([1], n) == 1

    def test_p123_of_6(self):
        oracle = sum(
            1
            for a in range(7)
            for b in range(4)
            for c in range(3)
            if a + 2 * b + 3 * c == 6
        )
        assert oracle == 7
        assert pt.cayley_denumerant([1, 2, 3], 6) == 7

    def test_closed_form_matches_dp(self):
        for q in range(0, 60):
            assert pt.cayley_denumerant([1, 2], q) == pt.cayley_p12_closed_form(q)


class TestConjugate:
    def test_hand_example(self):
        assert pt.conjugate((4, 2, 1)) == (3, 2, 1, 1)

    def test_empty(self):
        assert pt.conjugate(()) == ()

    def test_involution(self):
        for n in range(13):
            for p in brute_partitions(n):
                assert pt.conjugate(pt.conjugate(p)) == p

    def test_column_reading(self):
        for n in range(1, 13):
            for p in brute_partitions(n):
                assert pt.conjugate(p) == tuple(sum(1 for q in p if q > i) for i in range(p[0]))

    def test_cap_on_the_conjugates_parts(self):
        cap = pt.CONJUGATE_PARTS_CAP
        assert pt.conjugate((cap, 1)) == (2,) + (1,) * (cap - 1)
        for p in [(cap + 1,), (10**20, 1)]:
            with pytest.raises(ValueError, match="past the cap"):
                pt.conjugate(p)


class TestModular:
    def test_mod4(self):
        assert pt.modular_partition((8, 5, 2, 1), 4) == [(4, 4), (4, 1), (2,), (1,)]

    def test_mod1_unary(self):
        assert pt.modular_partition((3, 2), 1) == [(1, 1, 1), (1, 1)]

    def test_mod3(self):
        assert pt.modular_partition((8, 5, 2, 1), 3) == [(3, 3, 2), (3, 2), (2,), (1,)]

    def test_full_table_for_8521(self):
        expected = {
            1: [(1,) * 8, (1,) * 5, (1, 1), (1,)],
            2: [(2, 2, 2, 2), (2, 2, 1), (2,), (1,)],
            3: [(3, 3, 2), (3, 2), (2,), (1,)],
            4: [(4, 4), (4, 1), (2,), (1,)],
            5: [(5, 3), (5,), (2,), (1,)],
            6: [(6, 2), (5,), (2,), (1,)],
            7: [(7, 1), (5,), (2,), (1,)],
            8: [(8,), (5,), (2,), (1,)],
        }
        for m, rows in expected.items():
            assert pt.modular_partition((8, 5, 2, 1), m) == rows

    def test_rows_sum_to_parts(self):
        for m in range(1, 9):
            for row, part in zip(pt.modular_partition((9, 4, 3), m), (9, 4, 3)):
                assert sum(row) == part


class TestParity:
    def test_first_20_macmahon_digits(self):
        assert pt.macmahon_digits(20) == "10111110000111011101"

    def test_parity_1000_odd(self):
        assert pt.parity_p(1000) == "odd"

    def test_parity_4(self):
        assert pt.parity_p(4) == "odd"


class TestPerfect:
    def test_421_is_perfect(self):
        assert pt.is_perfect((4, 2, 1))

    def test_enumerate_perfect_1(self):
        assert pt.enumerate_perfect(1) == [(1,)]

    def test_enumerate_perfect_7(self):
        got = pt.enumerate_perfect(7)
        assert len(got) == 4
        assert all(pt.is_perfect(p) for p in got)
        brute = [p for p in brute_partitions(7) if pt.is_perfect(p)]
        assert sorted(got) == sorted(brute)

    def test_completeness_to_30(self):
        for n in range(1, 31):
            brute = sorted(p for p in brute_partitions(n) if pt.is_perfect(p))
            assert sorted(pt.enumerate_perfect(n)) == brute

    def test_matches_the_sorted_factorization_oracle(self):
        for n in list(range(1, 401)) + [719, 5039]:
            assert pt.enumerate_perfect(n) == perfect_partitions_oracle(n), n

    def test_subperfect(self):
        assert pt.is_subperfect((3, 1))
        assert not pt.is_subperfect((2, 1))


class TestScale:
    def test_binary(self):
        scale = pt.scale_of_numeration((1, 1, 1))
        assert scale.place_values == (1, 2, 4)
        assert scale.limit == 7
        assert pt.is_perfect(scale.partition())

    def test_decimal_two_digit(self):
        scale = pt.scale_of_numeration((9, 9))
        assert scale.limit == 99
        seen = set()
        for v in range(100):
            d = scale.digits(v)
            assert all(di <= a for di, a in zip(d, scale.alphas))
            assert d not in seen
            seen.add(d)
            assert sum(di * p for di, p in zip(d, scale.place_values)) == v

    def test_single_place(self):
        scale = pt.scale_of_numeration((5,))
        assert scale.limit == 5
        assert scale.partition() == (1, 1, 1, 1, 1)


class TestGeneralizedEuler:
    def brute_counts(self, ps, n):
        allowed = [v for v in range(1, n + 1) if all(v % p for p in ps)]
        a = sum(
            1
            for r in range(len(allowed) + 1)
            for combo in itertools.combinations(allowed, r)
            if sum(combo) == n
        )
        odd = [v for v in allowed if v % 2]

        def count_b(remaining, cap_idx):
            if remaining == 0:
                return 1
            total = 0
            for i in range(cap_idx, len(odd)):
                if odd[i] <= remaining:
                    total += count_b(remaining - odd[i], i)
            return total

        return a, count_b(n, 0)

    def test_empty_prime_set_n6(self):
        assert pt.generalized_euler_counts(set(), 6) == (4, 4)

    def test_n0(self):
        assert pt.generalized_euler_counts({2}, 0) == (1, 1)

    def test_p3_n9(self):
        a, b = pt.generalized_euler_counts({3}, 9)
        assert a == b
        assert (a, b) == self.brute_counts({3}, 9)

    def test_theorem_over_odd_prime_subsets(self):
        # The theorem needs odd primes: deleting multiples of 2 leaves the
        # odd numbers on both sides, and distinct-odd vs repeated-odd
        # partition counts differ already at n = 2.
        for ps in [set(), {3}, {5}, {7}, {3, 5}, {3, 7}, {5, 7}, {3, 5, 7}]:
            for n in range(26):
                a, b = pt.generalized_euler_counts(ps, n)
                assert a == b, (ps, n)

    def test_matches_enumeration(self):
        for ps in [set(), {2}, {3}, {5}, {2, 3}, {3, 5}, {3, 5, 7}]:
            for n in range(40):
                allowed = frozenset(v for v in range(1, n + 1) if all(v % p for p in ps))
                odd = frozenset(v for v in allowed if v % 2)
                distinct = pt.PartitionConstraint(distinct=True, allowed_parts=allowed)
                oracle = (
                    len(pt.enumerate_partitions(n, distinct)),
                    len(pt.enumerate_partitions(n, pt.PartitionConstraint(allowed_parts=odd))),
                )
                assert pt.generalized_euler_counts(ps, n) == oracle, (ps, n)

    def test_two_in_p_is_a_counterexample(self):
        # Witness that the naive "any set of primes" reading fails.
        assert pt.generalized_euler_counts({2}, 2) == (0, 1)

    def test_values_that_are_not_primes_are_refused(self):
        # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7,
        # 3825123056546413051 to every prime base up to 23
        for p in (0, 1, -3, 4, 9, 3215031751, 3825123056546413051):
            with pytest.raises(ValueError, match="primes"):
                pt.generalized_euler_counts({3, p}, 10)
        assert pt.generalized_euler_counts({3, 2**61 - 1}, 9) == pt.generalized_euler_counts({3}, 9)


class TestRelationPatterns:
    def test_all_ge_reduces_to_warburton(self):
        for n in range(1, 14):
            for s in range(2, 5):
                assert pt.relation_pattern_count(n, [">="] * (s - 1)) == pt.warburton_count(n, s, 1)

    def test_unrestricted_is_binomial(self):
        import math

        for n in range(1, 12):
            for s in range(1, n + 1):
                assert pt.relation_pattern_count(n, ["*"] * (s - 1)) == math.comb(n - 1, s - 1)

    @settings(max_examples=300)
    @given(st.integers(1, 30), st.lists(st.sampled_from(sorted(pt.RELATIONS)), max_size=4))
    def test_matches_recursive_oracle(self, n, pattern):
        assert pt.relation_pattern_count(n, pattern) == relation_pattern_oracle(n, pattern)

    def test_published_argv_matches_oracle(self):
        assert pt.relation_pattern_count(200, [">", ">=", ">"]) == relation_pattern_oracle(
            200, [">", ">=", ">"]
        )

    def test_four_free_relations_at_four_hundred(self):
        import math

        assert pt.relation_pattern_count(400, ["*"] * 4) == math.comb(399, 4)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 200), st.lists(st.sampled_from(sorted(pt.RELATIONS)), max_size=6))
    def test_generating_function_matches_slot_table(self, n, pattern):
        assert pt.relation_pattern_count(n, pattern) == relation_pattern_table_oracle(n, pattern)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(sorted(pt.RELATIONS)), max_size=7))
    def test_numerator_degree_is_at_most_s_s_plus_1_over_2(self, pattern):
        # W to s more coefficients than the proved degree: the extra ones vanish
        s = len(pattern) + 1
        top = s * (s + 1) // 2
        w = pt._relation_pattern_table(top + s, pattern)
        for k in range(1, s + 1):
            pt.q_factor(w, k, 1)
        assert w[top + 1:] == [0] * s

    def test_equal_parts_count_one_exactly_when_s_divides_n(self):
        # 99960 = 119 * lcm(1..8), so each s divides it and only 1 divides 99961
        for s in range(1, 9):
            for n in (99960, 99961):
                assert pt.relation_pattern_count(n, ["="] * (s - 1)) == int(n % s == 0), (n, s)

    def test_free_parts_are_compositions_at_ten_to_the_five(self):
        for s in range(1, 9):
            assert pt.relation_pattern_count(10**5, ["*"] * (s - 1)) == math.comb(10**5 - 1, s - 1)

    def test_unknown_relation_refused(self):
        with pytest.raises(ValueError, match="unknown relation"):
            pt.relation_pattern_count(5, [">", "~"])

    def test_strict_descents_are_distinct_partitions(self):
        oracle = len([p for p in brute_partitions(10) if len(p) == 3 and len(set(p)) == 3])
        assert oracle == 4
        assert pt.relation_pattern_count(10, [">", ">"]) == 4


class TestPlanePartitions:
    def test_thirteen_of_four(self):
        got = pt.enumerate_plane_partitions(4)
        assert len(got) == 13
        assert len(set(got)) == 13
        for pp in got:
            assert sum(sum(r) for r in pp) == 4
            # canonical: positive entries, rows and columns non-increasing
            for row in pp:
                assert row and min(row) > 0 and list(row) == sorted(row, reverse=True)
            for upper, lower in zip(pp, pp[1:]):
                assert len(lower) <= len(upper) and all(b <= a for a, b in zip(upper, lower))

    def test_one_of_one(self):
        assert pt.enumerate_plane_partitions(1) == [((1,),)]

    def test_matches_the_sorted_oracle(self):
        for n in range(16):
            assert pt.enumerate_plane_partitions(n) == plane_partitions_oracle(n), n

    def test_listing_refuses_past_the_cap_before_counting_far(self, monkeypatch):
        # PL(25) = 696033 > 2^19: the count is read only up to m = 25
        counted = []
        count = pt.count_plane_partitions
        monkeypatch.setattr(pt, "count_plane_partitions", lambda m: counted.append(m) or count(m))
        with pytest.raises(ValueError, match="more than 524288 plane partitions"):
            pt.enumerate_plane_partitions(10**9)
        assert max(counted) == 25

    def test_gf_agreement(self):
        for n in range(16):
            assert pt.count_plane_partitions(n) == len(pt.enumerate_plane_partitions(n))

    def test_batches_hold_4096_and_refuse_before_the_first(self):
        sizes = [len(batch) for batch in pt.plane_partition_batches(20)]
        assert sum(sizes) == pt.count_plane_partitions(20)
        assert len(sizes) > 1 and min(sizes) > 0 and max(sizes) == 4096
        assert [len(batch) for batch in pt.plane_partition_batches(0)] == [1]
        with pytest.raises(ValueError, match="output cap"):
            pt.plane_partition_batches(25)  # the call refuses; no batch is asked for

    def test_boxed_reduction_to_row_partitions(self):
        for n in range(7):
            for l in range(1, 5):
                for cmax in range(1, 5):
                    oracle = sum(
                        1
                        for p in brute_partitions(n, max_part=l)
                        if len(p) <= cmax
                    )
                    assert pt.count_boxed_plane_partitions(n, l, 1, cmax) == oracle

    def test_boxed_large_box_gives_13(self):
        assert pt.count_boxed_plane_partitions(4, 4, 4, 4) == 13
        assert pt.count_boxed_plane_partitions(4, None, 4, 4) == 13

    def test_boxed_brute_example(self):
        # direct enumeration over 2x2 grids with entries <= 2
        oracle = 0
        for a in range(3):
            for b in range(min(a, 2) + 1):
                for c in range(min(a, 2) + 1):
                    for d in range(min(b, c) + 1):
                        if a + b + c + d == 6:
                            oracle += 1
        assert pt.count_boxed_plane_partitions(6, 2, 2, 2) == oracle

    @settings(max_examples=300)
    @given(
        st.integers(0, 8),
        st.one_of(st.none(), st.integers(0, 4)),
        st.integers(0, 4),
        st.integers(0, 4),
    )
    def test_box_formula_matches_filtered_enumeration(self, n, l, m, c):
        oracle = sum(
            1
            for pp in plane_partitions(n)
            if len(pp) <= m
            and (not pp or len(pp[0]) <= c and (l is None or pp[0][0] <= l))
        )
        assert pt.count_boxed_plane_partitions(n, l, m, c) == oracle

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 80).flatmap(lambda n: st.tuples(
        st.just(n), st.none() | st.integers(0, n + 2), st.integers(0, n + 2), st.integers(0, n + 2)
    )))
    @example((80, None, 80, 80))  # the log-derivative recurrence
    @example((80, 3, 1, 2))  # the q_factor passes
    def test_box_formula_matches_the_factor_by_factor_product(self, bounds):
        assert pt.boxed_plane_partition_gf(*bounds) == box_product_oracle(*bounds)

    def test_route_is_read_from_the_exponents(self, monkeypatch):
        calls = []
        q_factor = pt.q_factor
        monkeypatch.setattr(pt, "q_factor", lambda acc, k, p: calls.append((k, p)) or q_factor(acc, k, p))
        assert pt.plane_partition_gf(40)[40] == 281846923
        assert calls == []
        # a thin box keeps its two O(N) passes: (1 - q^2) / (1 - q) = 1 + q
        start = time.perf_counter()
        gf = pt.boxed_plane_partition_gf(10**5, 1, 1, 1)
        assert time.perf_counter() - start < 1
        assert calls == [(1, -1), (2, 1)]
        assert gf == [1, 1] + [0] * (10**5 - 1)
        calls.clear()
        pt.boxed_plane_partition_gf(80, 3, 1, 2)  # 312 additions against 3240 products
        assert calls == [(1, -1), (2, -1), (4, 1), (5, 1)]

    def test_full_box_total_is_macmahons_product(self):
        # summed over every n, the a x b x c box holds
        # prod_{i,j,k} (i+j+k-1)/(i+j+k-2) plane partitions
        for a, b, c in itertools.product(range(4), repeat=3):
            total = Fraction(1)
            for i, j, k in itertools.product(
                range(1, a + 1), range(1, b + 1), range(1, c + 1)
            ):
                total *= Fraction(i + j + k - 1, i + j + k - 2)
            gf = pt.boxed_plane_partition_gf(a * b * c, c, a, b)
            assert sum(gf) == total, (a, b, c)
            assert gf == gf[::-1]  # complementing in the box

    def test_bounds_past_n_change_nothing(self):
        for n in range(20):
            assert pt.boxed_plane_partition_gf(n, 10**9, 10**9, 10**9) == pt.plane_partition_gf(n)

    def test_boxed_cap_guard(self):
        # the cap counts min(m, n) * min(cmax, n) * (n + 1) cells
        assert pt.count_boxed_plane_partitions(124, None, 80, 100) > 0  # exactly 10^6
        with pytest.raises(ValueError):
            pt.count_boxed_plane_partitions(125, None, 80, 100)  # 1008000
        # a box wider than n costs no more than an n x n one
        assert pt.count_boxed_plane_partitions(4, 2, 100, 100) == sum(
            1 for pp in plane_partitions(4) if pp[0][0] <= 2
        )

    def test_boxed_rejects_negative_bounds(self):
        for args in [(-1, None, 1, 1), (3, -1, 1, 1), (3, None, -1, 1), (3, None, 1, -1)]:
            with pytest.raises(ValueError):
                pt.count_boxed_plane_partitions(*args)
            with pytest.raises(ValueError):
                pt.boxed_plane_partition_gf(*args)


class TestQFactor:
    @settings(max_examples=200)
    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=12),
        st.integers(1, 14),
        st.integers(-3, 3),
    )
    def test_matches_polynomial_product_and_inverts(self, acc, k, power):
        n = len(acc) - 1
        expected = list(acc)
        for _ in range(max(power, 0)):
            expected = [expected[i] - (expected[i - k] if i >= k else 0) for i in range(n + 1)]
        got = list(acc)
        pt.q_factor(got, k, power)
        if power >= 0:
            assert got == expected
        pt.q_factor(got, k, -power)
        assert got == acc

    def test_division_is_the_geometric_series(self):
        acc = [1] + [0] * 10
        pt.q_factor(acc, 3, -1)
        assert acc == [1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0]
        pt.q_factor(acc, 1, -1)
        assert acc == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4]

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            pt.q_factor([1, 0], 0, -1)


class TestXeS:
    def test_published_low_coefficients(self):
        poly = pt.xy_symmetric_two_layer_poly(4)
        assert poly[7] == 1
        assert poly[8] == 2
        assert poly[11] == 3
        assert poly[32] == 1

    def test_full_published_polynomial(self):
        expected = {
            7: 1, 8: 2, 9: 1, 10: 2, 11: 3, 12: 4, 13: 4, 14: 5, 15: 5,
            16: 7, 17: 5, 18: 6, 19: 6, 20: 7, 21: 5, 22: 5, 23: 4,
            24: 5, 25: 3, 26: 3, 27: 2, 28: 2, 29: 1, 30: 1, 31: 1, 32: 1,
        }
        assert pt.xy_symmetric_two_layer_poly(4) == expected

    def test_cell_enumeration_oracle(self):
        for i in range(1, 5):
            assert pt.xy_symmetric_two_layer_poly(i) == pt.xy_symmetric_cell_enumeration(i)

    def test_hook_dp_matches_the_cell_enumeration(self):
        for i in range(5, 8):
            assert pt.xy_symmetric_two_layer_poly(i) == pt.xy_symmetric_cell_enumeration(i)

    def test_count_accessor(self):
        assert pt.xy_symmetric_two_layer_poly(4).get(11, 0) == 3
        assert pt.xy_symmetric_two_layer_poly(4).get(6, 0) == 0
