import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combanal import masterthm as mt
from combanal.exactcore import MultiPoly, poly_det_cofactor, poly_ring
from series_support import series_inverse


def integer_matrices(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


class TestDenominator:
    def test_one_by_one(self):
        (x,) = poly_ring("x1")
        assert mt.master_denominator([[1]]) == 1 - x

    def test_derangement_matrix_n4_symmetric_form(self):
        names = tuple(f"x{i}" for i in range(1, 5))
        xs = poly_ring(*names)
        e = {}
        for k in (2, 3, 4):
            acc = MultiPoly.zero(names)
            for combo in itertools.combinations(range(4), k):
                term = MultiPoly.const(names, 1)
                for c in combo:
                    term = term * xs[c]
                acc = acc + term
            e[k] = acc
        expected = MultiPoly.const(names, 1) - e[2] - 2 * e[3] - 3 * e[4]
        assert mt.master_denominator(mt.derangement_matrix(4)) == expected

    def test_row_cleared_determinant_identity(self):
        # det(I - diag(x) A) = (-1)^n det(diag(x) A - I)
        rng = random.Random(1)
        for n in (2, 3):
            a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            names = tuple(f"x{i}" for i in range(1, n + 1))
            xs = poly_ring(*names)
            entries = [
                [
                    xs[i] * a[i][j]
                    - (MultiPoly.const(names, 1) if i == j else MultiPoly.zero(names))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            flipped = poly_det_cofactor(entries)
            expected = mt.master_denominator(a)
            assert ((-1) ** n) * flipped == expected

    def test_balanced_part_of_redundant_product_matches_condensed(self):
        # Expand prod 1/(1 - s_i X_i) in the doubled variable set and keep
        # monomials whose s-degrees equal their x-degrees; that balanced
        # slice must agree with 1/V_2 termwise up to degree 6 in each x.
        rng = random.Random(9)
        a = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        names = ("s1", "s2", "x1", "x2")
        s1, s2, x1, x2 = poly_ring(*names)
        xs = (x1, x2)
        ss = (s1, s2)
        one = MultiPoly.const(names, 1)
        box = (6, 6, 6, 6)
        acc = one
        for i in range(2):
            form = sum((xs[j] * a[i][j] for j in range(2)), MultiPoly.zero(names))
            acc = (acc * series_inverse(one - ss[i] * form, box)).truncate(box)
        balanced = {}
        for exp, c in acc.terms.items():
            sdeg, xdeg = exp[:2], exp[2:]
            if sdeg == xdeg:
                balanced[xdeg] = c
        condensed = series_inverse(mt.master_denominator(a), (6, 6))
        for exp in set(balanced) | set(condensed.terms):
            assert balanced.get(exp, Fraction(0)) == condensed.coeff(exp), exp

    @settings(max_examples=40)
    @given(integer_matrices(5))
    def test_principal_minors_match_cofactor_determinant(self, a):
        n = len(a)
        names = tuple(f"x{i}" for i in range(1, n + 1))
        xs = poly_ring(*names)
        one, zero = MultiPoly.const(names, 1), MultiPoly.zero(names)
        entries = [
            [(one if i == j else zero) - xs[i] * a[i][j] for j in range(n)] for i in range(n)
        ]
        assert mt.master_denominator(a) == poly_det_cofactor(entries)


class TestCoefficients:
    def test_appendix_values(self):
        m4 = mt.derangement_matrix(4)
        assert mt.master_coefficient(m4, (1, 1, 1, 1)) == 9
        m2 = mt.derangement_matrix(2)
        assert mt.master_coefficient(m2, (1, 1)) == 1

    def test_multiset_derangement_2_2(self):
        m2 = mt.derangement_matrix(2)
        got = mt.master_coefficient(m2, (2, 2))
        oracle = mt.brute_force_rencontres(0, (2, 2))
        assert got == oracle == 1

    def test_master_theorem_oracle_identity(self):
        rng = random.Random(17)
        for n in (1, 2, 3):
            for _ in range(4):
                a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                for degree in itertools.product(range(4), repeat=n):
                    if not 0 < sum(degree) <= 5:
                        continue
                    assert mt.master_coefficient(a, degree) == mt.redundant_coefficient(
                        a, degree
                    ), (a, degree)

    @settings(max_examples=60)
    @given(st.data())
    def test_master_theorem_on_random_matrices(self, data):
        # finite difference = redundant product = condensed series
        a = data.draw(integer_matrices(4))
        degree = data.draw(st.tuples(*[st.integers(0, 3)] * len(a)).filter(lambda d: sum(d) <= 8))
        got = mt.master_coefficient(a, degree)
        assert type(got) is int
        assert got == mt.redundant_coefficient(a, degree)
        assert got == series_inverse(mt.master_denominator(a), degree).coeff(degree)

    def test_degree_cap_refusal(self):
        with pytest.raises(ValueError):
            mt.master_coefficient(mt.derangement_matrix(2), (20, 20))

    def test_checks_square_before_degree(self):
        with pytest.raises(ValueError, match="square"):
            mt.master_coefficient([[1, 2]], (1, 1))


class TestDerangements:
    def test_p4_is_9(self):
        assert mt.derangements(4) == 9

    def test_p1_is_0(self):
        assert mt.derangements(1) == 0

    def test_p6_is_265(self):
        assert mt.derangements(6) == 265 == mt.brute_force_derangements(6)

    def test_recurrence_matches_brute_force(self):
        for n in range(9):
            assert mt.derangements(n) == mt.brute_force_derangements(n)

    def test_recurrence_matches_condensed_series(self):
        for n in range(1, 6):
            coeff = mt.master_coefficient(mt.derangement_matrix(n), (1,) * n)
            assert coeff == mt.derangements(n)


def series_rencontres(m, multidegree):
    """The multivariate series route: the coefficient of x^e t^m in
    1/det(I - diag(x) A(t)), A(t) with t on the diagonal and ones
    elsewhere; the second oracle for generalized_rencontres."""
    names = tuple(f"x{i}" for i in range(1, len(multidegree) + 1))
    *xs, t = poly_ring(*names, "t")
    # I - diag(x) A(t) = diag(d) - x 1^T with d_i = 1 - (t - 1) x_i, so the
    # matrix determinant lemma gives the determinant without elimination.
    d = [1 - (t - 1) * x for x in xs]
    denominator = math.prod(d) - sum(
        x * math.prod(d[:i] + d[i + 1 :]) for i, x in enumerate(xs)
    )
    target = tuple(multidegree) + (m,)
    return series_inverse(denominator, target).coeff(target)


class TestRencontres:
    def test_derangements_of_three(self):
        assert mt.generalized_rencontres(0, (1, 1, 1)) == 2

    def test_appendix_target(self):
        assert mt.generalized_rencontres(0, (1, 1, 1, 1)) == 9

    def test_one_fixed_of_three(self):
        assert mt.generalized_rencontres(1, (1, 1, 1)) == 3

    def test_sum_over_m_is_multinomial(self):
        for multidegree in [(1, 1, 1), (2, 1), (2, 2), (3, 2), (2, 2, 2), (1,) * 7]:
            total = sum(multidegree)
            if total > 7:
                continue
            expected = math.factorial(total)
            for e in multidegree:
                expected //= math.factorial(e)
            got = sum(
                mt.generalized_rencontres(m, multidegree) for m in range(total + 1)
            )
            assert got == expected

    def test_four_fours_without_enumeration(self):
        assert mt.generalized_rencontres(0, (4, 4, 4, 4)) == 748521

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(
            lambda shape: 0 < sum(shape) <= 7
        )
    )
    def test_condensed_route_matches_brute_force(self, shape):
        for m in range(sum(shape) + 1):
            assert mt.generalized_rencontres(m, shape) == mt.brute_force_rencontres(m, shape)

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(
            lambda shape: 0 < sum(shape) <= 9
        )
    )
    def test_separable_form_matches_series_route(self, shape):
        for m in range(sum(shape) + 1):
            assert mt.generalized_rencontres(m, shape) == series_rencontres(m, shape)

    def test_series_route_oracle_matches_brute_force(self):
        for shape in [(1, 1, 1), (2, 1), (2, 2, 1), (3, 1, 1)]:
            for m in range(sum(shape) + 1):
                assert series_rencontres(m, shape) == mt.brute_force_rencontres(m, shape)
