import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from combanal import DomainError
from combanal import invariants as iv
from combanal import partitions as pt
from combanal.exactcore import MultiPoly
from nullspace_support import gauss_jordan_nullspace


def a(p, *exps_and_coeffs):
    """Build a coefficient polynomial from (exponent_tuple, coeff) pairs."""
    return MultiPoly(iv.avar_names(p), dict(exps_and_coeffs))


def quartic(name_exps):
    return MultiPoly(iv.avar_names(4), name_exps)


# Handy quartic polynomials (a = a0, b = a1, c = a2, d = a3, e = a4).
def AC_MINUS_B2():
    return quartic({(1, 0, 1, 0, 0): 1, (0, 2, 0, 0, 0): -1})


class TestOperators:
    def test_omega_kills_hessian_seed(self):
        assert iv.omega(AC_MINUS_B2(), 4).is_zero()

    def test_omega_of_constant_degree_zero(self):
        assert iv.omega(MultiPoly.variable(iv.avar_names(4), "a0"), 4).is_zero()

    def test_omega_of_tail_seed(self):
        # Omega(a2 a4 - a3^2) = 2(a1 a4 - a2 a3)
        f = quartic({(0, 0, 1, 0, 1): 1, (0, 0, 0, 2, 0): -1})
        expected = quartic({(0, 1, 0, 0, 1): 2, (0, 0, 1, 1, 0): -2})
        assert iv.omega(f, 4) == expected

    def test_oop_first_step(self):
        # O(ac - b^2) = 2(ad - bc)
        expected = quartic({(1, 0, 0, 1, 0): 2, (0, 1, 1, 0, 0): -2})
        assert iv.oop(AC_MINUS_B2(), 4) == expected

    def test_oop_of_constant(self):
        assert iv.oop(MultiPoly.const(iv.avar_names(4), 5), 4).is_zero()

    def test_oop_fifth_power_annihilates(self):
        f = AC_MINUS_B2()
        for _ in range(5):
            f = iv.oop(f, 4)
        assert f.is_zero()

    def test_published_chain_with_factorials(self):
        # O^k(ac - b^2) / k! reproduces the displayed chain exactly.
        import math

        chain = {
            1: quartic({(1, 0, 0, 1, 0): 2, (0, 1, 1, 0, 0): -2}),      # 2(ad - bc)
            2: quartic({(1, 0, 0, 0, 1): 1, (0, 1, 0, 1, 0): 2,
                        (0, 0, 2, 0, 0): -3}),                          # ae + 2bd - 3c^2
            3: quartic({(0, 1, 0, 0, 1): 2, (0, 0, 1, 1, 0): -2}),      # 2(be - cd)
            4: quartic({(0, 0, 1, 0, 1): 1, (0, 0, 0, 2, 0): -1}),      # ce - d^2
        }
        f = AC_MINUS_B2()
        for k in range(1, 5):
            f = iv.oop(f, 4)
            assert f * Fraction(1, math.factorial(k)) == chain[k], k


class TestCovariants:
    def test_quartic_hessian_regenerated(self):
        cov = iv.covariant_from_seed(AC_MINUS_B2(), 4)
        names = iv.avar_names(4, with_xy=True)

        def term(a_part, xe, ye, coeff):
            exp = list(a_part) + [xe, ye]
            return (tuple(exp), coeff)

        expected = MultiPoly(
            names,
            dict(
                [
                    term((1, 0, 1, 0, 0), 4, 0, 1), term((0, 2, 0, 0, 0), 4, 0, -1),
                    term((1, 0, 0, 1, 0), 3, 1, 2), term((0, 1, 1, 0, 0), 3, 1, -2),
                    term((1, 0, 0, 0, 1), 2, 2, 1), term((0, 1, 0, 1, 0), 2, 2, 2),
                    term((0, 0, 2, 0, 0), 2, 2, -3),
                    term((0, 1, 0, 0, 1), 1, 3, 2), term((0, 0, 1, 1, 0), 1, 3, -2),
                    term((0, 0, 1, 0, 1), 0, 4, 1), term((0, 0, 0, 2, 0), 0, 4, -1),
                ]
            ),
        )
        assert cov == expected

    def test_order_one_seed_gives_the_quantic(self):
        seed = MultiPoly.variable(iv.avar_names(1), "a0")
        cov = iv.covariant_from_seed(seed, 1)
        names = iv.avar_names(1, with_xy=True)
        expected = MultiPoly(names, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
        assert cov == expected

    def test_invariant_seed_is_constant_covariant(self):
        cov = iv.covariant_from_seed(iv.quartic_invariant_i(), 4)
        # order 4*2 - 2*4 = 0: no x or y appears
        xi = cov.names.index("x")
        assert all(exp[xi] == 0 and exp[xi + 1] == 0 for exp in cov.terms)

    def test_rejects_non_seminvariant_seed(self):
        bad = quartic({(0, 0, 0, 0, 1): 1})  # a4 alone
        with pytest.raises(ValueError):
            iv.covariant_from_seed(bad, 4)


class TestSeminvariantBasis:
    def test_p4_j2_w4_spans_I(self):
        basis = iv.seminvariant_basis(4, 2, 4)
        assert len(basis) == 1
        assert basis[0] == iv.quartic_invariant_i()

    def test_p1_j1_w0_spans_a0(self):
        basis = iv.seminvariant_basis(1, 1, 0)
        assert basis == [MultiPoly.variable(iv.avar_names(1), "a0")]

    def test_p4_j3_w6_contains_J(self):
        basis = iv.seminvariant_basis(4, 3, 6)
        assert len(basis) == 1
        assert basis[0] == iv.quartic_invariant_j()

    def test_every_basis_element_is_annihilated(self):
        for p in range(2, 6):
            for j in range(1, 4):
                for w in range(0, 7):
                    for s in iv.seminvariant_basis(p, j, w):
                        assert iv.omega(s, p).is_zero()

    def test_full_kernel_dimension_matches_box_difference(self):
        # The classical law: dim = (partitions of w) - (partitions of w-1),
        # both into at most j parts each at most p, read off the Gaussian
        # binomial; the kernel solve is the oracle, past the middle too.
        # Exact for every point.
        for p in range(1, 7):
            for j in range(1, 5):
                for w in range(1, 11):
                    kernel = iv._as_polys(*iv._omega_kernel(p, j, w))
                    assert iv.seminvariant_dimension(p, j, w) == len(kernel), (p, j, w)
                    assert iv.seminvariant_basis(p, j, w) == kernel, (p, j, w)

    @settings(max_examples=200)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 12))
    def test_dimension_law_matches_kernel_solve(self, p, j, w):
        assert iv.seminvariant_dimension(p, j, w) == len(iv._omega_kernel(p, j, w)[2])

    @settings(max_examples=100)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 60))
    def test_dimension_is_zero_past_the_middle(self, p, j, past):
        # the Cayley-Sylvester law's Gaussian binomial is symmetric about
        # pj/2 and rises to it, so its difference is negative past it
        w = (p * j) // 2 + past
        assert iv.seminvariant_dimension(p, j, w) == 0

    def test_basis_past_the_middle_is_empty_before_any_work(self, monkeypatch):
        # 100 4 300 was refused at 960024 units; nothing is priced or listed
        monkeypatch.setattr(iv, "_basis_price", None)
        monkeypatch.setattr(iv, "_isobaric_monomials", None)
        for p, j, w in [(100, 4, 300), (511, 3, 1459), (1, 1, 1), (3, 3, 5), (2, 10**20, 10**20 + 1)]:
            assert iv.seminvariant_basis(p, j, w) == [], (p, j, w)

    @pytest.mark.parametrize("point", [(8, 6, 16), (8, 5, 16), (6, 6, 16), (7, 5, 14)])
    def test_dimension_law_and_annihilation_at_large_points(self, point):
        basis = iv.seminvariant_basis(*point)
        assert iv.seminvariant_dimension(*point) == len(basis)
        for s in basis:
            assert iv.omega(s, point[0]).is_zero()

    def test_cayley_sylvester_certificate_at_10_6_20(self):
        # Omega is a 175x199 matrix here; its kernel has the 24 dimensions
        # of the Cayley-Sylvester law, and Omega kills every basis vector.
        basis = iv.seminvariant_basis(10, 6, 20)
        assert len(basis) == iv.seminvariant_dimension(10, 6, 20) == 24
        for s in basis:
            assert iv.omega(s, 10).is_zero()

    def test_cayley_sylvester_certificate_at_12_8_24(self):
        # Omega is 632x738 here: 106 basis vectors, Omega kills each, and
        # each has a positive coefficient at its lex-greatest monomial.
        basis = iv.seminvariant_basis(12, 8, 24)
        assert len(basis) == iv.seminvariant_dimension(12, 8, 24) == 106
        for s in basis:
            assert iv.omega(s, 12).is_zero()
            assert s.terms[max(s.terms)] > 0

    def test_basis_price_reads_omegas_shape(self):
        # The price from the Gaussian binomial equals the one from the
        # listed monomials, mirrored points and empty weights included, up
        # to the cap; past it, it is a bound that also passes the cap.
        points = [(p, j, w) for p in range(1, 8) for j in range(1, 8) for w in range(p * j + 3)]
        points += [(511, 3, 60), (12, 8, 24), (11, 7, 28), (200, 3, 90)]
        for p, j, w in points:
            cols = len(iv._isobaric_monomials(p, j, w))
            rows = len(iv._isobaric_monomials(p, j, w - 1)) if w else 0
            price = rows * cols + 2 * cols * (p + 1)
            got = iv._basis_price(p, j, w)
            assert got == price or min(got, price) > iv.BASIS_WORK_CAP, (p, j, w)

    def test_basis_price_is_read_without_listing_a_monomial(self, monkeypatch):
        # Far past the cap, and for a 1 x l box where every count is 1, the
        # price comes from at most 2 * isqrt(cap) + 1 entries.
        monkeypatch.setattr(iv, "_isobaric_monomials", None)
        for p, j, w in [(2, 10**20, 10**19), (512, 10**20, 10**19), (512, 512, 131072), (10, 10, 50)]:
            with pytest.raises(DomainError, match="past the cap"):
                iv.seminvariant_basis(p, j, w)
        assert iv._basis_price(1, 10**20, 5 * 10**19) == 1 + 2 * 2

    # every invariant basis point of the benchmark's linalg pool, and (10,6,20)
    OMEGA_POINTS = [
        (3, 4, 6), (3, 6, 9), (4, 2, 4), (4, 3, 6), (4, 4, 8), (4, 5, 10), (4, 6, 12),
        (4, 7, 12), (4, 7, 14), (5, 4, 8), (5, 4, 10), (5, 5, 10), (5, 6, 11), (5, 6, 13),
        (5, 6, 15), (6, 4, 8), (6, 4, 10), (6, 4, 12), (6, 5, 12), (6, 5, 13), (6, 5, 15),
        (6, 6, 12), (6, 6, 14), (6, 6, 16), (7, 4, 10), (7, 4, 12), (7, 4, 14), (7, 5, 14),
        (8, 4, 12), (8, 4, 14), (8, 4, 16), (8, 5, 16), (8, 6, 16), (10, 6, 20),
    ]

    def test_basis_matches_the_gauss_jordan_route(self, monkeypatch):
        new = [iv.seminvariant_basis(*point) for point in self.OMEGA_POINTS]
        calls = []

        def dense_gauss_jordan(rows, cols):
            calls.append(cols)
            return gauss_jordan_nullspace([[row.get(j, 0) for j in range(cols)] for row in rows])

        monkeypatch.setattr(iv, "nullspace_sparse", dense_gauss_jordan)
        old = [iv.seminvariant_basis(*point) for point in self.OMEGA_POINTS]
        assert len(calls) == len(self.OMEGA_POINTS)
        assert new == old

    def test_isobaric_monomials_match_a_brute_force_filter_at_large_p(self):
        # Most monomials spend their degree long before a_p: the listing
        # ends each branch there, and still gives every monomial, in order.
        p, j, w = 60, 3, 40
        want = []
        for parts in itertools.combinations_with_replacement(range(p + 1), j):
            if sum(parts) == w:
                exp = [0] * (p + 1)
                for k in parts:
                    exp[k] += 1
                want.append(tuple(exp))
        assert iv._isobaric_monomials(p, j, w) == sorted(want)

    def test_lex_greatest_monomial_has_a_positive_coefficient(self):
        for point in self.OMEGA_POINTS:
            for s in iv.seminvariant_basis(*point):
                assert s.terms[max(s.terms)] > 0, point

    def test_dimension_refuses_what_the_basis_refuses(self):
        for point in [(0, 1, 1), (1, 0, 1), (1, 1, -1)]:
            with pytest.raises(ValueError):
                iv.seminvariant_basis(*point)
            with pytest.raises(ValueError):
                iv.seminvariant_dimension(*point)

    def test_contains_j_count_matches_new_dimension_in_stable_range(self):
        # The quoted partition form counts seminvariants of degree exactly
        # j; it is an infinite-order statement, valid once p >= w.
        for p in range(1, 7):
            for j in range(1, 5):
                for w in range(1, 11):
                    if p >= w:
                        kernel = len(iv.seminvariant_basis(p, j, w))
                        if j > 1:
                            kernel -= len(iv.seminvariant_basis(p, j - 1, w))
                        assert iv.new_seminvariant_dimension(p, j, w) == kernel, (p, j, w)
                        assert iv.non_unitary_contains_count(w, j) == kernel, (p, j, w)

    def test_contains_j_count_matches_enumeration(self):
        for w in range(16):
            for j in range(8):
                no_ones = pt.PartitionConstraint(min_part=2, max_part=max(j, 2))
                oracle = sum(1 for lam in pt.enumerate_partitions(w, no_ones) if j in lam)
                assert iv.non_unitary_contains_count(w, j) == oracle, (w, j)
        assert iv.non_unitary_contains_count(-1, 3) == 0

    def test_literal_reading_counterexample_documented(self):
        # At (p, j, w) = (6, 3, 6) the full kernel holds both the cubic
        # invariant and a0 times the weight-6 quadrinvariant, so the
        # contains-j count (1) undercounts the kernel dimension (2).
        assert iv.seminvariant_dimension(6, 3, 6) == 2
        assert len(iv.seminvariant_basis(6, 3, 6)) == 2
        assert iv.non_unitary_contains_count(6, 3) == 1

    def test_covariants_from_basis_pass_invariance(self):
        rng = random.Random(42)
        basis = iv.seminvariant_basis(4, 2, 2) + iv.seminvariant_basis(4, 2, 4)
        for seed in basis:
            cov = iv.covariant_from_seed(seed, 4)
            for _ in range(10):
                # random unimodular transform: det = 1 by construction
                a_ = rng.randint(1, 3)
                b_ = rng.randint(0, 3)
                c_ = rng.randint(0, 3)
                t = iv.LinearTransform2(a_, b_, c_, Fraction(1 + b_ * c_, a_))
                assert t.modulus() == 1
                ok, _ = iv.invariance_check(cov, 4, t)
                assert ok


class TestInvarianceCheck:
    def test_identity_transform(self):
        t = iv.LinearTransform2(1, 0, 0, 1)
        ok, s = iv.invariance_check(AC_MINUS_B2(), 4, t)
        assert ok and s == 0

    def test_exponent_equals_weight_for_I_and_J(self):
        t = iv.LinearTransform2(2, 1, 0, 3)  # modulus 6
        ok, s = iv.invariance_check(iv.quartic_invariant_i(), 4, t)
        assert ok and s == 4
        ok, s = iv.invariance_check(iv.quartic_invariant_j(), 4, t)
        assert ok and s == 6

    def test_a0_alone_is_not_invariant(self):
        t = iv.LinearTransform2(2, 1, 1, 1)
        ok, s = iv.invariance_check(
            MultiPoly.variable(iv.avar_names(4), "a0"), 4, t
        )
        assert not ok and s is None

    def test_random_unimodular_on_I(self):
        rng = random.Random(5)
        for _ in range(5):
            b_ = rng.randint(-3, 3)
            c_ = rng.randint(-3, 3)
            t = iv.LinearTransform2(1, b_, c_, 1 + b_ * c_)
            ok, s = iv.invariance_check(iv.quartic_invariant_i(), 4, t)
            assert ok and t.modulus() ** s == 1


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def substituted_quantic(p, l, m, lp, mp):
    """The binomial quantic sum C(p,k) a_k x^(p-k) y^k with x = l x + m y
    and y = lp x + mp y substituted, over a0..ap, x, y."""
    names = iv.avar_names(p, with_xy=True)
    quantic = MultiPoly(
        names, {(0,) * k + (1,) + (0,) * (p - k) + (p - k, k): math.comb(p, k) for k in range(p + 1)}
    )
    x, y = MultiPoly.variable(names, "x"), MultiPoly.variable(names, "y")
    images = {n: MultiPoly.variable(names, n) for n in names}
    images.update(x=x * l + y * m, y=x * lp + y * mp)
    return quantic.substitute(images)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 12), transform=st.tuples(rationals, rationals, rationals, rationals))
def test_closed_form_images_match_the_substituted_quantic(p, transform):
    l, m, lp, mp = transform
    assume(l * mp - lp * m != 0)
    substituted = substituted_quantic(p, l, m, lp, mp)
    names = iv.avar_names(p, with_xy=True)
    for k, a_k in enumerate(iv.transformed_coefficients(p, iv.LinearTransform2(l, m, lp, mp))):
        expected = {
            exp[: p + 1] + (0, 0): Fraction(c, math.comb(p, k))
            for exp, c in substituted.terms.items()
            if exp[p + 1 :] == (p - k, k)
        }
        assert a_k == MultiPoly(names, expected)


def invariance_by_substitution(f, p, t):
    """invariance_check's answer with both sides substituted whole and
    every exponent s tried in turn."""
    names = iv.avar_names(p, with_xy=True)
    if f.names != names:
        f = MultiPoly(names, {exp + (0, 0): c for exp, c in f.terms.items()})
    x, y = MultiPoly.variable(names, "x"), MultiPoly.variable(names, "y")
    images = {f"a{k}": a_k for k, a_k in enumerate(iv.transformed_coefficients(p, t))}
    lhs = f.substitute({**images, "x": x, "y": y})
    plain = {n: MultiPoly.variable(names, n) for n in iv.avar_names(p)}
    rhs = f.substitute({**plain, "x": x * t.l + y * t.m, "y": x * t.lp + y * t.mp})
    for s in range(iv.INVARIANCE_EXPONENTS + 1):
        if lhs == rhs * t.modulus() ** s:
            return True, s
    return False, None


@st.composite
def checked_polynomials(draw):
    """(f, p): a covariant of a random seminvariant, or random terms over
    a0..ap and maybe x, y."""
    p = draw(st.integers(2, 4))
    if draw(st.booleans()):
        basis = iv.seminvariant_basis(p, 2, draw(st.integers(0, p)))
        assume(basis)
        return iv.covariant_from_seed(draw(st.sampled_from(basis)), p), p
    names = iv.avar_names(p, with_xy=draw(st.booleans()))
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    return MultiPoly(names, draw(st.dictionaries(exps, st.integers(-3, 3), max_size=4))), p


@settings(max_examples=60, deadline=None)
@given(fp=checked_polynomials(), transform=st.tuples(rationals, rationals, rationals, rationals))
def test_invariance_check_matches_whole_substitution(fp, transform):
    f, p = fp
    l, m, lp, mp = transform
    assume(l * mp - lp * m != 0)
    t = iv.LinearTransform2(l, m, lp, mp)
    assert iv.invariance_check(f, p, t) == invariance_by_substitution(f, p, t)


@settings(max_examples=200, deadline=None)
@given(m=rationals.filter(bool), s=st.integers(0, iv.INVARIANCE_EXPONENTS + 2), other=rationals)
def test_power_exponent_is_the_smallest_matching_power(m, s, other):
    for ratio in (m**s, other, -(m**s)):
        expected = next((k for k in range(iv.INVARIANCE_EXPONENTS + 1) if m**k == ratio), None)
        assert iv._power_exponent(m, ratio) == expected


class TestInvariantWeight:
    def test_j_case(self):
        assert iv.invariant_weight(3, 4) == 6

    def test_i_case(self):
        assert iv.invariant_weight(2, 4) == 4

    def test_odd_product_infeasible(self):
        assert iv.invariant_weight(1, 3) is None


class TestProtomorphs:
    def test_hammond_list_for_the_quartic(self):
        u, h, c3, q4 = iv.protomorphs(4, 4)
        names = iv.avar_names(4)
        assert u == MultiPoly.variable(names, "a0")
        assert h == quartic({(1, 0, 1, 0, 0): 1, (0, 2, 0, 0, 0): -1})
        assert c3 == quartic({(2, 0, 0, 1, 0): 1, (1, 1, 1, 0, 0): -3, (0, 3, 0, 0, 0): 2})
        assert q4 == quartic({(1, 0, 0, 0, 1): 1, (0, 1, 0, 1, 0): -4, (0, 0, 2, 0, 0): 3})

    def test_all_sources_annihilated(self):
        for p in (4, 5, 6):
            for source in iv.protomorphs(p, p):
                assert iv.omega(source, p).is_zero()

    def test_plain_convention_conversion(self):
        binom = [Fraction(1), Fraction(2), Fraction(3)]
        plain = iv.convert_coefficients(binom, "binomial", "plain")
        assert plain == (1, 4, 3)
        assert iv.convert_coefficients(plain, "plain", "binomial") == (1, 2, 3)


class TestSyzygants:
    def test_weight6_family(self):
        names = iv.avar_names(4)
        u = MultiPoly.variable(names, "a0")
        h = iv.quadrinvariant(4, 2)
        c3 = iv.odd_source(4, 3)
        q4 = iv.quadrinvariant(4, 4)
        sols = iv.syzygant_search([h**3, c3**2, u**2 * h * q4], 3)
        assert len(sols) == 1
        alphas = sols[0].alphas
        scale = alphas[0] / Fraction(-4)
        assert tuple(x / scale for x in alphas) == (Fraction(-4), Fraction(-1), Fraction(1))
        assert sols[0].quotient == iv.quartic_invariant_j() * scale

    def test_single_divisible_source(self):
        names = iv.avar_names(4)
        u = MultiPoly.variable(names, "a0")
        h = iv.quadrinvariant(4, 2)
        sols = iv.syzygant_search([u**3 * h], 3)
        assert len(sols) == 1
        assert sols[0].alphas == (Fraction(1),)
        assert sols[0].quotient == h

    def test_cubic_identity_expands_to_zero(self):
        # U^2 * Delta = 4 H^3 + C3^2 exactly, over a0..a3.
        names = iv.avar_names(3)
        a0 = MultiPoly.variable(names, "a0")
        h = iv.quadrinvariant(3, 2)
        c3 = iv.odd_source(3, 3)
        delta = iv.cubic_discriminant()
        assert (a0**2 * delta - 4 * h**3 - c3**2).is_zero()

    def test_fractional_sources_scale_the_alphas(self):
        # Each row is scaled to integers on its own, so halving H^3 doubles
        # its alpha and the quotient stays J.
        names = iv.avar_names(4)
        u = MultiPoly.variable(names, "a0")
        h = iv.quadrinvariant(4, 2)
        c3 = iv.odd_source(4, 3)
        q4 = iv.quadrinvariant(4, 4)
        whole = iv.syzygant_search([h**3, c3**2, u**2 * h * q4], 3)
        sols = iv.syzygant_search([h**3 * Fraction(1, 2), c3**2 * Fraction(2, 3), u**2 * h * q4], 3)
        assert len(sols) == 1
        assert sols[0].alphas == (Fraction(-8), Fraction(-3, 2), Fraction(1))
        assert sols[0].quotient == whole[0].quotient

    def test_solutions_match_the_gauss_jordan_route(self, monkeypatch):
        cases = []
        for p in (4, 5, 6):
            names = iv.avar_names(p)
            u = MultiPoly.variable(names, "a0")
            h = iv.quadrinvariant(p, 2)
            c3 = iv.odd_source(p, 3)
            q4 = iv.quadrinvariant(p, 4)
            for k in range(5):
                cases.append(([h**3, c3**2, u**2 * h * q4], k))
                cases.append(([h**3 * Fraction(-5, 7), c3**2 * Fraction(3, 11), h**3 + c3**2, u**2 * h * q4], k))
        new = [iv.syzygant_search(*case) for case in cases]
        calls = []

        def dense_gauss_jordan(rows, cols):
            calls.append(cols)
            return gauss_jordan_nullspace([[row.get(j, 0) for j in range(cols)] for row in rows] or [[0] * cols])

        monkeypatch.setattr(iv, "nullspace_sparse", dense_gauss_jordan)
        old = [iv.syzygant_search(*case) for case in cases]
        assert len(calls) == len(cases)
        assert new == old
        assert any(len(sols) > 1 for sols in new) and any(not sols for sols in new)

    def test_no_solution_returns_empty(self):
        names = iv.avar_names(4)
        h = iv.quadrinvariant(4, 2)
        # H alone is not divisible by a0^2 and spans no kernel.
        sols = iv.syzygant_search([h], 2)
        assert sols == []


class TestRoots:
    def test_prior_product_1_2_minus3(self):
        assert iv.prior_product(1, 2, -3) == 9

    def test_prior_product_symmetric(self):
        base = iv.prior_product(1, 2, -3)
        assert iv.prior_product(2, -3, 1) == base == iv.prior_product(-3, 1, 2)

    def test_q2_identity_for_given_quartic_roots(self):
        lhs, rhs = iv.sum_of_squares_identity([1, -1, 2, -2])
        assert lhs == rhs == -10

    def test_randomized_report(self):
        report = iv.roots_correspondence_check(4, trials=25, seed=3)
        assert report.q2_identity_ok
        assert report.prior_product_ok

    def test_degenerate_triple_rejected(self):
        with pytest.raises(ValueError):
            iv.prior_product(1, 1, -2)
        with pytest.raises(ValueError):
            iv.prior_product(1, 2, 3)


class TestRootIdentityProofs:
    """The integer formulas of roots_correspondence_check hold as
    polynomial identities, and agree with the Fraction oracles."""

    @pytest.mark.parametrize("p", range(2, 9))
    def test_q2_identity_holds_over_the_polynomial_ring(self, p):
        # e1, e2 are -a1 and a2 of prod (x - r_i y), and
        # 2 e2 - e1^2 + sum r_i^2 = 0 in Q[r1..rp].
        names = ("x", "y") + tuple(f"r{i}" for i in range(1, p + 1))
        x, y, *roots = (MultiPoly.variable(names, n) for n in names)
        e1, e2 = iv._e1_e2(roots)
        quantic = MultiPoly.const(names, 1)
        for r in roots:
            quantic = quantic * (x - r * y)

        def coefficient(k):  # of x^(p-k) y^k, over the roots
            terms = {(0, 0) + exp[2:]: c for exp, c in quantic.terms.items() if exp[:2] == (p - k, k)}
            return MultiPoly(names, terms)

        assert coefficient(1) == -e1 and coefficient(2) == e2
        assert (2 * e2 - e1 * e1 + sum(r * r for r in roots)).is_zero()

    def test_prior_product_identity_holds_over_the_polynomial_ring(self):
        # N1 N2 - 9 D1 D2 = 0 in Q[a1, a2] with a3 = -a1 - a2.
        names = ("a1", "a2")
        a1, a2 = (MultiPoly.variable(names, n) for n in names)
        n1, d1, n2, d2 = iv._prior_factors(a1, a2, -a1 - a2)
        assert (n1 * n2 - 9 * d1 * d2).is_zero()


scaled_samples = st.tuples(st.integers(-9, 9), st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(st.lists(scaled_samples, min_size=2, max_size=8))
def test_scaled_q2_sides_are_144_times_the_fraction_sides(samples):
    roots = [n * (12 // d) for n, d in samples]
    e1, e2 = iv._e1_e2(roots)
    lhs, rhs = iv.sum_of_squares_identity([Fraction(n, d) for n, d in samples])
    assert (2 * e2 - e1 * e1, -sum(r * r for r in roots)) == (144 * lhs, 144 * rhs)


@settings(max_examples=300, deadline=None)
@given(scaled_samples, scaled_samples)
def test_scaled_prior_factors_are_the_fraction_factors(first, second):
    (n, d), (m, e) = first, second
    a1, a2 = Fraction(n, d), Fraction(m, e)
    a3 = -a1 - a2
    s1, s2 = n * (12 // d), m * (12 // e)
    assert (s1, s2) == (12 * a1, 12 * a2)
    n1, d1, n2, d2 = iv._prior_factors(s1, s2, -s1 - s2)
    try:
        product = iv.prior_product(a1, a2, a3)
    except ValueError:
        assert not (d1 and d2)  # the integer check redraws where the oracle refuses
        return
    assert d1 and d2
    assert Fraction(n1, d1) == a1 / (a2 - a3) - a2 / (a1 - a3) + a3 / (a1 - a2)
    assert Fraction(n2, d2) == (a2 - a3) / a1 - (a1 - a3) / a2 + (a1 - a2) / a3
    assert Fraction(n1, d1) * Fraction(n2, d2) == product == 9
