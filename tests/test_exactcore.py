import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combanal.exactcore import (
    MultiPoly,
    _echelon,
    format_rows,
    poly_det_cofactor,
    nullspace_sparse,
    poly_ring,
)
from combanal.invariants import avar_names, covariant_from_seed
from nullspace_support import gauss_jordan_nullspace, gauss_jordan_rref, integer_rows
from series_support import SingularSeriesError, series_inverse


def random_poly(rng, names, max_terms=4, max_exp=3, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in names)
        terms[exp] = Fraction(rng.randint(-max_coeff, max_coeff))
    return MultiPoly(names, terms)


Solution = namedtuple("Solution", "kind particular basis")


def fraction_gauss_jordan(a, b):
    """Oracle: dense Gauss-Jordan over Fraction, pivoting on the first
    nonzero entry of each column.  The basis of the homogeneous solutions
    is the RREF one: a 1 at each free column, in ascending order."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols] != 0:
            return Solution("inconsistent", None, None)
    particular = [Fraction(0)] * cols
    for i, c in enumerate(pivot_cols):
        particular[c] = aug[i][cols]
    basis = []
    for fc in (c for c in range(cols) if c not in pivot_cols):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = -aug[i][fc]
        basis.append(vec)
    return Solution("parametric" if basis else "unique", particular, basis)


class TestMultiPoly:
    def test_constructor_drops_zero_coefficients(self):
        p = MultiPoly(("x",), {(1,): 0, (2,): 3})
        assert p.terms == {(2,): Fraction(3)}

    def test_structural_equality(self):
        x, y = poly_ring("x", "y")
        assert x * y + 1 == 1 + y * x
        assert x != y

    def test_ring_axioms_randomized(self):
        rng = random.Random(7)
        names = ("x", "y", "z")
        for _ in range(60):
            a = random_poly(rng, names)
            b = random_poly(rng, names)
            c = random_poly(rng, names)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_substitute_and_evaluate(self):
        x, y = poly_ring("x", "y")
        p = x**2 + 2 * x * y
        u, v = poly_ring("u", "v")
        q = p.substitute({"x": u + v, "y": u})
        assert q == (u + v) ** 2 + 2 * (u + v) * u
        at = p.substitute({"x": MultiPoly.const((), 2), "y": MultiPoly.const((), Fraction(1, 2))})
        assert at == MultiPoly.const((), 6)

    def test_diff(self):
        x, y = poly_ring("x", "y")
        assert (x**3 * y).diff("x") == 3 * x**2 * y

    @pytest.mark.parametrize(
        "terms,text",
        [
            ({}, "0"),
            ({(0, 0): 7}, "7"),
            ({(0, 0): -1, (1, 0): 1}, "-1 + x"),
            ({(1, 0): 1, (0, 1): -1}, "-y + x"),
            ({(2, 1): Fraction(3, 2), (0, 3): Fraction(-1, 3)}, "-1/3*y^3 + 3/2*x^2*y"),
            ({(1, 0): Fraction(-1, 3), (0, 1): 2}, "2*y - 1/3*x"),
            ({(0, 2): -2, (2, 0): 1, (1, 1): -1}, "-2*y^2 - x*y + x^2"),
            # degree first, then lexicographic: y^3 after x*y, before x^3
            ({(3, 0): 1, (0, 0): 4, (1, 1): 5, (0, 3): -1, (0, 1): -1}, "4 - y + 5*x*y - y^3 + x^3"),
        ],
    )
    def test_str(self, terms, text):
        assert str(MultiPoly(("x", "y"), terms)) == text

    def test_format_rows_writes_one_polynomial_per_row(self):
        # zero entries are skipped, and a row of zeros is the zero polynomial
        rows = [[0, 0, 0], [0, 2, 0], [1, -1, 3], [-5, 0, 1]]
        assert format_rows(("x", "y"), [(0, 0), (0, 1), (1, 0)], rows) == ["0", "2*y", "1 - y + 3*x", "-5 + x"]

    def test_exponent_overflow_is_hard_error(self):
        with pytest.raises(OverflowError):
            MultiPoly(("x",), {(2**40,): 1})


class TestPolyDet:
    def test_identity(self):
        names = ("x",)
        one = MultiPoly.const(names, 1)
        zero = MultiPoly.zero(names)
        assert poly_det_cofactor([[one, zero], [zero, one]]) == one

    def test_non_square_rejected(self):
        names = ("x",)
        one = MultiPoly.const(names, 1)
        with pytest.raises(ValueError, match="determinant needs a square matrix"):
            poly_det_cofactor([[one, one]])

    def test_triangular_det_is_diagonal_product(self):
        rng = random.Random(3)
        names = ("x", "y")
        for _ in range(10):
            n = rng.randint(2, 4)
            m = [[MultiPoly.zero(names) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = random_poly(rng, names, max_terms=2, max_exp=2)
            prod = MultiPoly.const(names, 1)
            for i in range(n):
                prod = prod * m[i][i]
            assert poly_det_cofactor(m) == prod

    def test_derangement_denominator_in_elementary_symmetric_terms(self):
        # det(I - diag(x)*J4) for J4 = all-ones-minus-identity comes out as
        # 1 - e2 - 2*e3 - 3*e4 in the elementary symmetric functions.
        names = tuple(f"x{i}" for i in range(1, 5))
        xs = poly_ring(*names)
        one = MultiPoly.const(names, 1)
        zero = MultiPoly.zero(names)
        m = [
            [(one if i == j else zero) - (zero if i == j else xs[i]) for j in range(4)]
            for i in range(4)
        ]
        det = poly_det_cofactor(m)
        import itertools

        e = {}
        for k in (2, 3, 4):
            acc = MultiPoly.zero(names)
            for combo in itertools.combinations(range(4), k):
                term = MultiPoly.const(names, 1)
                for c in combo:
                    term = term * xs[c]
                acc = acc + term
            e[k] = acc
        expected = one - e[2] - 2 * e[3] - 3 * e[4]
        assert det == expected


class TestSeries:
    def test_geometric(self):
        (x,) = poly_ring("x")
        s = series_inverse(1 - x, (3,))
        assert s == 1 + x + x**2 + x**3

    def test_zero_constant_term_rejected(self):
        (x,) = poly_ring("x")
        with pytest.raises(SingularSeriesError):
            series_inverse(x, (3,))

    def test_inverse_times_original_is_one(self):
        rng = random.Random(23)
        names = ("x", "y")
        one = MultiPoly.const(names, 1)
        for _ in range(100):
            p = random_poly(rng, names, max_terms=3, max_exp=2)
            p = p - MultiPoly.const(names, p.constant_term()) + one
            s = series_inverse(p, (5, 5))
            assert (s * p).truncate((5, 5)) == one

    @settings(max_examples=60)
    @given(st.data())
    def test_inverse_times_original_is_one_in_any_box(self, data):
        n = data.draw(st.integers(1, 3))
        coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coeffs, max_size=5))
        terms[(0,) * n] = data.draw(coeffs.filter(bool))
        box = data.draw(st.tuples(*[st.integers(0, 4)] * n))
        names = tuple(f"x{i}" for i in range(n))
        p = MultiPoly(names, terms)
        assert (series_inverse(p, box) * p).truncate(box) == MultiPoly.const(names, 1)

    def test_appendix_style_bipartite_coefficients(self):
        # coeff of x^2 y^2 in 1/(1-2x-2y+2xy) is 52: twice the 26
        # compositions of the bipartite number (2,2).
        x, y = poly_ring("x", "y")
        s = series_inverse(1 - 2 * x - 2 * y + 2 * x * y, (2, 2))
        assert s.coeff((2, 2)) == 52
        assert s.coeff((1, 1)) == 6

    def test_partition_counting_series(self):
        (x,) = poly_ring("x")
        s = series_inverse((1 - x) * (1 - x**2), (6,))
        assert s.coeff((5,)) == 3

    def test_per_variable_caps(self):
        x, y = poly_ring("x", "y")
        assert (x**2 + x * y).truncate((1, 4)) == x * y
        assert (x**2 + x * y + y**3).truncate((2, 1)) == x**2 + x * y


def draw_matrix(data):
    """A 1..6 by 1..6 matrix of zeros, ints and Fractions, sometimes with
    row 0 copied into a later row so that the rank drops."""
    rows = data.draw(st.integers(1, 6), label="rows")
    cols = data.draw(st.integers(1, 6), label="cols")
    entry = st.one_of(
        st.just(0),
        st.integers(-6, 6),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
    )
    a = [data.draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows > 1 and data.draw(st.booleans(), label="duplicate row 0"):
        a[data.draw(st.integers(1, rows - 1), label="copy")] = list(a[0])
    return a


class TestLinSolve:
    def test_weight6_syzygant_system(self):
        # alpha1 - 4*alpha2 = 0, alpha2 + alpha3 = 0, alpha1 - 3*alpha2 + alpha3 = 0
        # in unknowns alpha1..alpha4 admits a one-parameter family through
        # (-4, -1, 1, 0).
        a = [
            [1, -4, 0, 0],
            [0, 1, 1, 0],
            [1, -3, 1, 0],
        ]
        basis = nullspace_sparse(integer_rows(a), 4)
        assert len(basis) == 2
        # (-4,-1,1,0) lies in the span of the basis: the columns
        # (basis[0], basis[1], target) have a kernel vector using target.
        target = [-4, -1, 1, 0]
        columns = [[basis[0][i], basis[1][i], target[i]] for i in range(4)]
        assert any(vec[2] for vec in nullspace_sparse(integer_rows(columns), 3))

    @settings(max_examples=100)
    @given(st.data())
    def test_matches_fraction_gauss_jordan(self, data):
        # Each integer vector, divided by its last nonzero entry, is the
        # RREF basis vector of the same free column, in the same order.
        a = draw_matrix(data)
        got = nullspace_sparse(integer_rows(a), len(a[0]))
        want = fraction_gauss_jordan(a, [0] * len(a)).basis
        assert len(got) == len(want)
        for ints, vec in zip(got, want):
            last = max(j for j, v in enumerate(ints) if v)
            assert [Fraction(v, ints[last]) for v in ints] == vec

    def test_echelon_pivots_are_the_rref_pivots(self):
        # The columns are taken in order: both rows hold column 1 and are
        # equally sparse, so the first pivots there and the reduced second
        # row, [0,0,2,-1], on column 2.  The pivot columns are
        # Gauss-Jordan's {1,2}, and the vectors those of the RREF free
        # columns 0 and 3.
        a = [[0, 2, 0, 1], [0, 1, 1, 0]]
        assert {c for c, _ in _echelon(integer_rows(a))} == {1, 2}
        assert {c for c, _ in gauss_jordan_rref(a)} == {1, 2}
        assert nullspace_sparse(integer_rows(a), 4) == gauss_jordan_nullspace(a) == [[1, 0, 0, 0], [0, -1, 1, 2]]

    @settings(max_examples=150)
    @given(st.data())
    def test_matches_gauss_jordan_on_sparse_wide_rank_deficient_matrices(self, data):
        # Sparse rows make the sparsest row that holds a column differ from
        # the first one; extra rows that combine two others drop the rank.
        rows = data.draw(st.integers(2, 7), label="rows")
        cols = data.draw(st.integers(rows + 1, 14), label="cols")
        entry = st.one_of(
            st.just(0), st.just(0), st.just(0),
            st.fractions(min_value=-6, max_value=6, max_denominator=5),
        )
        a = [data.draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
        for _ in range(data.draw(st.integers(1, 3), label="dependent rows")):
            i, k = data.draw(st.tuples(st.integers(0, rows - 1), st.integers(0, rows - 1)))
            x, y = data.draw(st.tuples(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)))
            a.append([x * u + y * v for u, v in zip(a[i], a[k])])
        assert nullspace_sparse(integer_rows(a), cols) == gauss_jordan_nullspace(a)

    def test_nullspace(self):
        basis = nullspace_sparse(integer_rows([[1, 1, 0]]), 3)
        assert basis == [[-1, 1, 0], [0, 0, 1]]

    @settings(max_examples=100)
    @given(st.data())
    def test_sparse_rows_give_the_dense_basis(self, data):
        # Integer rows as {column: int} maps, empty ones included, reach the
        # same basis as the dense matrix they spell out; the rows are not
        # consumed.
        cols = data.draw(st.integers(1, 9), label="cols")
        rows = data.draw(st.lists(
            st.dictionaries(st.integers(0, cols - 1), st.integers(-5, 5).filter(bool), max_size=4),
            max_size=7,
        ), label="rows")
        kept = [dict(row) for row in rows]
        dense = [[row.get(j, 0) for j in range(cols)] for row in rows] or [[0] * cols]
        assert nullspace_sparse(rows, cols) == gauss_jordan_nullspace(dense)
        assert rows == kept


# -- the coefficient normal form ------------------------------------------
#
# A stored coefficient is an int when it is integral and a Fraction only
# when it is not.  The reference below does the same algebra on dicts of
# Fractions, with no normal form at all.

NAMES = ("x", "y")
COEFFS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)
POLYS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), COEFFS, max_size=4
).map(lambda terms: MultiPoly(NAMES, terms))
BOXES = st.tuples(st.integers(0, 3), st.integers(0, 3))


def assert_normal(poly):
    for c in poly.terms.values():
        assert type(c) in (int, Fraction), c
        assert (type(c) is int) == (Fraction(c).denominator == 1), repr(c)


def ref(poly):
    return {e: Fraction(c) for e, c in poly.terms.items()}


def ref_clean(d):
    return {e: c for e, c in d.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_clean(out)


def ref_scale(a, k):
    return ref_clean({e: c * k for e, c in a.items()})


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return ref_clean(out)


def ref_pow(a, n):
    out = {(0,) * len(NAMES): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_series_inverse(a, box):
    c0 = a[(0,) * len(box)]
    q = {}
    for e in itertools.product(*(range(b + 1) for b in box)):
        total = Fraction(0 if any(e) else 1)
        for f, c in a.items():
            g = tuple(x - y for x, y in zip(e, f))
            if any(f) and min(g) >= 0:
                total -= c * q[g]
        q[e] = total / c0
    return ref_clean(q)


class TestCoefficientNormalForm:
    @settings(max_examples=150)
    @given(POLYS, POLYS, st.integers(0, 3), BOXES, COEFFS.filter(bool))
    def test_operations_match_all_fraction_reference(self, a, b, n, box, c0):
        assert_normal(a)
        A, B = ref(a), ref(b)
        half_y = MultiPoly(NAMES, {(0, 1): Fraction(1, 2), (0, 0): 1})
        H = ref(half_y)
        sub_ref = {}
        for (ex, ey), c in A.items():
            sub_ref = ref_add(sub_ref, ref_scale(ref_mul(ref_pow(B, ex), ref_pow(H, ey)), c))
        p = a - a.constant_term() + c0
        checks = {
            "add": (a + b, ref_add(A, B)),
            "sub": (a - b, ref_add(A, ref_scale(B, -1))),
            "mul": (a * b, ref_mul(A, B)),
            "scalar mul": (a * c0, ref_scale(A, Fraction(c0))),
            "pow": (a**n, ref_pow(A, n)),
            "diff": (a.diff("y"), ref_clean(
                {(ex, ey - 1): c * ey for (ex, ey), c in A.items() if ey}
            )),
            "substitute": (a.substitute({"x": b, "y": half_y}), sub_ref),
            "truncate": (a.truncate(box), {
                e: c for e, c in A.items() if e[0] <= box[0] and e[1] <= box[1]
            }),
            "series_inverse": (series_inverse(p, box), ref_series_inverse(ref(p), box)),
        }
        if b:
            checks["exact_div"] = ((a * b).exact_div(b), A)
        for name, (got, want) in checks.items():
            assert got.terms == want, name
            assert_normal(got)

    def test_integral_fraction_is_stored_as_int(self):
        p = MultiPoly(NAMES, {(1, 0): Fraction(6, 3), (0, 1): Fraction(1, 2)})
        assert type(p.terms[(1, 0)]) is int and p.terms[(1, 0)] == 2
        assert type(p.terms[(0, 1)]) is Fraction
        same = MultiPoly(NAMES, {(1, 0): 2, (0, 1): Fraction(1, 2)})
        assert p == same and hash(p) == hash(same)
        assert type(MultiPoly.const(NAMES, Fraction(-4, 2)).constant_term()) is int
        assert p.coeff((3, 3)) == 0 and type(p.coeff((3, 3))) is int

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            MultiPoly(NAMES, {(1, 0): 0.5})
        with pytest.raises(TypeError):
            MultiPoly(NAMES, {(1, 0): 2.0})
        (x, _) = poly_ring(*NAMES)
        with pytest.raises(TypeError):
            x * 0.5

    def test_series_inverse_with_constant_two(self):
        (x,) = poly_ring("x")
        s = series_inverse(2 - x, (4,))
        assert s.terms == {(k,): Fraction(1, 2 ** (k + 1)) for k in range(5)}
        assert all(type(c) is Fraction for c in s.terms.values())

    def test_series_inverse_with_negative_constant(self):
        (x,) = poly_ring("x")
        s = series_inverse(x - 3, (3,))
        assert s.terms == {(k,): Fraction(-1, 3 ** (k + 1)) for k in range(4)}
        ones = series_inverse(x - 1, (3,))
        assert ones.terms == {(k,): -1 for k in range(4)}
        assert all(type(c) is int for c in ones.terms.values())

    def test_exact_div_with_non_integral_quotient(self):
        (x,) = poly_ring("x")
        q = (x**2 - 1).exact_div(2 * x + 2)
        assert q.terms == {(1,): Fraction(1, 2), (0,): Fraction(-1, 2)}
        assert all(type(c) is Fraction for c in q.terms.values())
        assert (x**2 - 1).exact_div(x + 1) == x - 1
        with pytest.raises(ValueError):
            (x**2 + 1).exact_div(2 * x)

    def test_covariant_from_seed_divides_by_factorials(self):
        # O^k a0 / k! over a0..ap gives back the quantic's binomial weights.
        for p in (2, 3, 4):
            seed = MultiPoly.variable(avar_names(p), "a0")
            cov = covariant_from_seed(seed, p)
            quantic = {(0,) * k + (1,) + (0,) * (p - k) + (p - k, k): math.comb(p, k) for k in range(p + 1)}
            assert cov == MultiPoly(avar_names(p, with_xy=True), quantic)
            assert all(type(c) is int for c in cov.terms.values())

    @settings(max_examples=100)
    @given(st.data())
    def test_nullspace_integer_is_primitive_rational_basis(self, data):
        a = draw_matrix(data)
        rows, cols = len(a), len(a[0])

        def rank(k):  # of the first k columns
            return k - len(fraction_gauss_jordan([row[:k] for row in a], [0] * rows).basis)

        pivot_cols = {j for j in range(cols) if rank(j + 1) > rank(j)}
        for ints in nullspace_sparse(integer_rows(a), cols):
            assert all(type(v) is int for v in ints)
            assert math.gcd(*ints) == 1
            # the last nonzero entry is positive and on a non-pivot column
            last = max(j for j, v in enumerate(ints) if v)
            assert last not in pivot_cols and ints[last] > 0
