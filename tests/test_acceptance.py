"""Acceptance suite: one criterion per test, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from combanal import (
    compositions as cp,
    divisors as dv,
    invariants as iv,
    masterthm as mt,
    partitions as pt,
    patterns as pa,
    probelect as pe,
    recreations as rc,
)
from combanal.exactcore import MultiPoly
from enumeration_support import warburton_route1, warburton_route2


def report(number: int, text: str):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_partition_table():
    assert pt.count_partitions(27) == 3010
    assert pt.count_partitions(30) == 5604
    assert pt.count_partitions(38) == 26015
    pt._PARTITION_TABLE[:] = [1]  # fresh table for an honest timing
    start = time.time()
    values = [pt.count_partitions(n) for n in range(201)]
    elapsed = time.time() - start
    assert elapsed < 1.0
    assert values[200] == 3972999029388
    for n in range(41):
        assert pt.count_partitions(n) == len(pt.enumerate_partitions(n))
    report(1, f"p-table anchors exact; p(0..200) in {elapsed:.3f}s; enumeration matches to 40")


# The full greatest-part table for x <= 10.  The printed row for x = 8
# fails its own row-sum invariant (21 != p(8) = 22); the (8,4) cell is
# corrected from 4 to 5, which restores it.
TABLE_6 = [
    [1],
    [1, 1],
    [1, 1, 1],
    [1, 2, 1, 1],
    [1, 2, 2, 1, 1],
    [1, 3, 3, 2, 1, 1],
    [1, 3, 4, 3, 2, 1, 1],
    [1, 4, 5, 5, 3, 2, 1, 1],
    [1, 4, 7, 6, 5, 3, 2, 1, 1],
    [1, 5, 8, 9, 7, 5, 3, 2, 1, 1],
]

TABLE_8_ROW_12 = [1, 6, 12, 15, 13, 11, 7, 5, 3, 2, 1, 1]


def test_criterion_2_recurrence_tradition():
    assert pt.demorgan_u(10, 3) == 8
    for x, row in enumerate(TABLE_6, start=1):
        assert [pt.demorgan_u(x, y) for y in range(1, x + 1)] == row
        assert sum(row) == pt.count_partitions(x)
    for x in range(2, 201):
        assert pt.closed_form_u2(x) == pt.demorgan_u(x, 2)
    for x in range(3, 201):
        assert pt.closed_form_u3(x) == pt.demorgan_u(x, 3)
    assert warburton_route1(31, 5, 3) == 101
    assert warburton_route2(31, 5, 3) == 101
    row12 = [pt.warburton_count(12, p, 1) for p in range(1, 13)]
    assert row12 == TABLE_8_ROW_12 and sum(row12) == 77
    for x in range(1, 21):
        for y in range(1, x + 1):
            assert pt.demorgan_u(x, y) == pt.warburton_count(x, y, 1)
    report(2, "Table 6 (with the corrected x=8 row-sum cell), closed forms to 200, "
              "both Warburton routes give 101, Table 8 row 12 sums to 77, duality to 20")


def test_criterion_3_master_theorem():
    m4 = mt.derangement_matrix(4)
    via_series = mt.master_coefficient(m4, (1, 1, 1, 1))
    via_recurrence = mt.derangements(4)
    via_brute = mt.brute_force_derangements(4)
    assert via_series == via_recurrence == via_brute == 9
    rng = random.Random(2024)
    checked = 0
    for n in (1, 2, 3):
        for _ in range(3):
            a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            for degree in itertools.product(range(4), repeat=n):
                if not 0 < sum(degree) <= 5:
                    continue
                assert mt.master_coefficient(a, degree) == mt.redundant_coefficient(a, degree)
                checked += 1
    report(3, f"{{0;1^4}} = 9 three ways; oracle identity exact on {checked} coefficients")


def test_criterion_4_invariant_theory():
    start = time.time()
    seed = iv.hessian_seed(4)
    chain = [seed]
    current = seed
    for k in range(1, 5):
        current = iv.oop(current, 4)
        chain.append(current * Fraction(1, math.factorial(k)))

    def q(terms):
        return MultiPoly(iv.avar_names(4), terms)

    assert chain[0] == q({(1, 0, 1, 0, 0): 1, (0, 2, 0, 0, 0): -1})
    assert chain[1] == q({(1, 0, 0, 1, 0): 2, (0, 1, 1, 0, 0): -2})
    assert chain[2] == q({(1, 0, 0, 0, 1): 1, (0, 1, 0, 1, 0): 2, (0, 0, 2, 0, 0): -3})
    assert chain[3] == q({(0, 1, 0, 0, 1): 2, (0, 0, 1, 1, 0): -2})
    assert chain[4] == q({(0, 0, 1, 0, 1): 1, (0, 0, 0, 2, 0): -1})
    assert iv.oop(current, 4).is_zero()  # the fifth application annihilates
    cov = iv.covariant_from_seed(seed, 4)
    assert len(cov.terms) == 11

    basis = iv.seminvariant_basis(4, 3, 6)
    assert basis == [iv.quartic_invariant_j()]

    # Dimension laws over the whole box.  The classical at-most-j-parts /
    # at-most-p-each difference (the Gaussian binomial) matches the full
    # kernel everywhere; the quoted contains-j partition count matches the
    # new-at-degree-j dimension in its stable regime p >= w (see the
    # decisions ledger for the (6,3,6) counterexample to the literal
    # full-kernel reading).
    for p in range(1, 7):
        for j in range(1, 5):
            for w in range(1, 11):
                kernel = len(iv.seminvariant_basis(p, j, w))
                assert iv.seminvariant_dimension(p, j, w) == kernel
                if p >= w:
                    lower = len(iv.seminvariant_basis(p, j - 1, w)) if j > 1 else 0
                    assert iv.new_seminvariant_dimension(p, j, w) == kernel - lower
                    assert iv.non_unitary_contains_count(w, j) == kernel - lower

    names3 = iv.avar_names(3)
    a0 = MultiPoly.variable(names3, "a0")
    h3 = iv.quadrinvariant(3, 2)
    c3 = iv.odd_source(3, 3)
    assert (a0**2 * iv.cubic_discriminant() - 4 * h3**3 - c3**2).is_zero()
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(4, f"Hessian chain with /k! exact, basis(4,3,6) = [J], dimension laws over the box, "
              f"cubic syzygant identity == 0, in {elapsed:.2f}s")


# Frozen from the published footnote list.
COMPOSITIONS_22 = {
    ((2, 2),), ((1, 1), (1, 1)), ((2, 1), (0, 1)), ((0, 1), (2, 1)),
    ((1, 2), (1, 0)), ((1, 0), (1, 2)), ((2, 0), (0, 2)), ((0, 2), (2, 0)),
    ((2, 0), (0, 1), (0, 1)), ((0, 1), (2, 0), (0, 1)), ((0, 1), (0, 1), (2, 0)),
    ((1, 1), (0, 1), (1, 0)), ((1, 1), (1, 0), (0, 1)), ((0, 1), (1, 1), (1, 0)),
    ((1, 0), (1, 1), (0, 1)), ((0, 1), (1, 0), (1, 1)), ((1, 0), (0, 1), (1, 1)),
    ((0, 2), (1, 0), (1, 0)), ((1, 0), (0, 2), (1, 0)), ((1, 0), (1, 0), (0, 2)),
    ((0, 1), (1, 0), (0, 1), (1, 0)), ((0, 1), (0, 1), (1, 0), (1, 0)),
    ((0, 1), (1, 0), (1, 0), (0, 1)), ((1, 0), (1, 0), (0, 1), (0, 1)),
    ((1, 0), (0, 1), (1, 0), (0, 1)), ((1, 0), (0, 1), (0, 1), (1, 0)),
}


def test_criterion_5_compositions():
    got = set(cp.enumerate_multipartite_compositions((2, 2)))
    assert got == COMPOSITIONS_22 and len(got) == 26
    for p in range(0, 6):
        for q in range(0, 6):
            if p + q == 0 or p + q > 7:
                continue
            assert cp.bipartite_composition_count_gf(p, q) == len(
                cp.enumerate_multipartite_compositions((p, q))
            )
    assert cp.conjugate_composition((2, 1, 4)) == (1, 3, 1, 1, 1)
    assert cp.conjugate_composition((1, 3, 1, 1, 1)) == (2, 1, 4)
    assert cp.zigzag_conjugate((3, 3, 2, 1)) == (1, 1, 2, 1, 2, 2)
    assert cp.zigzag_conjugate((1, 1, 2, 1, 2, 2)) == (3, 3, 2, 1)
    for p in range(1, 5):
        for q in range(1, 5):
            tally = cp.count_by_essential_nodes(p, q)
            for s in range(0, min(p, q) + 1):
                assert tally.get(s, 0) == cp.essential_node_formula_term(p, q, s)
    report(5, "the 26 compositions of (2,2) exact, GF halves match enumeration to 7, "
              "published conjugate pairs, essential-node formula from s = 0")


def test_criterion_6_probability():
    for total in range(2, 13):
        for n in range(0, total // 2 + 1):
            m = total - n
            seqs = _vote_sequences(m, n)
            if m > n:
                good = sum(1 for s in seqs if _always(s, strict=True))
                assert pe.ballot_strictly_ahead(m, n) == Fraction(good, len(seqs))
            good = sum(1 for s in seqs if _always(s, strict=False))
            assert pe.ballot_never_behind(m, n) == Fraction(good, len(seqs))
    model = pe.ElectorateModel(10000, 5000, 5000)
    c0, _ = pe.sample_prob_approx(model, 2500, 0)
    exact0 = float(pe.sample_prob_exact(model, 2500, 2500))
    assert abs(exact0 - 0.01596) < 5e-5
    assert abs(c0 - exact0) / exact0 < 0.01
    for r in (10, 20, 30, 40):
        _, s_r = pe.sample_prob_approx(model, 2500, r)
        cumulative = float(pe.sample_cumulative_exact(model, 2500, 2500, r))
        assert abs(s_r - cumulative) / cumulative < 0.02
    assert pe.cube_law_seats(53, 47, 100) == (59, 41)
    report(6, "ballot oracles exact to total 12, C0 within 1%, S_r within 2% to r=40, "
              "cube law gives (59, 41)")


def _vote_sequences(m, n):
    out = []

    def rec(a, b, prefix):
        if a == 0 and b == 0:
            out.append(tuple(prefix))
            return
        if a:
            rec(a - 1, b, prefix + [0])
        if b:
            rec(a, b - 1, prefix + [1])

    rec(m, n, [])
    return out


def _always(seq, strict):
    a = b = 0
    for v in seq:
        if v == 0:
            a += 1
        else:
            b += 1
        if strict and a <= b:
            return False
        if not strict and a < b:
            return False
    return True


def test_criterion_7_recreations():
    cubes = rc.generate_cubes(6)
    assert len(cubes) == 30
    assert len({frozenset((c, rc.associated_cube(c))) for c in cubes}) == 15
    start = time.time()
    for target in cubes:
        solution = rc.mayblox_solve(target)
        assert solution is not None and rc.verify_assembly(solution, target)
    mayblox_time = time.time() - start
    assert mayblox_time < 60
    assert len(rc.generate_triangles(4)) == 24
    assert len(rc.generate_triangles(5)) == 45
    assert len(rc.generate_squares(3)) == 24
    start = time.time()
    assert rc.stamp_foldings(9) == 4536
    stamps_time = time.time() - start
    assert stamps_time < 5
    assert [rc.contact_system_count(n) for n in range(1, 7)] == [1, 2, 4, 10, 26, 76]
    assert rc.latin_reduced_count(4) == 4
    assert rc.latin_reduced_count(5) == 56
    assert rc.measuring_rod(8) == (0, 1, 3, 7, 12, 20, 30, 44)
    report(7, f"30 cubes/15 pairs, all Mayblox targets solved+reverified in {mayblox_time:.1f}s, "
              f"24/45/24 tiles, 4536 foldings in {stamps_time:.2f}s, contact and Latin counts, rod marks")


MODULAR_8521 = {
    1: [(1,) * 8, (1,) * 5, (1, 1), (1,)],
    2: [(2, 2, 2, 2), (2, 2, 1), (2,), (1,)],
    3: [(3, 3, 2), (3, 2), (2,), (1,)],
    4: [(4, 4), (4, 1), (2,), (1,)],
    5: [(5, 3), (5,), (2,), (1,)],
    6: [(6, 2), (5,), (2,), (1,)],
    7: [(7, 1), (5,), (2,), (1,)],
    8: [(8,), (5,), (2,), (1,)],
}


def test_criterion_8_plane_modular_parity():
    assert len(pt.enumerate_plane_partitions(4)) == 13
    for n in range(16):
        assert pt.count_plane_partitions(n) == len(pt.enumerate_plane_partitions(n))
    for m, rows in MODULAR_8521.items():
        assert pt.modular_partition((8, 5, 2, 1), m) == rows
    assert pt.macmahon_digits(20) == "10111110000111011101"
    pt._PARTITION_TABLE[:] = [1]
    start = time.time()
    assert pt.parity_p(1000) == "odd"
    parity_time = time.time() - start
    assert parity_time < 1.0
    for n in range(101):
        assert pt.count_partitions(5 * n + 4) % 5 == 0
        assert pt.count_partitions(7 * n + 5) % 7 == 0
    report(8, f"13 plane partitions of 4 and GF to 15, modular tables m=1..8, 20 parity bits, "
              f"p(1000) odd in {parity_time:.3f}s, congruences to 100")


XY_DISPLAY = {
    7: 1, 8: 2, 9: 1, 10: 2, 11: 3, 12: 4, 13: 4, 14: 5, 15: 5, 16: 7,
    17: 5, 18: 6, 19: 6, 20: 7, 21: 5, 22: 5, 23: 4, 24: 5, 25: 3, 26: 3,
    27: 2, 28: 2, 29: 1, 30: 1, 31: 1, 32: 1,
}


def test_criterion_9_xy_symmetric_graphs():
    poly = pt.xy_symmetric_two_layer_poly(4)
    assert poly == XY_DISPLAY
    assert poly == pt.xy_symmetric_cell_enumeration(4)
    report(9, "i=4 polynomial reproduces every displayed coefficient and the cell oracle")


def test_criterion_10_divisors():
    for n in range(1, 101):
        assert dv.divisor_series_coeff("A", n, 1) == dv.sigma(n)
    values = dv.sigma2_from_plane_partitions(30)
    for n in range(1, 31):
        assert values[n - 1] == dv.sigma(n, power=2)
    assert dv.potency(33) == 14 and dv.multiplicity(33) == 2
    for nu in range(21):
        assert dv.potency_count(nu) == len(dv.integers_with_potency(nu))
    for n in range(1, 31):
        assert dv.factorizations(n + 1, ordered=True) == len(pt.enumerate_perfect(n))
    report(10, "sigma to 100, sigma2 via the log-derivative to 30, potency anchors and counts, "
               "ordered factorizations equal perfect partitions to 30")


def test_criterion_11_patterns():
    rng = random.Random(17)
    from profile_support import random_profile

    checked = 0
    for i in range(200):
        e = random_profile(rng, (None, "S", "U")[i % 3])
        assert pa.mirror_profile(pa.mirror_profile(e)) == e
        assert pa.point_profile(pa.point_profile(e)) == e
        assert pa.point_profile(e) == pa.negate_profile(pa.mirror_profile(e))
        cls = pa.classify_edge(e)
        if cls in ("S", "SU"):
            assert pa.mirror_profile(e) == e
        if cls in ("U", "SU"):
            assert pa.point_profile(e) == e
        if cls == "V":
            assert pa.mirror_profile(e) != e != pa.point_profile(e)
        checked += 1
    cairo = pa.cairo_tile()
    assert cairo.area_offset() == 0
    tiling = pa.generate_tiling(cairo, 2)
    assert tiling.verified
    cube_r = pa.cube_deficiency_report()
    tetra_r = pa.tetrahedron_deficiency_report()
    assert cube_r.equal and abs(cube_r.vertex_sum - cube_r.edge_sum) <= 1e-9
    assert tetra_r.equal and abs(tetra_r.vertex_sum - tetra_r.edge_sum) <= 1e-9
    tetra = pa.schoenflies_tetrahedron()
    squares = sorted(set(tetra.edge_lengths_squared()))
    assert Fraction(squares[1], squares[0]) == Fraction(4, 3)
    report(11, f"operator identities on {checked} profiles, Cairo tiling verified, "
               "deficiency balance within 1e-9, edge ratio squared exactly 4/3")
