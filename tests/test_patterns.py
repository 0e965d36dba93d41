import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combanal import DomainError, cli
from combanal import patterns as pa
from combanal import recreations as rc
from profile_support import random_profile

F = Fraction


def verify_cover_full_scan(placements, radius):
    """The earlier cover check: every sample point against every copy."""
    step = 1.0 / 8.0
    guard = 1e-6
    k = int(radius / step)
    for ix in range(-k, k + 1):
        for iy in range(-k, k + 1):
            pt = (ix * step + 0.0137, iy * step + 0.0071)
            if math.hypot(pt[0], pt[1]) > radius:
                continue
            hits = 0
            near_boundary = False
            for placement in placements:
                if pa._distance_to_boundary(pt, placement.boundary) < guard:
                    near_boundary = True
                    break
                if pa._point_in_polygon(pt, placement.boundary):
                    hits += 1
            if near_boundary:
                continue
            if hits != 1:
                return False, pt
    return True, None


# Every (tile, extent) that a `pattern tiling` request of the benchmark
# pools asks for, plus the self-paired hexagon at extent 5.
TILING_ARGV = [
    "pattern tiling --cairo --extent 1",
    "pattern tiling --cairo --extent 2",
    "pattern tiling --cairo --extent 4",
    "pattern tiling --extent 1",
    "pattern tiling --extent 2",
    "pattern tiling --extent 3",
    "pattern tiling --base triangle --extent 2",
    "pattern tiling --base triangle --extent 4",
    "pattern tiling --base hexagon --extent 2",
    "pattern tiling --base hexagon --extent 5",
]


def cli_tiling(argv):
    args = cli.build_parser().parse_args(argv.split())
    return pa.generate_tiling(cli._named_tile(args), args.extent), args.extent


def random_tile(rng, layout):
    """A legal tile that the direct-isometry tiler accepts, its profiles
    from profile_support.random_profile."""
    if layout == "square-translation":
        p0, p1 = random_profile(rng), random_profile(rng)
        return pa.build_repeat_tile("square", (2, 3, 0, 1), (p0, p1, pa.point_profile(p0), pa.point_profile(p1)))
    if layout == "square-adjacent":
        p0, p1 = random_profile(rng), random_profile(rng)
        return pa.build_repeat_tile("square", (3, 2, 1, 0), (p0, p1, pa.point_profile(p1), pa.point_profile(p0)))
    if layout == "triangle":
        return pa.build_repeat_tile("triangle", (0, 1, 2), tuple(random_profile(rng, "U") for _ in range(3)))
    ps = [random_profile(rng) for _ in range(3)]
    return pa.build_repeat_tile("hexagon", (3, 4, 5, 0, 1, 2), (*ps, *map(pa.point_profile, ps)))


class TestClassification:
    def test_straight_is_degenerate(self):
        assert pa.classify_edge(pa.STRAIGHT) == "SU"

    def test_centered_sawtooth_is_u(self):
        saw = pa.EdgeProfile.from_coords(
            [(0, 0), (F(1, 4), F(1, 4)), (F(3, 4), F(-1, 4)), (1, 0)]
        )
        assert pa.classify_edge(saw) == "U"
        assert pa.point_profile(saw) == saw

    def test_centered_bump_is_s(self):
        bump = pa.EdgeProfile.from_coords([(0, 0), (F(1, 2), F(1, 3)), (1, 0)])
        assert pa.classify_edge(bump) == "S"
        assert pa.mirror_profile(bump) == bump

    def test_asymmetric_two_bump_is_v(self):
        two = pa.EdgeProfile.from_coords(
            [(0, 0), (F(1, 4), F(1, 3)), (F(1, 2), F(0)), (F(5, 8), F(-1, 5)), (1, 0)]
        )
        assert pa.classify_edge(two) == "V"
        assert pa.mirror_profile(two) != two
        assert pa.point_profile(two) != two
        # the half-turn and mirror images are the same cut seen from the
        # two sides of the edge
        assert pa.point_profile(two) == pa.negate_profile(pa.mirror_profile(two))

    def test_operator_identities_on_200_random_profiles(self):
        rng = random.Random(99)
        for i in range(200):
            sym = (None, "S", "U")[i % 3]
            e = random_profile(rng, sym)
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

    def test_rejects_bad_endpoints_and_crossings(self):
        with pytest.raises(ValueError):
            pa.EdgeProfile.from_coords([(0, 0), (F(1, 2), F(1, 2))])
        with pytest.raises(ValueError):
            pa.EdgeProfile.from_coords(
                [(0, 0), (F(3, 4), F(1, 4)), (F(1, 4), F(-1, 8)), (F(1, 2), F(1, 2)), (1, 0)]
            )


class TestRepeatTiles:
    def test_plain_square(self):
        tile = pa.square_translation_tile()
        assert tile.area_offset() == 0
        assert [tuple(map(round, v)) for v in tile.boundary()]  # converts cleanly

    def test_cairo_tile_builds(self):
        tile = pa.cairo_tile()
        assert tile.area_offset() == 0
        assert tile.contact == (3, 2, 1, 0)

    def test_area_preserved_for_any_legal_profile_set(self):
        rng = random.Random(7)
        for _ in range(20):
            p0 = random_profile(rng)
            p1 = random_profile(rng)
            tile = pa.build_repeat_tile(
                "square",
                (2, 3, 0, 1),
                (p0, p1, pa.point_profile(p0), pa.point_profile(p1)),
            )
            assert tile.area_offset() == 0

    def test_illegal_self_pair_rejected_with_edge_names(self):
        bump = pa.EdgeProfile.from_coords([(0, 0), (F(1, 2), F(1, 3)), (1, 0)])
        with pytest.raises(DomainError, match="is self-paired and needs a point-symmetric profile") as err:
            pa.build_repeat_tile("square", (0, 1, 2, 3), (bump,) * 4)
        assert "edge 0" in str(err.value)

    def test_illegal_pair_rejected(self):
        bump = pa.EdgeProfile.from_coords([(0, 0), (F(1, 2), F(1, 3)), (1, 0)])
        saw = pa.EdgeProfile.from_coords(
            [(0, 0), (F(1, 4), F(1, 4)), (F(3, 4), F(-1, 4)), (1, 0)]
        )
        with pytest.raises(DomainError, match="partner profile must be the half-turn") as err:
            pa.build_repeat_tile("square", (2, 3, 0, 1), (bump, saw, saw, saw))
        assert "0-2" in str(err.value)

    def test_bad_involution_rejected(self):
        with pytest.raises(DomainError, match="contact system must be an involution on the edges"):
            pa.build_repeat_tile("square", (1, 2, 3, 0), (pa.STRAIGHT,) * 4)


class TestTilings:
    def test_square_grid_49(self):
        res = pa.generate_tiling(pa.square_translation_tile(), 3)
        assert len(res.placements) == 49
        assert res.verified

    def test_cairo_extent_2(self):
        res = pa.generate_tiling(pa.cairo_tile(), 2)
        assert res.verified
        assert len(res.placements) == 25

    def test_hexagon_base(self):
        tile = pa.build_repeat_tile("hexagon", (3, 4, 5, 0, 1, 2), (pa.STRAIGHT,) * 6)
        res = pa.generate_tiling(tile, 2)
        assert res.verified

    def test_triangle_base(self):
        tile = pa.build_repeat_tile("triangle", (0, 1, 2), (pa.STRAIGHT,) * 3)
        res = pa.generate_tiling(tile, 2)
        assert res.verified

    def test_regular_bases_verify_up_to_extent_5(self):
        for base, contact in (
            ("square", (2, 3, 0, 1)),
            ("triangle", (0, 1, 2)),
            ("hexagon", (3, 4, 5, 0, 1, 2)),
        ):
            tile = pa.build_repeat_tile(base, contact, (pa.STRAIGHT,) * pa.BASES[base])
            for extent in (1, 3, 5):
                assert pa.generate_tiling(tile, extent).verified, (base, extent)

    def test_svg_and_json_deterministic(self):
        res1 = pa.generate_tiling(pa.cairo_tile(), 2)
        res2 = pa.generate_tiling(pa.cairo_tile(), 2)
        assert res1.to_svg() == res2.to_svg()
        assert res1.to_placement_json() == res2.to_placement_json()
        assert json.loads(json.dumps(res1.to_placement_json())) == res1.to_placement_json()
        assert res1.to_svg().startswith('<?xml version="1.0"')
        assert res1.to_svg().count("<path") == len(res1.placements)

    @pytest.mark.parametrize("argv", TILING_ARGV)
    def test_cover_check_matches_full_scan(self, argv):
        result, extent = cli_tiling(argv)
        expected = verify_cover_full_scan(result.placements, radius=extent * 0.5)
        assert (result.verified, result.first_failure) == expected

    def test_self_paired_hexagon_fails_cover_check(self):
        # half-turns about the edge midpoints make overlapping copies
        for extent in (2, 5):
            result, _ = cli_tiling(f"pattern tiling --base hexagon --extent {extent}")
            assert not result.verified and result.first_failure is not None

    @pytest.mark.parametrize("change", ["gap", "overlap"])
    def test_gap_and_overlap_fail_at_the_same_point(self, change):
        result = pa.generate_tiling(pa.cairo_tile(), 2)
        placements = list(result.placements)
        middle = len(placements) // 2
        if change == "gap":
            del placements[middle]
        else:
            placements.append(placements[middle])
        verdict = pa._verify_cover(placements, radius=1.0)
        assert verdict[0] is False
        assert verdict == verify_cover_full_scan(placements, radius=1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(["square-translation", "square-adjacent", "triangle", "hexagon"]),
        extent=st.integers(1, 4),
        change=st.sampled_from([None, "gap", "overlap"]),
    )
    def test_random_tile_cover_check_matches_full_scan(self, seed, layout, extent, change):
        rng = random.Random(seed)
        placements = list(pa.generate_tiling(random_tile(rng, layout), extent).placements)
        if change == "gap":
            del placements[rng.randrange(len(placements))]
        elif change == "overlap":
            placements.append(placements[rng.randrange(len(placements))])
        radius = extent * 0.5
        assert pa._verify_cover(placements, radius) == verify_cover_full_scan(placements, radius)

    @pytest.mark.parametrize("axis", ["column", "row"])
    def test_samples_within_the_guard_of_a_seam_are_skipped(self, axis):
        # two rectangles leave a seam 1e-6 wide around the grid line x =
        # 0.0137 (a column) or y = 0.0071 (a row of samples): every sample
        # on it is within the guard of both and skipped, so the sweep must
        # hand it to the per-point check rather than count it as a gap
        def rect(x0, x1, y0, y1):
            return pa.Placement((1.0, 0.0, 0.0, 1.0, 0.0, 0.0), ((x0, y0), (x1, y0), (x1, y1), (x0, y1)))

        c, h = (0.0137, 0.0071)[axis == "row"], 5e-7
        if axis == "column":
            placements = [rect(-2, c - h, -2, 2), rect(c + h, 2, -2, 2)]
        else:
            placements = [rect(-2, 2, -2, c - h), rect(-2, 2, c + h, 2)]
        assert pa._verify_cover(placements, 1.0) == verify_cover_full_scan(placements, 1.0) == (True, None)

    def test_reflection_contact_refused_by_tiler(self):
        # zero-net-area V profile: tall narrow bump up, shallow wide dip
        lop = pa.EdgeProfile.from_coords(
            [(0, 0), (F(1, 16), 1), (F(1, 8), 0), (F(1, 2), 0), (F(3, 4), F(-1, 4)), (1, 0)]
        )
        assert pa.classify_edge(lop) == "V"
        tile = pa.build_repeat_tile(
            "square",
            (2, 3, 0, 1),
            (lop, pa.STRAIGHT, pa.mirror_profile(lop), pa.STRAIGHT),
        )  # pair 0-2 mates by mirror: legal to build, not to tile directly
        with pytest.raises(DomainError, match="mate by reflection; only half-turn contacts"):
            pa.generate_tiling(tile, 2)

    def test_contact_systems_shared_with_involution_count(self):
        for base, n in (("triangle", 3), ("square", 4), ("hexagon", 6)):
            systems = rc.enumerate_contact_systems(pa.BASES[base])
            assert len(systems) == rc.contact_system_count(n)

    def test_achievable_square_systems_reported(self):
        achievable = pa.achievable_square_contact_systems()
        # the plain translation system 1-3, 2-4 is realizable
        assert (2, 3, 0, 1) in achievable
        # all reported systems are involutions among the ten
        assert set(achievable) <= set(rc.enumerate_contact_systems(4))


class TestAngleLaw:
    def test_any_triangle(self):
        assert pa.angle_distribution_check([F(1, 2), F(1, 3), F(1, 6)])
        assert pa.angle_distribution_check([F(1, 3)] * 3)

    def test_square_and_quadrilaterals(self):
        assert pa.angle_distribution_check([F(1, 2)] * 4)
        assert pa.angle_distribution_check([F(1, 3), F(2, 3), F(1, 2), F(1, 2)])

    def test_regular_pentagon_fails(self):
        assert not pa.angle_distribution_check([F(3, 5)] * 5)

    def test_cairo_pentagon_passes(self):
        # angles 2pi/3 twice, pi/2 twice, 2pi/3: the equilateral pentagon
        # of the four-way paving: 120, 120, 90, 120, 90 degrees
        angles = [F(2, 3), F(2, 3), F(1, 2), F(2, 3), F(1, 2)]
        assert pa.angle_distribution_check(angles)


class TestDeficiency:
    def test_cube(self):
        report = pa.cube_deficiency_report()
        assert report.euler_ok
        assert report.equal
        assert report.vertex_sum == pytest.approx(12 * math.pi)
        assert report.edge_sum == pytest.approx(12 * math.pi)

    def test_tetrahedron(self):
        report = pa.tetrahedron_deficiency_report()
        assert report.euler_ok
        assert report.equal
        assert report.vertex_sum == pytest.approx(22.9276, abs=1e-3)

    def test_perturbation_detected(self):
        bad = pa.euler_deficiency_check(
            [math.pi / 2] * 8, [math.pi / 2 * 0.5] * 12, faces=6
        )
        assert not bad.equal


class TestSchoenflies:
    def test_four_congruent_isosceles_faces(self):
        tetra = pa.schoenflies_tetrahedron()
        faces = tetra.face_edge_multisets()
        assert len(set(faces)) == 1
        lengths = faces[0]
        assert lengths[0] == lengths[1] != lengths[2]  # isosceles

    def test_edge_ratio_squared_is_4_3(self):
        tetra = pa.schoenflies_tetrahedron()
        squares = sorted(set(tetra.edge_lengths_squared()))
        assert Fraction(squares[1], squares[0]) == Fraction(4, 3)

    def test_volume_positive(self):
        tetra = pa.schoenflies_tetrahedron()
        assert tetra.volume() == Fraction(2, 3)

    def test_prism_variant_is_the_other_disphenoid(self):
        tetra = pa.prism_midpoint_tetrahedron()
        faces = tetra.face_edge_multisets()
        assert len(set(faces)) == 1
        squares = sorted(set(tetra.edge_lengths_squared()))
        assert Fraction(squares[1], squares[0]) == Fraction(5, 2)
        assert tetra.volume() > 0
