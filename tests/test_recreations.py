import itertools
import math
import time

import pytest

from combanal import recreations as rc
from combanal.exactcore import MultiPoly
from combanal.partitions import enumerate_partitions, is_perfect, is_subperfect
from enumeration_support import contact_systems_oracle, latin_total_walk, tiles_oracle


def is_stamp_folding(stack) -> bool:
    """No two same-parity arcs (pos[s], pos[s+1]) of the stack cross."""
    pos = {stamp: i for i, stamp in enumerate(stack)}
    arcs = [
        (min(pos[s], pos[s + 1]), max(pos[s], pos[s + 1]), s % 2)
        for s in range(1, len(stack))
    ]
    return not any(
        p1 == p2 and (a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1)
        for (a1, b1, p1), (a2, b2, p2) in itertools.combinations(arcs, 2)
    )


def stamp_foldings_oracle(n: int) -> int:
    """The earlier stamp-folding search: after every insertion, rebuild
    all arcs and test every same-parity pair for a crossing."""
    if n == 1:
        return 1
    count = 0

    def extend(stack, nxt):
        nonlocal count
        if nxt > n:
            count += 1
            return
        for slot in range(len(stack) + 1):
            stack.insert(slot, nxt)
            if is_stamp_folding(stack):
                extend(stack, nxt + 1)
            stack.pop(slot)

    extend([1], 2)
    return count


def stamp_foldings_mirrored(n: int) -> int:
    """The earlier O(h)-per-node stamp-folding search: every stack
    extended from [1, 2], its count doubled for the reversal symmetry."""
    if n <= 2:
        return n
    count = 0

    def extend(stack, nxt):
        nonlocal count
        height = len(stack)
        pos = [0] * nxt
        for i, stamp in enumerate(stack):
            pos[stamp] = i
        anchor = pos[nxt - 1]
        first, last = 0, height
        blocked = [0] * (height + 2)
        for s in range(2 - (nxt - 1) % 2, nxt - 2, 2):
            a, b = pos[s], pos[s + 1]
            if a > b:
                a, b = b, a
            if a < anchor < b:
                first, last = max(first, a + 1), min(last, b)
            else:
                blocked[a + 1] += 1
                blocked[b + 1] -= 1
        depth = 0
        for slot in range(last + 1):
            depth += blocked[slot]
            if slot < first or depth:
                continue
            if nxt == n:
                count += 1
                continue
            stack.insert(slot, nxt)
            extend(stack, nxt + 1)
            stack.pop(slot)

    extend([1, 2], 3)
    return 2 * count


# OEIS A000136, n = 1..12
STAMP_FOLDINGS = [1, 2, 6, 16, 50, 144, 462, 1392, 4536, 14060, 46310, 146376]


def latin_count_oracle(n: int, reduced: bool) -> int:
    """The earlier Latin-square search: scan the whole row and column of
    a cell for every candidate value."""
    grid = [[-1] * n for _ in range(n)]
    if reduced:
        grid[0] = list(range(n))
        for i in range(n):
            grid[i][0] = i
    cells = [(r, c) for r in range(n) for c in range(n) if grid[r][c] == -1]
    count = 0

    def ok(r, c, v):
        return all(grid[r][j] != v for j in range(n)) and all(
            grid[i][c] != v for i in range(n)
        )

    def search(idx):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        r, c = cells[idx]
        for v in range(n):
            if ok(r, c, v):
                grid[r][c] = v
                search(idx + 1)
                grid[r][c] = -1

    search(0)
    return count


def assemble_oracle(pool, target):
    """The earlier assembly search: every (position, cube, rotation)
    orients the cube afresh to test the corner's three outer faces."""
    per_position = []
    for pos in rc._POSITIONS:
        wanted = {face: target[face] for face in rc._outer_faces(pos)}
        options = []
        for ci, cube in enumerate(pool):
            for ri, rot in enumerate(rc.ROTATIONS):
                faces = tuple(cube[f] for f in rot)
                if all(faces[f] == color for f, color in wanted.items()):
                    options.append((ci, faces, ri))
        per_position.append(options)

    order = sorted(range(len(rc._POSITIONS)), key=lambda i: len(per_position[i]))
    placed = {}
    used = set()
    pairs = ((rc.R, rc.L, (1, 0, 0)), (rc.B, rc.F, (0, 1, 0)), (rc.U, rc.D, (0, 0, 1)))

    def fits(pos, faces):
        for hi, lo, delta in pairs:
            above = tuple(p + d for p, d in zip(pos, delta))
            below = tuple(p - d for p, d in zip(pos, delta))
            if above in placed and faces[hi] != placed[above][1][lo]:
                return False
            if below in placed and placed[below][1][hi] != faces[lo]:
                return False
        return True

    def search(idx):
        if idx == len(order):
            return True
        pos = rc._POSITIONS[order[idx]]
        for ci, faces, ri in per_position[order[idx]]:
            if ci in used or not fits(pos, faces):
                continue
            placed[pos] = (ci, faces, ri)
            used.add(ci)
            if search(idx + 1):
                return True
            del placed[pos]
            used.discard(ci)
        return False

    if not search(0):
        return None
    return rc.CubeAssembly(tuple((pos, pool[ci], ri) for pos, (ci, _, ri) in sorted(placed.items())))


class TestCubes:
    def test_rotation_group_order(self):
        assert len(rc.ROTATIONS) == 24

    def test_thirty_cubes(self):
        assert len(rc.generate_cubes(6)) == 30 == rc.distinct_cube_count(6)

    @pytest.mark.parametrize("k", [0, 5, 7])
    def test_distinct_count_refuses_as_the_listing_does(self, k):
        with pytest.raises(ValueError) as listing:
            rc.generate_cubes(k)
        with pytest.raises(ValueError, match=f"^{listing.value}$"):
            rc.distinct_cube_count(k)

    def test_single_color(self):
        assert rc.generate_cubes(1, "any-coloring") == [(0, 0, 0, 0, 0, 0)]

    def test_orbit_counts_match_formula(self):
        for k in range(1, 5):
            got = len(rc.generate_cubes(k, "any-coloring"))
            assert got == rc.cube_orbit_count(k)
        assert rc.cube_orbit_count(2) == 10

    def test_orbit_marking_matches_per_candidate_canonicalisation(self):
        oracle = sorted({rc.canonical_cube(c) for c in itertools.permutations(range(6))})
        assert rc.generate_cubes(6) == oracle
        for k in range(1, 4):
            oracle = sorted({rc.canonical_cube(c) for c in itertools.product(range(k), repeat=6)})
            assert rc.generate_cubes(k, "any-coloring") == oracle

    def test_canonicalization_idempotent(self):
        for cube in rc.generate_cubes(3, "any-coloring"):
            assert rc.canonical_cube(cube) == cube

    def test_associated_is_involution_without_fixed_points(self):
        cubes = rc.generate_cubes(6)
        for c in cubes:
            a = rc.associated_cube(c)
            assert a != c
            assert rc.associated_cube(a) == c

    def test_fifteen_associated_pairs(self):
        cubes = rc.generate_cubes(6)
        pairs = {frozenset((c, rc.associated_cube(c))) for c in cubes}
        assert len(pairs) == 15

    def test_associated_same_for_any_opposite_pair_swap(self):
        # swapping U/D, F/B or L/R all give the same mirror cube
        for cube in rc.generate_cubes(6)[:5]:
            ud = rc.canonical_cube((cube[1], cube[0]) + cube[2:])
            fb = rc.canonical_cube(cube[:2] + (cube[3], cube[2]) + cube[4:])
            lr = rc.canonical_cube(cube[:4] + (cube[5], cube[4]))
            assert ud == fb == lr == rc.associated_cube(cube)


class TestMayblox:
    def test_every_target_is_solvable_and_verifies(self):
        cubes = rc.generate_cubes(6)
        start = time.time()
        for target in cubes:
            solution = rc.mayblox_solve(target)
            assert solution is not None, target
            assert rc.verify_assembly(solution, target)
            used = {rc.canonical_cube(c) for _, c, _ in solution.placements}
            assert target not in used
            assert rc.associated_cube(target) not in used
            assert len(used) == 8
        assert time.time() - start < 60

    def test_verify_rejects_tampering(self):
        cubes = rc.generate_cubes(6)
        solution = rc.mayblox_solve(cubes[0])
        # swap the cubes in two positions without reorienting
        placements = list(solution.placements)
        (p0, c0, r0), (p1, c1, r1) = placements[0], placements[1]
        placements[0], placements[1] = (p0, c1, r0), (p1, c0, r1)
        assert not rc.verify_assembly(rc.CubeAssembly(tuple(placements)), cubes[0])

    def test_target_free_variant(self):
        solution = rc.mayblox_solve_any()
        assert solution is not None
        assert rc.verify_assembly(solution, None)

    @pytest.mark.parametrize("exclude_associate", [True, False])
    def test_matches_the_per_option_orienting_search(self, exclude_associate):
        cubes = rc.generate_cubes(6)
        for target in cubes:
            banned = {target, rc.associated_cube(target)} if exclude_associate else {target}
            pool = [c for c in cubes if c not in banned]
            assert rc.mayblox_solve(target, pool=cubes, exclude_associate=exclude_associate) == (
                assemble_oracle(pool, target)
            ), target

    def test_target_free_variant_matches_the_per_option_orienting_search(self):
        cubes = rc.generate_cubes(6)
        oracle = next(a for a in (assemble_oracle(cubes, t) for t in cubes) if a is not None)
        assert rc.mayblox_solve_any() == oracle


class TestTiles:
    def test_triangle_counts(self):
        assert len(rc.generate_triangles(4)) == 24 == rc.triangle_count_formula(4)
        assert len(rc.generate_triangles(5)) == 45 == rc.triangle_count_formula(5)
        assert rc.generate_triangles(1) == [(0, 0, 0)]

    def test_square_counts(self):
        assert len(rc.generate_squares(3)) == 24 == rc.square_count_formula(3)
        assert len(rc.generate_squares(2)) == 6 == rc.square_count_formula(2)

    def test_tile_canonicalization(self):
        assert rc.canonical_tile((2, 0, 1)) == (0, 1, 2)
        for t in rc.generate_triangles(3):
            assert rc.canonical_tile(t) == t

    @pytest.mark.parametrize("sides", [3, 4])
    def test_tiles_match_the_dedupe_and_sort_oracle(self, sides):
        for k in range(1, 7):
            assert rc.generate_tiles(sides, k) == tiles_oracle(sides, k), k

    def test_count_formulas_refuse_as_the_listing_does(self):
        for count in (rc.triangle_count_formula, rc.square_count_formula):
            with pytest.raises(ValueError, match="need at least 3 sides and 1 color"):
                count(0)
        with pytest.raises(ValueError, match="need at least one color"):
            rc.cube_orbit_count(0)

    def test_reflection_not_identified(self):
        # (0,1,2) and its mirror (0,2,1) are distinct tiles under rotation
        tiles = set(rc.generate_triangles(3))
        assert (0, 1, 2) in tiles and (0, 2, 1) in tiles


class TestHexagon:
    def test_board_shape(self):
        cells, edge_map, perimeter = rc.hexagon_board()
        assert len(cells) == 24
        assert len(perimeter) == 12
        owners = sorted(len(v) for v in edge_map.values())
        assert owners.count(1) == 12 and owners.count(2) == 30

    def test_solvable_with_uniform_border(self):
        tiles = rc.generate_triangles(4)
        solution = rc.hexagon_solve(tiles, border_color=2)
        assert solution is not None
        assert rc.verify_hexagon(solution, tiles)

    def test_checker_catches_bad_border(self):
        tiles = rc.generate_triangles(4)
        solution = rc.hexagon_solve(tiles, border_color=2)
        tampered = rc.HexagonSolution(solution.placements, border_color=3)
        assert not rc.verify_hexagon(tampered, tiles)

    def test_incomplete_set_unsolvable(self):
        tiles = rc.generate_triangles(4)
        with pytest.raises(ValueError, match="^no hexagon arrangement exists$"):
            rc.hexagon_solve(tiles[:23], 0)

    def test_exhausted_search_proves_no_arrangement(self):
        # no tile carries colour 4, so the search ends at its first cell
        with pytest.raises(ValueError, match="^no hexagon arrangement exists$"):
            rc.hexagon_solve(rc.generate_triangles(4), 4)

    def test_spent_budget_proves_nothing(self, monkeypatch):
        monkeypatch.setattr(rc, "HEXAGON_NODES", 10)
        with pytest.raises(ValueError, match="^none found within 60 restarts of 10 nodes$"):
            rc.hexagon_solve(rc.generate_triangles(4), 2)


class TestStamps:
    def test_known_values(self):
        assert [rc.stamp_foldings(n) for n in range(1, rc.STAMP_CAP + 1)] == STAMP_FOLDINGS

    def test_exhaustive_stacks_form_rotation_and_reversal_classes(self):
        # independent oracle: test all n! stack orders directly
        for n in range(1, 8):
            valid = {p for p in itertools.permutations(range(1, n + 1)) if is_stamp_folding(p)}
            assert {p[1:] + p[:1] for p in valid} == valid, n  # bottom stamp to the top
            assert {p[::-1] for p in valid} == valid, n
            assert len(valid) == rc.stamp_foldings(n), n
            if n >= 3:
                searched = [p for p in valid if p[0] == 1 and p.index(2) < p.index(3)]
                assert len(valid) == 2 * n * len(searched), n

    def test_corrected_patent_number(self):
        start = time.time()
        assert rc.stamp_foldings(9) == 4536
        assert time.time() - start < 5

    def test_cap(self):
        with pytest.raises(ValueError):
            rc.stamp_foldings(13)

    def test_matches_full_recheck_oracle(self):
        for n in range(1, 10):
            assert rc.stamp_foldings(n) == stamp_foldings_oracle(n), n

    def test_eleven_stamps(self):
        # OEIS A000136: 14060, 46310, 146376 for n = 10, 11, 12
        assert rc.stamp_foldings(11) == 46310

    def test_matches_the_mirrored_search(self):
        for n in range(1, rc.STAMP_CAP + 1):
            assert rc.stamp_foldings(n) == stamp_foldings_mirrored(n), n


class TestContacts:
    def test_sequence(self):
        assert [rc.contact_system_count(n) for n in range(1, 7)] == [1, 2, 4, 10, 26, 76]

    def test_square_has_ten(self):
        assert rc.contact_system_count(4) == 10
        assert len(rc.enumerate_contact_systems(4)) == 10

    def test_seven_letters(self):
        assert rc.contact_system_count(7) == 232
        assert len(rc.enumerate_contact_systems(7)) == 232

    def test_enumeration_matches_the_sorted_oracle(self):
        for n in range(1, 11):
            assert rc.enumerate_contact_systems(n) == contact_systems_oracle(n), n

    def test_listing_refuses_past_the_cap_before_counting_far(self, monkeypatch):
        # I(13) = 568504 > 2^19: the count is read only up to m = 13
        counted = []
        count = rc.contact_system_count
        monkeypatch.setattr(rc, "contact_system_count", lambda m: counted.append(m) or count(m))
        with pytest.raises(ValueError, match="more than 524288 contact systems"):
            rc.enumerate_contact_systems(10**9)
        assert max(counted) == 13

    def test_batches_hold_about_4096_and_refuse_before_the_first(self):
        sizes = [len(batch) for batch in rc.contact_system_batches(11)]
        assert sum(sizes) == rc.contact_system_count(11)
        # a batch passes 4096 by less than one filled subtree, I(6) = 76
        assert len(sizes) > 1 and min(sizes) > 0 and max(sizes) < 4096 + 76
        with pytest.raises(ValueError, match="output cap"):
            rc.contact_system_batches(13)  # the call refuses; no batch is asked for

    def test_enumeration_yields_involutions(self):
        for n in range(1, 9):
            systems = rc.enumerate_contact_systems(n)
            assert len(systems) == rc.contact_system_count(n)
            for sigma in systems:
                assert all(sigma[sigma[i]] == i for i in range(n))


class TestLatin:
    def test_reduced_counts(self):
        assert rc.latin_reduced_count(1) == 1
        assert rc.latin_reduced_count(4) == 4
        assert rc.latin_reduced_count(5) == 56  # not the erroneous 52

    def test_total_matches_the_unreduced_walk(self):
        for n in range(1, 6):
            assert rc.latin_total_count(n) == latin_total_walk(n), n

    def test_total_order_six_at_the_cap(self):
        # OEIS A002860: 6! * 5! * 9408
        assert rc.latin_total_count(6) == 812851200
        with pytest.raises(ValueError):
            rc.latin_total_count(7)

    def test_cap(self):
        with pytest.raises(ValueError):
            rc.latin_reduced_count(7)

    def test_matches_row_and_column_scan_oracle(self):
        for n in range(1, 7):
            assert rc._latin_count(n) == latin_count_oracle(n, True), n
        for n in range(1, 5):
            assert latin_total_walk(n) == latin_count_oracle(n, False), n

    def test_order_six(self):
        # OEIS A000315: 1, 1, 1, 4, 56, 9408
        assert rc.latin_reduced_count(6) == 9408

    def test_order_seven_below_the_cap(self):
        # OEIS A000315; latin_reduced_count refuses 7, the count itself does not
        assert rc._latin_count(7) == 16942080

    def test_total_order_five(self):
        # OEIS A002860: 5! * 4! * 56
        assert latin_total_walk(5) == rc.latin_total_count(5) == 161280


class TestRod:
    def test_first_eight_marks(self):
        assert rc.measuring_rod(8) == (0, 1, 3, 7, 12, 20, 30, 44)

    def test_two_marks(self):
        assert rc.measuring_rod(2) == (0, 1)

    def test_segment_lengths(self):
        marks = rc.measuring_rod(8)
        segments = tuple(b - a for a, b in zip(marks, marks[1:]))
        assert segments == (1, 2, 4, 5, 8, 10, 14)

    def test_all_differences_distinct_k12(self):
        marks = rc.measuring_rod(12)
        diffs = [b - a for a, b in itertools.combinations(marks, 2)]
        assert len(diffs) == len(set(diffs)) == math.comb(12, 2)

    def test_prefix_stability(self):
        for k in range(2, 12):
            assert rc.measuring_rod(k) == rc.measuring_rod(k + 1)[:k]


class TestWeighing:
    def test_one_pan_7(self):
        assert rc.weighing_set(7) == (4, 2, 1)

    def test_u1(self):
        assert rc.weighing_set(1) == (1,)
        assert rc.weighing_set(1, "two") == (1,)

    def test_two_pan_4(self):
        assert rc.weighing_set(4, "two") == (3, 1)

    def test_outputs_pass_checks(self):
        for u in range(1, 14):
            assert is_perfect(rc.weighing_set(u))
        for u in (1, 2, 4, 13):
            assert is_subperfect(rc.weighing_set(u, "two"))

    def test_two_pan_infeasible_u(self):
        # no multiset summing to 3 measures 1..3 uniquely on two pans
        with pytest.raises(ValueError):
            rc.weighing_set(3, "two")

    @pytest.mark.parametrize("pans", ["one", "two"])
    def test_closed_forms_match_the_search(self, pans):
        # the search tests every partition of u: 0.3 s (one pan) and 1.5 s
        # (two pans) to u = 30, but 6 s and 18 s to u = 40
        for u in range(1, 31):
            expected = weighing_search(u, pans)
            if expected is None:
                with pytest.raises(ValueError, match="no subperfect partition"):
                    rc.weighing_set(u, pans)
            else:
                assert rc.weighing_set(u, pans) == expected, u

    def test_large_u_answers_without_a_search(self):
        # 1000001 = 101 * 9901: 100 ones, then 9900 parts of 101
        assert rc.weighing_set(1_000_000) == (101,) * 9900 + (1,) * 100
        assert rc.weighing_set(3**40 // 2, "two") == tuple(3**i for i in range(39, -1, -1))
        with pytest.raises(ValueError, match="no subperfect partition of 100 exists"):
            rc.weighing_set(100, "two")


def weighing_search(u, pans):
    """The fewest-part perfect (one pan) or subperfect (two pans) partition
    of u, least descending list first, by testing every partition of u."""
    test = is_perfect if pans == "one" else is_subperfect
    best = None
    for partition in enumerate_partitions(u):
        if best is not None and len(partition) > len(best):
            continue
        if test(partition) and (best is None or (len(partition), partition) < (len(best), best)):
            best = partition
    return best


class TestRooks:
    def test_first_differentiation(self):
        assert rc.rook_row_counts(8, 1) == 8

    def test_no_rooks(self):
        assert rc.rook_row_counts(5, 0) == 1

    def test_second_differentiation(self):
        assert rc.rook_row_counts(8, 2) == 56

    def test_matches_differentiation_chain(self):
        # k formal differentiations of x^n leave n (n-1) ... (n-k+1) x^(n-k)
        for n in range(9):
            poly = MultiPoly(("x",), {(n,): 1})
            for k in range(n + 1):
                assert rc.rook_row_counts(n, k) == poly.coeff((n - k,))
                poly = poly.diff("x")

    def test_falling_factorial(self):
        for n in range(1, 9):
            for k in range(0, n + 1):
                assert rc.rook_row_counts(n, k) == math.perm(n, k)
