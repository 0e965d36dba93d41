"""The puzzle canon: colored cubes and the eight-cube assembly,
compartment-colored triangles and squares with the hexagon puzzle,
stamp foldings, contact systems, reduced Latin squares, the measuring
rod, weighing sets, and rook placements by differentiation.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from . import DomainError
from .partitions import past_cap, perfect_partition

# -- cubes -------------------------------------------------------------------

# Face order: Up, Down, Front, Back, Left, Right.
FACES = ("U", "D", "F", "B", "L", "R")
U, D, F, B, L, R = range(6)

Cube = Tuple[int, int, int, int, int, int]

# Quarter turns as face permutations: entry f of the rotated cube shows the
# color that face PERM[f] showed before the turn.
_YAW = (U, D, L, R, B, F)      # top view, clockwise: L->F, F->R, R->B, B->L
_PITCH = (F, B, D, U, L, R)    # front rises: F->U, U->B, B->D, D->F


def _compose(p1: Sequence[int], p2: Sequence[int]) -> Tuple[int, ...]:
    # apply p2 first, then p1
    return tuple(p2[p1[f]] for f in range(6))


def _rotation_group() -> List[Tuple[int, ...]]:
    identity = tuple(range(6))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for gen in (_YAW, _PITCH):
                h = _compose(g, gen)
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(group)


ROTATIONS: List[Tuple[int, ...]] = _rotation_group()
assert len(ROTATIONS) == 24
# TURNS[i](cube) is the cube under ROTATIONS[i]
TURNS = [operator.itemgetter(*rot) for rot in ROTATIONS]


def orientations(cube: Sequence[int]) -> List[Cube]:
    return [turn(cube) for turn in TURNS]


def canonical_cube(cube: Sequence[int]) -> Cube:
    """Lexicographic minimum over the 24 rotations."""
    if len(cube) != 6:
        raise DomainError("a cube has six faces")
    return min(orientations(tuple(cube)))


# colorings that generate_cubes may walk in any-coloring mode: k^6, at
# most 2^18 = 8^6 (about 0.8 s at the cap with Python 3.11 on a 2-vCPU VM)
CUBE_CANDIDATE_CAP = 2**18


def generate_cubes(k: int, mode: str = "all-distinct-faces") -> List[Cube]:
    """Rotation-distinct cubes on k colors.

    `all-distinct-faces` uses every color exactly once (needs k = 6 for
    the classic thirty); `any-coloring` allows repeats.
    """
    if k < 1:
        raise DomainError("need at least one color")
    if mode == "any-coloring" and k**6 > CUBE_CANDIDATE_CAP:
        raise DomainError(f"k^6 = {k**6} candidate cubes is past the cap of {CUBE_CANDIDATE_CAP}")
    if mode == "all-distinct-faces":
        if k != 6:
            raise DomainError("all-distinct-faces mode needs exactly six colors")
        candidates = itertools.permutations(range(k))
    elif mode == "any-coloring":
        candidates = itertools.product(range(k), repeat=6)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # each new candidate marks its whole orbit, so each orbit is
    # canonicalised once
    seen: Set[Cube] = set()
    out: List[Cube] = []
    for cube in candidates:
        if cube not in seen:
            orbit = orientations(cube)
            seen.update(orbit)
            out.append(min(orbit))
    return sorted(out)


def cube_orbit_count(k: int) -> int:
    """(k^6 + 3k^4 + 12k^3 + 8k^2) / 24: rotation classes of colorings."""
    if k < 1:
        raise DomainError("need at least one color")
    return (k**6 + 3 * k**4 + 12 * k**3 + 8 * k**2) // 24


def distinct_cube_count(k: int) -> int:
    """6!/24 = 30: rotation classes of the colorings with six distinct
    colors, since no rotation but the identity fixes one of them."""
    if k < 1:
        raise DomainError("need at least one color")
    if k != 6:
        raise DomainError("all-distinct-faces mode needs exactly six colors")
    return math.factorial(6) // len(ROTATIONS)


def associated_cube(cube: Sequence[int]) -> Cube:
    """The mirror partner: exchange one pair of opposite face colors."""
    cube = tuple(cube)
    if len(set(cube)) != 6:
        raise DomainError("associated cubes are defined for all-distinct colorings")
    swapped = (cube[D], cube[U]) + cube[2:]
    return canonical_cube(swapped)


# 2x2x2 positions as (x, y, z) bits; the showing faces per axis.
_POSITIONS = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


def _outer_faces(pos: Tuple[int, int, int]) -> Tuple[int, int, int]:
    x, y, z = pos
    return (L if x == 0 else R, F if y == 0 else B, D if z == 0 else U)


@dataclass(frozen=True)
class CubeAssembly:
    """Placement of eight cubes: position -> (cube, orientation index)."""

    placements: Tuple[Tuple[Tuple[int, int, int], Cube, int], ...]

    def oriented(self) -> Dict[Tuple[int, int, int], Cube]:
        return {
            pos: TURNS[rot](cube) for pos, cube, rot in self.placements
        }


def verify_assembly(assembly: CubeAssembly, target: Optional[Cube]) -> bool:
    """Re-check all constraints from scratch: outer arrangement (when a
    target is given, each big face uniformly the target's color) and all
    twelve internal face matches."""
    oriented = assembly.oriented()
    if set(oriented) != set(_POSITIONS):
        return False
    if target is not None:
        for pos, faces in oriented.items():
            for face in _outer_faces(pos):
                if faces[face] != target[face]:
                    return False
    else:
        big: Dict[int, int] = {}
        for pos, faces in oriented.items():
            for face in _outer_faces(pos):
                if big.setdefault(face, faces[face]) != faces[face]:
                    return False
    pairs = ((R, L, (1, 0, 0)), (B, F, (0, 1, 0)), (U, D, (0, 0, 1)))
    for pos, faces in oriented.items():
        for hi_face, lo_face, delta in pairs:
            neighbor = tuple(p + d for p, d in zip(pos, delta))
            if neighbor in oriented:
                if faces[hi_face] != oriented[neighbor][lo_face]:
                    return False
    return True


def mayblox_solve(
    target: Cube,
    pool: Optional[Sequence[Cube]] = None,
    exclude_associate: bool = True,
) -> Optional[CubeAssembly]:
    """Build a 2x2x2 copy of the target from eight of the other cubes.

    The target itself is never used; its mirror associate is also barred
    by default.  Internal faces must match pairwise.
    """
    target = canonical_cube(target)
    if pool is None:
        pool = generate_cubes(6)
    banned = {target}
    if exclude_associate:
        banned.add(associated_cube(target))
    # each cube is oriented once; its canonical form is the least orientation
    turns = [orientations(c) for c in pool]
    keep = [i for i, t in enumerate(turns) if min(t) not in banned]
    return _assemble([pool[i] for i in keep], [turns[i] for i in keep], target)


def mayblox_solve_any() -> Optional[CubeAssembly]:
    """Target-free variant: any uniform-face 2x2x2 from eight of the 30 cubes."""
    cubes = generate_cubes(6)
    turns = [orientations(c) for c in cubes]
    for virtual_target in cubes:
        result = _assemble(cubes, turns, virtual_target)
        if result is not None:
            return result
    return None


def _assemble(
    pool: Sequence[Cube], turns: Sequence[Sequence[Cube]], target: Cube
) -> Optional[CubeAssembly]:
    # turns[ci][ri] is pool[ci] under ROTATIONS[ri], built once per pool;
    # each corner's options are those showing the target's colours on its
    # three outer faces, cube index first, then rotation index
    per_position: List[List[Tuple[int, Cube, int]]] = []
    for pos in _POSITIONS:
        a, b, c = _outer_faces(pos)
        ta, tb, tc = target[a], target[b], target[c]
        per_position.append([
            (ci, faces, ri)
            for ci, oriented in enumerate(turns)
            for ri, faces in enumerate(oriented)
            if faces[a] == ta and faces[b] == tb and faces[c] == tc
        ])

    order = sorted(range(len(_POSITIONS)), key=lambda i: len(per_position[i]))
    placed: Dict[Tuple[int, int, int], Tuple[int, Cube, int]] = {}
    used: Set[int] = set()
    pairs = ((R, L, (1, 0, 0)), (B, F, (0, 1, 0)), (U, D, (0, 0, 1)))

    def fits(pos, faces) -> bool:
        for hi, lo, delta in pairs:
            above = tuple(p + d for p, d in zip(pos, delta))
            below = tuple(p - d for p, d in zip(pos, delta))
            if above in placed and faces[hi] != placed[above][1][lo]:
                return False
            if below in placed and placed[below][1][hi] != faces[lo]:
                return False
        return True

    def search(idx: int) -> bool:
        if idx == len(order):
            return True
        pos = _POSITIONS[order[idx]]
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
    placements = tuple(
        (pos, pool[ci], ri) for pos, (ci, _, ri) in sorted(placed.items())
    )
    return CubeAssembly(placements)


# -- edge-compartment tiles ---------------------------------------------------

Tile = Tuple[int, ...]


def canonical_tile(tile: Sequence[int]) -> Tile:
    """Lexicographic minimum over cyclic rotation (no reflection)."""
    tile = tuple(tile)
    n = len(tile)
    return min(tile[i:] + tile[:i] for i in range(n))


# colorings that generate_tiles may walk: k^sides, at most 2^18 = 64^3
# (22^4 squares; about 0.5 s at the cap with Python 3.11 on a 2-vCPU VM)
TILE_CANDIDATE_CAP = 2**18


def _check_tile(sides: int, k: int) -> None:
    if sides < 3 or k < 1:
        raise DomainError("need at least 3 sides and 1 color")


def generate_tiles(sides: int, k: int) -> List[Tile]:
    """Rotation-distinct tiles in lexicographic order: each candidate, in
    the product's own lexicographic order, is kept when it is the least
    of its rotations.  Refused past TILE_CANDIDATE_CAP candidates."""
    _check_tile(sides, k)
    if k**sides > TILE_CANDIDATE_CAP:
        raise DomainError(f"k^{sides} = {k**sides} candidate tiles is past the cap of {TILE_CANDIDATE_CAP}")
    return [
        t
        for t in itertools.product(range(k), repeat=sides)
        if all(t <= t[i:] + t[:i] for i in range(1, sides))
    ]


def generate_triangles(k: int) -> List[Tile]:
    """(k^3 + 2k)/3 rotation-distinct three-compartment triangles."""
    return generate_tiles(3, k)


def generate_squares(k: int) -> List[Tile]:
    """(k^4 + k^2 + 2k)/4 rotation-distinct four-compartment squares."""
    return generate_tiles(4, k)


def triangle_count_formula(k: int) -> int:
    _check_tile(3, k)
    return (k**3 + 2 * k) // 3


def square_count_formula(k: int) -> int:
    _check_tile(4, k)
    return (k**4 + k**2 + 2 * k) // 4


# Hexagon board of side 2: the 24 unit cells of a side-6 triangle with the
# three side-2 corners removed.  Cells are (row, pos) with pos even for
# upward triangles; edges are keyed by doubled-coordinate vertex pairs so
# adjacency falls out of shared keys.


def _cell_vertices(cell) -> Tuple[Tuple[int, int], ...]:
    i, pos = cell
    j = pos // 2
    if pos % 2 == 0:  # upward: apex on row i
        apex = (2 * j + (5 - i), i)          # x doubled to keep integers
        bl = (2 * j + (5 - i) - 1, i + 1)
        br = (2 * j + (5 - i) + 1, i + 1)
        return (apex, bl, br)
    # downward: two vertices on row i, one below
    tl = (2 * j + (5 - i), i)
    tr = (2 * j + (5 - i) + 2, i)
    bottom = (2 * j + (5 - i) + 1, i + 1)
    return (tl, tr, bottom)


def _cell_edges(cell) -> List[FrozenSet[Tuple[int, int]]]:
    """Edges in counterclockwise order starting from the leftmost edge."""
    v = _cell_vertices(cell)
    i, pos = cell
    if pos % 2 == 0:
        apex, bl, br = v
        return [frozenset((apex, bl)), frozenset((bl, br)), frozenset((br, apex))]
    tl, tr, bottom = v
    return [frozenset((tl, bottom)), frozenset((bottom, tr)), frozenset((tr, tl))]


def hexagon_board() -> Tuple[List, Dict, List]:
    """(cells, edge->cells index, perimeter edge keys) for the side-2 hexagon."""
    # row i of the side-6 triangle holds cells 0..2i; the top corner is
    # rows 0 and 1, and the bottom corners of rows 4 and 5 are their
    # first and last 2(i - 4) + 1 cells
    cells = [(i, pos) for i in range(2, 6) for pos in range(2 * i + 1) if 2 * (i - 4) < pos < 8]
    edge_map: Dict[FrozenSet, List] = {}
    for cell in cells:
        for edge in _cell_edges(cell):
            edge_map.setdefault(edge, []).append(cell)
    perimeter = [edge for edge, owners in edge_map.items() if len(owners) == 1]
    return cells, edge_map, perimeter


@dataclass(frozen=True)
class HexagonSolution:
    placements: Tuple[Tuple[Tuple[int, int], Tile, int], ...]
    border_color: int


def _placed_edge_colors(cell, tile: Tile, rotation: int):
    edges = _cell_edges(cell)
    return {edges[e]: tile[(e + rotation) % 3] for e in range(3)}


def verify_hexagon(solution: HexagonSolution, tiles: Sequence[Tile]) -> bool:
    """Independent re-check: tile set, edge matches, and border color."""
    cells, edge_map, perimeter = hexagon_board()
    placed = {cell: (tile, rot) for cell, tile, rot in solution.placements}
    if sorted(placed) != sorted(cells):
        return False
    used = sorted(canonical_tile(t) for t, _ in placed.values())
    if used != sorted(canonical_tile(t) for t in tiles):
        return False
    colors: Dict[FrozenSet, List[int]] = {}
    for cell, (tile, rot) in placed.items():
        for edge, color in _placed_edge_colors(cell, tile, rot).items():
            colors.setdefault(edge, []).append(color)
    for edge, owners in edge_map.items():
        cs = colors[edge]
        if len(owners) == 2 and cs[0] != cs[1]:
            return False
        if len(owners) == 1 and cs[0] != solution.border_color:
            return False
    return True


# the hexagon search: seeds 0..HEXAGON_RESTARTS-1, each given
# HEXAGON_NODES backtracking nodes
HEXAGON_RESTARTS = 60
HEXAGON_NODES = 60_000


def hexagon_solve(tiles: Sequence[Tile], border_color: int) -> HexagonSolution:
    """Edge-matched side-2 hexagon with a uniform border color.

    Expects the full set of 24 triangles.  The backtracker randomizes its
    value order per restart (seeds 0..HEXAGON_RESTARTS-1 with
    HEXAGON_NODES nodes each), which is deterministic across runs while
    escaping pathological orderings.  A DomainError tells the two failures
    apart: a search that ran to its end proves that no arrangement
    exists, while restarts that all ran out of nodes prove nothing.
    """
    import random as _random

    cells, edge_map, perimeter = hexagon_board()
    if len(tiles) != len(cells):
        raise DomainError("no hexagon arrangement exists")
    perimeter_set = set(perimeter)
    tiles = [canonical_tile(t) for t in tiles]
    cell_edges = {cell: _cell_edges(cell) for cell in cells}

    class _Budget(Exception):
        pass

    def attempt(seed: int) -> Optional[Dict]:
        rng = _random.Random(seed)
        edge_color: Dict[FrozenSet, int] = {e: border_color for e in perimeter_set}
        used = [False] * len(tiles)
        placements: Dict[Tuple[int, int], Tuple[Tile, int]] = {}
        nodes = 0

        def pick_cell():
            best = best_key = None
            for cell in cells:
                if cell in placements:
                    continue
                fixed = sum(1 for e in cell_edges[cell] if e in edge_color)
                key = (-fixed, cell)
                if best_key is None or key < best_key:
                    best_key, best = key, cell
            return best

        def candidates(cell):
            want = [edge_color.get(e) for e in cell_edges[cell]]
            out = []
            for ti, tile in enumerate(tiles):
                if used[ti]:
                    continue
                for rot in range(3):
                    if all(
                        want[e] is None or tile[(e + rot) % 3] == want[e]
                        for e in range(3)
                    ):
                        out.append((ti, tile, rot))
            return out

        def search(depth: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > HEXAGON_NODES:
                raise _Budget
            if depth == len(cells):
                return True
            cell = pick_cell()
            cands = candidates(cell)
            if seed:
                rng.shuffle(cands)
            for ti, tile, rot in cands:
                record: List[FrozenSet] = []
                edges = cell_edges[cell]
                for e in range(3):
                    edge = edges[e]
                    if edge not in edge_color:
                        edge_color[edge] = tile[(e + rot) % 3]
                        record.append(edge)
                used[ti] = True
                placements[cell] = (tile, rot)
                if search(depth + 1):
                    return True
                used[ti] = False
                del placements[cell]
                for edge in record:
                    del edge_color[edge]
            return False

        try:
            return placements if search(0) else {}
        except _Budget:
            return None

    for seed in range(HEXAGON_RESTARTS):
        result = attempt(seed)
        if result:
            return HexagonSolution(
                tuple((cell, tile, rot) for cell, (tile, rot) in sorted(result.items())),
                border_color,
            )
        if result == {}:
            raise DomainError("no hexagon arrangement exists")
    raise DomainError(f"none found within {HEXAGON_RESTARTS} restarts of {HEXAGON_NODES} nodes")


# -- stamp foldings ------------------------------------------------------------

# strip length n of stamp_foldings: about 15 ms at the cap with Python 3.11
# on a 2-vCPU VM (n = 13 would take about 50 ms).  The cap stays at 12
# because `puzzle stamps 13` is a pinned refusal of the benchmark's
# cli-mix corpus (bench/expected.json) and of the CLI cap-edge tests.
STAMP_CAP = 12


def stamp_foldings(n: int) -> int:
    """Labeled foldings of a strip of n stamps (OEIS A000136).

    A folding is a stack order of the stamps such that, for each parity
    class of joints, the arcs (pos[s], pos[s+1]) are non-crossing.

    Only one symmetry class is searched.  Moving the bottom stamp to the
    top keeps a folding a folding: the arcs that do not touch the bottom
    stamp shift down together, and the bottom stamp has at most one arc
    per parity, (0, x), which becomes (x-1, h-1); a same-parity arc that
    was inside (0, x) or outside it stays disjoint from the new arc or
    nested in it.  So rotation permutes the foldings in orbits of exactly
    n, each with one member that has stamp 1 at the bottom.  Reversing a
    stack and then rotating it maps [1, x2, ..., xn] to [1, xn, ..., x2];
    for n >= 3 this is an involution without fixed points that swaps
    "2 below 3" with "3 below 2".  Hence F(n) = 2n times the number of
    foldings with 1 at the bottom and 2 below 3, the classical
    F(n) = n S(n) with semi-meanders (Lunnon, Math. Comp. 22, 1968).

    Those foldings are counted by inserting stamps 3, 4, ..., n one at a
    time into [1, 2]: stamp 3 on top, every later stamp into any slot but
    the bottom one that keeps the arcs planar.  An insertion keeps the
    relative order of the stamps already stacked, so their arcs stay
    pairwise non-crossing and only the new arc from stamp nxt-1 to the
    slot needs checking, against the stacked arcs of its parity.  An arc
    (a, b), a < b in stack positions, that does not enclose stamp nxt-1
    is crossed exactly from the slots a+1..b; one that encloses it is
    crossed from every slot outside a+1..b.  One pass over the arcs and
    one over the slots find every legal slot: O(h) for a stack of height
    h.  The last stamp's legal slots are counted, not visited.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    if n > STAMP_CAP:
        raise DomainError(f"n = {n} exceeds the enumeration cap {STAMP_CAP}")
    if n <= 2:
        return n
    count = 0

    def extend(stack: List[int], nxt: int):
        nonlocal count
        height = len(stack)
        pos = [0] * nxt
        for i, stamp in enumerate(stack):
            pos[stamp] = i
        anchor = pos[nxt - 1]
        first, last = 1, height      # slots above stamp 1, inside every enclosing arc
        blocked = [0] * (height + 2)  # difference array of crossed slots
        for s in range(2 - (nxt - 1) % 2, nxt - 2, 2):
            a, b = pos[s], pos[s + 1]
            if a > b:
                a, b = b, a
            if a < anchor < b:
                first, last = max(first, a + 1), min(last, b)
            else:
                blocked[a + 1] += 1
                blocked[b + 1] -= 1
        depths = list(itertools.accumulate(blocked[: last + 1]))
        if nxt == n:
            count += depths[first:].count(0)
            return
        for slot in range(first, last + 1):
            if not depths[slot]:
                stack.insert(slot, nxt)
                extend(stack, nxt + 1)
                stack.pop(slot)

    if n == 3:
        count = 1  # [1, 2, 3]
    else:
        extend([1, 2, 3], 4)
    return 2 * n * count


# -- contact systems (involutions) ---------------------------------------------


# letters n of contact_system_count: the recurrence on growing integers
# costs about n^2 digit steps (0.4 s at the cap with Python 3.11 on a
# 2-vCPU VM)
CONTACT_COUNT_CAP = 2**15


def contact_system_count(n: int) -> int:
    """Self-inverse permutations of n letters: 1, 2, 4, 10, 26, 76, ..."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if n > CONTACT_COUNT_CAP:
        raise DomainError(f"n = {n} is past the cap of {CONTACT_COUNT_CAP} letters")
    a, b = 1, 1  # I(0), I(1)
    if n == 0:
        return 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b


# contact systems that contact_system_batches may list: 2^19, as for
# partition enum (I(12) = 140152 is the largest count within it)
CONTACT_LIST_CAP = 2**19
# contact systems per batch of a listing
_BATCH = 4096


def contact_system_batches(n: int) -> Iterator[List[Tuple[int, ...]]]:
    """All involutions of {0..n-1} as tuples of images, in lexicographic
    order, in batches of about 4096: the lowest open position takes
    itself, then each open partner in turn.  Refused (DomainError) past
    CONTACT_LIST_CAP before the first batch is made."""
    if n < 1:
        raise DomainError("n must be at least 1")
    if past_cap(contact_system_count, n, CONTACT_LIST_CAP):
        raise DomainError(f"n = {n} has more than {CONTACT_LIST_CAP} contact systems, the output cap")
    return _contact_walk(n)


def _contact_walk(n: int) -> Iterator[List[Tuple[int, ...]]]:
    """Each step pairs the lowest open position at or after `first`, of
    `left` open, with itself or an open partner.  A subtree of at most six
    open positions is filled by plain recursion, without yielding."""
    image = [-1] * n
    buf: List[Tuple[int, ...]] = []

    def fill(first: int, left: int) -> None:
        if not left:
            buf.append(tuple(image))
            return
        while image[first] >= 0:
            first += 1
        for partner in range(first, n):
            if image[partner] < 0:
                image[first], image[partner] = partner, first
                fill(first + 1, left - 2 + (partner == first))
                image[first] = image[partner] = -1

    def walk(first: int, left: int) -> Iterator[List[Tuple[int, ...]]]:
        while image[first] >= 0:
            first += 1
        for partner in range(first, n):
            if image[partner] < 0:
                image[first], image[partner] = partner, first
                rest = left - 2 + (partner == first)
                if rest > 6:
                    yield from walk(first + 1, rest)
                else:
                    fill(first + 1, rest)
                image[first] = image[partner] = -1
                if len(buf) >= _BATCH:
                    yield buf[:]
                    buf.clear()

    yield from walk(0, n)
    if buf:
        yield buf


def enumerate_contact_systems(n: int) -> List[Tuple[int, ...]]:
    """All involutions of {0..n-1}: contact_system_batches joined."""
    return [s for batch in contact_system_batches(n) for s in batch]


# -- Latin squares ---------------------------------------------------------------

LATIN_ORDER_CAP = 6


def latin_reduced_count(n: int) -> int:
    """Reduced n x n Latin squares (first row and column in order)."""
    if not 1 <= n <= LATIN_ORDER_CAP:
        raise DomainError(f"order must be between 1 and {LATIN_ORDER_CAP}")
    return _latin_count(n)


def latin_total_count(n: int) -> int:
    """All n x n Latin squares: permuting the columns of a reduced square,
    then its last n - 1 rows, gives each square once, so the count is the
    reduced count times n!(n - 1)!."""
    return latin_reduced_count(n) * math.factorial(n) * math.factorial(n - 1)


def _latin_count(n: int) -> int:
    """Count reduced n x n Latin squares one row at a time over memoised column
    states.

    A state is the sorted tuple of the open columns' value bitmasks (each
    holds the r values of the rows placed, so it fixes the row r).  The
    fillings of rows r..n-1 depend only on that state: permuting the open
    columns maps fillings to fillings one to one, and a row's own
    constraint ignores column identity.  Each state's row fillings are
    enumerated once by bitmask and grouped by the state they lead to.
    Row n-1 is forced: each column misses one value and each value is
    missing from one column.  The first row and column are fixed to
    0..n-1, leaving columns 1..n-1 open, row r to hold every value but r.
    """
    full = (1 << n) - 1
    width = n - 1
    memo: Dict[Tuple[int, ...], int] = {}
    new = [0] * width  # the row being filled; ways() recurses only after fill() ends

    def ways(r: int, cols: Tuple[int, ...]) -> int:
        if r >= n - 1:
            return 1
        total = memo.get(cols)
        if total is not None:
            return total
        after: Dict[Tuple[int, ...], int] = {}

        def fill(i: int, free: int) -> None:
            if i == width:
                key = tuple(sorted(new))
                after[key] = after.get(key, 0) + 1
                return
            col = cols[i]
            avail = free & ~col
            while avail:
                bit = avail & -avail
                avail ^= bit
                new[i] = col | bit
                fill(i + 1, free ^ bit)

        fill(0, full & ~(1 << r))
        total = memo[cols] = sum(m * ways(r + 1, key) for key, m in after.items())
        return total

    return ways(1, tuple(1 << c for c in range(1, n)))


# -- measuring rod ----------------------------------------------------------------


# marks that measuring_rod may place: each candidate up to the last mark
# is tested against the marks before it (about 0.5 s as a command at the
# cap, with Python 3.11 on a 2-vCPU VM)
ROD_MARK_CAP = 100


def measuring_rod(k: int) -> Tuple[int, ...]:
    """First k marks of the greedy all-differences-distinct ruler.

    Starts 0, 1, 3, 7, 12, 20, 30, 44, ...; each new mark is the smallest
    integer keeping every pairwise difference distinct.  Prefix-stable.
    Refused past ROD_MARK_CAP marks.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    if k > ROD_MARK_CAP:
        raise DomainError(f"k = {k} marks is past the cap of {ROD_MARK_CAP}")
    marks = [0]
    diffs: Set[int] = set()
    candidate = 1
    while len(marks) < k:
        new_diffs = {candidate - m for m in marks}
        if len(new_diffs) == len(marks) and not (new_diffs & diffs):
            diffs |= new_diffs
            marks.append(candidate)
        candidate += 1
    return tuple(marks)


# -- weighing sets -----------------------------------------------------------------


def weighing_set(u: int, pans: str = "one") -> Tuple[int, ...]:
    """Fewest weights measuring every 1..u uniquely, as a descending part
    list; ties break on the lexicographically least list.

    One pan: a perfect partition of u (unique subset sums).  Each comes
    from an ordered factorization u + 1 = f1 ... fk, with f_i - 1 parts
    f1 ... f_(i-1), so sum(f_i - 1) parts.  Splitting a factor ab into
    a, b lowers that sum by (a - 1)(b - 1) > 0, so the fewest parts come
    from the prime factors of u + 1.  Taken in ascending order they put
    the largest prime last, whose place value (u + 1) / f_k is the least
    possible largest part, and so on down: the least list.

    Two pans: a subperfect partition (unique signed subset sums).  A part
    v repeated m >= 2 times gives u - 2v the two representations (m - 2
    plus, 0 minus) and (m - 1 plus, 1 minus) at v, which is a value in
    1..u unless the parts are v, v with u = 2v; so (1, 1) for u = 2, and
    otherwise the k parts are distinct.  Two sign vectors with one sum c
    are two representations of |c| if c != 0; if c = 0 one of them is
    nonzero, and the parts it adds and the parts it subtracts are two
    representations of one value.  So all 3^k signed sums are distinct and
    fill -u..u, and the product of 1 + x^a + x^2a over the parts is
    (1 - x^(3^k)) / (1 - x).  Its lowest term past 1 makes 1 a part;
    dividing by 1 + x + x^2 leaves (1 - x^(3^k)) / (1 - x^3), whose lowest
    term makes 3 a part, and so on: the parts are 1, 3, ..., 3^(k - 1),
    and 2u + 1 = 3^k.  Any other u has no subperfect partition.
    """
    if u < 1:
        raise DomainError("u must be at least 1")
    if pans == "one":
        from .divisors import prime_factorization

        primes = sorted(prime_factorization(u + 1).items())
        return perfect_partition([p for p, e in primes for _ in range(e)])
    if pans != "two":
        raise ValueError("pans must be 'one' or 'two'")
    if u == 2:
        return (1, 1)
    k = 0
    while 3**k < 2 * u + 1:
        k += 1
    if 3**k != 2 * u + 1:
        raise DomainError(f"no subperfect partition of {u} exists")
    return tuple(3**i for i in range(k - 1, -1, -1))


# -- rook placements by differentiation ----------------------------------------------


# bits of n (n-1) ... (n-k+1), counted as k * bits(n): printing it in
# decimal costs quadratic time in them (about 0.4 s at the cap with Python
# 3.11 on a 2-vCPU VM)
ROOK_BIT_CAP = 2**19


def rook_row_counts(n: int, k: int) -> int:
    """Non-attacking placements of k rooks added row by row on n x n.

    The leading coefficient after k formal differentiations of x^n, the
    falling factorial n (n-1) ... (n-k+1).
    """
    if not 0 <= k <= n:
        raise DomainError("need 0 <= k <= n")
    bits = k * n.bit_length()
    if bits > ROOK_BIT_CAP:
        raise DomainError(f"the count has up to {bits} bits, past the cap of {ROOK_BIT_CAP}")
    return math.perm(n, k)
