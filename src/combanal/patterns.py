"""Repeating-pattern machinery: edge-profile transformation classes,
contact-system-driven repeat tiles, plane tiling generation with SVG
output, the angle-distribution law, the polyhedron deficiency balance,
and the space-filling isosceles tetrahedron.

Profiles are exact rational polylines; only final rendering and the
overlap/gap verification convert to floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import DomainError

Point = Tuple[Fraction, Fraction]


def _pt(p) -> Point:
    return (Fraction(p[0]), Fraction(p[1]))


@dataclass(frozen=True)
class EdgeProfile:
    """Open polyline from (0,0) to (1,0) in edge-local coordinates."""

    points: Tuple[Point, ...]

    @classmethod
    def from_coords(cls, coords: Sequence[Sequence]) -> "EdgeProfile":
        pts = tuple(_pt(p) for p in coords)
        if len(pts) < 2 or pts[0] != (0, 0) or pts[-1] != (1, 0):
            raise DomainError("profile must run from (0,0) to (1,0)")
        if any(pts[i] == pts[i + 1] for i in range(len(pts) - 1)):
            raise DomainError("repeated consecutive vertices")
        profile = cls(pts)
        if profile._self_intersects():
            raise DomainError("profile must be a simple polyline")
        return profile

    def _self_intersects(self) -> bool:
        segs = list(zip(self.points, self.points[1:]))
        for i, (a1, a2) in enumerate(segs):
            for j in range(i + 2, len(segs)):
                b1, b2 = segs[j]
                if _segments_cross(a1, a2, b1, b2):
                    return True
        return False


STRAIGHT = EdgeProfile(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))))


def _orient(a: Point, b: Point, c: Point) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    return (
        _orient(a, b, p) == 0
        and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_cross(a1: Point, a2: Point, b1: Point, b2: Point) -> bool:
    """Exact proper-or-improper intersection of non-adjacent segments."""
    o1, o2 = _orient(a1, a2, b1), _orient(a1, a2, b2)
    o3, o4 = _orient(b1, b2, a1), _orient(b1, b2, a2)
    if o1 != o2 and o3 != o4:
        return True
    for (p, q, r) in ((a1, a2, b1), (a1, a2, b2), (b1, b2, a1), (b1, b2, a2)):
        if _on_segment(p, q, r):
            return True
    return False


def mirror_profile(e: EdgeProfile) -> EdgeProfile:
    """Reflection about the perpendicular bisector x = 1/2 (re-oriented)."""
    pts = tuple((1 - x, y) for x, y in reversed(e.points))
    return EdgeProfile(pts)


def point_profile(e: EdgeProfile) -> EdgeProfile:
    """Half-turn about the midpoint (1/2, 0) (re-oriented)."""
    pts = tuple((1 - x, -y) for x, y in reversed(e.points))
    return EdgeProfile(pts)


def negate_profile(e: EdgeProfile) -> EdgeProfile:
    """The same cut seen from the other side of the edge (y -> -y)."""
    return EdgeProfile(tuple((x, -y) for x, y in e.points))


def classify_edge(e: EdgeProfile) -> str:
    """'S' (mirror-symmetric), 'U' (point-symmetric), 'SU' (straight,
    degenerately both) or 'V' (neither).

    The half-turn and mirror images of any profile differ exactly by the
    side flip (point = negate(mirror)); for V profiles both images are
    new curves, which is the operator identity the classes encode.
    """
    is_s = mirror_profile(e) == e
    is_u = point_profile(e) == e
    if is_s and is_u:
        return "SU"
    if is_s:
        return "S"
    if is_u:
        return "U"
    return "V"


def profile_signed_area(e: EdgeProfile) -> Fraction:
    """Signed area between the profile and the straight edge (exact)."""
    pts = list(e.points) + [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))]
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        total += x1 * y2 - x2 * y1
    return total / 2


# -- repeat tiles ------------------------------------------------------------

BASES = {"triangle": 3, "square": 4, "hexagon": 6}


def base_polygon(base: str) -> List[Tuple[float, float]]:
    """Unit-edge regular polygon centered at the origin (float coords)."""
    n = BASES[base]
    r = 1 / (2 * math.sin(math.pi / n))
    offset = math.pi / n - math.pi / 2  # first edge centered at the bottom
    return [
        (r * math.cos(2 * math.pi * k / n + offset), r * math.sin(2 * math.pi * k / n + offset))
        for k in range(n)
    ]


@dataclass(frozen=True)
class RepeatTile:
    """Base polygon + contact system + per-edge profiles, validated."""

    base: str
    contact: Tuple[int, ...]
    profiles: Tuple[EdgeProfile, ...]

    def edge_count(self) -> int:
        return BASES[self.base]

    def area_offset(self) -> Fraction:
        """Sum of the profiles' signed areas; zero for any legal tile."""
        return sum((profile_signed_area(p) for p in self.profiles), Fraction(0))

    def boundary(self) -> List[Tuple[float, float]]:
        """Deformed boundary as floats, counterclockwise."""
        verts = base_polygon(self.base)
        n = len(verts)
        out: List[Tuple[float, float]] = []
        for i in range(n):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % n]
            ux, uy = bx - ax, by - ay          # local x axis along the edge
            # local y axis: left of the direction (into the tile for CCW)
            for x, y in self.profiles[i].points[:-1]:
                fx, fy = float(x), float(y)
                out.append((ax + fx * ux - fy * uy, ay + fx * uy + fy * ux))
        return out


def build_repeat_tile(
    base: str, contact: Sequence[int], profiles: Sequence[EdgeProfile]
) -> RepeatTile:
    """Validate and build a repeat tile.

    The contact system is an involution on edge indices.  A self-paired
    edge must carry a point-symmetric (U or straight) profile; a paired
    edge must carry exactly the half-turn image of its partner (or the
    mirror image, for reflected contacts).
    """
    if base not in BASES:
        raise ValueError(f"base must be one of {sorted(BASES)}")
    n = BASES[base]
    contact = tuple(contact)
    if sorted(set(contact)) != list(range(n)) or any(
        contact[contact[i]] != i for i in range(n)
    ):
        raise DomainError("contact system must be an involution on the edges")
    profiles = tuple(profiles)
    if len(profiles) != n:
        raise DomainError(f"need {n} profiles")
    for i in range(n):
        j = contact[i]
        if i == j:
            if classify_edge(profiles[i]) not in ("U", "SU"):
                raise DomainError(
                    f"edge {i} is self-paired and needs a point-symmetric profile"
                )
        elif j > i:
            expected = point_profile(profiles[i])
            mirrored = mirror_profile(profiles[i])
            if profiles[j] not in (expected, mirrored):
                raise DomainError(
                    f"edges {i}-{j}: partner profile must be the half-turn "
                    f"(or mirror) image"
                )
    tile = RepeatTile(base, contact, profiles)
    if tile.area_offset() != 0:
        raise DomainError("profiles do not preserve the base area")
    return tile


def square_translation_tile() -> RepeatTile:
    """The plain square under the opposite-edge contact system."""
    return build_repeat_tile("square", (2, 3, 0, 1), (STRAIGHT,) * 4)


def cairo_tile(bend: Fraction = Fraction(1, 4)) -> RepeatTile:
    """Square with contact {1-4, 2-3} and midpoint-bend profiles.

    Bending adjacent edge pairs produces the pentagon-forming repeat of
    the classic four-way paving.
    """
    bend = Fraction(bend)
    bent = EdgeProfile.from_coords([(0, 0), (Fraction(1, 2), bend), (1, 0)])
    anti = point_profile(bent)
    # edges 0-3 and 1-2 paired (0-indexed form of 1-4, 2-3); each partner
    # carries the half-turn image so rotated copies mate exactly
    return build_repeat_tile("square", (3, 2, 1, 0), (bent, bent, anti, anti))


# -- tiling generation --------------------------------------------------------

Transform = Tuple[float, float, float, float, float, float]  # a b c d e f (2x3)


def _apply_transform(t: Transform, p: Tuple[float, float]) -> Tuple[float, float]:
    a, b, c, d, e, f = t
    return (a * p[0] + b * p[1] + e, c * p[0] + d * p[1] + f)


def _rotation_about(theta: float, cx: float, cy: float, tx: float, ty: float) -> Transform:
    a, b = math.cos(theta), -math.sin(theta)
    c, d = math.sin(theta), math.cos(theta)
    return (a, b, c, d, tx - a * cx - b * cy, ty - c * cx - d * cy)


@dataclass(frozen=True)
class Placement:
    transform: Transform
    boundary: Tuple[Tuple[float, float], ...]


# SVG user units to one edge of the base polygon
SVG_UNITS_PER_EDGE = 96


@dataclass
class TilingResult:
    """The copies of a tiling, and the cover check over the disc of the
    given radius, run on first use of `verified` or `first_failure`."""

    tile: RepeatTile
    placements: List[Placement]
    radius: float

    @functools.cached_property
    def first_failure(self) -> Optional[Tuple[float, float]]:
        """The first sample point that no copy or more than one holds, or None."""
        return _verify_cover(self.placements, self.radius)[1]

    @property
    def verified(self) -> bool:
        return self.first_failure is None

    def to_svg(self) -> str:
        """SVG 1.1 document, one path per copy, deterministic order, at
        SVG_UNITS_PER_EDGE user units to an edge."""
        xs = [x for p in self.placements for x, _ in p.boundary]
        ys = [y for p in self.placements for _, y in p.boundary]
        pad = 0.1
        minx, maxx = min(xs) - pad, max(xs) + pad
        miny, maxy = min(ys) - pad, max(ys) + pad
        s = SVG_UNITS_PER_EDGE
        width = (maxx - minx) * s
        height = (maxy - miny) * s
        paths = []
        for idx, placement in enumerate(self.placements):
            d = []
            for i, (x, y) in enumerate(placement.boundary):
                cmd = "M" if i == 0 else "L"
                px = (x - minx) * s
                py = (maxy - y) * s  # flip y for screen coordinates
                d.append(f"{cmd}{px:.3f},{py:.3f}")
            d.append("Z")
            fill = "#dfe7f5" if idx % 2 == 0 else "#f5e7df"
            paths.append(
                f'<path d="{" ".join(d)}" fill="{fill}" stroke="#333" stroke-width="1"/>'
            )
        body = "\n".join(paths)
        return (
            f'<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height:.0f}" viewBox="0 0 {width:.3f} {height:.3f}">\n'
            f"{body}\n</svg>\n"
        )

    def to_placement_json(self) -> List[dict]:
        """The placements as a JSON value: each copy's transform and outline."""
        return [
            {
                "tile": 0,
                "transform": [round(v, 9) for v in p.transform],
                "path": [[round(x, 9), round(y, 9)] for x, y in p.boundary],
            }
            for p in self.placements
        ]


# Largest extent of generate_tiling: the copies grow as extent^2 (4225
# Cairo copies at the cap; 0.2-0.7 s in process by base, with Python 3.11
# on a 2-vCPU VM)
TILING_EXTENT_CAP = 32


def generate_tiling(tile: RepeatTile, extent: int) -> TilingResult:
    """Flood-fill copies of the tile by matching contact edges.

    Starting from one copy at the origin, each unmatched edge demands a
    neighbour: the unique direct isometry carrying the partner edge onto
    the shared segment (reversed).  Copies whose centroid lies within the
    extent (in edge lengths, Chebyshev) are kept; each copy's outline is
    the tile's one float boundary() under its transform.  Coverage of the
    disc of radius extent/2 is verified by _verify_cover on a sampling
    grid, every probe point clear of boundaries in exactly one copy, the
    first time the result's `verified` or `first_failure` is read: the
    SVG and placement JSON do not print the verdict and skip the check.
    """
    if extent < 1:
        raise DomainError("extent must be at least 1")
    if extent > TILING_EXTENT_CAP:
        raise DomainError(f"extent {extent} is past the cap of {TILING_EXTENT_CAP}")
    n = tile.edge_count()
    for i in range(n):
        j = tile.contact[i]
        if j != i and tile.profiles[j] != point_profile(tile.profiles[i]):
            raise DomainError(
                f"edges {i}-{j} mate by reflection; only half-turn contacts "
                f"are supported by the direct-isometry tiler"
            )
    verts = base_polygon(tile.base)
    proto_edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    identity: Transform = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    limit = extent + 1e-9

    def key(t: Transform) -> Tuple:
        # the base polygon is centred at the origin, so (t[4], t[5]) is the
        # copy's centroid
        return (round(t[4], 6), round(t[5], 6), round(t[0], 6), round(t[2], 6))

    placements: Dict[Tuple, Transform] = {}
    queue = deque([identity])
    placements[key(identity)] = identity
    while queue:
        current = queue.popleft()
        for i in range(n):
            j = tile.contact[i]
            a = _apply_transform(current, proto_edges[i][0])
            b = _apply_transform(current, proto_edges[i][1])
            # neighbour's edge j runs b -> a
            sj, ej = proto_edges[j]
            theta = math.atan2(a[1] - b[1], a[0] - b[0]) - math.atan2(
                ej[1] - sj[1], ej[0] - sj[0]
            )
            neighbor = _rotation_about(theta, sj[0], sj[1], b[0], b[1])
            if abs(neighbor[4]) > limit or abs(neighbor[5]) > limit:
                continue
            k = key(neighbor)
            if k not in placements:
                placements[k] = neighbor
                queue.append(neighbor)

    outline = tile.boundary()
    result = [
        Placement(t, tuple(_apply_transform(t, p) for p in outline))
        for t in (placements[k] for k in sorted(placements))
    ]
    return TilingResult(tile, result, radius=extent * 0.5)


def _point_in_polygon(pt: Tuple[float, float], poly: Sequence[Tuple[float, float]]) -> bool:
    x, y = pt
    inside = False
    for (x1, y1), (x2, y2) in zip(poly, list(poly[1:]) + [poly[0]]):
        if (y1 > y) != (y2 > y):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xc:
                inside = not inside
    return inside


def _distance_to_boundary(pt, poly) -> float:
    x, y = pt
    best = float("inf")
    for (x1, y1), (x2, y2) in zip(poly, list(poly[1:]) + [poly[0]]):
        dx, dy = x2 - x1, y2 - y1
        length2 = dx * dx + dy * dy
        t = 0.0 if length2 == 0 else max(0.0, min(1.0, ((x - x1) * dx + (y - y1) * dy) / length2))
        px, py = x1 + t * dx, y1 + t * dy
        best = min(best, math.hypot(x - px, y - py))
    return best


# The cover check's sampling step, the distance from a boundary within
# which a sample is not checked, and the half-width of the band around a
# column's crossings inside which a sample is decided point by point.
COVER_STEP = 1.0 / 8.0
COVER_GUARD = 1e-6
COVER_BAND = 1e-4


def _cover_at(pt, column) -> Optional[int]:
    """How many copies of the column hold pt by the horizontal ray cast,
    or None when pt lies within the guard of a copy's boundary."""
    hits = 0
    for y0, y1, poly, _ in column:
        if not y0 <= pt[1] <= y1:
            continue
        if _distance_to_boundary(pt, poly) < COVER_GUARD:
            return None
        if _point_in_polygon(pt, poly):
            hits += 1
    return hits


def _verify_cover(placements: Sequence[Placement], radius: float):
    """Sample on an 8-per-edge grid (64 points per unit area) within the
    disc of the radius: each point away from all boundaries must sit
    inside exactly one copy.  Returns (True, None), or False and the first
    failing point in column-major order.

    The check sweeps the grid columns.  A point outside a copy's bounding
    box widened by the guard can neither be near its boundary nor inside
    it, so column x keeps the copies whose widened x-range holds x.  Each
    kept edge that crosses the vertical line at x, its ends on either
    side by the half-open rule of the ray cast, crosses it at one y; a
    copy's sorted crossings pair up into the intervals of the line inside
    it, by the even-odd rule, and a running count over all the intervals
    gives the cover of each sample as the column is walked upwards.

    Off the boundaries the even-odd parity along the vertical line equals
    the parity of the per-point check's horizontal ray cast.  The points
    close to a boundary are handed to that per-point check (_cover_at)
    instead: those within COVER_BAND * length / |dx| in y of a crossing,
    and those within COVER_BAND of the y-range of an edge that does not
    cross but ends within COVER_BAND of x.  A point within distance g of a
    crossing edge lies within g * length / |dx| of its crossing in y, and
    one within g of an edge that does not cross has an end of that edge
    within g of x.  So with COVER_BAND a hundred times the guard, every
    point that the per-point check would skip, or whose ray cast rounding
    could sway, is handed to it, with room for the rounding of the
    crossings: the verdict and the first failure are those of the
    per-point check run on every sample against every copy.
    """
    k = int(radius / COVER_STEP)
    copies = []
    for placement in placements:
        poly = placement.boundary
        xs = [x for x, _ in poly]
        ys = [y for _, y in poly]
        copies.append((
            min(xs) - COVER_GUARD, max(xs) + COVER_GUARD,
            min(ys) - COVER_GUARD, max(ys) + COVER_GUARD,
            poly, list(zip(poly, poly[1:] + poly[:1])),
        ))
    samples = [iy * COVER_STEP + 0.0071 for iy in range(-k, k + 1)]
    for ix in range(-k, k + 1):
        x = ix * COVER_STEP + 0.0137  # avoid lattice ties
        column = [c[2:] for c in copies if c[0] <= x <= c[1]]
        events: List[Tuple[float, int]] = []  # (y, +1 entering a copy / -1 leaving it)
        bands: List[Tuple[float, float]] = []
        for _, _, _, edges in column:
            crossings = []
            for (xa, ya), (xb, yb) in edges:
                if (xa > x) != (xb > x):
                    dx, dy = xb - xa, yb - ya
                    yc = ya + (x - xa) * dy / dx
                    crossings.append(yc)
                    width = COVER_BAND * math.hypot(dx, dy) / abs(dx)
                    bands.append((yc - width, yc + width))
                elif abs(xa - x) <= COVER_BAND or abs(xb - x) <= COVER_BAND:
                    bands.append((min(ya, yb) - COVER_BAND, max(ya, yb) + COVER_BAND))
            crossings.sort()
            events.extend(zip(crossings, itertools.cycle((1, -1))))
        events.sort()
        bands.sort()
        cover = e = b = 0
        band_top = -math.inf  # the top of the bands that start below y
        for y in samples:
            while e < len(events) and events[e][0] < y:
                cover += events[e][1]
                e += 1
            while b < len(bands) and bands[b][0] <= y:
                band_top = max(band_top, bands[b][1])
                b += 1
            if math.hypot(x, y) > radius:
                continue
            pt = (x, y)
            hits = _cover_at(pt, column) if y <= band_top else cover
            if hits is not None and hits != 1:
                return False, pt
    return True, None


# -- the angle-distribution law ------------------------------------------------


def angle_distribution_check(angles: Sequence[Fraction]) -> bool:
    """True when the angles (as exact multiples of pi) can be partitioned
    into groups of two, three or four summing each to pi or 2*pi."""
    angles = [Fraction(a) for a in angles]
    if len(angles) < 3:
        raise DomainError("need a polygon")
    if sum(angles) != len(angles) - 2:
        raise DomainError("angles of a simple polygon must sum to (n-2)*pi")
    indices = list(range(len(angles)))

    def solvable(remaining: Tuple[int, ...]) -> bool:
        if not remaining:
            return True
        first, rest = remaining[0], remaining[1:]
        for size in (2, 3, 4):
            for combo in itertools.combinations(rest, size - 1):
                group_sum = angles[first] + sum(angles[i] for i in combo)
                if group_sum in (1, 2):
                    left = tuple(i for i in rest if i not in combo)
                    if solvable(left):
                        return True
        return False

    return solvable(tuple(indices))


# -- polyhedron deficiency balance ----------------------------------------------


@dataclass(frozen=True)
class DeficiencyReport:
    vertex_sum: float
    edge_sum: float
    equal: bool
    euler_ok: bool


# how far apart the two float deficiency sums may be and still be equal
DEFICIENCY_TOLERANCE = 1e-9


def euler_deficiency_check(
    vertex_solid_angles: Sequence[float], edge_dihedral_angles: Sequence[float], faces: int
) -> DeficiencyReport:
    """Compare vertex deficiencies sum(2*pi - omega) with edge
    deficiencies sum(2*pi - 2*theta) for a convex polyhedron, equal
    within DEFICIENCY_TOLERANCE."""
    v, e = len(vertex_solid_angles), len(edge_dihedral_angles)
    euler_ok = v - e + faces == 2
    vertex_sum = sum(2 * math.pi - omega for omega in vertex_solid_angles)
    edge_sum = sum(2 * math.pi - 2 * theta for theta in edge_dihedral_angles)
    return DeficiencyReport(
        vertex_sum, edge_sum, abs(vertex_sum - edge_sum) <= DEFICIENCY_TOLERANCE, euler_ok
    )


def cube_deficiency_report() -> DeficiencyReport:
    return euler_deficiency_check(
        [math.pi / 2] * 8, [math.pi / 2] * 12, faces=6
    )


def tetrahedron_deficiency_report() -> DeficiencyReport:
    vertex = math.acos(Fraction(23, 27))
    dihedral = math.acos(Fraction(1, 3))
    return euler_deficiency_check([vertex] * 4, [dihedral] * 6, faces=4)


# -- the space-filling isosceles tetrahedron -------------------------------------

Vec3 = Tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class Tetrahedron:
    vertices: Tuple[Vec3, Vec3, Vec3, Vec3]

    def edge_lengths_squared(self) -> List[Fraction]:
        out = []
        for a, b in itertools.combinations(self.vertices, 2):
            out.append(sum((x - y) ** 2 for x, y in zip(a, b)))
        return sorted(out)

    def face_edge_multisets(self) -> List[Tuple[Fraction, ...]]:
        faces = []
        for face in itertools.combinations(self.vertices, 3):
            lengths = sorted(
                sum((x - y) ** 2 for x, y in zip(a, b))
                for a, b in itertools.combinations(face, 2)
            )
            faces.append(tuple(lengths))
        return faces

    def volume(self) -> Fraction:
        o = self.vertices[0]
        rows = [tuple(x - y for x, y in zip(v, o)) for v in self.vertices[1:]]
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        return abs(det) / 6


def schoenflies_tetrahedron() -> Tetrahedron:
    """The space-filling tetragonal disphenoid with four congruent
    isosceles faces whose long:short edge ratio squares to 4/3.

    Two opposite edges of squared length 4 sit in parallel planes a unit
    apart, turned a quarter-turn; the other four edges square to 3.
    """
    f = Fraction
    return Tetrahedron(
        (
            (f(0), f(0), f(0)),
            (f(2), f(0), f(0)),
            (f(1), f(1), f(1)),
            (f(1), f(-1), f(1)),
        )
    )


def prism_midpoint_tetrahedron() -> Tetrahedron:
    """Tetrahedron from a 1 x 1 x 2 prism: three adjacent face midpoints
    joined to the shared corner.

    Also a four-congruent-isosceles-face disphenoid, but with edge ratio
    squared 5/2; kept alongside the 4/3 disphenoid because the two
    constructions are often conflated.
    """
    f = Fraction
    return Tetrahedron(
        (
            (f(0), f(0), f(0)),
            (f(1, 2), f(1, 2), f(0)),
            (f(0), f(1, 2), f(1)),
            (f(1, 2), f(0), f(1)),
        )
    )


def achievable_square_contact_systems() -> List[Tuple[int, ...]]:
    """Square contact systems realizable by an edge-to-edge grid tiling
    of rotated copies (compartment order fixed on the tile).

    Determined by exhausting 2x2-periodic rotation assignments; each
    consistent assignment induces one involution pairing the compartments
    that meet across the grid's edges.
    """
    results: Set[Tuple[int, ...]] = set()
    # rotation r means the tile shows compartment (edge - r) mod 4 on each
    # geometric edge; edges indexed 0=N, 1=E, 2=S, 3=W.
    for rots in itertools.product(range(4), repeat=4):
        grid = {(0, 0): rots[0], (1, 0): rots[1], (0, 1): rots[2], (1, 1): rots[3]}
        pairs: Dict[int, int] = {}
        ok = True
        for (x, y), r in grid.items():
            right = grid[((x + 1) % 2, y)]
            up = grid[(x, (y + 1) % 2)]
            for mine, theirs in (
                ((1 - r) % 4, (3 - right) % 4),   # my east meets their west
                ((0 - r) % 4, (2 - up) % 4),      # my north meets their south
            ):
                if pairs.get(mine, theirs) != theirs or pairs.get(theirs, mine) != mine:
                    ok = False
                    break
                pairs[mine] = theirs
                pairs[theirs] = mine
            if not ok:
                break
        if ok and len(pairs) == 4:
            results.add(tuple(pairs[i] for i in range(4)))
    return sorted(results)
