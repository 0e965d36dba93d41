"""The handlers of the `pattern` commands (see combanal.cli)."""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from . import patterns as pa
from .cli_common import CommandResult, UsageError, rationals, scalar


def _contact_pair(text: str, n: int) -> Tuple[int, int]:
    """An 'a-b' --contact pair of edge indices in range(n)."""
    try:
        a, b = (int(v) for v in text.split("-"))
    except ValueError:
        raise UsageError(f"--contact pairs are 'a-b' edge indices, not {text!r}") from None
    if not (0 <= a < n and 0 <= b < n):
        raise UsageError(f"--contact edges must be in range({n}), not {text!r}")
    return a, b


def _profile(text: str) -> pa.EdgeProfile:
    pts = []
    for pair in text.split(";"):
        xy = rationals(pair, "a profile point")
        if len(xy) != 2:
            raise UsageError(f"profile points are 'x,y' pairs separated by ';', not {text!r}")
        pts.append(tuple(xy))
    return pa.EdgeProfile.from_coords(pts)


def cmd_pattern_classify(args) -> CommandResult:
    return scalar(pa.classify_edge(_profile(args.profile)))


def cmd_pattern_angles(args) -> CommandResult:
    ok = pa.angle_distribution_check(rationals(args.angles, "angles"))
    return CommandResult("repeat" if ok else "not-a-repeat", ok)


def _named_tile(args) -> pa.RepeatTile:
    if args.cairo:
        return pa.cairo_tile()
    if args.base == "square" and args.contact is None:
        return pa.square_translation_tile()
    n = pa.BASES[args.base]
    if args.contact:
        contact = list(range(n))
        for pair in args.contact.split(","):
            a, b = _contact_pair(pair, n)
            contact[a], contact[b] = b, a
        contact = tuple(contact)
    else:
        contact = tuple(range(n))
    profiles = (
        tuple(_profile(p) for p in args.profiles.split("|"))
        if args.profiles
        else (pa.STRAIGHT,) * n
    )
    return pa.build_repeat_tile(args.base, contact, profiles)


def cmd_pattern_tile(args) -> CommandResult:
    tile = _named_tile(args)
    text = (
        f"base {tile.base}; contact {','.join(map(str, tile.contact))}; "
        f"area offset {tile.area_offset()}"
    )
    return CommandResult(text, {
        "base": tile.base,
        "contact": list(tile.contact),
        "area_offset": str(tile.area_offset()),
    })


def cmd_pattern_tiling(args) -> CommandResult:
    result = pa.generate_tiling(_named_tile(args), args.extent)
    return CommandResult(
        lambda: f"copies {len(result.placements)}; verified {result.verified}",
        result.to_placement_json,
        svg=result.to_svg,
    )


def cmd_pattern_euler(args) -> CommandResult:
    if args.solid == "cube":
        report = pa.cube_deficiency_report()
    else:
        report = pa.tetrahedron_deficiency_report()
    text = (
        f"vertex sum {report.vertex_sum:.9f}; edge sum {report.edge_sum:.9f}; "
        f"equal {report.equal}"
    )
    return CommandResult(text, {
        "vertex_sum": report.vertex_sum,
        "edge_sum": report.edge_sum,
        "equal": report.equal,
        "euler_ok": report.euler_ok,
    })


def cmd_pattern_tetra(args) -> CommandResult:
    tetra = pa.prism_midpoint_tetrahedron() if args.prism else pa.schoenflies_tetrahedron()
    squares = sorted(set(tetra.edge_lengths_squared()))
    ratio = Fraction(squares[1], squares[0])
    obj = {
        "vertices": [[str(c) for c in v] for v in tetra.vertices],
        "edge_ratio_squared": str(ratio),
        "volume": str(tetra.volume()),
    }
    text = (
        "vertices "
        + "; ".join(",".join(str(c) for c in v) for v in tetra.vertices)
        + f"; ratio^2 {ratio}; volume {tetra.volume()}"
    )
    return CommandResult(text, obj)
