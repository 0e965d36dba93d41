"""The handlers of the `puzzle` commands (see combanal.cli)."""

from __future__ import annotations

from typing import Sequence

from . import DomainError, partitions as pt, recreations as rc
from .cli_common import CommandResult, UsageError, digits, exclusive, json_list, scalar, text_lines


def _item(items: Sequence, index: int, flag: str):
    """items[index] for a user-given index; negative indices are refused."""
    if not 0 <= index < len(items):
        raise UsageError(f"{flag} must be in range({len(items)}), not {index}")
    return items[index]


def cmd_puzzle_cubes(args) -> CommandResult:
    k, mode = args.colors, args.mode
    if args.associated is not None:
        cube = _item(rc.generate_cubes(k, mode), args.associated, "--associated")
        mate = rc.associated_cube(cube)
        return CommandResult(
            f"{digits(cube)} -> {digits(mate)}",
            {"cube": list(cube), "associated": list(mate)},
        )
    # the orbit count answers a count; the cubes are built only to be listed
    counter = rc.cube_orbit_count if mode == "any-coloring" else rc.distinct_cube_count
    count, cubes = counter(k), lambda: rc.generate_cubes(k, mode)
    return CommandResult(
        (lambda: text_lines(pt.batched(cubes()), digits)) if args.list else str(count),
        lambda: json_list(pt.batched(cubes())),
    )


def cmd_puzzle_mayblox(args) -> CommandResult:
    any_ = args.any or None
    exclusive(("--any", any_), ("--target", args.target))
    exclusive(("--any", any_), ("--include-associate", args.include_associate or None))
    if args.any:
        solution = rc.mayblox_solve_any()
        target = None
    else:
        cubes = rc.generate_cubes(6)
        target = _item(cubes, 0 if args.target is None else args.target, "--target")
        solution = rc.mayblox_solve(
            target, pool=cubes, exclude_associate=not args.include_associate
        )
    if solution is None:
        raise DomainError("no assembly found")
    ok = rc.verify_assembly(solution, target)
    obj = {
        "verified": ok,
        "placements": [
            {"position": list(pos), "cube": list(cube), "rotation": rot}
            for pos, cube, rot in solution.placements
        ],
    }
    lines = [
        f"{pos}: cube {digits(cube)} rotation {rot}"
        for pos, cube, rot in solution.placements
    ]
    return CommandResult("\n".join(lines + [f"verified {ok}"]), obj)


def cmd_puzzle_triangles(args) -> CommandResult:
    k = args.k
    if args.squares:
        count, tiles = rc.square_count_formula(k), lambda: rc.generate_squares(k)
    else:
        count, tiles = rc.triangle_count_formula(k), lambda: rc.generate_triangles(k)
    return CommandResult(
        (lambda: text_lines(pt.batched(tiles()), digits)) if args.list else str(count),
        lambda: json_list(pt.batched(tiles())),
    )


def cmd_puzzle_hexagon(args) -> CommandResult:
    tiles = rc.generate_triangles(4)
    solution = rc.hexagon_solve(tiles, args.border)
    ok = rc.verify_hexagon(solution, tiles)
    obj = {
        "border_color": solution.border_color,
        "verified": ok,
        "placements": [
            {"cell": list(cell), "tile": list(tile), "rotation": rot}
            for cell, tile, rot in solution.placements
        ],
    }
    lines = [
        f"{cell}: tile {digits(tile)} rotation {rot}"
        for cell, tile, rot in solution.placements
    ]
    return CommandResult("\n".join(lines + [f"verified {ok}"]), obj)


def cmd_puzzle_stamps(args) -> CommandResult:
    return scalar(rc.stamp_foldings(args.n))


def cmd_puzzle_contacts(args) -> CommandResult:
    if args.list:
        return CommandResult(
            lambda: text_lines(rc.contact_system_batches(args.n), lambda s: ",".join(map(str, s))),
            lambda: json_list(rc.contact_system_batches(args.n)),
        )
    return scalar(rc.contact_system_count(args.n))


def cmd_puzzle_latin(args) -> CommandResult:
    if args.total is not None:
        value = rc.latin_total_count(args.total)
    elif args.reduced is not None:
        value = rc.latin_reduced_count(args.reduced)
    else:
        raise UsageError("latin needs --reduced N or --total N")
    return scalar(value)


def cmd_puzzle_rod(args) -> CommandResult:
    marks = rc.measuring_rod(args.k)
    return CommandResult(" ".join(map(str, marks)), list(marks))


def cmd_puzzle_weights(args) -> CommandResult:
    weights = rc.weighing_set(args.u, args.pans)
    return CommandResult(" ".join(map(str, weights)), list(weights))


def cmd_puzzle_rooks(args) -> CommandResult:
    return scalar(rc.rook_row_counts(args.n, args.k))
