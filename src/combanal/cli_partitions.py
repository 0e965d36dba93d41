"""The handlers of the `partition` commands (see combanal.cli)."""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional, Tuple

from . import partitions as pt
from .cli_common import CommandResult, UsageError, digits, exclusive, ints, json_list, scalar, text_lines


def _box_bounds(text: str) -> Tuple[Optional[int], int, int]:
    """l,m,cmax for --boxed; l is None (unbounded entries) for inf or -1."""
    try:
        l_text, m_text, c_text = text.split(",")
        l = None if l_text in ("inf", "-1") else int(l_text)
        return l, int(m_text), int(c_text)
    except ValueError:
        raise UsageError(
            f"--boxed takes l,m,cmax integers (l may be inf or -1), not {text!r}"
        ) from None


def cmd_partition_count(args) -> CommandResult:
    mode = exclusive(("--pattern", args.pattern), ("--elements", args.elements),
                     ("--euler-primes", args.euler_primes), ("--parts", args.parts))
    if args.min_part is not None and args.parts is None:
        raise UsageError("--min-part needs --parts")
    if args.pattern == "" or args.elements == "":
        raise UsageError(f"{mode} needs a value")
    if args.pattern is not None:
        value = pt.relation_pattern_count(args.n, args.pattern.split(","))
    elif args.elements is not None:
        value = pt.cayley_denumerant(ints(args.elements), args.n)
    elif args.euler_primes is not None:
        a, b = pt.generalized_euler_counts(set(ints(args.euler_primes)), args.n)
        return CommandResult(f"{a} {b}", {"distinct": a, "odd": b})
    elif args.parts is not None:
        value = pt.warburton_count(args.n, args.parts, 1 if args.min_part is None else args.min_part)
    else:
        value = pt.count_partitions(args.n)
    return CommandResult(str(value), int(value))


def cmd_partition_enum(args) -> CommandResult:
    constraint = pt.PartitionConstraint(
        max_part=args.max_part,
        num_parts=args.parts,
        min_part=args.min_part,
        distinct=args.distinct,
        allowed_parts=frozenset(ints(args.allowed)) if args.allowed else None,
    )
    return CommandResult(
        lambda: text_lines(pt.partition_batches(args.n, constraint, sep=" "), none="(none)", blank="()"),
        lambda: json_list(pt.partition_batches(args.n, constraint)),
        csv_rows=lambda: text_lines(  # the header row, then the rows
            itertools.chain([["partition"]], pt.partition_batches(args.n, constraint, sep="+"))
        ),
    )


def cmd_partition_table(args) -> CommandResult:
    exclusive(("n", args.n), ("--demorgan", args.demorgan), ("--u2", args.u2), ("--u3", args.u3))
    if args.demorgan is not None:
        row = pt.demorgan_row(args.demorgan)
        return CommandResult(" ".join(map(str, row)), row, [["y", "u"]] + [[y, u] for y, u in enumerate(row, 1)])
    for x, closed_form in ((args.u2, pt.closed_form_u2), (args.u3, pt.closed_form_u3)):
        if x is not None:
            u = closed_form(x)
            return CommandResult(str(u), u, [["x", "u"], [x, u]])
    top = 20 if args.n is None else args.n
    rows = [[n, v] for n, v in enumerate(pt.partition_counts(top))]
    text = "\n".join(f"{n:>4} {v}" for n, v in rows)
    return CommandResult(text, {str(n): v for n, v in rows}, csv_rows=[["n", "p"]] + rows)


def cmd_partition_conj(args) -> CommandResult:
    conj = pt.conjugate(tuple(ints(args.parts)))
    return CommandResult(" ".join(map(str, conj)), list(conj))


def cmd_partition_modular(args) -> CommandResult:
    rows = pt.modular_partition(tuple(ints(args.parts)), args.mod)
    return CommandResult("\n".join(map(digits, rows)), [list(r) for r in rows])


def cmd_partition_parity(args) -> CommandResult:
    return scalar(pt.macmahon_digits(args.digits) if args.digits is not None else pt.parity_p(args.n))


def cmd_partition_perfect(args) -> CommandResult:
    items = pt.enumerate_perfect(args.n)
    return CommandResult(
        lambda: text_lines(pt.batched(items), lambda p: " ".join(map(str, p))),
        lambda: json_list(pt.batched(items)),
    )


def cmd_partition_plane(args) -> CommandResult:
    exclusive(("--enum", args.enum or None), ("--boxed", args.boxed), ("--xy", args.xy))
    exclusive(("n", args.n), ("--xy", args.xy))
    n = 0 if args.n is None else args.n
    if args.xy is not None:
        terms = sorted(pt.xy_symmetric_two_layer_poly(args.xy).items())
        text = " + ".join((f"{c}x^{w}" if c != 1 else f"x^{w}") for w, c in terms)
        return CommandResult(text, {str(w): c for w, c in terms})
    if args.boxed is not None:
        l, m, cmax = _box_bounds(args.boxed)
        return scalar(pt.count_boxed_plane_partitions(n, l, m, cmax))
    if args.enum:
        # a row recurs across the listing, so each is spelled once
        spell = lru_cache(maxsize=None)(digits)
        return CommandResult(
            lambda: text_lines(pt.plane_partition_batches(n), lambda pp: "/".join(map(spell, pp))),
            lambda: json_list(pt.plane_partition_batches(n)),
        )
    return scalar(pt.count_plane_partitions(n))


def cmd_partition_scale(args) -> CommandResult:
    scale = pt.scale_of_numeration(tuple(ints(args.alphas)))
    obj = {
        "alphas": list(scale.alphas),
        "place_values": list(scale.place_values),
        "limit": scale.limit,
        "partition": list(scale.partition()),
    }
    text = (
        f"places {' '.join(map(str, scale.place_values))}; "
        f"limit {scale.limit}; partition {' '.join(map(str, scale.partition()))}"
    )
    return CommandResult(text, obj)
