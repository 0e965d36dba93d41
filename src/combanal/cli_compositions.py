"""The handlers of the `compose` commands (see combanal.cli)."""

from __future__ import annotations

from typing import List

from . import compositions as cp
from .cli_common import CommandResult, UsageError, exclusive, ints, json_list, scalar, text_lines


def _vector_parts(text: str) -> List[tuple]:
    """';'-separated pairs.  A leading or trailing ';' marks a one-part
    bipartite composition, so only those two ends may be empty; an inner
    empty part stays () for the composition's own check to refuse."""
    parts = text.split(";")
    if parts[0] == "":
        del parts[0]
    if parts and parts[-1] == "":
        del parts[-1]
    return [tuple(ints(part)) for part in parts]


def cmd_compose_enum(args) -> CommandResult:
    return CommandResult(
        lambda: text_lines(cp.composition_batches(args.n, sep=" ")),
        lambda: json_list(cp.composition_batches(args.n)),
    )


def cmd_compose_conj(args) -> CommandResult:
    if ";" in args.parts:
        if args.tree:
            raise UsageError("--tree takes a unipartite composition, not a bipartite one")
        conj = cp.route_conjugate(_vector_parts(args.parts))
        text = " ".join("(" + ",".join(map(str, v)) + ")" for v in conj)
        return CommandResult(text, [list(v) for v in conj])
    parts = tuple(ints(args.parts))
    if args.tree:
        tree = cp.composition_tree(parts)
        back = cp.tree_composition(tree)
        text = f"branches {len(tree.children)}; leaves {tree.leaf_count()}; round-trip {' '.join(map(str, back))}"
        return CommandResult(text, {"leaves": tree.leaf_count(), "round_trip": list(back)})
    conj = cp.conjugate_composition(parts)
    return CommandResult(" ".join(map(str, conj)), list(conj))


def cmd_compose_zigzag(args) -> CommandResult:
    conj = cp.zigzag_conjugate(tuple(ints(args.parts)))
    return CommandResult(" ".join(map(str, conj)), list(conj))


def cmd_compose_newcomb(args) -> CommandResult:
    dist = cp.newcomb_distribution(ints(args.counts), ascending=args.ascending)
    comp_rows = sorted(
        ((" ".join(map(str, comp)), n) for comp, n in dist.by_composition.items())
    )
    pack_rows = sorted(dist.by_pack_count.items())
    text = "\n".join(f"{comp}: {n}" for comp, n in comp_rows)
    text += "\n" + "\n".join(f"packs {m}: {n}" for m, n in pack_rows)
    return CommandResult(
        text,
        {
            "by_composition": {comp: n for comp, n in comp_rows},
            "by_pack_count": {str(m): n for m, n in pack_rows},
        },
        csv_rows=[["composition", "arrangements"]] + [list(r) for r in comp_rows],
    )


def cmd_compose_count(args) -> CommandResult:
    exclusive(("q", args.q), ("--order-k", args.order_k))
    exclusive(("--essential", args.essential or None), ("--order-k", args.order_k))
    if args.order_k is not None:
        return scalar(cp.combinations_order_k_count(args.p, args.order_k))
    if args.q is None:
        raise UsageError("compose count needs q (or --order-k)")
    if args.essential:
        rows = sorted(cp.essential_node_tally(args.p, args.q).items())
        text = "\n".join(f"s={s}: {n}" for s, n in rows)
        return CommandResult(text, {str(s): n for s, n in rows})
    return scalar(cp.bipartite_composition_count_gf(args.p, args.q))
