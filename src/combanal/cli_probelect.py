"""The handlers of the `ballot` and `election` commands (see combanal.cli)."""

from __future__ import annotations

import json

from . import probelect as pe
from .cli_common import CommandResult, UsageError, cannot_open, exclusive, ints, scalar


def cmd_ballot_ahead(args) -> CommandResult:
    return scalar(str(pe.ballot_strictly_ahead(args.m, args.n)))


def cmd_ballot_neverbehind(args) -> CommandResult:
    return scalar(str(pe.ballot_never_behind(args.m, args.n)))


def cmd_ballot_order(args) -> CommandResult:
    return scalar(str(pe.macmahon_order_probability(pe.VoteTally(tuple(ints(args.tally))))))


def cmd_election_prob(args) -> CommandResult:
    model = pe.ElectorateModel(args.b + args.c, args.b, args.c)
    return scalar(str(pe.sample_prob_exact(model, args.p, args.q)))


def cmd_election_approx(args) -> CommandResult:
    model = pe.ElectorateModel(args.b + args.c, args.b, args.c)
    c0, s_r = pe.sample_prob_approx(model, args.p, args.r)
    return CommandResult(f"C0 {c0:.6f}; S_r {s_r:.6f}", {"C0": c0, "S_r": s_r})


def cmd_election_cubelaw(args) -> CommandResult:
    sa, sb = pe.cube_law_seats(args.va, args.vb, args.seats, exponent=args.exponent)
    return CommandResult(f"{sa} {sb}", [sa, sb])


def cmd_election_simulate(args) -> CommandResult:
    exclusive(("--sizes-file", args.sizes_file), ("--constituencies", args.constituencies))
    exclusive(("--sizes-file", args.sizes_file), ("--size", args.size))
    constituencies = 100 if args.constituencies is None else args.constituencies
    size = 1000 if args.size is None else args.size
    if args.sizes_file is not None:
        pe.check_shares(args.share, args.mixing)  # before the file is read
        try:
            sizes = pe.read_constituency_sizes(args.sizes_file)
        except OSError as exc:
            raise UsageError(cannot_open("--sizes-file", args.sizes_file, exc)) from None
    elif size < 1:
        sizes = [size]  # refused by simulate_election
    else:
        pe.check_voter_count(constituencies * size)  # before the list is built
        sizes = [size] * constituencies
    obj = pe.simulate_election(args.share, sizes, args.seed, mixing=args.mixing).to_json()
    return CommandResult(json.dumps(obj, sort_keys=True), obj)
