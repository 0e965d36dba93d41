"""The handlers of the `divisor` commands (see combanal.cli)."""

from __future__ import annotations

from . import divisors as dv
from .cli_common import CommandResult, UsageError, exclusive, scalar


def cmd_divisor_series(args) -> CommandResult:
    if args.n is not None:
        if args.n < 1 or args.k < 1:
            raise UsageError("--n and --k must be at least 1")
        value = dv.divisor_series_coeff(args.kind, args.n, args.k)
        return CommandResult(str(value), value, [["n", f"k{args.k}"], [args.n, value]])
    if args.max_n < 1 or args.max_k < 1:
        raise UsageError("--max-n and --max-k must be at least 1")
    table = dv.divisor_table(args.kind, args.max_n, args.max_k)
    header = ["n"] + [f"k{k}" for k in range(1, args.max_k + 1)]
    rows = [[n + 1] + table[n] for n in range(args.max_n)]
    text = "\n".join(" ".join(str(v) for v in row) for row in rows)
    return CommandResult(text, {"kind": args.kind, "rows": rows}, csv_rows=[header] + rows)


def cmd_divisor_sigma2(args) -> CommandResult:
    values = dv.sigma2_from_plane_partitions(args.bound)
    text = " ".join(map(str, values))
    return CommandResult(text, values, csv_rows=[["n", "sigma2"]] + [[i + 1, v] for i, v in enumerate(values)])


def cmd_divisor_potency(args) -> CommandResult:
    if exclusive(("n", args.n), ("--count", args.count)) == "--count":
        return scalar(dv.potency_count(args.count))
    n = 1 if args.n is None else args.n
    pt_, mt_ = dv.potency(n), dv.multiplicity(n)
    return CommandResult(f"{pt_} {mt_}", {"potency": pt_, "multiplicity": mt_})


def cmd_divisor_factorize(args) -> CommandResult:
    return scalar(dv.factorizations(args.m, ordered=args.ordered))


def cmd_divisor_totient(args) -> CommandResult:
    return scalar(dv.totient_bipartite(args.n))
