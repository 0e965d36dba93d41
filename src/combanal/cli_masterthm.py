"""The handlers of the `master` commands (see combanal.cli)."""

from __future__ import annotations

from . import masterthm as mt
from .cli_common import CommandResult, UsageError, exclusive, ints, scalar


def cmd_master_coeff(args) -> CommandResult:
    matrix = [ints(row) for row in args.matrix.split(";")]
    if exclusive(("--denominator", args.denominator or None), ("--degree", args.degree)) == "--denominator":
        return scalar(str(mt.master_denominator(matrix)))
    if args.degree is None:
        raise UsageError("master coeff needs --degree (or --denominator)")
    return scalar(str(mt.master_coefficient(matrix, tuple(ints(args.degree)))))


def cmd_master_derange(args) -> CommandResult:
    return scalar(mt.derangements(args.n))


def cmd_master_rencontres(args) -> CommandResult:
    return scalar(mt.generalized_rencontres(args.m, tuple(ints(args.shape))))
