"""Command-line surface: every library operation behind a subcommand.

Exit codes: 0 success, 1 domain error (a DomainError: infeasible input,
guard refusal), 2 usage error.  Any other exception is a bug and ends in
a traceback.  Results go to stdout, diagnostics to stderr; identical
argv produces byte-identical output.  Formats: text (default) and json
(stable key order) for every subcommand, csv (header row) for the table
commands, svg for pattern tiling; the command table lists each one's.

Each subcommand is one entry of the command table below, and the reader,
the parser and dispatch are derived from that table.  The reader turns a
well-formed request (positionals first, then options spelled in full,
each value a token of its own) into the namespace argparse would give,
and builds no parser.  argparse sees only the requests the reader
declines: help, every error, and the forms argparse alone reads
(`--opt=value`, an abbreviation, `--`, a positional after an option or
starting with '-'); so help, usage lines and error messages are all
argparse's.

An entry's handler, cmd_<group>_<action>, lives in the handler module of
its group, which dispatch imports on the entry's first request; so
`import combanal.cli` compiles the table alone, and a request compiles
its own handler module and the domain modules that module reaches.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from . import DomainError, cli_common
from .cli_common import FORMATS, CommandResult, UsageError, cannot_open


def _order(text: str) -> int:
    """--p, the order of a binary form: an integer of at least 1."""
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if p < 1:
        raise argparse.ArgumentTypeError(f"the order must be at least 1, not {p}")
    return p


# ---------------------------------------------------------------------------
# the command table

# The command table lists the formats each entry prints: text and json
# everywhere, csv for the table commands in every route, svg for pattern
# tiling.  dispatch refuses any other format before the handler runs.
TABLE = ("text", "json", "csv")
# patterns.BASES and divisors.SERIES_KINDS, spelled out so that building
# the parser imports neither module (a test keeps them equal)
TILE_BASES = ("triangle", "square", "hexagon")
SERIES_KINDS = ("A", "B", "C")

Key = Tuple[str, str]
Argument = Tuple[Tuple[str, ...], dict]


class Command(NamedTuple):
    arguments: Tuple[Argument, ...]  # add_argument calls, in --help order
    formats: Tuple[str, ...]  # the --format values it can print


def entry(*arguments: Argument, formats: Tuple[str, ...] = ("text", "json")) -> Command:
    """A table entry taking these arguments (then --format and --out) and
    printing these formats."""
    return Command(arguments, formats)


def arg(*names: str, **options) -> Argument:
    """One add_argument call, made when a parser of its group is built."""
    return names, options


# the tile options that pattern tile and pattern tiling share
TILE = (
    arg("--cairo", action="store_true"),
    arg("--base", choices=TILE_BASES, default="square"),
    arg("--contact", help="pairs like '0-2,1-3'"),
    arg("--profiles", help="'|'-separated profiles"),
)

# Each group's handler module: combanal.cli_<domain module>.
HANDLER_MODULES = {
    "partition": "cli_partitions",
    "compose": "cli_compositions",
    "master": "cli_masterthm",
    "invariant": "cli_invariants",
    "ballot": "cli_probelect",
    "election": "cli_probelect",
    "puzzle": "cli_recreations",
    "pattern": "cli_patterns",
    "divisor": "cli_divisors",
}

# (group, action) -> its arguments and formats, in the order --help lists them.
COMMANDS: Dict[Key, Command] = {
    # partition
    ("partition", "count"): entry(
        arg("n", type=int),
        arg("--parts", type=int, help="exact number of parts (recurrence-checked)"),
        arg("--min-part", type=int),
        arg("--elements", help="count multisets from these elements instead"),
        arg("--euler-primes", help="distinct-vs-odd counts avoiding these primes"),
        arg("--pattern", help="adjacent relations, e.g. '>,>='"),
    ),
    ("partition", "enum"): entry(
        arg("n", type=int), arg("--max-part", type=int), arg("--parts", type=int),
        arg("--min-part", type=int, default=1), arg("--distinct", action="store_true"),
        arg("--allowed", help="comma-separated allowed part values"), formats=TABLE,
    ),
    ("partition", "table"): entry(
        arg("n", type=int, nargs="?"),
        arg("--demorgan", type=int, help="print row x of the greatest-part table"),
        arg("--u2", type=int, help="closed form for greatest part 2"),
        arg("--u3", type=int, help="closed form for greatest part 3"), formats=TABLE,
    ),
    ("partition", "conj"): entry(arg("parts")),
    ("partition", "modular"): entry(arg("parts"), arg("--mod", type=int, required=True)),
    ("partition", "parity"): entry(
        arg("n", type=int, nargs="?", default=1),
        arg("--digits", type=int, help="emit this many binary parity digits"),
    ),
    ("partition", "perfect"): entry(arg("n", type=int)),
    ("partition", "plane"): entry(
        arg("n", type=int, nargs="?"), arg("--enum", action="store_true"),
        arg("--boxed", help="l,m,cmax bounds (l=-1 for unbounded entries)"),
        arg("--xy", type=int, help="two-layer axis-symmetric polynomial for this bound"),
    ),
    ("partition", "scale"): entry(arg("alphas")),

    # compose
    ("compose", "enum"): entry(arg("n", type=int)),
    ("compose", "conj"): entry(
        arg("parts", help="unipartite '2,1,4' or bipartite '3,1;0,1;1,1'"),
        arg("--tree", action="store_true", help="round-trip through the rooted tree"),
    ),
    ("compose", "zigzag"): entry(arg("parts")),
    ("compose", "newcomb"): entry(
        arg("counts", help="cards per value, e.g. '2,1'"), arg("--ascending", action="store_true"),
        formats=TABLE,
    ),
    ("compose", "count"): entry(
        arg("p", type=int), arg("q", type=int, nargs="?"),
        arg("--essential", action="store_true", help="tally by essential nodes"),
        arg("--order-k", type=int, help="count order-k combinations instead"),
    ),

    # master
    ("master", "coeff"): entry(
        arg("--matrix", required=True, help="rows 'a,b;c,d'"),
        arg("--degree", help="multidegree 'e1,e2,...'"),
        arg("--denominator", action="store_true", help="print the determinant instead"),
    ),
    ("master", "derange"): entry(arg("n", type=int)),
    ("master", "rencontres"): entry(
        arg("m", type=int), arg("shape", help="multidegree 'e1,e2,...'"),
    ),

    # invariant
    ("invariant", "omega"): entry(
        arg("poly", help="e.g. 'a0*a2-a1^2'"), arg("--p", type=_order, required=True),
    ),
    ("invariant", "oop"): entry(
        arg("poly", help="e.g. 'a0*a2-a1^2'"), arg("--p", type=_order, required=True),
    ),
    ("invariant", "check"): entry(
        arg("poly", help="e.g. 'a0*a2-a1^2'"), arg("--p", type=_order, required=True),
        arg("--transform", required=True, help="'l,m,lp,mp'"),
    ),
    ("invariant", "covariant"): entry(arg("seed"), arg("--p", type=_order, required=True)),
    ("invariant", "basis"): entry(
        arg("p", type=int), arg("j", type=int, nargs="?"), arg("w", type=int, nargs="?"),
        arg("--protomorphs", type=int, help="list sources up to this weight instead"),
    ),
    ("invariant", "weight"): entry(arg("i", type=int), arg("p", type=int)),
    ("invariant", "syzygant"): entry(
        arg("--p", type=_order, default=4), arg("--k", type=int, required=True),
        arg("--sources", help="'|'-separated coefficient polynomials"),
    ),
    ("invariant", "roots"): entry(
        arg("--p", type=int, default=4), arg("--trials", type=int, default=20),
        arg("--seed", type=int, default=0),
    ),

    # ballot
    ("ballot", "ahead"): entry(arg("m", type=int), arg("n", type=int)),
    ("ballot", "neverbehind"): entry(arg("m", type=int), arg("n", type=int)),
    ("ballot", "order"): entry(arg("tally", help="non-increasing counts '3,2,1'")),

    # election
    ("election", "prob"): entry(
        arg("b", type=int), arg("c", type=int), arg("p", type=int), arg("q", type=int),
    ),
    ("election", "approx"): entry(
        arg("b", type=int), arg("c", type=int), arg("p", type=int), arg("r", type=int),
    ),
    ("election", "cubelaw"): entry(
        arg("va", type=float), arg("vb", type=float), arg("seats", type=int),
        arg("--exponent", type=float, default=3.0),
    ),
    ("election", "simulate"): entry(
        arg("--share", type=float, required=True), arg("--seed", type=int, default=0),
        arg("--mixing", type=float, default=1.0), arg("--sizes-file"),
        arg("--constituencies", type=int), arg("--size", type=int),
    ),

    # puzzle
    ("puzzle", "cubes"): entry(
        arg("--colors", type=int, default=6),
        arg("--mode", choices=("all-distinct-faces", "any-coloring"), default="all-distinct-faces"),
        arg("--list", action="store_true"),
        arg("--associated", type=int, help="print the mirror partner of this index"),
    ),
    ("puzzle", "mayblox"): entry(
        arg("--target", type=int),
        arg("--any", action="store_true", help="target-free uniform assembly"),
        arg("--include-associate", action="store_true"),
    ),
    ("puzzle", "triangles"): entry(
        arg("k", type=int),
        arg("--squares", action="store_true", help="four compartments instead of three"),
        arg("--list", action="store_true"),
    ),
    ("puzzle", "hexagon"): entry(arg("--border", type=int, default=0)),
    ("puzzle", "stamps"): entry(arg("n", type=int)),
    ("puzzle", "contacts"): entry(arg("n", type=int), arg("--list", action="store_true")),
    ("puzzle", "latin"): entry(arg("--reduced", type=int), arg("--total", type=int)),
    ("puzzle", "rod"): entry(arg("k", type=int)),
    ("puzzle", "weights"): entry(
        arg("u", type=int), arg("--pans", choices=("one", "two"), default="one"),
    ),
    ("puzzle", "rooks"): entry(arg("n", type=int), arg("k", type=int)),

    # pattern
    ("pattern", "classify"): entry(arg("profile", help="points '0,0;1/2,1/4;1,0'")),
    ("pattern", "angles"): entry(
        arg("angles", help="interior angles as fractions of pi, e.g. '1/3,1/3,1/3'"),
    ),
    ("pattern", "tile"): entry(*TILE),
    ("pattern", "tiling"): entry(
        *TILE, arg("--extent", type=int, default=2), formats=("text", "json", "svg"),
    ),
    ("pattern", "euler"): entry(arg("solid", choices=("cube", "tetrahedron"))),
    ("pattern", "tetra"): entry(
        arg("--prism", action="store_true", help="the prism-midpoint variant"),
    ),

    # divisor
    ("divisor", "series"): entry(
        arg("kind", choices=SERIES_KINDS), arg("--n", type=int), arg("--k", type=int, default=1),
        arg("--max-n", type=int, default=16), arg("--max-k", type=int, default=5), formats=TABLE,
    ),
    ("divisor", "sigma2"): entry(arg("bound", type=int), formats=TABLE),
    ("divisor", "potency"): entry(
        arg("n", type=int, nargs="?"),
        arg("--count", type=int, help="count integers with this potency instead"),
    ),
    ("divisor", "factorize"): entry(arg("m", type=int), arg("--ordered", action="store_true")),
    ("divisor", "totient"): entry(arg("n", type=int)),
}


# ---------------------------------------------------------------------------
# parser

# the two arguments every entry takes after its own
OUTPUT = (
    arg("--format", choices=FORMATS, default="text"),
    arg("--out", help="write output to this path instead of stdout"),
)


def build_parser() -> argparse.ArgumentParser:
    """The combanal parser, read from the command table."""
    parser = argparse.ArgumentParser(
        prog="combanal",
        description="Exact combinatory analysis: partitions, compositions, "
        "the condensed-determinant theorem, binary-form invariants, ballot "
        "problems, puzzles and repeating patterns.",
    )
    group_parsers = parser.add_subparsers(dest="command", required=True)
    actions = {}
    for (group, action), cmd in COMMANDS.items():
        if group not in actions:
            group_parser = group_parsers.add_parser(group)
            actions[group] = group_parser.add_subparsers(dest="action", required=True)
        q = actions[group].add_parser(action)
        for names, options in cmd.arguments + OUTPUT:
            q.add_argument(*names, **options)
    return parser


# The parser is built on the first request the reader declines, and
# reused: parsing leaves it unchanged, and building it costs far more than
# one parse.
_PARSER: Optional[argparse.ArgumentParser] = None
# Each entry's handler, filled on the entry's first request.  dispatch
# calls handlers through RUN, so a wrapper put there sees every call.
RUN: Dict[Key, Callable[[argparse.Namespace], CommandResult]] = {}
# Each entry's arguments as _read takes them, filled on its first request.
READ: Dict[Key, tuple] = {}


def _handler(key: Key) -> Callable[[argparse.Namespace], CommandResult]:
    """The handler of table entry `key`, imported with its module and
    kept in RUN."""
    from importlib import import_module

    group, action = key
    module = import_module(f"combanal.{HANDLER_MODULES[group]}")
    handler = RUN[key] = getattr(module, f"cmd_{group}_{action}")
    return handler


# ---------------------------------------------------------------------------
# reader

# argparse takes a token of this form as a value, not as an option, while
# no option string of the parser has the form (a test keeps it so)
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _reader(key: Key) -> tuple:
    """Table entry `key` as _read takes it, kept in READ: its positionals
    as (dest, type, choices), how many must be given (the rest are
    trailing nargs="?"), each option string with its (dest, type,
    choices), type None for a store_true flag, the dests of the required
    options, and the namespace every request starts from."""
    group, action = key
    positionals, least, options, required = [], 0, {}, set()
    defaults = {"command": group, "action": action}
    for (name,), spec in COMMANDS[key].arguments + OUTPUT:
        flag = spec.get("action") == "store_true"
        convert = None if flag else spec.get("type", str)
        if name[0] == "-":
            dest = name.lstrip("-").replace("-", "_")
            options[name] = (dest, convert, spec.get("choices"))
            if spec.get("required"):
                required.add(dest)
        else:
            dest = name
            positionals.append((dest, convert, spec.get("choices")))
            least += spec.get("nargs") != "?"
        defaults[dest] = spec.get("default", False if flag else None)
    reader = READ[key] = (positionals, least, options, required, defaults)
    return reader


def _value(convert: Callable, choices: Optional[tuple], text: str):
    value = convert(text)
    if choices is not None and value not in choices:
        raise ValueError(value)
    return value


def _read(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace `build_parser().parse_args(argv)` gives when argv is
    a well-formed request of a table entry: positionals first, then
    options spelled in full, each value a token of its own that converts
    and is among the choices.  None for anything else, which dispatch
    hands to argparse: help, every error, and the forms argparse alone
    reads (`--opt=value`, an abbreviation, `--`, a positional after an
    option or starting with '-')."""
    key = tuple(argv[:2])
    reader = READ.get(key)
    if reader is None:
        if key not in COMMANDS:
            return None
        reader = _reader(key)
    positionals, least, options, required, defaults = reader
    args = argparse.Namespace()
    values, given, seen = vars(args), [], set()
    values.update(defaults)
    tokens = iter(argv[2:])
    try:
        for token in tokens:
            if token[:1] != "-":
                if seen:
                    return None
                given.append(token)
                continue
            option = options.get(token)
            if option is None:
                return None
            dest, convert, choices = option
            seen.add(dest)
            if convert is None:
                values[dest] = True
                continue
            text = next(tokens, None)
            if text is None or (text[:1] == "-" and not NEGATIVE_NUMBER.match(text)):
                return None
            values[dest] = _value(convert, choices, text)
        if not least <= len(given) <= len(positionals) or not required <= seen:
            return None
        for (dest, convert, choices), text in zip(positionals, given):
            values[dest] = _value(convert, choices, text)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return args


def dispatch(argv: Sequence[str]) -> int:
    global _PARSER
    args = _read(argv)
    if args is None:
        if _PARSER is None:
            _PARSER = build_parser()
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    key = (args.command, args.action)
    # Python's int-string digit limit bounds the cost of reading a number
    # from argv, and only a token longer than the limit can hold a longer
    # number.  Past that check the limit is lifted, so that an exact answer
    # prints in full however many digits it has.
    limit = cli_common.ARGV_DIGITS = sys.get_int_max_str_digits()
    try:
        if args.format not in COMMANDS[key].formats:
            raise UsageError(f"this subcommand has no {args.format} output")
        if limit and any(len(t) > limit and re.search(rf"\d{{{limit + 1}}}", t) for t in argv):
            raise UsageError(f"a number in the arguments has more than {limit} digits")
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise UsageError(f"argument --out: can't open {args.out!r}: no such directory")
        sys.set_int_max_str_digits(0)
        try:
            result = (RUN.get(key) or _handler(key))(args)
            rendered = result.render(args.format)
        finally:
            sys.set_int_max_str_digits(limit)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"usage error: {cannot_open('--out', args.out, exc)}", file=sys.stderr)
            return 2
        with fh:
            fh.writelines(rendered)
    else:
        sys.stdout.writelines(rendered)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
