"""Command-line surface: every library operation behind a subcommand.

Exit codes: 0 success, 1 domain error (a DomainError: infeasible input,
guard refusal), 2 usage error.  Any other exception is a bug and ends in
a traceback.  Results go to stdout, diagnostics to stderr; identical
argv produces byte-identical output.  Formats: text (default) and json
(stable key order) for every subcommand, csv (header row) for the table
commands, svg for pattern tiling; the command table lists each one's.

Each subcommand is one entry of the command table: the @command decorator
on its handler.  The parser and dispatch are derived from that table.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from types import GeneratorType
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import DomainError

# Domain modules are imported inside the functions that use them, so a
# request loads only what it needs.  Functions are reached as module
# attributes (pt.f), never copied into this namespace.


class CommandResult(NamedTuple):
    """One handler's answer in each format its command table entry lists:
    text and json always, csv and svg where the entry lists them (None
    elsewhere, never rendered).  Each format is a finished value (`text`
    and `svg` a str, `json_obj` a JSON value, `csv_rows` rows of cells) or
    a zero-argument callable that render() calls only when its format is
    asked for.  A callable may return a generator of str chunks, a
    streamed listing: every domain check runs when the callable is
    called, before the first chunk is made."""

    text: object
    json_obj: object
    csv_rows: object = None
    svg: object = None

    def render(self, fmt: str) -> Iterable[str]:
        """The asked format as an iterable of str chunks."""
        value = self[FORMATS.index(fmt)]  # the fields are in FORMATS order
        if callable(value):
            value = value()
            if type(value) is GeneratorType:
                return value
        if fmt == "text":
            return (value if value.endswith("\n") else value + "\n",)
        if fmt == "json":
            return (json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n",)
        if fmt == "csv":
            return ("\n".join(",".join(str(v) for v in row) for row in value) + "\n",)
        return (value,)


class UsageError(Exception):
    pass


def _scalar(value) -> CommandResult:
    """A one-value answer: str(value) as text, the value itself as json."""
    return CommandResult(str(value), value)


def _text_lines(batches: Iterable[list], spell=None, none: str = "", blank: str = "") -> Iterator[str]:
    """A listing as text, one chunk per batch, each item on its line as
    `spell` spells it (items without `spell` are lines already).  A
    listing of one empty line prints `blank`, an empty listing `none`."""
    empty = True
    for batch in batches:
        empty = False
        yield ("\n".join(batch if spell is None else map(spell, batch)) or blank) + "\n"
    if empty:
        yield none + "\n"


def _digits(item: Sequence[int]) -> str:
    """A cube, tile or row of numbers spelled as its digits run together."""
    return "".join(map(str, item))


def _json_list(batches: Iterable[list]) -> Iterator[str]:
    """A listing's items as one compact JSON list, one chunk per batch."""
    sep = "["
    for batch in batches:
        yield sep + json.dumps(batch, separators=(",", ":"))[1:-1]
        sep = ","
    yield "[]\n" if sep == "[" else "]\n"


def _cannot_open(flag: str, path: str, exc: OSError) -> str:
    return f"argument {flag}: can't open {path!r}: {exc.strerror}"


def _ints(text: str) -> List[int]:
    try:
        return [int(v) for v in text.replace(" ", "").split(",") if v != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, not {text!r}") from None


def _order(text: str) -> int:
    """--p, the order of a binary form: an integer of at least 1."""
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if p < 1:
        raise argparse.ArgumentTypeError(f"the order must be at least 1, not {p}")
    return p


def _vector_parts(text: str) -> List[tuple]:
    """';'-separated pairs.  A leading or trailing ';' marks a one-part
    bipartite composition, so only those two ends may be empty; an inner
    empty part stays () for the composition's own check to refuse."""
    parts = text.split(";")
    if parts[0] == "":
        del parts[0]
    if parts and parts[-1] == "":
        del parts[-1]
    return [tuple(_ints(part)) for part in parts]


def _fractions(text: str, what: str) -> List[Fraction]:
    """Comma-separated rationals such as '1/2,3' for the argument `what`.
    Fraction builds 10^K for '1eK', so K past the digit limit is refused."""
    from fractions import Fraction

    values = text.split(",")
    limit = _ARGV_DIGITS
    try:
        if limit and any(abs(int(v.lower().partition("e")[2] or 0)) > limit for v in values):
            raise UsageError(f"a number in the arguments has more than {limit} digits")
        return [Fraction(v) for v in values]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what} takes comma-separated fractions, not {text!r}") from None


def _item(items: Sequence, index: int, flag: str):
    """items[index] for a user-given index; negative indices are refused."""
    if not 0 <= index < len(items):
        raise UsageError(f"{flag} must be in range({len(items)}), not {index}")
    return items[index]


def _contact_pair(text: str, n: int) -> Tuple[int, int]:
    """An 'a-b' --contact pair of edge indices in range(n)."""
    try:
        a, b = (int(v) for v in text.split("-"))
    except ValueError:
        raise UsageError(f"--contact pairs are 'a-b' edge indices, not {text!r}") from None
    if not (0 <= a < n and 0 <= b < n):
        raise UsageError(f"--contact edges must be in range({n}), not {text!r}")
    return a, b


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


def _profile(text: str) -> pa.EdgeProfile:
    from . import patterns as pa

    pts = []
    for pair in text.split(";"):
        xy = _fractions(pair, "a profile point")
        if len(xy) != 2:
            raise UsageError(f"profile points are 'x,y' pairs separated by ';', not {text!r}")
        pts.append(tuple(xy))
    return pa.EdgeProfile.from_coords(pts)


def parse_coeff_poly(expr: str, p: int) -> MultiPoly:
    """Parse sums of integer-coefficient monomials in a0..ap, x, y.

    Grammar per term: [+-][int*]factor(*factor)* with factor = name[^k].
    Example: "a0*a2 - a1^2" or "-3*a0*a1*a2 + 2*a1^3".
    """
    from fractions import Fraction

    from . import invariants as iv
    from .exactcore import MAX_EXPONENT, MultiPoly

    names = iv.avar_names(p, with_xy="x" in expr or "y" in expr)
    cleaned = expr.replace(" ", "").replace("-", "+-")
    terms = {}
    for term in cleaned.split("+"):
        if not term:
            continue
        coeff = Fraction(1)
        if term.startswith("-"):
            coeff = Fraction(-1)
            term = term[1:]
        exp = [0] * len(names)
        for factor in term.split("*"):
            if not factor:
                raise UsageError(f"empty factor in {expr!r}")
            if factor.lstrip("-").replace("/", "").isdigit():
                try:
                    coeff *= Fraction(factor)
                except (ValueError, ZeroDivisionError):
                    raise UsageError(f"bad coefficient {factor!r} in {expr!r}") from None
                continue
            name, caret, power_text = factor.partition("^")
            if caret and not power_text.isdecimal():
                raise UsageError(f"power must be a non-negative integer in {expr!r}")
            try:
                power = int(power_text) if caret else 1
            except ValueError:  # more digits than int() converts
                raise UsageError(f"term of degree above {MAX_EXPONENT} in {expr!r}") from None
            if name not in names:
                raise UsageError(f"unknown symbol {name!r} for order {p}")
            exp[names.index(name)] += power
        # Omega and O keep a term's degree, so every exponent they form
        # stays within MultiPoly's range when the degree does.
        if sum(exp) > MAX_EXPONENT:
            raise UsageError(f"term of degree above {MAX_EXPONENT} in {expr!r}")
        exp = tuple(exp)
        terms[exp] = terms.get(exp, 0) + coeff
    return MultiPoly(names, terms)


# ---------------------------------------------------------------------------
# the command table

# --format takes the same choices for every subcommand, and the command
# table lists the ones each prints: text and json everywhere, csv for the
# table commands in every route, svg for pattern tiling.  dispatch refuses
# any other format before the handler runs.
FORMATS = ("text", "json", "csv", "svg")
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


# The command table, filled by the @command decorator on each handler
# below in the order --help lists them: COMMANDS maps (group, action) to
# its arguments and formats, RUN to its handler.  dispatch calls handlers
# through RUN, so a wrapper put there sees every call.
COMMANDS: Dict[Key, Command] = {}
RUN: Dict[Key, Callable[[argparse.Namespace], CommandResult]] = {}


def command(group: str, action: str, *arguments: Argument, formats: Tuple[str, ...] = ("text", "json")):
    """Register the decorated handler as `combanal GROUP ACTION`, taking
    these arguments (then --format and --out) and printing these formats."""

    def register(handler):
        COMMANDS[group, action] = Command(arguments, formats)
        RUN[group, action] = handler
        return handler

    return register


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


# partition

@command("partition", "count", arg("n", type=int),
         arg("--parts", type=int, help="exact number of parts (recurrence-checked)"),
         arg("--min-part", type=int),
         arg("--elements", help="count multisets from these elements instead"),
         arg("--euler-primes", help="distinct-vs-odd counts avoiding these primes"),
         arg("--pattern", help="adjacent relations, e.g. '>,>='"))
def cmd_partition_count(args) -> CommandResult:
    from . import partitions as pt
    modes = [flag for flag, value in (("--pattern", args.pattern), ("--elements", args.elements),
                                      ("--euler-primes", args.euler_primes), ("--parts", args.parts))
             if value is not None]
    if len(modes) > 1:
        raise UsageError(f"{modes[0]} and {modes[1]} cannot be combined")
    if args.min_part is not None and args.parts is None:
        raise UsageError("--min-part needs --parts")
    if args.pattern == "" or args.elements == "":
        raise UsageError(f"{modes[0]} needs a value")
    if args.pattern is not None:
        value = pt.relation_pattern_count(args.n, args.pattern.split(","))
    elif args.elements is not None:
        value = pt.cayley_denumerant(_ints(args.elements), args.n)
    elif args.euler_primes is not None:
        a, b = pt.generalized_euler_counts(set(_ints(args.euler_primes)), args.n)
        return CommandResult(f"{a} {b}", {"distinct": a, "odd": b})
    elif args.parts is not None:
        value = pt.warburton_count(args.n, args.parts, 1 if args.min_part is None else args.min_part)
    else:
        value = pt.count_partitions(args.n)
    return CommandResult(str(value), int(value))


@command("partition", "enum", arg("n", type=int), arg("--max-part", type=int),
         arg("--parts", type=int), arg("--min-part", type=int, default=1),
         arg("--distinct", action="store_true"),
         arg("--allowed", help="comma-separated allowed part values"), formats=TABLE)
def cmd_partition_enum(args) -> CommandResult:
    from . import partitions as pt
    constraint = pt.PartitionConstraint(
        max_part=args.max_part,
        num_parts=args.parts,
        min_part=args.min_part,
        distinct=args.distinct,
        allowed_parts=frozenset(_ints(args.allowed)) if args.allowed else None,
    )
    return CommandResult(
        lambda: _text_lines(pt.partition_batches(args.n, constraint, sep=" "), none="(none)", blank="()"),
        lambda: _json_list(pt.partition_batches(args.n, constraint)),
        csv_rows=lambda: _text_lines(  # the header row, then the rows
            itertools.chain([["partition"]], pt.partition_batches(args.n, constraint, sep="+"))
        ),
    )


@command("partition", "table", arg("n", type=int, nargs="?", default=20),
         arg("--demorgan", type=int, help="print row x of the greatest-part table"),
         arg("--u2", type=int, help="closed form for greatest part 2"),
         arg("--u3", type=int, help="closed form for greatest part 3"), formats=TABLE)
def cmd_partition_table(args) -> CommandResult:
    from . import partitions as pt
    if args.demorgan is not None:
        row = pt.demorgan_row(args.demorgan)
        return CommandResult(" ".join(map(str, row)), row, [["y", "u"]] + [[y, u] for y, u in enumerate(row, 1)])
    for x, closed_form in ((args.u2, pt.closed_form_u2), (args.u3, pt.closed_form_u3)):
        if x is not None:
            u = closed_form(x)
            return CommandResult(str(u), u, [["x", "u"], [x, u]])
    pt.count_partitions(args.n)  # fills the table to n, or refuses past its cap
    rows = [[n, pt.count_partitions(n)] for n in range(args.n + 1)]
    text = "\n".join(f"{n:>4} {v}" for n, v in rows)
    return CommandResult(text, {str(n): v for n, v in rows}, csv_rows=[["n", "p"]] + rows)


@command("partition", "conj", arg("parts"))
def cmd_partition_conj(args) -> CommandResult:
    from . import partitions as pt
    conj = pt.conjugate(tuple(_ints(args.parts)))
    return CommandResult(" ".join(map(str, conj)), list(conj))


@command("partition", "modular", arg("parts"), arg("--mod", type=int, required=True))
def cmd_partition_modular(args) -> CommandResult:
    from . import partitions as pt
    rows = pt.modular_partition(tuple(_ints(args.parts)), args.mod)
    return CommandResult("\n".join(map(_digits, rows)), [list(r) for r in rows])


@command("partition", "parity", arg("n", type=int, nargs="?", default=1),
         arg("--digits", type=int, help="emit this many binary parity digits"))
def cmd_partition_parity(args) -> CommandResult:
    from . import partitions as pt
    return _scalar(pt.macmahon_digits(args.digits) if args.digits is not None else pt.parity_p(args.n))


@command("partition", "perfect", arg("n", type=int))
def cmd_partition_perfect(args) -> CommandResult:
    from . import partitions as pt
    items = pt.enumerate_perfect(args.n)
    return CommandResult(
        lambda: _text_lines(pt.batched(items), lambda p: " ".join(map(str, p))),
        lambda: _json_list(pt.batched(items)),
    )


@command("partition", "plane", arg("n", type=int, nargs="?", default=0),
         arg("--enum", action="store_true"),
         arg("--boxed", help="l,m,cmax bounds (l=-1 for unbounded entries)"),
         arg("--xy", type=int, help="two-layer axis-symmetric polynomial for this bound"))
def cmd_partition_plane(args) -> CommandResult:
    from . import partitions as pt
    if args.xy is not None:
        terms = sorted(pt.xy_symmetric_two_layer_poly(args.xy).items())
        text = " + ".join((f"{c}x^{w}" if c != 1 else f"x^{w}") for w, c in terms)
        return CommandResult(text, {str(w): c for w, c in terms})
    if args.boxed:
        l, m, cmax = _box_bounds(args.boxed)
        return _scalar(pt.count_boxed_plane_partitions(args.n, l, m, cmax))
    if args.enum:
        from functools import lru_cache

        # a row recurs across the listing, so each is spelled once
        spell = lru_cache(maxsize=None)(_digits)
        return CommandResult(
            lambda: _text_lines(pt.plane_partition_batches(args.n), lambda pp: "/".join(map(spell, pp))),
            lambda: _json_list(pt.plane_partition_batches(args.n)),
        )
    return _scalar(pt.count_plane_partitions(args.n))


@command("partition", "scale", arg("alphas"))
def cmd_partition_scale(args) -> CommandResult:
    from . import partitions as pt
    scale = pt.scale_of_numeration(tuple(_ints(args.alphas)))
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


# compose

@command("compose", "enum", arg("n", type=int))
def cmd_compose_enum(args) -> CommandResult:
    from . import compositions as cp
    return CommandResult(
        lambda: _text_lines(cp.composition_batches(args.n, sep=" ")),
        lambda: _json_list(cp.composition_batches(args.n)),
    )


@command("compose", "conj", arg("parts", help="unipartite '2,1,4' or bipartite '3,1;0,1;1,1'"),
         arg("--tree", action="store_true", help="round-trip through the rooted tree"))
def cmd_compose_conj(args) -> CommandResult:
    from . import compositions as cp
    if ";" in args.parts:
        conj = cp.route_conjugate(_vector_parts(args.parts))
        text = " ".join("(" + ",".join(map(str, v)) + ")" for v in conj)
        return CommandResult(text, [list(v) for v in conj])
    parts = tuple(_ints(args.parts))
    if args.tree:
        tree = cp.composition_tree(parts)
        back = cp.tree_composition(tree)
        text = f"branches {len(tree.children)}; leaves {tree.leaf_count()}; round-trip {' '.join(map(str, back))}"
        return CommandResult(text, {"leaves": tree.leaf_count(), "round_trip": list(back)})
    conj = cp.conjugate_composition(parts)
    return CommandResult(" ".join(map(str, conj)), list(conj))


@command("compose", "zigzag", arg("parts"))
def cmd_compose_zigzag(args) -> CommandResult:
    from . import compositions as cp
    conj = cp.zigzag_conjugate(tuple(_ints(args.parts)))
    return CommandResult(" ".join(map(str, conj)), list(conj))


@command("compose", "newcomb", arg("counts", help="cards per value, e.g. '2,1'"),
         arg("--ascending", action="store_true"), formats=TABLE)
def cmd_compose_newcomb(args) -> CommandResult:
    from . import compositions as cp
    dist = cp.newcomb_distribution(_ints(args.counts), ascending=args.ascending)
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


@command("compose", "count", arg("p", type=int), arg("q", type=int, nargs="?"),
         arg("--essential", action="store_true", help="tally by essential nodes"),
         arg("--order-k", type=int, help="count order-k combinations instead"))
def cmd_compose_count(args) -> CommandResult:
    from . import compositions as cp
    if args.order_k is not None:
        return _scalar(cp.combinations_order_k_count(args.p, args.order_k))
    if args.q is None:
        raise UsageError("compose count needs q (or --order-k)")
    if args.essential:
        rows = sorted(cp.essential_node_tally(args.p, args.q).items())
        text = "\n".join(f"s={s}: {n}" for s, n in rows)
        return CommandResult(text, {str(s): n for s, n in rows})
    return _scalar(cp.bipartite_composition_count_gf(args.p, args.q))


# master

@command("master", "coeff", arg("--matrix", required=True, help="rows 'a,b;c,d'"),
         arg("--degree", help="multidegree 'e1,e2,...'"),
         arg("--denominator", action="store_true", help="print the determinant instead"))
def cmd_master_coeff(args) -> CommandResult:
    from . import masterthm as mt
    matrix = [_ints(row) for row in args.matrix.split(";")]
    if args.denominator:
        return _scalar(str(mt.master_denominator(matrix)))
    if args.degree is None:
        raise UsageError("master coeff needs --degree (or --denominator)")
    return _scalar(str(mt.master_coefficient(matrix, tuple(_ints(args.degree)))))


@command("master", "derange", arg("n", type=int))
def cmd_master_derange(args) -> CommandResult:
    from . import masterthm as mt
    return _scalar(mt.derangements(args.n))


@command("master", "rencontres", arg("m", type=int), arg("shape", help="multidegree 'e1,e2,...'"))
def cmd_master_rencontres(args) -> CommandResult:
    from . import masterthm as mt
    return _scalar(mt.generalized_rencontres(args.m, tuple(_ints(args.shape))))


# invariant

@command("invariant", "omega",
         arg("poly", help="e.g. 'a0*a2-a1^2'"), arg("--p", type=_order, required=True))
def cmd_invariant_omega(args) -> CommandResult:
    from . import invariants as iv
    return _scalar(str(iv.omega(parse_coeff_poly(args.poly, args.p), args.p)))


@command("invariant", "oop",
         arg("poly", help="e.g. 'a0*a2-a1^2'"), arg("--p", type=_order, required=True))
def cmd_invariant_oop(args) -> CommandResult:
    from . import invariants as iv
    return _scalar(str(iv.oop(parse_coeff_poly(args.poly, args.p), args.p)))


@command("invariant", "check",
         arg("poly", help="e.g. 'a0*a2-a1^2'"), arg("--p", type=_order, required=True),
         arg("--transform", required=True, help="'l,m,lp,mp'"))
def cmd_invariant_check(args) -> CommandResult:
    from . import invariants as iv
    poly = parse_coeff_poly(args.poly, args.p)
    transform = _fractions(args.transform, "--transform")
    if len(transform) != 4:
        raise UsageError(f"--transform takes four values l,m,lp,mp, not {args.transform!r}")
    l, m, lp, mp = transform
    ok, s = iv.invariance_check(poly, args.p, iv.LinearTransform2(l, m, lp, mp))
    text = f"{'invariant' if ok else 'not invariant'}" + (f" s={s}" if ok else "")
    return CommandResult(text, {"invariant": ok, "exponent": s})


@command("invariant", "covariant", arg("seed"), arg("--p", type=_order, required=True))
def cmd_invariant_covariant(args) -> CommandResult:
    from . import invariants as iv
    return _scalar(str(iv.covariant_from_seed(parse_coeff_poly(args.seed, args.p), args.p)))


@command("invariant", "basis", arg("p", type=int), arg("j", type=int, nargs="?"),
         arg("w", type=int, nargs="?"),
         arg("--protomorphs", type=int, help="list sources up to this weight instead"))
def cmd_invariant_basis(args) -> CommandResult:
    from . import invariants as iv
    if args.protomorphs is not None:
        texts = [str(s) for s in iv.protomorphs(args.p, args.protomorphs)]
        return CommandResult("\n".join(texts), texts)
    if args.j is None or args.w is None:
        raise UsageError("invariant basis needs j and w (or --protomorphs)")
    texts = [str(b) for b in iv.seminvariant_basis(args.p, args.j, args.w)]
    return CommandResult("\n".join(texts) or "(empty)", texts)


@command("invariant", "weight", arg("i", type=int), arg("p", type=int))
def cmd_invariant_weight(args) -> CommandResult:
    from . import invariants as iv
    w = iv.invariant_weight(args.i, args.p)
    return CommandResult("infeasible" if w is None else str(w), w)


@command("invariant", "syzygant", arg("--p", type=_order, default=4),
         arg("--k", type=int, required=True),
         arg("--sources", help="'|'-separated coefficient polynomials"))
def cmd_invariant_syzygant(args) -> CommandResult:
    from . import invariants as iv
    from .exactcore import MultiPoly

    if args.sources:
        sources = [parse_coeff_poly(e, args.p) for e in args.sources.split("|")]
    else:
        u = MultiPoly.variable(iv.avar_names(args.p), "a0")
        h = iv.quadrinvariant(args.p, 2)
        c3 = iv.odd_source(args.p, 3)
        q4 = iv.quadrinvariant(args.p, 4)
        sources = [h**3, c3**2, u**2 * h * q4]
    solutions = [
        {"alphas": [str(a) for a in sol.alphas], "quotient": str(sol.quotient)}
        for sol in iv.syzygant_search(sources, args.k)
    ]
    lines = [f"alphas ({','.join(sol['alphas'])}); quotient {sol['quotient']}" for sol in solutions]
    return CommandResult("\n".join(lines) or "(no nonzero solution)", solutions)


@command("invariant", "roots", arg("--p", type=int, default=4),
         arg("--trials", type=int, default=20), arg("--seed", type=int, default=0))
def cmd_invariant_roots(args) -> CommandResult:
    from . import invariants as iv
    report = iv.roots_correspondence_check(args.p, args.trials, seed=args.seed)
    obj = {
        "trials": report.trials,
        "q2_identity_ok": report.q2_identity_ok,
        "prior_product_ok": report.prior_product_ok,
    }
    text = (
        f"trials {report.trials}: q2 {'ok' if report.q2_identity_ok else 'FAIL'}, "
        f"product {'ok' if report.prior_product_ok else 'FAIL'}"
    )
    return CommandResult(text, obj)


# ballot

@command("ballot", "ahead", arg("m", type=int), arg("n", type=int))
def cmd_ballot_ahead(args) -> CommandResult:
    from . import probelect as pe
    return _scalar(str(pe.ballot_strictly_ahead(args.m, args.n)))


@command("ballot", "neverbehind", arg("m", type=int), arg("n", type=int))
def cmd_ballot_neverbehind(args) -> CommandResult:
    from . import probelect as pe
    return _scalar(str(pe.ballot_never_behind(args.m, args.n)))


@command("ballot", "order", arg("tally", help="non-increasing counts '3,2,1'"))
def cmd_ballot_order(args) -> CommandResult:
    from . import probelect as pe
    return _scalar(str(pe.macmahon_order_probability(pe.VoteTally(tuple(_ints(args.tally))))))


# election

@command("election", "prob", arg("b", type=int), arg("c", type=int), arg("p", type=int),
         arg("q", type=int))
def cmd_election_prob(args) -> CommandResult:
    from . import probelect as pe
    model = pe.ElectorateModel(args.b + args.c, args.b, args.c)
    return _scalar(str(pe.sample_prob_exact(model, args.p, args.q)))


@command("election", "approx", arg("b", type=int), arg("c", type=int), arg("p", type=int),
         arg("r", type=int))
def cmd_election_approx(args) -> CommandResult:
    from . import probelect as pe
    model = pe.ElectorateModel(args.b + args.c, args.b, args.c)
    c0, s_r = pe.sample_prob_approx(model, args.p, args.r)
    return CommandResult(f"C0 {c0:.6f}; S_r {s_r:.6f}", {"C0": c0, "S_r": s_r})


@command("election", "cubelaw", arg("va", type=float), arg("vb", type=float),
         arg("seats", type=int), arg("--exponent", type=float, default=3.0))
def cmd_election_cubelaw(args) -> CommandResult:
    from . import probelect as pe
    sa, sb = pe.cube_law_seats(args.va, args.vb, args.seats, exponent=args.exponent)
    return CommandResult(f"{sa} {sb}", [sa, sb])


@command("election", "simulate", arg("--share", type=float, required=True),
         arg("--seed", type=int, default=0), arg("--mixing", type=float, default=1.0),
         arg("--sizes-file"), arg("--constituencies", type=int, default=100),
         arg("--size", type=int, default=1000))
def cmd_election_simulate(args) -> CommandResult:
    from . import probelect as pe
    if args.sizes_file:
        pe.check_shares(args.share, args.mixing)  # before the file is read
        try:
            sizes = pe.read_constituency_sizes(args.sizes_file)
        except OSError as exc:
            raise UsageError(_cannot_open("--sizes-file", args.sizes_file, exc)) from None
    elif args.size < 1:
        sizes = [args.size]  # refused by simulate_election
    else:
        pe.check_voter_count(args.constituencies * args.size)  # before the list is built
        sizes = [args.size] * args.constituencies
    obj = pe.simulate_election(args.share, sizes, args.seed, mixing=args.mixing).to_json()
    return CommandResult(json.dumps(obj, sort_keys=True), obj)


# puzzle

@command("puzzle", "cubes", arg("--colors", type=int, default=6),
         arg("--mode", choices=("all-distinct-faces", "any-coloring"),
             default="all-distinct-faces"),
         arg("--list", action="store_true"),
         arg("--associated", type=int, help="print the mirror partner of this index"))
def cmd_puzzle_cubes(args) -> CommandResult:
    from . import partitions as pt, recreations as rc
    k, mode = args.colors, args.mode
    if args.associated is not None:
        cube = _item(rc.generate_cubes(k, mode), args.associated, "--associated")
        mate = rc.associated_cube(cube)
        return CommandResult(
            f"{_digits(cube)} -> {_digits(mate)}",
            {"cube": list(cube), "associated": list(mate)},
        )
    # the orbit count answers a count; the cubes are built only to be listed
    counter = rc.cube_orbit_count if mode == "any-coloring" else rc.distinct_cube_count
    count, cubes = counter(k), lambda: rc.generate_cubes(k, mode)
    return CommandResult(
        (lambda: _text_lines(pt.batched(cubes()), _digits)) if args.list else str(count),
        lambda: _json_list(pt.batched(cubes())),
    )


@command("puzzle", "mayblox", arg("--target", type=int, default=0),
         arg("--any", action="store_true", help="target-free uniform assembly"),
         arg("--include-associate", action="store_true"))
def cmd_puzzle_mayblox(args) -> CommandResult:
    from . import recreations as rc
    if args.any:
        solution = rc.mayblox_solve_any()
        target = None
    else:
        cubes = rc.generate_cubes(6)
        target = _item(cubes, args.target, "--target")
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
        f"{pos}: cube {_digits(cube)} rotation {rot}"
        for pos, cube, rot in solution.placements
    ]
    return CommandResult("\n".join(lines + [f"verified {ok}"]), obj)


@command("puzzle", "triangles", arg("k", type=int),
         arg("--squares", action="store_true", help="four compartments instead of three"),
         arg("--list", action="store_true"))
def cmd_puzzle_triangles(args) -> CommandResult:
    from . import partitions as pt, recreations as rc
    k = args.k
    if args.squares:
        count, tiles = rc.square_count_formula(k), lambda: rc.generate_squares(k)
    else:
        count, tiles = rc.triangle_count_formula(k), lambda: rc.generate_triangles(k)
    return CommandResult(
        (lambda: _text_lines(pt.batched(tiles()), _digits)) if args.list else str(count),
        lambda: _json_list(pt.batched(tiles())),
    )


@command("puzzle", "hexagon", arg("--border", type=int, default=0))
def cmd_puzzle_hexagon(args) -> CommandResult:
    from . import recreations as rc
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
        f"{cell}: tile {_digits(tile)} rotation {rot}"
        for cell, tile, rot in solution.placements
    ]
    return CommandResult("\n".join(lines + [f"verified {ok}"]), obj)


@command("puzzle", "stamps", arg("n", type=int))
def cmd_puzzle_stamps(args) -> CommandResult:
    from . import recreations as rc
    return _scalar(rc.stamp_foldings(args.n))


@command("puzzle", "contacts", arg("n", type=int), arg("--list", action="store_true"))
def cmd_puzzle_contacts(args) -> CommandResult:
    from . import recreations as rc
    if args.list:
        return CommandResult(
            lambda: _text_lines(rc.contact_system_batches(args.n), lambda s: ",".join(map(str, s))),
            lambda: _json_list(rc.contact_system_batches(args.n)),
        )
    return _scalar(rc.contact_system_count(args.n))


@command("puzzle", "latin", arg("--reduced", type=int), arg("--total", type=int))
def cmd_puzzle_latin(args) -> CommandResult:
    from . import recreations as rc
    if args.total is not None:
        value = rc.latin_total_count(args.total)
    elif args.reduced is not None:
        value = rc.latin_reduced_count(args.reduced)
    else:
        raise UsageError("latin needs --reduced N or --total N")
    return _scalar(value)


@command("puzzle", "rod", arg("k", type=int))
def cmd_puzzle_rod(args) -> CommandResult:
    from . import recreations as rc
    marks = rc.measuring_rod(args.k)
    return CommandResult(" ".join(map(str, marks)), list(marks))


@command("puzzle", "weights", arg("u", type=int),
         arg("--pans", choices=("one", "two"), default="one"))
def cmd_puzzle_weights(args) -> CommandResult:
    from . import recreations as rc
    weights = rc.weighing_set(args.u, args.pans)
    return CommandResult(" ".join(map(str, weights)), list(weights))


@command("puzzle", "rooks", arg("n", type=int), arg("k", type=int))
def cmd_puzzle_rooks(args) -> CommandResult:
    from . import recreations as rc
    return _scalar(rc.rook_row_counts(args.n, args.k))


# pattern

@command("pattern", "classify", arg("profile", help="points '0,0;1/2,1/4;1,0'"))
def cmd_pattern_classify(args) -> CommandResult:
    from . import patterns as pa
    return _scalar(pa.classify_edge(_profile(args.profile)))


@command("pattern", "angles",
         arg("angles", help="interior angles as fractions of pi, e.g. '1/3,1/3,1/3'"))
def cmd_pattern_angles(args) -> CommandResult:
    from . import patterns as pa
    ok = pa.angle_distribution_check(_fractions(args.angles, "angles"))
    return CommandResult("repeat" if ok else "not-a-repeat", ok)


def _named_tile(args) -> pa.RepeatTile:
    from . import patterns as pa

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


@command("pattern", "tile", *TILE)
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


@command("pattern", "tiling", *TILE, arg("--extent", type=int, default=2), formats=("text", "json", "svg"))
def cmd_pattern_tiling(args) -> CommandResult:
    from . import patterns as pa
    result = pa.generate_tiling(_named_tile(args), args.extent)
    return CommandResult(
        lambda: f"copies {len(result.placements)}; verified {result.verified}",
        result.to_placement_json,
        svg=result.to_svg,
    )


@command("pattern", "euler", arg("solid", choices=("cube", "tetrahedron")))
def cmd_pattern_euler(args) -> CommandResult:
    from . import patterns as pa
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


@command("pattern", "tetra", arg("--prism", action="store_true", help="the prism-midpoint variant"))
def cmd_pattern_tetra(args) -> CommandResult:
    from fractions import Fraction

    from . import patterns as pa

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


# divisor

@command("divisor", "series", arg("kind", choices=SERIES_KINDS), arg("--n", type=int),
         arg("--k", type=int, default=1), arg("--max-n", type=int, default=16),
         arg("--max-k", type=int, default=5), formats=TABLE)
def cmd_divisor_series(args) -> CommandResult:
    from . import divisors as dv
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


@command("divisor", "sigma2", arg("bound", type=int), formats=TABLE)
def cmd_divisor_sigma2(args) -> CommandResult:
    from . import divisors as dv
    values = dv.sigma2_from_plane_partitions(args.bound)
    text = " ".join(map(str, values))
    return CommandResult(text, values, csv_rows=[["n", "sigma2"]] + [[i + 1, v] for i, v in enumerate(values)])


@command("divisor", "potency", arg("n", type=int, nargs="?", default=1),
         arg("--count", type=int, help="count integers with this potency instead"))
def cmd_divisor_potency(args) -> CommandResult:
    from . import divisors as dv
    if args.count is not None:
        return _scalar(dv.potency_count(args.count))
    pt_, mt_ = dv.potency(args.n), dv.multiplicity(args.n)
    return CommandResult(f"{pt_} {mt_}", {"potency": pt_, "multiplicity": mt_})


@command("divisor", "factorize", arg("m", type=int), arg("--ordered", action="store_true"))
def cmd_divisor_factorize(args) -> CommandResult:
    from . import divisors as dv
    return _scalar(dv.factorizations(args.m, ordered=args.ordered))


@command("divisor", "totient", arg("n", type=int))
def cmd_divisor_totient(args) -> CommandResult:
    from . import divisors as dv
    return _scalar(dv.totient_bipartite(args.n))


# ---------------------------------------------------------------------------
# parser

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
    # Each table entry's own parser, by (group, action); see `_parse`.
    parser.entries = {}
    for key, cmd in COMMANDS.items():
        group, action = key
        if group not in actions:
            group_parser = group_parsers.add_parser(group)
            actions[group] = group_parser.add_subparsers(dest="action", required=True)
        q = parser.entries[key] = actions[group].add_parser(action)
        for names, options in cmd.arguments:
            q.add_argument(*names, **options)
        q.add_argument("--format", choices=FORMATS, default="text")
        q.add_argument("--out", help="write output to this path instead of stdout")
    return parser


# The whole-table parser is built on the first dispatch and reused: parsing
# leaves it unchanged, and building it costs far more than one parse.  A
# request that names a table entry is parsed by that entry's own parser,
# inside the one whole-table parser.
_PARSER: Optional[argparse.ArgumentParser] = None
# Python's int-string digit limit as dispatch found it, before lifting it
# for the handler: the most digits a number read from argv may have.
_ARGV_DIGITS = sys.get_int_max_str_digits()


def _parse(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    """The namespace `parser.parse_args(argv)` gives, without its two outer
    levels when argv names a table entry.  The entry's parser is then called
    as argparse's subparser action calls it, on the same strings, so help,
    usage lines and argument errors keep their bytes.  Extra arguments are
    reported by the whole tree, whose usage line they print."""
    key = tuple(argv[:2])
    entry = parser.entries.get(key)
    if entry is not None:
        args, extras = entry.parse_known_args(argv[2:])
        if not extras:
            args.command, args.action = key
            return args
    return parser.parse_args(argv)


def dispatch(argv: Sequence[str]) -> int:
    global _PARSER, _ARGV_DIGITS
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _parse(_PARSER, argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    key = (args.command, args.action)
    # Python's int-string digit limit bounds the cost of reading a number
    # from argv, and only a token longer than the limit can hold a longer
    # number.  Past that check the limit is lifted, so that an exact answer
    # prints in full however many digits it has.
    limit = _ARGV_DIGITS = sys.get_int_max_str_digits()
    try:
        if args.format not in COMMANDS[key].formats:
            raise UsageError(f"this subcommand has no {args.format} output")
        if limit and any(len(t) > limit and re.search(rf"\d{{{limit + 1}}}", t) for t in argv):
            raise UsageError(f"a number in the arguments has more than {limit} digits")
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise UsageError(f"argument --out: can't open {args.out!r}: no such directory")
        sys.set_int_max_str_digits(0)
        try:
            result = RUN[key](args)
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
            print(f"usage error: {_cannot_open('--out', args.out, exc)}", file=sys.stderr)
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
