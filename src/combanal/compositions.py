"""Compositions of unipartite and multipartite numbers.

Includes the circled-dot, line-of-route, and zig-zag conjugations,
essential-node statistics, the rooted-tree and order-k generalizations,
and the Simon Newcomb pack-dealing distribution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import DomainError

Composition = Tuple[int, ...]
VectorPart = Tuple[int, ...]
MultipartiteComposition = Tuple[VectorPart, ...]

MULTIPARTITE_CAP = 10
NEWCOMB_CAP = 9
# lines composition_batches may list: 2^19, n = 20
COMPOSE_ENUM_CAP = 2**19
# compositions per batch of a listing
_BATCH = 4096
# remainders below this keep every composition as a shared suffix: at
# most 2^10 of them, 2^11 - 1 over all the lists
_SHARED = 12
# cells (p + 1)(q + 1) of bipartite_composition_count_gf's table; entries
# reach p + q bits, so the thinnest table at the cap costs the most
BIPARTITE_TABLE_CELL_CAP = 10**5


def _check_parts_made(size: int) -> None:
    """Refuse an answer of more than CONJUGATE_PARTS_CAP parts (or leaves)
    before any is made."""
    from .partitions import CONJUGATE_PARTS_CAP  # the one cap on parts printed

    if size > CONJUGATE_PARTS_CAP:
        raise DomainError(f"the answer has {size} parts, past the cap of {CONJUGATE_PARTS_CAP}")


def check_composition(parts: Sequence[int], n: Optional[int] = None) -> Composition:
    parts = tuple(parts)
    if not parts or any(p <= 0 for p in parts):
        raise DomainError("composition parts must be positive")
    if n is not None and sum(parts) != n:
        raise DomainError(f"parts sum to {sum(parts)}, expected {n}")
    return parts


def composition_batches(n: int, sep: Optional[str] = None) -> Iterator[list]:
    """All 2^(n-1) compositions of n, in lexicographic order, in batches of
    about 4096: tuples, or with `sep` the parts as one string joined by
    sep.  n is checked against COMPOSE_ENUM_CAP (DomainError) before the
    first batch is made."""
    if n < 1:
        raise DomainError("n must be at least 1")
    if n - 1 >= COMPOSE_ENUM_CAP.bit_length():  # 2^(n-1) > COMPOSE_ENUM_CAP
        raise DomainError(
            f"n = {n} has 2^{n - 1} compositions, past the output cap of {COMPOSE_ENUM_CAP}"
        )
    if sep is None:
        return _composition_walk(n, [(v,) for v in range(n + 1)], (), 0)
    return _composition_walk(n, [sep + str(v) for v in range(n + 1)], "", len(sep))


def _composition_walk(n: int, unit: list, empty, cut: int) -> Iterator[list]:
    """The compositions of n as unit pieces, the leading `cut` items of each
    dropped, in batches."""
    suffix = [[empty]]  # suffix[m]: every composition of m
    for m in range(1, min(n, _SHARED - 1) + 1):
        suffix.append([unit[v] + s for v in range(1, m + 1) for s in suffix[m - v]])
    buf: list = []
    yield from _compositions_after(empty, n, unit, suffix, buf, cut)
    if buf:
        yield buf


def _compositions_after(
    prefix, r: int, unit: list, suffix: list, buf: list, cut: int = 0
) -> Iterator[list]:
    """Append prefix + c to buf for every composition c of r, recursing on
    the first part down to a remainder below _SHARED, whose compositions
    are shared suffixes; yield a copy of buf (then emptied) whenever it
    holds a batch."""
    if r < _SHARED:
        buf += [(prefix + s)[cut:] for s in suffix[r]] if cut else [prefix + s for s in suffix[r]]
    else:
        for v in range(1, r + 1):
            yield from _compositions_after((prefix + unit[v])[cut:], r - v, unit, suffix, buf)
    if len(buf) >= _BATCH:
        yield buf[:]
        buf.clear()


def conjugate_composition(parts: Sequence[int]) -> Composition:
    """Conjugate by swapping circled and uncircled dots.

    Equivalent to complementing the break-point subset: a p-part
    composition of n maps to an (n - p + 1)-part composition.
    """
    parts = check_composition(parts)
    n = sum(parts)
    _check_parts_made(n - len(parts) + 1)
    breaks = set(itertools.accumulate(parts[:-1]))
    complement = [i for i in range(1, n) if i not in breaks]
    out = []
    prev = 0
    for b in complement + [n]:
        out.append(b - prev)
        prev = b
    return tuple(out)


def zigzag_rows(parts: Sequence[int]) -> List[Tuple[int, int]]:
    """(start_column, length) of each row of the zig-zag graph.

    Each row starts under the last dot of the previous row.
    """
    parts = check_composition(parts)
    rows = []
    start = 0
    for p in parts:
        rows.append((start, p))
        start += p - 1
    return rows


def zigzag_conjugate(parts: Sequence[int]) -> Composition:
    """Column reading of the zig-zag graph."""
    rows = zigzag_rows(parts)
    width = rows[-1][0] + rows[-1][1]
    _check_parts_made(width)
    cols = [0] * width
    for start, length in rows:
        for c in range(start, start + length):
            cols[c] += 1
    return tuple(cols)


# -- multipartite compositions ------------------------------------------


def enumerate_multipartite_compositions(target: Sequence[int]) -> List[MultipartiteComposition]:
    """All ordered sequences of nonzero vectors summing to the target."""
    target = tuple(target)
    if not target or any(v < 0 for v in target) or not any(target):
        raise DomainError("target must be a nonzero non-negative vector")
    if sum(target) > MULTIPARTITE_CAP:
        raise DomainError(
            f"component sum {sum(target)} exceeds the enumeration cap {MULTIPARTITE_CAP}"
        )
    out: List[MultipartiteComposition] = []

    def vectors_below(bounds: VectorPart) -> Iterable[VectorPart]:
        axes = [range(b + 1) for b in bounds]
        for v in itertools.product(*axes):
            if any(v):
                yield v

    def rec(remaining: VectorPart, prefix: List[VectorPart]):
        if not any(remaining):
            out.append(tuple(prefix))
            return
        for v in vectors_below(remaining):
            prefix.append(v)
            rec(tuple(r - x for r, x in zip(remaining, v)), prefix)
            prefix.pop()

    rec(target, [])
    return out


def bipartite_composition_count_gf(p: int, q: int) -> int:
    """Compositions of the bipartite number (p, q): half the coefficient
    c(p, q) of x^p y^q in 1/(1 - 2x - 2y + 2xy).  The halving corrects the
    series' uniform double count (it gives 2^n, not 2^(n-1), for a
    unipartite n).  Multiplying by the denominator gives the table
    c(p, q) = 2c(p-1, q) + 2c(p, q-1) - 2c(p-1, q-1), c(0, 0) = 1.
    """
    if (p, q) == (0, 0) or p < 0 or q < 0:
        raise DomainError("need a nonzero non-negative bipartite number")
    cells = (p + 1) * (q + 1)
    if cells > BIPARTITE_TABLE_CELL_CAP:
        raise DomainError(f"{cells} table cells exceed the cap {BIPARTITE_TABLE_CELL_CAP}")
    p, q = max(p, q), min(p, q)  # c is symmetric; keep the row short
    row = [2**j for j in range(q + 1)]  # c(0, j) = 2^j
    for _ in range(p):
        prev, row = row, [2 * row[0]]
        for j in range(1, q + 1):
            row.append(2 * (prev[j] + row[j - 1] - prev[j - 1]))
    return row[q] // 2


# -- lines of route and essential nodes ----------------------------------

Point = Tuple[int, int]


@dataclass(frozen=True)
class LineOfRoute:
    """Monotone lattice path with marked nodes.

    Path steps are unit right/up moves; each part (a, b) contributes its
    `a` right steps and then its `b` up steps, and the part boundary is a
    marked node.  An essential node is a path point where the direction
    turns from vertical to horizontal.
    """

    points: Tuple[Point, ...]
    marked: Tuple[Point, ...]

    @classmethod
    def from_composition(cls, parts: Sequence[VectorPart]) -> "LineOfRoute":
        pos = (0, 0)
        points = [pos]
        marked = []
        if not parts or any(len(part) != 2 or min(part) < 0 or max(part) == 0 for part in parts):
            raise DomainError("parts must be nonzero non-negative pairs")
        _check_parts_made(sum(a + b for a, b in parts))  # the path's steps
        for a, b in parts:
            for _ in range(a):
                pos = (pos[0] + 1, pos[1])
                points.append(pos)
            for _ in range(b):
                pos = (pos[0], pos[1] + 1)
                points.append(pos)
            marked.append(pos)
        return cls(tuple(points), tuple(marked))

    def essential_nodes(self) -> Tuple[Point, ...]:
        out = []
        pts = self.points
        for i in range(1, len(pts) - 1):
            before = (pts[i][0] - pts[i - 1][0], pts[i][1] - pts[i - 1][1])
            after = (pts[i + 1][0] - pts[i][0], pts[i + 1][1] - pts[i][1])
            if before == (0, 1) and after == (1, 0):
                out.append(pts[i])
        return tuple(out)


def route_conjugate(parts: Sequence[VectorPart]) -> MultipartiteComposition:
    """Conjugate of a bipartite composition along its line of route.

    Keeps the essential marked nodes, drops the non-essential ones, and
    marks every previously unmarked interior path node.
    """
    parts = tuple(tuple(p) for p in parts)
    route = LineOfRoute.from_composition(parts)
    end = route.points[-1]
    essential = set(route.essential_nodes())
    old_marks = set(route.marked) - {end}
    new_marks = []
    for pt in route.points[1:-1]:
        if pt in old_marks:
            if pt in essential:
                new_marks.append(pt)
        else:
            new_marks.append(pt)
    out = []
    prev = (0, 0)
    for pt in new_marks + [end]:
        out.append((pt[0] - prev[0], pt[1] - prev[1]))
        prev = pt
    return tuple(out)


def count_by_essential_nodes(p: int, q: int) -> Dict[int, int]:
    """Tally of bipartite compositions of (p, q) by essential-node count,
    by enumerating them: the oracle of essential_node_tally."""
    if p < 1 or q < 1:
        raise DomainError("p and q must be at least 1")
    tally: Dict[int, int] = {}
    for comp in enumerate_multipartite_compositions((p, q)):
        s = len(LineOfRoute.from_composition(comp).essential_nodes())
        tally[s] = tally.get(s, 0) + 1
    return tally


def essential_node_tally(p: int, q: int) -> Dict[int, int]:
    """Tally of bipartite compositions of (p, q) by essential-node count,
    from the closed form: every s in 0..min(p, q) occurs.  Priced like
    bipartite_composition_count_gf, by (p + 1)(q + 1) against
    BIPARTITE_TABLE_CELL_CAP."""
    if p < 1 or q < 1:
        raise DomainError("p and q must be at least 1")
    cells = (p + 1) * (q + 1)
    if cells > BIPARTITE_TABLE_CELL_CAP:
        raise DomainError(f"{cells} table cells exceed the cap {BIPARTITE_TABLE_CELL_CAP}")
    return {s: essential_node_formula_term(p, q, s) for s in range(min(p, q) + 1)}


def essential_node_formula_term(p: int, q: int, s: int) -> int:
    """C(p,s) * C(q,s) * 2^(p+q-s-1), the closed-form term (s from 0)."""
    if s < 0:
        raise DomainError("s must be non-negative")
    return math.comb(p, s) * math.comb(q, s) * 2 ** (p + q - s - 1)


# -- rooted trees ---------------------------------------------------------


@dataclass(frozen=True)
class RootedTree:
    """Immutable rooted tree; leaves have no children."""

    children: Tuple["RootedTree", ...] = ()

    def leaf_count(self) -> int:
        if not self.children:
            return 1
        return sum(c.leaf_count() for c in self.children)


def composition_tree(parts: Sequence[int]) -> RootedTree:
    """Height-2 tree: one branch per part, carrying that many leaves."""
    parts = check_composition(parts)
    _check_parts_made(sum(parts))
    leaf = RootedTree()
    return RootedTree(tuple(RootedTree((leaf,) * p) for p in parts))


def tree_composition(tree: RootedTree) -> Composition:
    """Inverse of composition_tree; rejects malformed trees."""
    if not tree.children:
        raise DomainError("tree must have height 2, got a bare leaf")
    parts = []
    for branch in tree.children:
        if not branch.children:
            raise DomainError("every branch needs at least one leaf")
        if any(leaf.children for leaf in branch.children):
            raise DomainError("tree deeper than height 2")
        parts.append(len(branch.children))
    return tuple(parts)


# bits of k^(p-1), counted as (p - 1) * ceil(log2 k): printing the power in
# decimal costs quadratic time in them (about 0.4 s at the cap with Python
# 3.11 on a 2-vCPU VM)
ORDER_K_BIT_CAP = 2**19


def combinations_order_k_count(p: int, k: int) -> int:
    """k^(p-1): ways to fill the p-1 gaps with one of k symbols."""
    if p < 1 or k < 1:
        raise DomainError("p and k must be at least 1")
    bits = (p - 1) * (k - 1).bit_length()
    if bits > ORDER_K_BIT_CAP:
        raise DomainError(f"k^(p-1) has up to {bits} bits, past the cap of {ORDER_K_BIT_CAP}")
    return k ** (p - 1)


# -- Simon Newcomb's problem ----------------------------------------------


def distinct_arrangements(values: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Each distinct arrangement of the multiset `values` once, in
    lexicographic order: from the sorted values, each next one swaps the
    last ascent's smaller value with the least larger value after it, then
    reverses the tail."""
    arr = sorted(values)
    while True:
        yield tuple(arr)
        i = next((i for i in range(len(arr) - 2, -1, -1) if arr[i] < arr[i + 1]), None)
        if i is None:
            return
        j = max(j for j in range(i + 1, len(arr)) if arr[j] > arr[i])
        arr[i], arr[j] = arr[j], arr[i]
        arr[i + 1 :] = arr[:i:-1]


@dataclass
class NewcombDistribution:
    """Deal tallies for a card multiset."""

    by_composition: Dict[Composition, int] = field(default_factory=dict)
    by_pack_count: Dict[int, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.by_composition.values())


def deal_packs(arrangement: Sequence[int], ascending: bool = False) -> Composition:
    """Pack sizes for one deal; equal cards continue the current pack."""
    packs = []
    size = 0
    prev = None
    for card in arrangement:
        if size == 0:
            size = 1
        elif (card <= prev) if not ascending else (card >= prev):
            size += 1
        else:
            packs.append(size)
            size = 1
        prev = card
    packs.append(size)
    return tuple(packs)


def newcomb_distribution(counts: Sequence[int], ascending: bool = False) -> NewcombDistribution:
    """Deal every distinct arrangement of the deck and tally the packs.

    `counts[i]` is the number of cards with value i+1.  The default rule
    keeps dealing onto one pack while values descend, equality counting
    as descending; `ascending=True` gives the variant reading.
    """
    if not counts or any(c < 0 for c in counts) or not any(counts):
        raise DomainError("deck must contain at least one card")
    total_cards = sum(counts)
    if total_cards > NEWCOMB_CAP:
        raise DomainError(f"deck of {total_cards} cards exceeds the cap {NEWCOMB_CAP}")
    deck = []
    for value, count in enumerate(counts, start=1):
        deck.extend([value] * count)
    dist = NewcombDistribution()
    for arrangement in distinct_arrangements(deck):
        packs = deal_packs(arrangement, ascending=ascending)
        dist.by_composition[packs] = dist.by_composition.get(packs, 0) + 1
        m = len(packs)
        dist.by_pack_count[m] = dist.by_pack_count.get(m, 0) + 1
    return dist
