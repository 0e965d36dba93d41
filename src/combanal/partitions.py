"""Partition enumeration and counting.

Covers the pentagonal recurrence, the De Morgan / Warburton / Herschel /
Cayley recurrence tradition, conjugation, modular partitions, perfect and
subperfect partitions, scales of numeration, the generalized
unequal-vs-uneven theorem, relation-pattern compositions, plane
partitions, and two-layer axis-symmetric stacked graphs.

A partition is a plain tuple of positive integers in non-increasing
order; the empty tuple is the unique partition of 0.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Container, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import DomainError

Partition = Tuple[int, ...]
PlanePartition = Tuple[Tuple[int, ...], ...]


def check_partition(parts: Sequence[int]) -> Partition:
    parts = tuple(parts)
    if any(p <= 0 for p in parts):
        raise DomainError("partition parts must be positive")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise DomainError("partition parts must be non-increasing")
    return parts


@dataclass(frozen=True)
class PartitionConstraint:
    """Restrictions on the partitions to enumerate.

    All fields are optional; `num_parts` fixes the count of parts.
    `allowed_parts` restricts the part values to a finite set.
    """

    max_part: Optional[int] = None
    num_parts: Optional[int] = None
    min_part: int = 1
    distinct: bool = False
    allowed_parts: Optional[FrozenSet[int]] = None

    def __post_init__(self):
        if self.min_part < 1:
            raise DomainError("min_part must be at least 1")
        if self.max_part is not None and self.max_part < self.min_part:
            raise DomainError("max_part below min_part")
        if self.num_parts is not None and self.num_parts < 0:
            raise DomainError("part counts cannot be negative")
        if self.allowed_parts is not None:
            object.__setattr__(self, "allowed_parts", frozenset(self.allowed_parts))
            if any(v < 1 for v in self.allowed_parts):
                raise DomainError("allowed parts must be positive")


# partitions that partition_batches and enumerate_partitions may list, and
# plane partitions that plane_partition_batches may: 2^19, as for
# compose enum (p(55) = 451276 and PL(24) = 451194 are the largest within it)
PARTITION_ENUM_CAP = 2**19
# parts that a listing may hold, bounded as lines * longest line: 2^25,
# which admits the p(55) = 451276 lines of at most 55 parts
PARTITION_PARTS_CAP = 2**25
# partitions per batch of a listing
_BATCH = 4096
# remainders up to this share their completions, at most p(16) = 231 each
_SHARED = 16


class _Units(dict):
    """unit[v]: what one part v adds to a listed partition, made on first
    use and kept for v below _BATCH, so a listing of huge values holds no
    more of them than one batch does."""

    def __init__(self, make: Callable[[int], object]) -> None:
        self.make = make

    def __missing__(self, v: int):
        piece = self.make(v)
        if v < _BATCH:
            self[v] = piece
        return piece


class _PartitionWalk:
    """The partitions of n meeting a constraint, lexicographically
    descending, as a prefix walk that yields batches of about _BATCH.

    Each level places one distinct value v with its multiplicity m,
    largest value and then largest multiplicity first, and extends the
    prefix by unit[v] * m: (v,) for tuples, sep + str(v) for lines, whose
    leading sep is cut.  Levels that end a line are closed, with no call
    of their own: with the last two values a > b left, every line is
    prefix + unit[a] * m + unit[b] * q, and with one part left it is
    prefix + unit[r].  A remainder of at most _SHARED shares its list of
    completions with every prefix that leaves it, and a larger state
    (remainder, value index, parts used) found to complete nothing is
    remembered, so neither is walked twice.  A remainder that the gcd of
    the allowed values left does not divide is not walked at all.
    """

    def __init__(self, n: int, c: PartitionConstraint, unit: _Units, empty, cut: int) -> None:
        self.n, self.unit, self.empty, self.cut = n, unit, empty, cut
        top = n if c.max_part is None else min(n, c.max_part)
        self.top, self.plain = top, c.allowed_parts is None
        if self.plain:
            self.vals: Sequence[int] = range(top, c.min_part - 1, -1)
            self.valset: Container[int] = self.vals
        else:
            self.vals = sorted((v for v in c.allowed_parts if c.min_part <= v <= top), reverse=True)
            self.valset = frozenset(self.vals)
        # len() of a range past sys.maxsize values is an OverflowError
        nv = self.nv = max(top - c.min_part + 1, 0) if self.plain else len(self.vals)
        self.lo = c.num_parts or 0
        self.hi = n if c.num_parts is None else c.num_parts
        self.counted = self.lo > 0 or self.hi < n  # parts used matter only under a count bound
        self.max_mult = 1 if c.distinct else n
        # reach(k) = sum(vals[k:]): at most `left` distinct values from index
        # k on sum to at most reach(k) - reach(k + left), and the `need`
        # smallest allowed values sum to reach(nv - need)
        if not c.distinct:
            self.reach = None
        elif self.plain:  # vals[k:] is top - k down to min_part
            base = (c.min_part - 1) * c.min_part // 2
            self.reach = lambda k: (top - k) * (top - k + 1) // 2 - base
        else:
            self.reach = list(itertools.accumulate(reversed(self.vals), initial=0))[::-1].__getitem__
        # gcd(vals[j:]) for allowed parts: a remainder it does not divide
        # completes nothing (a range has gcd 1 unless it holds one value,
        # and then _close tests the division)
        if self.plain:
            self.gcds = None
        else:
            self.gcds = list(itertools.accumulate(reversed(self.vals), math.gcd))[::-1]
        # with no count bound and repeats allowed, a closed tail of ones
        # takes every remainder
        self.fast = nv > 0 and self.vals[-1] == 1 and not (self.counted or c.distinct)
        self.buf: list = []
        self.flushed = 0
        self.dead: set = set()
        self.tails: Dict[Tuple[int, int, int, int], list] = {}

    def batches(self) -> Iterator[list]:
        if self.n:
            yield from self._place(self.empty, self.n, 0, 0, self.cut)
        elif self.lo == 0:
            self.buf.append(self.empty)  # the empty partition of 0
        if self.buf:
            yield from self._flush()

    def _flush(self) -> Iterator[list]:
        self.flushed += len(self.buf)
        yield self.buf[:]
        self.buf.clear()

    def _place(self, prefix, r: int, j: int, used: int, cut: int, share: bool = True):
        """Extend prefix by every partition of r > 0 into vals[j:], having
        placed `used` parts; return whether any line was made.  Unless
        `share` is false, a small r takes its completions from self.tails,
        made once by a walk into an empty buffer."""
        vals, nv, lo, reach, buf = self.vals, self.nv, self.lo, self.reach, self.buf
        # skip to the largest allowed value not above r
        j = max(j, self.top - r if self.plain else bisect.bisect_left(vals, -r, key=operator.neg))
        need = lo - used
        if j >= nv or need > 0 and (
            (need > nv - j or reach(nv - need) > r) if reach else need * vals[-1] > r
        ):
            return False
        if self.gcds and r % self.gcds[j]:
            return False
        if r <= _SHARED and share:
            # the completions depend on r, j and the part counts still
            # needed and allowed, at most r parts
            key = (r, j, max(need, 0), min(self.hi - used, r))
            tails = self.tails.get(key)
            if tails is None:
                self.buf = []
                for _ in self._place(self.empty, r, j, used, 0, False):
                    pass
                tails = self.tails[key] = self.buf
                self.buf = buf
            buf += [(prefix + t)[cut:] for t in tails] if cut else [prefix + t for t in tails]
            if len(buf) >= _BATCH:
                yield from self._flush()
            return bool(tails)
        key = (r, j, used)
        if key in self.dead:
            return False
        before = self.flushed + len(buf)
        unit, valset, counted, max_mult = self.unit, self.valset, self.counted, self.max_mult
        left = self.hi - used
        for k in range(j, nv):
            v = vals[k]
            if (reach(k) - reach(min(k + left, nv)) if reach else v * left) < r:
                break
            if k >= nv - 2:
                top_m = min(r // v, left, max_mult) if k < nv - 1 else 0
                for start in range(top_m, -1, -_BATCH):
                    self._close(prefix, r, k, used, cut, range(start, max(start - _BATCH, -1), -1))
                    if len(buf) >= _BATCH:
                        yield from self._flush()
                break
            uv = unit[v]
            for m in range(min(r // v, left, max_mult), 0, -1):
                rest = r - m * v
                if rest:
                    if left - m > 1:
                        line = prefix + uv * m
                        yield from self._place(line[cut:] if cut else line, rest, k + 1,
                                               used + m if counted else 0, 0)
                    elif left - m == 1 and rest < v and rest in valset and used + m + 1 >= lo:
                        line = prefix + uv * m + unit[rest]  # the one part left is rest
                        buf.append(line[cut:] if cut else line)
                elif used + m >= lo:
                    line = prefix + uv * m
                    buf.append(line[cut:] if cut else line)
            if len(buf) >= _BATCH:
                yield from self._flush()
        if self.flushed + len(buf) == before:
            self.dead.add(key)
            return False
        return True

    def _close(self, prefix, r: int, k: int, used: int, cut: int, ms: range) -> None:
        """The lines prefix + unit[a] * m + unit[b] * q for m in ms, with
        a = vals[k] and b the last value (b = a when k is the last index)."""
        a, b = self.vals[k], self.vals[-1]
        ua, ub = self.unit[a], self.unit[b]
        if self.fast and not cut:  # every remainder is that many ones
            self.buf += [prefix + ua * m + ub * (r - m * a) for m in ms]
            return
        lo, hi, max_mult = self.lo, self.hi, self.max_mult
        for m in ms:
            q, extra = divmod(r - m * a, b)
            if not extra and q <= max_mult and lo <= used + m + q <= hi:
                self.buf.append((prefix + ua * m + ub * q)[cut:])


def batched(items: Iterable) -> Iterator[list]:
    """items in lists of _BATCH, the last one shorter and none empty."""
    items = iter(items)
    while batch := list(itertools.islice(items, _BATCH)):
        yield batch


def past_cap(count: Callable[[int], int], n: int, cap: int) -> bool:
    """Whether count(n) > cap, for a count nondecreasing in n: count is
    read at m = 0, 1, ... only up to the first value past the cap, so a
    huge n costs no more than the cap does."""
    m = 0
    while m < n and count(m) <= cap:
        m += 1
    return count(m) > cap


def _few_parts_bound(n: int, k: int) -> Optional[int]:
    """A bound on the partitions of n into at most k parts,
    C(n + k(k+1)/2 - 1, k - 1) / k!, or None past PARTITION_ENUM_CAP: adding
    k - i to the i-th of k parts (zeros included) makes them distinct, and
    each set of k distinct parts is k! of the compositions of
    n + k(k-1)/2 into k parts.  The bound grows with k, so it is computed
    only up to the first k past the cap."""
    bound = 1
    for i in range(1, k + 1):
        bound = math.comb(n + i * (i + 1) // 2 - 1, i - 1) // math.factorial(i)
        if bound > PARTITION_ENUM_CAP:
            return None
    return bound


def _check_listing(n: int, c: PartitionConstraint) -> None:
    """Refuse a listing of more than PARTITION_ENUM_CAP partitions, or of
    more than PARTITION_PARTS_CAP parts.  Nothing is counted within
    p(n) <= cap, or within the bound for at most k parts (k the part-count
    bound, or by conjugation the largest part allowed).  An unconstrained
    n past the cap is refused at once; any other listing is counted by a
    walk that stops at cap + 1.  The parts are bounded by that line bound
    times the longest line: min(part-count bound, n // smallest part)."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if not past_cap(count_partitions, n, PARTITION_ENUM_CAP):
        lines = count_partitions(n)
    elif c == PartitionConstraint():
        raise DomainError(f"n = {n} has more than {PARTITION_ENUM_CAP} partitions, the output cap")
    else:
        bounds = [c.max_part, c.num_parts]
        if c.allowed_parts is not None:
            bounds.append(max(c.allowed_parts, default=0))
        lines = _few_parts_bound(n, min((k for k in bounds if k is not None), default=n))
        if lines is None:
            lines = 0
            for batch in _PartitionWalk(n, c, _Units(lambda v: ""), "", 0).batches():
                lines += len(batch)
                if lines > PARTITION_ENUM_CAP:
                    raise DomainError(
                        f"n = {n} has more than {PARTITION_ENUM_CAP} partitions under these"
                        " constraints, the output cap"
                    )
    sizes = [v for v in c.allowed_parts or () if v >= c.min_part] or [c.min_part]
    longest = min(k for k in (n // min(sizes), c.num_parts) if k is not None)
    if lines * longest > PARTITION_PARTS_CAP:
        raise DomainError(
            f"n = {n} lists up to {lines} partitions of up to {longest} parts,"
            f" past the cap of {PARTITION_PARTS_CAP} parts"
        )


def partition_batches(
    n: int, constraint: Optional[PartitionConstraint] = None, sep: Optional[str] = None
) -> Iterator[list]:
    """The partitions of n meeting the constraint, lexicographically
    descending, in batches of about 4096: tuples, or with `sep` the parts
    as one string joined by sep.  The listing is checked against
    PARTITION_ENUM_CAP (DomainError) before the first batch is made."""
    c = constraint or PartitionConstraint()
    _check_listing(n, c)
    if sep is None:
        return _PartitionWalk(n, c, _Units(lambda v: (v,)), (), 0).batches()
    return _PartitionWalk(n, c, _Units(lambda v: sep + str(v)), "", len(sep)).batches()


def enumerate_partitions(
    n: int, constraint: Optional[PartitionConstraint] = None
) -> List[Partition]:
    """All partitions of n meeting the constraint, lexicographically
    descending: the tuple batches of partition_batches, joined."""
    return [p for batch in partition_batches(n, constraint) for p in batch]


_PARTITION_TABLE = [1]
# rows of p(0..n) that count_partitions may fill, and so partition table
# print (about 0.5 s as a command at the cap, with Python 3.11 on a
# 2-vCPU VM)
PARTITION_TABLE_CAP = 10**4


def count_partitions(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence, exact.

    Bottom-up table fill, so large n neither recurse deeply nor recompute.
    Refused past PARTITION_TABLE_CAP rows.
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    if n > PARTITION_TABLE_CAP:
        raise DomainError(f"a table to n = {n} is past the cap of {PARTITION_TABLE_CAP} rows")
    table = _PARTITION_TABLE
    for m in range(len(table), n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table.append(total)
    return table[n]


# -- q-products ------------------------------------------------------------


def q_factor(acc: List[int], k: int, power: int) -> None:
    """Multiply the series acc, the coefficients of q^0..q^n, in place by
    (1 - q^k)^power; terms past q^n are dropped.

    Each division by (1 - q^k) is the running sum with stride k and each
    multiplication the matching difference, n + 1 - k additions either
    way.  Every product generating function in the package is built from
    these two steps.
    """
    if k < 1:
        raise ValueError("q-factor degree must be positive")
    n = len(acc) - 1
    for _ in range(-power):
        for i in range(k, n + 1):
            acc[i] += acc[i - k]
    for _ in range(power):
        for i in range(n, k - 1, -1):
            acc[i] -= acc[i - k]


def boxed_plane_partition_gf(n: int, l: Optional[int], m: int, c: int) -> List[int]:
    """Coefficients of q^0..q^n in MacMahon's box formula

        prod_{i <= m, j <= c} (1 - q^(i+j+l-1)) / (1 - q^(i+j-1)),

    the generating function of plane partitions with at most m rows, at
    most c columns and entries at most l (l=None: unbounded).  With m = 1
    it is the Gaussian binomial [l+c choose c]_q of partitions into at
    most c parts each at most l.

    A plane partition of n has at most n rows, n columns and entries at
    most n, so each bound is first cut to n.  Factors of degree above n
    are skipped and equal degrees in numerator and denominator cancel: at
    most min(m, n) * min(c, n) divisions and as many multiplications,
    n + 1 additions each.
    """
    if n < 0 or m < 0 or c < 0 or (l is not None and l < 0):
        raise DomainError("bounds must be non-negative")
    top = n if l is None else min(l, n)
    rows, cols = min(m, n), min(c, n)
    power = [0] * (n + 1)  # power[d]: net exponent of (1 - q^d)
    for k in range(1, min(rows + cols, n + 1)):
        cells = min(k, rows, cols, rows + cols - k)  # cells (i, j) with i + j - 1 = k
        power[k] -= cells
        if k + top <= n:
            power[k + top] += cells
    acc = [1] + [0] * n
    for d in range(1, n + 1):
        q_factor(acc, d, power[d])
    return acc


# -- the Appendix-5 recurrence tradition -------------------------------


@lru_cache(maxsize=None)
def demorgan_u(x: int, y: int) -> int:
    """De Morgan's u(x, y): partitions of x with greatest part exactly y.

    Recurrence u(x, y) = u(x-1, y-1) + u(x-y, y); note that the original
    prose says "not exceeding y", but the published table, the recurrence
    and both closed forms are only consistent with the exact-greatest-part
    reading (row sums give p(x)).
    """
    if x < 0 or y < 0:
        return 0
    if x == 0 and y == 0:
        return 1
    if x < 1 or y < 1 or y > x:
        return 0
    if y == 1 or y == x:
        return 1
    return demorgan_u(x - 1, y - 1) + demorgan_u(x - y, y)


def demorgan_row(x: int) -> List[int]:
    """Row x of De Morgan's table, u(x, 1..x), empty for x <= 0.

    Conjugation turns a greatest part exactly y into exactly y parts, so
    u(x, y) = [q^(x-y)] 1/prod_{j<=y}(1 - q^j): one series is divided by
    (1 - q^y) for y = 1..x and its last entry read and dropped after each
    step.  Refused when x * x passes EXACT_PARTS_CELL_CAP.
    """
    if x <= 0:
        return []
    if x * x > EXACT_PARTS_CELL_CAP:
        raise DomainError(f"x * x = {x * x} exceeds the exact-parts table cap {EXACT_PARTS_CELL_CAP}")
    acc = [1] + [0] * (x - 1)
    row = []
    for y in range(1, x + 1):
        q_factor(acc, y, -1)
        row.append(acc.pop())
    return row


def closed_form_u2(x: int) -> int:
    """u(x, 2) = x/2 - 1/4 + (-1)^x/4, evaluated exactly."""
    if x < 2:
        raise DomainError("closed form defined for x >= 2")
    value = Fraction(x, 2) - Fraction(1, 4) + Fraction((-1) ** x, 4)
    assert value.denominator == 1
    return int(value)

# Residue table for the periodic part of u(x, 3): the cube-root-of-unity
# sum beta^x + gamma^x equals 2 when 3 | x and -1 otherwise, so the
# circulating term -7 - 9*(-1)^x + 8*(beta^x + gamma^x) takes these six
# values for x = 0..5 (mod 6).
_U3_PERIODIC = (0, -6, -24, 18, -24, -6)


def closed_form_u3(x: int) -> int:
    """u(x, 3) = (6x^2 + c(x mod 6))/72 with the exact residue table."""
    if x < 3:
        raise DomainError("closed form defined for x >= 3")
    value = Fraction(6 * x * x + _U3_PERIODIC[x % 6], 72)
    assert value.denominator == 1
    return int(value)


# Largest n * p that warburton_count, and x * x that demorgan_row, may
# take (at most about 0.1 s in process at the cap, Python 3.11 on a
# 2-vCPU VM); beyond it both refuse before any work.
EXACT_PARTS_CELL_CAP = 10**6


def count_exact_parts(n: int, k: int) -> int:
    """Partitions of n into exactly k positive parts.

    Removing 1 from every part leaves a partition of n - k into at most k
    parts; its conjugate has parts at most min(k, n - k), so the count is
    [q^(n-k)] 1/prod_{j<=min(k, n-k)}(1 - q^j), one q_factor pass over
    n - k + 1 entries per factor.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    acc = [1] + [0] * (n - k)
    for j in range(1, min(k, n - k) + 1):
        q_factor(acc, j, -1)
    return acc[-1]


def warburton_count(n: int, p: int, h: int) -> int:
    """[N, p_h]: partitions of n into exactly p parts, each at least h.

    Lowering every part by h - 1 leaves partitions of n - p(h - 1) into
    exactly p parts.  Refuses when n * p exceeds EXACT_PARTS_CELL_CAP.
    """
    if n < 0 or p < 0 or h < 1:
        raise DomainError("need n >= 0, p >= 0, h >= 1")
    if n * p > EXACT_PARTS_CELL_CAP:
        raise DomainError(
            f"n * parts = {n * p} exceeds the exact-parts table cap {EXACT_PARTS_CELL_CAP}"
        )
    return count_exact_parts(n - p * (h - 1), p)


def prime_circulator(a: int, q: int) -> int:
    """pcr a_q: 1 when a divides q, else 0."""
    if a < 1:
        raise DomainError("modulus must be positive")
    return 1 if q % a == 0 else 0


# cells (q + 1) * (distinct elements) of cayley_denumerant's table, one
# addition each (about 0.5 s at the cap with Python 3.11 on a 2-vCPU VM)
DENUMERANT_CELL_CAP = 2**22


def cayley_denumerant(elements: Sequence[int], q: int) -> int:
    """P(a, b, c, ...)q: multisets from the elements summing to q."""
    if not elements or any(e < 1 for e in elements):
        raise DomainError("elements must be positive integers")
    if q < 0:
        raise DomainError("q must be non-negative")
    cells = (q + 1) * len(set(elements))
    if cells > DENUMERANT_CELL_CAP:
        raise DomainError(f"{cells} table cells exceed the cap {DENUMERANT_CELL_CAP}")
    table = [1] + [0] * q
    for e in set(elements):
        q_factor(table, e, -1)
    return table[q]


def cayley_p12_closed_form(q: int) -> int:
    """P(1,2)q = (2q + 3 + pcr2(q) - pcr2(q-1)) / 4, exactly."""
    value = Fraction(2 * q + 3 + prime_circulator(2, q) - prime_circulator(2, q - 1), 4)
    assert value.denominator == 1
    return int(value)


# -- conjugation and graphs --------------------------------------------


# parts of a conjugate (its input's largest part), or of the rows of a
# modular partition
CONJUGATE_PARTS_CAP = 10**6


def conjugate(partition: Sequence[int]) -> Partition:
    """Conjugate partition (column reading of the Ferrers graph): column i
    holds the parts above i, so the parts from the smallest up fill the
    columns in runs, in time linear in the output."""
    parts = check_partition(partition)
    if not parts:
        return ()
    if parts[0] > CONJUGATE_PARTS_CAP:
        raise DomainError(
            f"the conjugate has {parts[0]} parts, past the cap of {CONJUGATE_PARTS_CAP}"
        )
    cols: List[int] = []
    for i in range(len(parts) - 1, -1, -1):
        cols += [i + 1] * (parts[i] - len(cols))
    return tuple(cols)


def modular_partition(partition: Sequence[int], m: int) -> List[Tuple[int, ...]]:
    """Rewrite each part q as m + m + ... + r with 0 < r <= m.

    The mod-1 case gives the unary rows of the Ferrers graph.  Refused
    before any row is made when the rows' parts, the sum of ceil(q / m),
    pass CONJUGATE_PARTS_CAP.
    """
    if m < 1:
        raise DomainError("modulus must be at least 1")
    parts = check_partition(partition)
    size = sum(-(-q // m) for q in parts)
    if size > CONJUGATE_PARTS_CAP:
        raise DomainError(f"the rows have {size} parts, past the cap of {CONJUGATE_PARTS_CAP}")
    rows = []
    for q in parts:
        full, rest = divmod(q, m)
        row = [m] * full
        if rest:
            row.append(rest)
        rows.append(tuple(row))
    return rows


def parity_p(n: int) -> str:
    """'odd' or 'even' for p(n)."""
    if n < 1:
        raise DomainError("n must be at least 1")
    return "odd" if count_partitions(n) % 2 else "even"


def macmahon_digits(k: int) -> str:
    """First k binary digits of the fractional part of 1.74264...

    Digit j is 1 exactly when p(j) is odd.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    count_partitions(k)  # fills the table to k, or refuses past its cap
    return "".join("1" if count_partitions(j) % 2 else "0" for j in range(1, k + 1))


# -- perfect and subperfect partitions ----------------------------------

# parts of the perfect partitions one call lists: 2^20, which admits the
# 20128 partitions of 5039 with 822812 parts
PERFECT_PARTS_CAP = 2**20


def _subset_sum_counts(parts: Sequence[int], signed: bool = False) -> Dict[int, int]:
    """Number of sub-multiset (optionally signed) representations per total."""
    counts: Dict[int, int] = {0: 1}
    multiplicity: Dict[int, int] = {}
    for p in parts:
        multiplicity[p] = multiplicity.get(p, 0) + 1
    for value, mult in sorted(multiplicity.items()):
        nxt: Dict[int, int] = {}
        if signed:
            choices = [
                (i - j) * value
                for i in range(mult + 1)
                for j in range(mult + 1 - i)
            ]
        else:
            choices = [i * value for i in range(mult + 1)]
        for total, ways in counts.items():
            for delta in choices:
                nxt[total + delta] = nxt.get(total + delta, 0) + ways
        counts = nxt
    return counts


def is_perfect(partition: Sequence[int]) -> bool:
    """True when every 1..n has exactly one sub-multiset summing to it."""
    parts = check_partition(partition)
    n = sum(parts)
    if n == 0:
        return False
    counts = _subset_sum_counts(parts)
    return all(counts.get(m, 0) == 1 for m in range(1, n + 1))


def is_subperfect(partition: Sequence[int]) -> bool:
    """True when every 1..n has exactly one signed sub-multiset representation."""
    parts = check_partition(partition)
    n = sum(parts)
    if n == 0:
        return False
    counts = _subset_sum_counts(parts, signed=True)
    return all(counts.get(m, 0) == 1 for m in range(1, n + 1))


def ordered_factorizations(m: int) -> List[Tuple[int, ...]]:
    """All ordered factorizations of m into factors >= 2 (m = 1 gives ())."""
    if m < 1:
        raise DomainError("m must be positive")
    from .divisors import divisors  # a local import: divisors imports this module

    factors = divisors(m)[1:]  # every factor of a cofactor divides m too

    def rec(n: int) -> List[Tuple[int, ...]]:
        if n == 1:
            return [()]
        out: List[Tuple[int, ...]] = []
        for d in factors:
            if d > n:
                break
            if n % d == 0:
                for rest in rec(n // d):
                    out.append((d,) + rest)
        return out

    return rec(m)


def perfect_partition(factors: Sequence[int]) -> Partition:
    """The perfect partition of f1*f2*...*fk - 1 that the ordered
    factorization f1, ..., fk gives: f_i - 1 copies of the place value
    f1*...*f_{i-1}, descending.  Refused past PERFECT_PARTS_CAP parts."""
    size = sum(f - 1 for f in factors)
    if size > PERFECT_PARTS_CAP:
        raise DomainError(f"the perfect partition has {size} parts, past the cap of {PERFECT_PARTS_CAP}")
    parts: List[int] = []
    place = 1
    for f in factors:
        parts += [place] * (f - 1)
        place *= f
    return tuple(reversed(parts))


def enumerate_perfect(n: int) -> List[Partition]:
    """All perfect partitions of n, one per ordered factorization of n + 1.

    The chain 1 + x + ... + x^n factors as a product of cyclotomic-style
    blocks; each ordered factorization n + 1 = f1*f2*...*fk yields the
    perfect partition with f_i - 1 copies of the place value f1*...*f_{i-1},
    and distinct factorizations yield distinct partitions.  Refused before
    any is made when their parts together pass PERFECT_PARTS_CAP.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    from .divisors import divisors, ordered_factorization_totals  # a local import: divisors imports this module

    total = ordered_factorization_totals(n + 1)[1]
    if total > PERFECT_PARTS_CAP:
        raise DomainError(
            f"the perfect partitions of {n} have {total} parts, past the cap of {PERFECT_PARTS_CAP}"
        )
    # the partitions of m - 1 for each divisor m of n + 1, ascending: a
    # last factor d puts d - 1 copies of m / d first, so ascending d
    # gives descending order
    factors = divisors(n + 1)[1:]
    perfect: Dict[int, List[Partition]] = {1: [()]}
    for m in factors:
        perfect[m] = [
            (m // d,) * (d - 1) + rest
            for d in factors
            if d <= m and m % d == 0
            for rest in perfect[m // d]
        ]
    return perfect[n + 1]


@dataclass(frozen=True)
class NumerationScale:
    """Mixed-radix scale induced by a finite partition-of-infinity prefix."""

    alphas: Tuple[int, ...]
    place_values: Tuple[int, ...]
    limit: int

    def partition(self) -> Partition:
        """The place values, each alpha_i times; refused past
        CONJUGATE_PARTS_CAP parts."""
        size = sum(self.alphas)
        if size > CONJUGATE_PARTS_CAP:
            raise DomainError(f"the partition has {size} parts, past the cap of {CONJUGATE_PARTS_CAP}")
        parts: List[int] = []
        for alpha, place in zip(self.alphas, self.place_values):
            parts.extend([place] * alpha)
        return tuple(sorted(parts, reverse=True))

    def digits(self, value: int) -> Tuple[int, ...]:
        """Digits of value, least-significant place first; digit i <= alpha_i."""
        if not 0 <= value <= self.limit:
            raise DomainError("value out of range for this scale")
        digits = []
        for alpha in self.alphas:
            value, d = divmod(value, alpha + 1)
            digits.append(d)
        return tuple(digits)


def scale_of_numeration(alphas: Sequence[int]) -> NumerationScale:
    """Scale with place values 1, (1+a1), (1+a1)(1+a2), ..."""
    alphas = tuple(alphas)
    if not alphas or any(a < 1 for a in alphas):
        raise DomainError("alphas must be positive integers")
    places = [1]
    for a in alphas[:-1]:
        places.append(places[-1] * (1 + a))
    limit = 1
    for a in alphas:
        limit *= 1 + a
    return NumerationScale(alphas, tuple(places), limit - 1)


# -- generalized Euler theorem ------------------------------------------

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the first twelve primes as witnesses, which
    decides every p below 3.18 * 10^23 exactly (Sorenson and Webster, 2015)
    in O(log p) multiplications."""
    if p < 2:
        return False
    for w in _WITNESSES:
        if p % w == 0:
            return p == w
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for w in _WITNESSES:
        x = pow(w, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# n * n: up to n allowed parts, each a pass over the n + 1 terms of both
# series (about 0.7 s at the cap with Python 3.11 on a 2-vCPU VM)
EULER_CELL_CAP = 10**7


def generalized_euler_counts(primes: Iterable[int], n: int) -> Tuple[int, int]:
    """Counts (distinct parts, odd parts) over integers coprime to `primes`.

    First count: partitions of n into distinct parts not divisible by any
    listed prime.  Second: partitions into odd such parts, repetitions
    allowed.  The generalized theorem asserts the two are equal.
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    if n * n > EULER_CELL_CAP:
        raise DomainError(f"n * n = {n * n} exceeds the cap {EULER_CELL_CAP}")
    ps = sorted(set(primes))
    for p in ps:
        if not _is_prime(p):
            raise DomainError(f"the excluded values must be primes, not {p}")
    allowed = [
        v for v in range(1, n + 1) if all(v % p for p in ps)
    ]
    distinct = [1] + [0] * n
    odd = [1] + [0] * n
    for v in allowed:
        # a part v at most once: 1 + q^v = (1 - q^2v) / (1 - q^v)
        q_factor(distinct, v, -1)
        q_factor(distinct, 2 * v, 1)
        if v % 2:
            q_factor(odd, v, -1)
    return (distinct[n], odd[n])


# -- relation patterns ---------------------------------------------------

# Each relation a R b allows a contiguous range of next parts b, given as
# (low, high) offsets from a: a + low < b <= a + high, where a low of None
# means b >= 1 and a high of None means no upper bound.
RELATIONS: Dict[str, Tuple[Optional[int], Optional[int]]] = {
    ">": (None, -1),
    ">=": (None, 0),
    "=": (-1, 0),
    "<": (0, None),
    "<=": (-1, None),
    "*": (None, None),
}


# parts * (D^2 + n), D = min(n, parts(parts+1)/2): the slot table's cells
# for the numerator and the additions of the division (about 0.4 s at
# the cap with Python 3.11 on a 2-vCPU VM)
RELATION_PATTERN_CAP = 3 * 10**6


def _relation_pattern_table(n: int, pattern: Sequence[str]) -> List[int]:
    """The counts of relation_pattern_count for the totals 0..n, filled
    slot by slot from the last: below[r][x] counts the fillings of the
    current slot and those after it that sum to r and start with a part at
    most x.  Each relation allows a range of next parts, so one slot costs
    O(n^2) prefix-sum differences."""
    s = len(pattern) + 1
    # the last slot alone: part r is the one filling of sum r
    below = [[0] * r + [1] for r in range(n + 1)]
    below[0] = [0]
    for slot in range(s - 2, -1, -1):
        low, high = RELATIONS[pattern[slot]]
        # the slots before this one use at least `slot`, so sums stay <= n - slot
        rows = [[0]]
        for r in range(1, n - slot + 1):
            row = [0]
            acc = 0
            for v in range(1, r):
                t = r - v
                nxt = below[t]
                # conditional expressions, not min(): this is the innermost loop
                acc += nxt[t if high is None or v + high >= t else v + high] - (
                    0 if low is None else nxt[t if v + low >= t else v + low]
                )
                row.append(acc)
            row.append(acc)
            rows.append(row)
        below = rows
    return [row[-1] for row in below]


def relation_pattern_count(n: int, pattern: Sequence[str]) -> int:
    """Sequences of positive integers summing to n whose adjacent pairs
    satisfy the given relations (pattern length = parts - 1).

    With s parts this is the coefficient of q^n in

        W(q) / prod_{k=1..s} (1 - q^k),   deg W <= s(s+1)/2,

    Stanley's form for P-partitions (MacMahon's Partition Analysis, vol.
    2 section VIII).  W is the slot table's counts for the totals 0..D,
    D = min(n, s(s+1)/2), times each (1 - q^k); the count at n then comes
    from dividing by each (1 - q^k) in turn, a_i = w_i + a_{i-k}, a stage
    keeping only its last k values.  Refused when parts * (D^2 + n), the
    table's cells and the division's additions, passes
    RELATION_PATTERN_CAP.

    Why the form holds.  `=` merges adjacent slots into blocks b, of
    weights m_b summing to s and values x_b >= 1, with total sum m_b x_b.
    The other relations compare adjacent blocks, each as x_a >= x_b or
    x_a > x_b (`*` compares none), so the comparisons form a path and
    a labelling w of the blocks with w(a) > w(b) exactly on the strict
    ones exists.  Stanley's fundamental lemma (EC1 section 3.15) splits
    the fillings by linear extension c_1..c_t of the blocks: those with
    x_{c_1} >= ... >= x_{c_t} >= 1, strict exactly at the descents i < t
    of w along c.  Shift to free nonnegative y_i = x_{c_i} - x_{c_{i+1}}
    - [i a descent] for i < t and y_t = x_{c_t} - 1.  With the partial
    sums M_i = m_{c_1} + ... + m_{c_i} the total is
    s + maj + sum_i y_i M_i, maj the sum of M_i over the descents, so the
    extension contributes q^(s + maj) / prod_{i=1..t} (1 - q^(M_i)).

    - Denominator: M_1 < ... < M_t = s are distinct integers in 1..s, so
      prod_i (1 - q^(M_i)) divides prod_{k=1..s} (1 - q^k).
    - Degree: the extension's term of W is q^(s + maj) times (1 - q^k)
      for each k in 1..s that is no M_i, of degree
      s + maj + s(s+1)/2 - sum_i M_i <= s(s+1)/2, since the descents
      are below t and so maj <= sum_{i<t} M_i = sum_i M_i - s.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    for rel in pattern:
        if rel not in RELATIONS:
            raise DomainError(f"unknown relation {rel!r}")
    s = len(pattern) + 1
    d = min(n, s * (s + 1) // 2)
    price = s * (d * d + n)
    if price > RELATION_PATTERN_CAP:
        raise DomainError(f"parts * (D^2 + n) = {price} with D = {d} exceeds the cap {RELATION_PATTERN_CAP}")
    w = _relation_pattern_table(d, pattern)
    for k in range(1, s + 1):
        q_factor(w, k, 1)
    # division by (1 - q^k) for k > n leaves q^0..q^n as they are
    windows = [[0] * k for k in range(1, min(s, n) + 1)]
    for i, a in enumerate(itertools.chain(w, itertools.repeat(0, n - d))):
        for window in windows:
            j = i % len(window)  # a_{i-k} sits at i % k
            a = window[j] = window[j] + a
    return a


# -- plane partitions -----------------------------------------------------


def check_plane_partition(rows: Sequence[Sequence[int]]) -> PlanePartition:
    """Canonical form: positive ragged rows, non-increasing both ways."""
    canon = tuple(tuple(r) for r in rows if any(r))
    for row in canon:
        if any(v <= 0 for v in row):
            raise DomainError("canonical plane partitions store positive entries only")
        if any(row[i] < row[i + 1] for i in range(len(row) - 1)):
            raise DomainError("rows must be non-increasing")
    for upper, lower in zip(canon, canon[1:]):
        if len(lower) > len(upper):
            raise DomainError("row lengths must be non-increasing")
        if any(lower[i] > upper[i] for i in range(len(lower))):
            raise DomainError("columns must be non-increasing")
    return canon


def _rows_under(limit: Tuple[int, ...], budget: int, prefix: Tuple[int, ...] = ()):
    """(row, budget left) for each non-increasing row extending prefix,
    of sum at most budget, that fits under limit entry by entry: in
    lexicographic order, each row before its extensions."""
    i = len(prefix)
    if i < len(limit):
        for v in range(1, min(limit[i], budget, prefix[-1] if prefix else budget) + 1):
            row = prefix + (v,)
            yield row, budget - v
            yield from _rows_under(limit, budget - v, row)


def _plane_completions(
    limit: Tuple[int, ...], total: int, memo: Dict[Tuple[Tuple[int, ...], int], List[PlanePartition]]
) -> List[PlanePartition]:
    """The plane partitions of total whose first row fits under limit, in
    lexicographic order.  Entries past total and columns past total cannot
    bind, so the key trims them and shares the list."""
    if total == 0:
        return [()]
    key = (tuple(min(v, total) for v in limit[:total]), total)
    if key not in memo:
        memo[key] = [
            (row,) + rest
            for row, left in _rows_under(key[0], total)
            for rest in _plane_completions(row, left, memo)
        ]
    return memo[key]


def plane_partition_batches(n: int) -> Iterator[List[PlanePartition]]:
    """The plane partitions of n in canonical ragged form, in lexicographic
    order, in batches of 4096: first rows in lexicographic order, each
    followed by the memoised completions under it.  Refused (DomainError)
    past PARTITION_ENUM_CAP plane partitions before the first batch."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if past_cap(count_plane_partitions, n, PARTITION_ENUM_CAP):
        raise DomainError(f"n = {n} has more than {PARTITION_ENUM_CAP} plane partitions, the output cap")
    if n == 0:
        return batched([()])
    memo: Dict[Tuple[Tuple[int, ...], int], List[PlanePartition]] = {}
    rows = _rows_under((n,) * n, n)
    return batched((row,) + rest for row, left in rows for rest in _plane_completions(row, left, memo))


def enumerate_plane_partitions(n: int) -> List[PlanePartition]:
    """All plane partitions of n: plane_partition_batches joined."""
    return [pp for batch in plane_partition_batches(n) for pp in batch]


# Largest box-formula size min(m, n) * min(cmax, n) * (n + 1): factors
# times series length, which bounds the additions (0.1-0.15 s at the cap
# with Python 3.11 on a 2-vCPU VM).
BOX_CELL_CAP = 10**6


def _check_box_cells(n: int, m: int, cmax: int) -> None:
    cells = min(m, n) * min(cmax, n) * (n + 1)
    if cells > BOX_CELL_CAP:
        raise DomainError(
            f"box formula of {cells} cells exceeds the cap of {BOX_CELL_CAP}"
        )


def plane_partition_gf(bound: int) -> List[int]:
    """Coefficients of x^0..x^bound in MacMahon's plane-partition
    generating function prod (1-x^k)^-k: the box formula with no bounds,
    whose k cells (i, j) with i + j - 1 = k each divide by (1 - x^k).
    Priced like count_boxed_plane_partitions."""
    if bound < 0:
        raise DomainError("bound must be non-negative")
    _check_box_cells(bound, bound, bound)
    return boxed_plane_partition_gf(bound, None, bound, bound)


def count_plane_partitions(n: int) -> int:
    """Number of plane partitions of n via the generating function."""
    if n < 0:
        raise DomainError("n must be non-negative")
    return plane_partition_gf(n)[n]


def count_boxed_plane_partitions(n: int, l: Optional[int], m: int, cmax: int) -> int:
    """Plane partitions of n with at most m rows, cmax columns, entries <= l.

    Entry [n] of MacMahon's box formula (boxed_plane_partition_gf); l=None
    means unbounded entries.  Refuses when the formula's size, in
    BOX_CELL_CAP's unit, exceeds the cap.
    """
    if n < 0 or m < 0 or cmax < 0 or (l is not None and l < 0):
        raise DomainError("bounds must be non-negative")
    _check_box_cells(n, m, cmax)
    return boxed_plane_partition_gf(n, l, m, cmax)[n]


# -- xy-symmetric two-layer stacked graphs -------------------------------


# Largest DP size i^4 of xy_symmetric_two_layer_poly: about i hooks times
# i leads times 2i^2 weights (about 0.2 s at i = 32 with Python 3.11 on a
# 2-vCPU VM)
XY_DP_CAP = 2**20


def xy_symmetric_two_layer_poly(i: int) -> Dict[int, int]:
    """Weight-generating polynomial (as exponent -> coefficient) for
    two-layer xy-symmetric stacks with exactly i dots along each axis.

    The lower layer is a self-conjugate diagram given by a set of
    principal hook sizes {2j-1} containing 2i-1; the upper layer is any
    self-conjugate diagram whose hooks it dominates thresholdwise (the
    survivors of the negative-power deletion): for every k, the lower
    layer owns at least as many hooks of index >= k.

    Hooks are decided from j = i down to 1, each in the lower layer, the
    upper, both or neither; hook i is in the lower one.  polys[d][w]
    counts the choices so far of weight w whose lower layer leads the
    upper by d hooks, which must stay >= 0; past hook j + 1 the lead is at
    most i - j.  Refused past XY_DP_CAP.
    """
    if i < 1:
        raise DomainError("i must be at least 1")
    if i**4 > XY_DP_CAP:
        raise DomainError(f"i = {i} needs a DP of size i^4 = {i**4}, past the cap of {XY_DP_CAP}")
    size = 2 * i * i + 1
    polys = [[0] * size for _ in range(i + 1)]
    hook = 2 * i - 1
    polys[0][2 * hook] = polys[1][hook] = 1
    for j in range(i - 1, 0, -1):
        hook = 2 * j - 1
        nxt = [[0] * size for _ in range(i + 1)]
        for d, poly in enumerate(polys[: i - j + 1]):
            same, up, down = nxt[d], nxt[d + 1], nxt[d - 1]
            for w, c in enumerate(poly):
                if c:
                    same[w] += c  # neither layer
                    same[w + 2 * hook] += c  # both
                    up[w + hook] += c  # the lower layer only
                    if d:
                        down[w + hook] += c  # the upper layer only
        polys = nxt
    totals = [sum(column) for column in zip(*polys)]
    return {w: c for w, c in enumerate(totals) if c}


def xy_symmetric_cell_enumeration(i: int) -> Dict[int, int]:
    """Independent oracle: enumerate the stacks cell by cell.

    A stack is a pair of nested self-conjugate Young diagrams inside the
    i x i box, the lower one with first row exactly i; the weight is the
    total number of cells.
    """
    if i < 1:
        raise DomainError("i must be at least 1")
    box = PartitionConstraint(max_part=i)
    diagrams = [d for n in range(i * i + 1) for d in enumerate_partitions(n, box) if len(d) <= i]
    selfconj = [d for d in diagrams if conjugate(d) == d]
    out: Dict[int, int] = {}
    for lower in selfconj:
        if not lower or lower[0] != i:
            continue
        cells_lower = set()
        for r, width in enumerate(lower):
            for c in range(width):
                cells_lower.add((r, c))
        for upper in selfconj:
            cells_upper = set()
            for r, width in enumerate(upper):
                for c in range(width):
                    cells_upper.add((r, c))
            if cells_upper <= cells_lower:
                w = len(cells_lower) + len(cells_upper)
                out[w] = out.get(w, 0) + 1
    return out
