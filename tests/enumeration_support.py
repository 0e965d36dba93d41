"""Oracles for the listings: plain part-by-part recursion for partitions
and compositions, shared by the library tests and the CLI streaming
tests, the build-dedupe-sort enumerators of contact systems, tiles,
plane and perfect partitions, Warburton's two recurrence routes for
partitions into exactly p parts, MacMahon's box product built one
factor at a time, and the count of all Latin squares walked without
fixing a first row or column."""

import itertools

from hypothesis import strategies as st

from combanal import partitions as pt


def enumerate_partitions_oracle(n, c):
    """Part-by-part backtracking over the constraint's fields, in
    lexicographically descending order: the oracle for the prefix walk."""

    def part_ok(v):
        return (c.max_part is None or v <= c.max_part) and (
            c.allowed_parts is None or v in c.allowed_parts
        )

    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            if c.num_parts is None or len(prefix) == c.num_parts:
                out.append(tuple(prefix))
            return
        if c.num_parts is not None and len(prefix) >= c.num_parts:
            return
        for v in range(min(cap, remaining), c.min_part - 1, -1):
            if part_ok(v):
                prefix.append(v)
                rec(remaining - v, v - 1 if c.distinct else v, prefix)
                prefix.pop()

    rec(n, n, [])
    return out


@st.composite
def constraints(draw):
    """A PartitionConstraint with every field drawn, valid by construction."""
    min_part = draw(st.integers(1, 5))
    return pt.PartitionConstraint(
        max_part=draw(st.none() | st.integers(min_part, 14)),
        num_parts=draw(st.none() | st.integers(0, 8)),
        min_part=min_part,
        distinct=draw(st.booleans()),
        allowed_parts=draw(st.none() | st.frozensets(st.integers(1, 16), max_size=7)),
    )


def warburton_route1(n, p, h):
    """[N, p_h] = sum_z [N - (1 + p(h-1)) - zp, (p-1)_1], z = 0..N//p - h."""
    if p == 0:
        return int(n == 0)
    return sum(pt.count_exact_parts(n - 1 - p * (h - 1) - z * p, p - 1) for z in range(n // p - h + 1))


def warburton_route2(n, p, h):
    """[N, p_h] = sum_{z=0..p} [N - ph, z_1]."""
    return sum(pt.count_exact_parts(n - p * h, z) for z in range(p + 1))


def enumerate_compositions_oracle(n):
    """Part-by-part recursion in lexicographic order: the oracle for the
    walk that shares the suffixes of small remainders."""
    out = []

    def rec(remaining, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for v in range(1, remaining + 1):
            prefix.append(v)
            rec(remaining - v, prefix)
            prefix.pop()

    rec(n, [])
    return out


def contact_systems_oracle(n):
    """Involutions of {0..n-1} as image tuples: a recursion over a dict
    of assigned images, sorted at the end."""
    out = []

    def rec(assigned):
        free = [i for i in range(n) if i not in assigned]
        if not free:
            out.append(tuple(assigned[i] for i in range(n)))
            return
        first = free[0]
        assigned[first] = first
        rec(assigned)
        del assigned[first]
        for partner in free[1:]:
            assigned[first] = partner
            assigned[partner] = first
            rec(assigned)
            del assigned[first]
            del assigned[partner]

    rec({})
    return sorted(out)


def tiles_oracle(sides, k):
    """Rotation-distinct tiles: every coloring's least rotation, deduplicated
    by a seen-set and sorted."""
    seen = set()
    out = []
    for tile in itertools.product(range(k), repeat=sides):
        canon = min(tile[i:] + tile[:i] for i in range(sides))
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return sorted(out)


def plane_partitions_oracle(n):
    """Plane partitions of n: each first row a partition of some s <= n,
    each later row built part by part under the row above, sorted."""
    if n == 0:
        return [()]
    out = []

    def rows_under(limit_row, total, acc):
        if total == 0:
            out.append(tuple(acc))
            return

        def build(idx, cap, remaining, row):
            if row:
                rows_under(tuple(row), remaining, acc + [tuple(row)])
            if idx >= len(limit_row) or remaining == 0:
                return
            for v in range(min(cap, limit_row[idx], remaining), 0, -1):
                row.append(v)
                build(idx + 1, v, remaining - v, row)
                row.pop()

        build(0, total, total, [])

    for first_sum in range(1, n + 1):
        for first in pt.enumerate_partitions(first_sum):
            rows_under(first, n - first_sum, [first])
    return sorted(out)


def box_product_oracle(n, l, m, c):
    """q^0..q^n of prod_{i <= m, j <= c} (1 - q^(i+j+l-1)) / (1 - q^(i+j-1))
    (l None: no numerator), one q_factor pass per factor in cell order,
    with no cancellation.  A factor of degree above n leaves the series
    as it is, so only the cells with i + j - 1 <= n are visited."""
    acc = [1] + [0] * n
    for i in range(1, min(m, n) + 1):
        for j in range(1, min(c, n + 1 - i) + 1):
            pt.q_factor(acc, i + j - 1, -1)
            if l is not None:
                pt.q_factor(acc, i + j - 1 + l, 1)
    return acc


def perfect_partitions_oracle(n):
    """Perfect partitions of n: one per ordered factorization of n + 1,
    sorted descending."""
    return sorted(map(pt.perfect_partition, pt.ordered_factorizations(n + 1)), reverse=True)


def latin_total_walk(n):
    """All n x n Latin squares, counted one row at a time over memoised
    column states as `recreations._latin_count` counts the reduced ones,
    but with every column open and every value free in every row."""
    full = (1 << n) - 1
    memo = {}
    new = [0] * n

    def ways(r, cols):
        if r >= n - 1:
            return 1
        if cols in memo:
            return memo[cols]
        after = {}

        def fill(i, free):
            if i == n:
                key = tuple(sorted(new))
                after[key] = after.get(key, 0) + 1
                return
            avail = free & ~cols[i]
            while avail:
                bit = avail & -avail
                avail ^= bit
                new[i] = cols[i] | bit
                fill(i + 1, free ^ bit)

        fill(0, full)
        memo[cols] = sum(m * ways(r + 1, key) for key, m in after.items())
        return memo[cols]

    return ways(0, (0,) * n)
