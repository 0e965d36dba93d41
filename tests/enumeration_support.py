"""Oracles for the partition and composition listings: plain part-by-part
recursion, shared by the library tests and the CLI streaming tests."""

from hypothesis import strategies as st

from combanal import partitions as pt


def enumerate_partitions_oracle(n, c):
    """Part-by-part backtracking over the constraint's fields, in
    lexicographically descending order: the oracle for the prefix walk."""

    def count_ok(k):
        return (
            (c.num_parts is None or k == c.num_parts)
            and (c.min_parts is None or k >= c.min_parts)
            and (c.max_parts is None or k <= c.max_parts)
        )

    def part_ok(v):
        return (c.max_part is None or v <= c.max_part) and (
            c.allowed_parts is None or v in c.allowed_parts
        )

    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            if count_ok(len(prefix)):
                out.append(tuple(prefix))
            return
        for bound in (c.max_parts, c.num_parts):
            if bound is not None and len(prefix) >= bound:
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
    counts = st.none() | st.integers(0, 8)
    min_part = draw(st.integers(1, 5))
    return pt.PartitionConstraint(
        max_part=draw(st.none() | st.integers(min_part, 14)),
        num_parts=draw(counts),
        min_parts=draw(counts),
        max_parts=draw(counts),
        min_part=min_part,
        distinct=draw(st.booleans()),
        allowed_parts=draw(st.none() | st.frozensets(st.integers(1, 16), max_size=7)),
    )


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
