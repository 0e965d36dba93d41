"""Integer Gauss-Jordan elimination: the tests' oracle for
`exactcore.nullspace_integer`, which reaches the same basis without
updating finished rows."""

import math

from combanal.exactcore import _eliminate, _frac


def gauss_jordan_rref(a):
    """The reduced row echelon form of `a` over the integers, as
    (pivot column, row) pairs.

    Each row is scaled to integers by the lcm of its denominators and kept
    as a sparse {column: int} map.  Elimination is fraction-free:
    row_i <- (pv/g) row_i - (f/g) row_r with g = gcd(pv, f), then the row's
    content is divided out.  Every row that holds a pivot is zero on the
    other pivot columns, so row[j] / row[pivot] is its rational RREF entry.
    """
    cols = len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    pending = []  # rows that hold no pivot yet
    for row in a:
        entries = [_frac(v) for v in row]
        scale = math.lcm(*(v.denominator for v in entries))
        pending.append(
            {j: v.numerator * (scale // v.denominator) for j, v in enumerate(entries) if v}
        )

    reduced = []  # (pivot column, row)
    for c in range(cols):
        r = next((i for i, row in enumerate(pending) if c in row), None)
        if r is None:
            continue
        prow = pending.pop(r)
        pending = [_eliminate(row, prow, c) if c in row else row for row in pending]
        reduced = [(pc, _eliminate(row, prow, c) if c in row else row) for pc, row in reduced]
        reduced.append((c, prow))
        if not pending:
            break
    return reduced


def gauss_jordan_nullspace(a):
    """Basis of the rational nullspace of `a` as primitive integer vectors,
    one per free column in ascending order, read from the integer RREF:
    the free entry is the lcm of the pivots it meets, which makes every
    entry an integer, and the gcd is divided out."""
    reduced = gauss_jordan_rref(a)
    cols = len(a[0]) if a else 0
    pivot_cols = {c for c, _ in reduced}
    basis = []
    for fc in range(cols):
        if fc in pivot_cols:
            continue
        hits = [(c, row) for c, row in reduced if fc in row]
        lcm = math.lcm(*(row[c] for c, row in hits))
        vec = [0] * cols
        vec[fc] = lcm
        for c, row in hits:
            vec[c] = -row[fc] * (lcm // row[c])
        g = math.gcd(*vec)
        basis.append([v // g for v in vec])
    return basis
