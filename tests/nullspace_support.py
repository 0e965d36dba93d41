"""Integer Gauss-Jordan elimination: the tests' oracle for
`exactcore.nullspace_sparse`, which reaches the same basis without
updating finished rows, and `integer_rows`, which turns a dense matrix of
exact entries into the sparse integer rows both take."""

import math

from combanal.exactcore import _eliminate, _frac


def integer_rows(a):
    """The rows of `a` as sparse {column: int} maps, each scaled to
    integers by the lcm of its denominators."""
    cols = len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    rows = []
    for row in a:
        entries = [_frac(v) for v in row]
        scale = math.lcm(*(v.denominator for v in entries))
        rows.append({j: v.numerator * (scale // v.denominator) for j, v in enumerate(entries) if v})
    return rows


def gauss_jordan_rref(a):
    """The reduced row echelon form of `a` over the integers, as
    (pivot column, row) pairs.

    The rows are those of `integer_rows`.  Elimination is fraction-free:
    row_i <- (pv/g) row_i - (f/g) row_r with g = gcd(pv, f), then the row's
    content is divided out.  Every row that holds a pivot is zero on the
    other pivot columns, so row[j] / row[pivot] is its rational RREF entry.
    """
    cols = len(a[0]) if a else 0
    pending = integer_rows(a)  # rows that hold no pivot yet
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
