"""Exact rational arithmetic: multivariate polynomials and their one
text form (format_rows), a cofactor polynomial determinant and the
integer nullspace.

A coefficient is an `int` when it is integral, else a `fractions.Fraction`;
nothing here rounds.  The nullspace comes from one fraction-free echelon
pass over sparse integer rows, taking the columns in order, then
back-substitution; it is returned as primitive integer vectors.
Values are immutable once built and safe to share between threads.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import compress
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]

# Exponents are machine-width by design; anything this large is a bug.
MAX_EXPONENT = 2**31


def _frac(value: Scalar) -> Scalar:
    """The normal form of an exact coefficient: an `int` when it is
    integral, else a `Fraction`.  One form per value keeps equality and
    hashing structural; anything inexact, such as a float, is refused."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}")


def _div(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b in normal form; `/` on two ints would
    give a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _frac(Fraction(a) / b)


class MultiPoly:
    """A multivariate polynomial over a fixed, ordered tuple of names.

    Stored as a map from exponent vectors to nonzero coefficients, each an
    `int` when integral, else a `Fraction`, so equality is structural.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names: Sequence[str], terms: Mapping[Exponent, Scalar] = ()):
        names = tuple(names)
        clean: Dict[Exponent, Scalar] = {}
        for exp, coeff in dict(terms).items():
            exp = tuple(exp)
            if len(exp) != len(names):
                raise ValueError(f"exponent {exp} does not match variables {names}")
            for e in exp:
                if not 0 <= e <= MAX_EXPONENT:
                    raise OverflowError(f"exponent {e} out of range")
            if type(coeff) is not int:
                coeff = _frac(coeff)
            if coeff:
                clean[exp] = coeff
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, names: Sequence[str]) -> "MultiPoly":
        return cls(names, {})

    @classmethod
    def const(cls, names: Sequence[str], value: Scalar) -> "MultiPoly":
        names = tuple(names)
        return cls(names, {(0,) * len(names): _frac(value)})

    @classmethod
    def variable(cls, names: Sequence[str], name: str) -> "MultiPoly":
        names = tuple(names)
        idx = names.index(name)
        exp = [0] * len(names)
        exp[idx] = 1
        return cls(names, {tuple(exp): 1})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.names != other.names:
            raise ValueError(f"variable mismatch: {self.names} vs {other.names}")

    def __add__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.names, other)
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return MultiPoly(self.names, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.names, other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "MultiPoly":
        return MultiPoly.const(self.names, other) - self

    def __mul__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = _frac(other)
            return MultiPoly(self.names, {e: k * c for e, k in self.terms.items()})
        self._check(other)
        out: Dict[Exponent, Scalar] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(map(operator.add, ea, eb))
                out[exp] = out.get(exp, 0) + ca * cb
        return MultiPoly(self.names, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.names, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.names == other.names
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.names, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exp: Exponent) -> Scalar:
        return self.terms.get(tuple(exp), 0)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * len(self.names), 0)

    # -- calculus and substitution --------------------------------------

    def diff(self, name: str) -> "MultiPoly":
        idx = self.names.index(name)
        out: Dict[Exponent, Scalar] = {}
        for exp, c in self.terms.items():
            e = exp[idx]
            if e:
                nexp = exp[:idx] + (e - 1,) + exp[idx + 1 :]
                out[nexp] = out.get(nexp, 0) + c * e
        return MultiPoly(self.names, out)

    def substitute(self, mapping: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials for variables.

        Every image must live over one common variable tuple; variables
        absent from `mapping` are not allowed.
        """
        images = dict(mapping)
        missing = [n for n in self.names if n not in images]
        if missing:
            raise ValueError(f"no substitution given for {missing}")
        target = next(iter(images.values())).names
        for img in images.values():
            if img.names != target:
                raise ValueError("substitution images use mixed variable tuples")
        out: Dict[Exponent, Scalar] = {}
        for exp, c in self.terms.items():
            term = MultiPoly.const(target, c)
            for name, e in zip(self.names, exp):
                if e:
                    term = term * images[name] ** e
            for texp, tc in term.terms.items():
                out[texp] = out.get(texp, 0) + tc
        return MultiPoly(target, out)

    def truncate(self, box: Sequence[int]) -> "MultiPoly":
        """The terms whose exponent lies componentwise within `box`."""
        box = tuple(box)
        if len(box) != len(self.names):
            raise ValueError(f"box {box} does not match variables {self.names}")
        return MultiPoly(
            self.names,
            {e: c for e, c in self.terms.items() if all(a <= b for a, b in zip(e, box))},
        )

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises if the division is not exact."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = max(divisor.terms)  # lex order
        lead_c = divisor.terms[lead]
        rem = dict(self.terms)
        out: Dict[Exponent, Scalar] = {}
        while rem:
            exp = max(rem)
            diff = tuple(a - b for a, b in zip(exp, lead))
            if any(d < 0 for d in diff):
                raise ValueError("polynomial division is not exact")
            q = _div(rem[exp], lead_c)
            out[diff] = out.get(diff, 0) + q
            for dexp, dc in divisor.terms.items():
                tgt = tuple(a + b for a, b in zip(diff, dexp))
                val = rem.get(tgt, 0) - q * dc
                if val:
                    rem[tgt] = val
                else:
                    rem.pop(tgt, None)
        return MultiPoly(self.names, out)

    def __str__(self) -> str:
        """The terms by total degree, then lexicographically (a stable sort
        by degree of the lex-sorted exponents), as format_rows writes them."""
        exps = sorted(sorted(self.terms), key=sum)
        return format_rows(self.names, exps, [list(map(self.terms.__getitem__, exps))])[0]

    __repr__ = __str__


def format_rows(names: Sequence[str], exponents: Sequence[Exponent], rows: Iterable[Sequence[Scalar]]) -> List[str]:
    """Each row of coefficients over the monomials `exponents`, in the
    order given, as the polynomial over `names` that `str(MultiPoly)`
    prints: a monomial as a1^2*a3, a coefficient c in front of it as
    c*body, except body for 1 and -body for -1, a constant term as the
    bare number, the terms joined by " + " with each "+ -" written "- ",
    and "0" for a row with no nonzero entry.  Each monomial is written
    once, whatever the number of rows."""
    bodies = []
    for exp in exponents:
        factors = []
        for name, e in zip(names, exp):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        bodies.append("*".join(factors))
    out = []
    for row in rows:
        parts = []
        for c, body in compress(zip(row, bodies), row):
            parts.append((body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}") if body else str(c))
        out.append(" + ".join(parts).replace("+ -", "- ") or "0")
    return out


def poly_ring(*names: str) -> Tuple[MultiPoly, ...]:
    """Generator polynomials for the given variable names."""
    return tuple(MultiPoly.variable(names, n) for n in names)


# -- determinants ------------------------------------------------------


def poly_det_cofactor(matrix: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a square MultiPoly matrix by cofactor expansion
    along the first row."""
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    names = matrix[0][0].names
    if n == 1:
        return matrix[0][0]
    out = MultiPoly.zero(names)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * poly_det_cofactor(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


# -- integer linear algebra -------------------------------------------


def _eliminate(row: Dict[int, int], prow: Dict[int, int], c: int) -> Dict[int, int]:
    """`row` with column c cleared by the pivot row `prow`, over the
    integers and divided by its content."""
    pv, f = prow[c], row[c]
    g = math.gcd(pv, f)
    s, t = pv // g, f // g
    out = {j: s * v for j, v in row.items()}
    for j, v in prow.items():
        w = out.get(j, 0) - t * v
        if w:
            out[j] = w
        else:
            del out[j]
    content = math.gcd(*out.values())
    if content > 1:
        return {j: v // content for j, v in out.items()}
    return out


def _echelon(pending: List[Dict[int, int]]) -> List[Tuple[int, Dict[int, int]]]:
    """A row echelon form of the integer rows `pending`, as (pivot column,
    row) pairs in column order; `pending` is consumed.

    Columns are taken left to right.  At each column the sparsest pending
    row that holds it (the first of equals) is the pivot, and the column is
    cleared from the other pending rows.  Finished rows are never updated,
    so the k-th row is zero on the pivot columns before it.
    """
    echelon = []
    for c in sorted({j for row in pending for j in row}):
        hits = [i for i, row in enumerate(pending) if c in row]
        if not hits:
            continue
        prow = pending.pop(min(hits, key=lambda i: len(pending[i])))
        kept = []
        for row in pending:
            if c in row:
                row = _eliminate(row, prow, c)
            if row:
                kept.append(row)
        pending = kept
        echelon.append((c, prow))
    return echelon


def _back_substitute(echelon: List[Tuple[int, Dict[int, int]]], cols: int) -> List[Dict[int, int]]:
    """One integer kernel vector per non-pivot column of the echelon form:
    1 at that column, 0 at the other non-pivot columns, and the pivot
    entries solved in reverse pivot order, scaling the vector whenever a
    pivot does not divide its row's sum."""
    pivot_cols = {c for c, _ in echelon}
    vectors = []
    for fc in range(cols):
        if fc in pivot_cols:
            continue
        vec = {fc: 1}
        for c, row in reversed(echelon):
            s = 0
            for j, v in row.items():
                if j in vec:
                    s += v * vec[j]
            if s:
                g = math.gcd(s, row[c])
                scale = row[c] // g
                if scale != 1:
                    vec = {j: scale * v for j, v in vec.items()}
                vec[c] = -s // g
        vectors.append(vec)
    return vectors


def nullspace_sparse(rows: Sequence[Dict[int, int]], cols: int) -> List[List[int]]:
    """Basis of the rational nullspace of the integer rows `rows`, each a
    sparse {column: int} map over columns 0..cols-1 (an empty map is a
    zero row), as primitive integer vectors, one per free column in
    ascending order.

    Each vector is the RREF basis vector of its free column times a
    positive rational: its last nonzero entry is at the free column and
    positive, and it is zero on every other free column, so dividing by
    that entry gives back the RREF basis vector.  The echelon pass takes
    the columns in order, so its non-pivot columns are exactly the RREF's
    free columns.  Back-substitution gives, for each free column, a
    multiple of the one kernel vector that is 1 there and 0 at the other
    free columns, which is that column's RREF basis vector: nonzero only
    at the free column and the pivot columns before it.  It is then made
    primitive with a positive free entry.  The echelon pass never updates
    a finished row, which is where Gauss-Jordan elimination fills in.
    """
    basis = []
    for vec in _back_substitute(_echelon([row for row in rows if row]), cols):
        g = math.gcd(*vec.values()) * (-1 if vec[max(vec)] < 0 else 1)
        basis.append([vec.get(j, 0) // g for j in range(cols)])
    return basis
