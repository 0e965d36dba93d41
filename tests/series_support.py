"""Box-truncated power-series inversion: the tests' oracle for the
condensed side of the Master Theorem, [x^e] 1/V_n."""

import itertools
from fractions import Fraction
from operator import sub

from combanal.exactcore import MultiPoly


class SingularSeriesError(ZeroDivisionError):
    """Series inversion requires a nonzero constant term."""


def series_inverse(p: MultiPoly, box) -> MultiPoly:
    """1/p as a power series, exact at every exponent componentwise within `box`.

    Exponents are non-negative, so only the terms of p inside the box reach
    a cell of it.  The cells are filled in lexicographic order from p*q = 1:
    q_e = -(1/c0) * sum over the non-constant terms p_f of p_f * q_{e-f}.
    """
    c0 = p.constant_term()
    if c0 == 0:
        raise SingularSeriesError("cannot invert a series with zero constant term")
    box = tuple(box)
    if any(b < 0 for b in box):
        raise ValueError(f"box {box} has a negative bound")
    rest = [(f, c) for f, c in p.truncate(box).terms.items() if any(f)]
    inverse = 1 / Fraction(c0)
    cells = itertools.product(*(range(b + 1) for b in box))
    q = {next(cells): inverse}  # the origin comes first
    for e in cells:
        total = 0
        for f, c in rest:
            # an e - f with a negative entry is not a key of q
            v = q.get(tuple(map(sub, e, f)))
            if v:
                total += c * v
        q[e] = -total * inverse
    return MultiPoly(p.names, q)  # integral coefficients come back as ints
