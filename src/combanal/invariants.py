"""Classical invariant theory of binary quantics.

Annihilator operators, covariant regeneration from seminvariant seeds,
seminvariant kernels and their dimension laws, invariance verification
under linear substitution, Hammond protomorphs, syzygant search, and the
root-identity checks.

Coefficient polynomials live over variables a0..ap (optionally plus x
and y for covariants).  The binomial convention writes the quantic as
sum C(p,k) a_k x^(p-k) y^k; the plain convention drops the binomial
factors.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import DomainError
from .exactcore import Exponent, MultiPoly, Scalar, nullspace_sparse


# Largest order p of a binary form.  _isobaric_monomials recurses once per
# coefficient a0..ap, so the cap stays well below Python's default
# recursion limit of 1000.
INVARIANT_ORDER_CAP = 2**9


def avar_names(p: int, with_xy: bool = False) -> Tuple[str, ...]:
    """a0..ap (then x, y): the variables of every form of order p, so
    every form is refused here past INVARIANT_ORDER_CAP."""
    if p > INVARIANT_ORDER_CAP:
        raise DomainError(f"order {p} is past the cap of {INVARIANT_ORDER_CAP}")
    names = tuple(f"a{k}" for k in range(p + 1))
    return names + ("x", "y") if with_xy else names


def convert_coefficients(
    values: Sequence[Fraction], from_convention: str, to_convention: str
) -> Tuple[Fraction, ...]:
    """Convert concrete coefficient vectors between conventions.

    Plain coefficients c_k relate to binomial ones by c_k = C(p,k) a_k.
    """
    p = len(values) - 1
    if from_convention == to_convention:
        return tuple(Fraction(v) for v in values)
    if (from_convention, to_convention) == ("binomial", "plain"):
        return tuple(Fraction(v) * math.comb(p, k) for k, v in enumerate(values))
    if (from_convention, to_convention) == ("plain", "binomial"):
        return tuple(Fraction(v) / math.comb(p, k) for k, v in enumerate(values))
    raise ValueError("unknown convention")


def _a_index(name: str) -> Optional[int]:
    if name.startswith("a") and name[1:].isdigit():
        return int(name[1:])
    return None


def omega(f: MultiPoly, p: int) -> MultiPoly:
    """The annihilator a0 d/da1 + 2 a1 d/da2 + ... + p a_{p-1} d/da_p."""
    return _shift(f, p, -1)


def oop(f: MultiPoly, p: int) -> MultiPoly:
    """The companion operator p a1 d/da0 + (p-1) a2 d/da1 + ... + a_p d/da_{p-1}."""
    return _shift(f, p, 1)


def _shift(f: MultiPoly, p: int, step: int) -> MultiPoly:
    """Sum over k of c_k a_{k+step} d/da_k applied to f, with c_k = k for
    Omega (step -1) and p - k for O (step 1): each factor a_k of a term
    moves to a_{k+step} in turn, its exponent times c_k scaling it."""
    at = {name: i for i, name in enumerate(f.names)}
    moves = [
        (at[f"a{k}"], at[f"a{k + step}"], k if step < 0 else p - k)
        for k in range(p + 1)
        if 0 <= k + step <= p and f"a{k}" in at
    ]
    out: Dict[Exponent, Scalar] = {}
    for exp, c in f.terms.items():
        for src, dst, weight in moves:
            if exp[src]:
                image = list(exp)
                image[src] -= 1
                image[dst] += 1
                image = tuple(image)
                out[image] = out.get(image, 0) + c * weight * exp[src]
    return MultiPoly(f.names, out)


def degree_and_weight(f: MultiPoly) -> Tuple[int, int]:
    """(degree, weight) of an isobaric homogeneous coefficient polynomial.

    Degree counts a-factors; weight sums their suffixes.  Raises when
    terms disagree.
    """
    if f.is_zero():
        raise DomainError("zero polynomial has no degree-weight")
    seen = set()
    for exp in f.terms:
        d = w = 0
        for name, e in zip(f.names, exp):
            idx = _a_index(name)
            if idx is None:
                if e:
                    raise DomainError("degree-weight defined for pure coefficient polys")
                continue
            d += e
            w += idx * e
        seen.add((d, w))
    if len(seen) != 1:
        raise DomainError(f"polynomial is not isobaric: {sorted(seen)}")
    return seen.pop()


# The O-chain of a covariant builds order + 1 polynomials, each within the
# comb(p + j, j) monomials of degree j, each term holding p + 1 exponent
# entries; the answer takes every term once.  Their product is capped.
# Measured in process (Python 3.11, 2-vCPU VM): a0^13 --p 6 (14814072)
# takes 0.28-0.46 s, a0^9 --p 8 (15752880) 0.23-0.43 s.
COVARIANT_WORK_CAP = 2**24


def covariant_from_seed(seed: MultiPoly, p: int) -> MultiPoly:
    """Covariant sum_k (O^k seed / k!) x^(order-k) y^k from an Omega-killed seed.

    The order is p*degree - 2*weight; one further O application must
    vanish, which is verified.  Refused before the chain runs when
    order * comb(p + j, j) * (p + 1) exceeds COVARIANT_WORK_CAP.
    """
    if not omega(seed, p).is_zero():
        raise DomainError("seed is not annihilated by the Omega operator")
    j, w = degree_and_weight(seed)
    order = p * j - 2 * w
    if order < 0:
        raise DomainError("seed weight exceeds p*degree/2; no covariant exists")
    if seed.names != avar_names(p):
        raise DomainError("seed must be a polynomial in a0..ap only")
    work = order * math.comb(p + j, j) * (p + 1)
    if work > COVARIANT_WORK_CAP:
        raise DomainError(
            f"covariant of order {order} from degree {j} over a0..a{p}: "
            f"{work} term entries exceed the cap {COVARIANT_WORK_CAP}"
        )
    terms: Dict[Exponent, Scalar] = {}
    current = seed
    for k in range(order + 1):
        scale = math.factorial(k)
        for exp, c in current.terms.items():
            terms[exp + (order - k, k)] = Fraction(c, scale)
        current = oop(current, p)
    if not current.is_zero():
        raise AssertionError("operator chain failed to terminate at the covariant order")
    return MultiPoly(avar_names(p, with_xy=True), terms)


# -- seminvariant kernels -------------------------------------------------


def _isobaric_monomials(p: int, j: int, w: int) -> List[Tuple[int, ...]]:
    """Exponent vectors over a0..ap of degree j and weight w, in
    lexicographic order."""
    out: List[Tuple[int, ...]] = []
    acc = [0] * (p + 1)

    def rec(idx: int, deg_left: int, weight_left: int):
        if idx == p or not deg_left:
            acc[idx:] = [deg_left] + [0] * (p - idx)
            out.append(tuple(acc))
            return
        # The deg_left - e exponents after a_idx carry a weight between
        # idx + 1 and p each, so only these e leave a completable rest.
        low = max(0, (idx + 1) * deg_left - weight_left)
        high = min(deg_left, (p * deg_left - weight_left) // (p - idx))
        for e in range(low, high + 1):
            acc[idx] = e
            rec(idx + 1, deg_left - e, weight_left - idx * e)

    rec(0, j, w)
    return out


# Omega's price: box[w] columns of p + 1 exponents, walked to list the
# monomials and to write each one once for the printed basis (about two
# elimination cells each), and box[w - 1] rows eliminated against them.
# In process (Python 3.11, 2-vCPU VM) 100 points priced from half the cap
# to the cap, p up to 512, took 0.02-0.33 s as commands; past it, 511 3
# 120 (2854904) took 0.57 s and 10 10 40 (16675776) 22 s.
BASIS_WORK_CAP = 2**19


def _basis_price(p: int, j: int, w: int) -> int:
    """rows * columns + 2 * columns * (p + 1) for Omega in degree j from
    weight w to w - 1, or a lower bound on it past BASIS_WORK_CAP: the
    elimination, and each column's p + 1 exponents walked twice, once to
    list its monomial and once to write it (format_rows).

    box[n], the partitions of n into at most j parts each at most p, is the
    coefficient of q^n in [p+j choose j]_q: min(p, j) factors, one running
    sum each.  It is symmetric about pj/2 and rises to it (the
    Cayley-Sylvester law), so each count is read at its index nearer 0 and,
    after any factor, each entry up to both indices bounds both from below.
    With p, j >= 2, box[n] >= n // 2 + 1 there, so no index past
    2 * isqrt(cap) is needed; with p or j = 1 every box[n] is 1.
    """
    short, long = sorted((p, j))
    at = (min(w - 1, p * j - w + 1), min(w, p * j - w))  # rows, columns
    top = min(max(at), 2 * math.isqrt(BASIS_WORK_CAP))
    box = [1] + [0] * top
    for i in range(1, min(short, top) + 1):
        for n in range(top, long + i - 1, -1):
            box[n] -= box[n - long - i]
        for n in range(i, top + 1):
            box[n] += box[n - i]
        low = max(box[: min(at) + 1])
        if low * (low + 2 * (p + 1)) > BASIS_WORK_CAP:
            return low * (low + 2 * (p + 1))
    rows, cols = (box[min(n, top)] if n >= 0 else 0 for n in at)
    return rows * cols + 2 * cols * (p + 1)


Kernel = Tuple[Tuple[str, ...], List[Exponent], List[List[int]]]


def seminvariant_kernel(p: int, j: int, w: int) -> Kernel:
    """The Omega kernel on degree-j weight-w monomials as (the names
    a0..ap, those monomials in lexicographic order, an integer basis of
    primitive vectors over them).  Past the middle, 2w > pj, the kernel
    is empty by the Cayley-Sylvester law (see seminvariant_dimension), so
    nothing is priced or listed there and all three are empty.
    Elsewhere refused before Omega is built when its price passes
    BASIS_WORK_CAP."""
    if p < 1 or j < 1 or w < 0:
        raise DomainError("need p, j >= 1 and w >= 0")
    if 2 * w > p * j:
        return (), [], []
    return _omega_kernel(p, j, w)


def seminvariant_basis(p: int, j: int, w: int) -> List[MultiPoly]:
    """seminvariant_kernel's vectors as polynomials in a0..ap."""
    return _as_polys(*seminvariant_kernel(p, j, w))


def _as_polys(names: Tuple[str, ...], monomials: List[Exponent], vectors: List[List[int]]) -> List[MultiPoly]:
    return [MultiPoly(names, {m: c for m, c in zip(monomials, vec) if c}) for vec in vectors]


def _omega_kernel(p: int, j: int, w: int) -> Kernel:
    """seminvariant_kernel by the kernel solve at any weight, past the
    middle too, where the tests read it as the Cayley-Sylvester law's
    oracle."""
    names = avar_names(p)
    price = _basis_price(p, j, w)
    if price > BASIS_WORK_CAP:
        raise DomainError(f"Omega on degree {j}, weight {w} prices at {price} or more, past the cap {BASIS_WORK_CAP}")
    src = _isobaric_monomials(p, j, w)
    # Omega's rows as {column: int} maps keyed by their image, taken in lex
    # order: a_k -> a_{k-1} sends each source monomial to a different image,
    # so each entry k * e_k is set once.
    rows: Dict[Tuple[int, ...], Dict[int, int]] = {}
    for ci, mono in enumerate(src):
        for k in range(1, p + 1):
            e = mono[k]
            if e:
                img = list(mono)
                img[k] -= 1
                img[k - 1] += 1
                rows.setdefault(tuple(img), {})[ci] = k * e
    # src is in lexicographic order, so each vector's last nonzero entry,
    # positive, is at its lexicographically greatest monomial.
    return names, src, nullspace_sparse([row for _, row in sorted(rows.items())], len(src))


def seminvariant_dimension(p: int, j: int, w: int) -> int:
    """Dimension of the Omega kernel on degree-j weight-w monomials, by the
    Cayley-Sylvester law: partitions of w minus partitions of w - 1, both
    into at most j parts each at most p, floored at zero.  (Past the
    midpoint w > j*p/2 the raw difference turns negative while the kernel
    is empty.)  Those partitions are the coefficients of the Gaussian
    binomial [p+j choose j]_q, the one-row case of MacMahon's box formula.
    """
    if p < 1 or j < 1 or w < 0:
        raise DomainError("need p, j >= 1 and w >= 0")
    # imported here so that invariant requests do not load partitions
    from .partitions import boxed_plane_partition_gf

    box = boxed_plane_partition_gf(w, p, 1, j)
    return max(box[w] - (box[w - 1] if w else 0), 0)


def new_seminvariant_dimension(p: int, j: int, w: int) -> int:
    """Seminvariants of degree exactly j: kernel dimension minus the
    a0-multiples of the degree j-1 kernel."""
    lower = seminvariant_dimension(p, j - 1, w) if j > 1 else 0
    return seminvariant_dimension(p, j, w) - lower


def non_unitary_contains_count(w: int, j: int) -> int:
    """Partitions of w with no part 1, parts at most j, and j as a part:
    with one part j removed, [q^(w-j)] of prod_{k=2..j} 1/(1 - q^k)."""
    if j < 2 or w < j:
        return 0
    from .partitions import q_factor

    acc = [1] + [0] * (w - j)
    for k in range(2, j + 1):
        q_factor(acc, k, -1)
    return acc[-1]


# -- invariance under linear substitution ---------------------------------


class LinearTransform2:
    """x = l X + m Y, y = lp X + mp Y with nonzero modulus l*mp - lp*m.
    Immutable; compared, hashed and shown by its four entries."""

    __slots__ = ("l", "m", "lp", "mp")

    def __init__(self, l: Scalar, m: Scalar, lp: Scalar, mp: Scalar):
        for name, value in zip(self.__slots__, (l, m, lp, mp)):
            object.__setattr__(self, name, Fraction(value))
        if self.modulus() == 0:
            raise DomainError("transform must be invertible")

    def __setattr__(self, name, value):
        raise AttributeError("LinearTransform2 is immutable")

    def _entries(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return self.l, self.m, self.lp, self.mp

    def __eq__(self, other: object) -> bool:
        if type(other) is not LinearTransform2:
            return NotImplemented
        return self._entries() == other._entries()

    def __hash__(self) -> int:
        return hash(self._entries())

    def __repr__(self) -> str:
        return "LinearTransform2(l={!r}, m={!r}, lp={!r}, mp={!r})".format(*self._entries())

    def modulus(self) -> Fraction:
        return self.l * self.mp - self.lp * self.m


def _integer_forms(t: LinearTransform2) -> Tuple[Tuple[int, int, int, int], int]:
    """(l, m, lp, mp) times their common denominator d, and d."""
    d = math.lcm(*(v.denominator for v in t._entries()))
    return tuple(int(v * d) for v in t._entries()), d


def _binomial_product(u: int, w: int, forms: Tuple[int, int, int, int]) -> List[int]:
    """[X^(u+w-k) Y^k] (l X + m Y)^u (lp X + mp Y)^w for k = 0..u+w, from
    the integers forms = (l, m, lp, mp): a convolution of two binomial
    rows, (u + 1)(w + 1) products."""
    l, m, lp, mp = forms
    first = [math.comb(u, i) * l ** (u - i) * m**i for i in range(u + 1)]
    second = [math.comb(w, i) * lp ** (w - i) * mp**i for i in range(w + 1)]
    out = [0] * (u + w + 1)
    for i, c in enumerate(first):
        if c:
            for k, c2 in enumerate(second, i):
                out[k] += c * c2
    return out


def transformed_coefficients(p: int, t: LinearTransform2) -> List[MultiPoly]:
    """A_k of the substituted quantic, as linear polynomials in a0..ap
    (over a0..ap, x, y).

    Binomial convention: both quantics carry C(p,k) weights, so
    C(p,k) A_k = sum_i C(p,i) a_i [X^(p-k) Y^k] (l X + m Y)^(p-i) (lp X + mp Y)^i.
    """
    forms, d = _integer_forms(t)
    scale = d**p
    terms: List[Dict[Exponent, Scalar]] = [{} for _ in range(p + 1)]
    for i in range(p + 1):
        a_i = (0,) * i + (1,) + (0,) * (p - i + 2)
        for k, c in enumerate(_binomial_product(p - i, i, forms)):
            terms[k][a_i] = Fraction(math.comb(p, i) * c, math.comb(p, k) * scale)
    names = avar_names(p, with_xy=True)
    return [MultiPoly(names, a_k) for a_k in terms]


# the largest exponent s of the modulus that invariance_check tries
INVARIANCE_EXPONENTS = 64

# invariance_check builds the images A_k from p + 1 binomial products,
# C(p + 3, 3) integer products in all, and substitutes them into every
# term of f: for a term of degree j in a0..ap the largest product pairs
# at most C(p + h, h)^2 terms, h = ceil(j / 2).  The x, y image of a term
# x^u y^w is one binomial product, (u + 1)(w + 1) integer products.  Each
# pair builds p + 3 exponent entries and multiplies coefficients that
# grow with j and with the x, y degree e.  With a transform whose integer
# forms and common denominator have up to `bits` bits, a coefficient has
# up to B = bits * (p * max(j, 1) + e) bits, and once B is large the
# Fraction gcds cost (B / 512)^2 units, more than j + e.  So the work is
# (C(p + 3, 3) + sum over terms of (C(p + h, h)^2 + (u + 1)(w + 1))) *
# (p + 3 + max(j + e, (B // 512)^2)), capped.  Measured in process
# (Python 3.11, 2-vCPU VM): with --transform 1,2,3,5 a0^4 --p 21 (1848952)
# takes 0.28-0.5 s, a0^8 --p 7 (1962378) 0.19 s, x^1439 --p 2 (2095244)
# 0.06-0.09 s; with the 793-bit --transform 1e-238,2,3,5 a0 --p 20
# (2042599) takes 0.23 s, and with 1e-206,2,3,5 x^100 --p 2 (2072112)
# 0.34-0.38 s.
INVARIANCE_WORK_CAP = 2**21


def invariance_check(f: MultiPoly, p: int, t: LinearTransform2) -> Tuple[bool, Optional[int]]:
    """Test f(A; X, Y) = M^s f(a; l X + m Y, lp X + mp Y) exactly.

    Returns (True, s) for the smallest working s <= INVARIANCE_EXPONENTS,
    else (False, None).  Refused (DomainError) before any substitution
    when the work priced above INVARIANCE_WORK_CAP passes the cap.
    """
    names = avar_names(p, with_xy=True)
    if f.names not in (avar_names(p), names):
        raise DomainError("polynomial must live over a0..ap (optionally with x, y)")
    xy = [exp[p + 1 :] or (0, 0) for exp in f.terms]
    j = max((sum(exp[: p + 1]) for exp in f.terms), default=0)
    e = max((u + w for u, w in xy), default=0)
    h = (j + 1) // 2
    pairs = sum(math.comb(p + h, h) ** 2 + (u + 1) * (w + 1) for u, w in xy)
    forms, d = _integer_forms(t)
    bits = max(abs(v).bit_length() for v in (*forms, d))
    growth = max(j + e, (bits * (p * max(j, 1) + e) // 512) ** 2)
    work = (math.comb(p + 3, 3) + pairs) * (p + 3 + growth)
    if work > INVARIANCE_WORK_CAP:
        raise DomainError(
            f"invariance check of a degree-{j} polynomial over a0..a{p} of degree {e} in x, y "
            f"under a {bits}-bit transform: {work} units of work exceed the cap {INVARIANCE_WORK_CAP}"
        )
    images = {f"a{k}": a_k for k, a_k in enumerate(transformed_coefficients(p, t))}
    images.update(x=MultiPoly.variable(names, "x"), y=MultiPoly.variable(names, "y"))
    lhs = f.substitute(images)
    rhs_terms: Dict[Exponent, Scalar] = {}
    for (exp, c), (u, w) in zip(f.terms.items(), xy):
        scale = d ** (u + w)
        for k, b in enumerate(_binomial_product(u, w, forms)):
            image = exp[: p + 1] + (u + w - k, k)
            rhs_terms[image] = rhs_terms.get(image, 0) + Fraction(c * b, scale)
    rhs = MultiPoly(names, rhs_terms)
    # lhs = M^s rhs makes M^s the ratio at any one term of rhs
    first = next(iter(rhs.terms), None)
    ratio = Fraction(1) if first is None else Fraction(lhs.terms.get(first, 0)) / rhs.terms[first]
    s = _power_exponent(t.modulus(), ratio)
    return (True, s) if s is not None and lhs == rhs * ratio else (False, None)


def _power_exponent(m: Fraction, ratio: Fraction) -> Optional[int]:
    """The smallest s <= INVARIANCE_EXPONENTS with m^s == ratio, else None.

    m^s is n^s / d^s in lowest terms, so once |n^s| or d^s passes the
    ratio's numerator or denominator no larger s can match: the powers
    are built one factor at a time and never past the ratio's size."""
    num, den = 1, 1
    for s in range(INVARIANCE_EXPONENTS + 1):
        if (num, den) == (ratio.numerator, ratio.denominator):
            return s
        if abs(num) > abs(ratio.numerator) or den > ratio.denominator:
            return None
        num, den = num * m.numerator, den * m.denominator
    return None


def invariant_weight(i: int, p: int) -> Optional[int]:
    """w = i*p/2 for an invariant of degree i of the p-ic; None if i*p is odd."""
    if i < 1 or p < 1:
        raise DomainError("degree and order must be positive")
    return (i * p) // 2 if (i * p) % 2 == 0 else None


# -- protomorphs and syzygants --------------------------------------------


def quadrinvariant(p: int, weight: int) -> MultiPoly:
    """Q_{2m} = (1/2) sum_k (-1)^k C(2m,k) a_k a_{2m-k}; Q_2 is the
    Hessian-leading source a0 a2 - a1^2."""
    if weight % 2 or weight < 2:
        raise DomainError("quadrinvariants have even weight >= 2")
    if weight > p:
        raise DomainError(f"weight {weight} needs order at least {weight}")
    terms: Dict[Exponent, Scalar] = {}
    for k in range(weight + 1):
        exp = [0] * (p + 1)
        exp[k] += 1
        exp[weight - k] += 1
        exp = tuple(exp)
        terms[exp] = terms.get(exp, 0) + Fraction(math.comb(weight, k), 2) * (-1) ** k
    return MultiPoly(avar_names(p), terms)


def odd_source(p: int, weight: int) -> MultiPoly:
    """The degree-3 source of odd weight (C_3, C_5, ...), from the kernel.

    Up to weight 7 the degree-3 seminvariant space at odd weight is
    one-dimensional, so normalization by integer content and sign is
    canonical; from weight 9 on it is wider, and the source is refused.
    """
    if weight % 2 == 0 or weight < 3:
        raise DomainError("odd sources have odd weight >= 3")
    if weight > p:
        raise DomainError(f"weight {weight} needs order at least {weight}")
    basis = seminvariant_basis(p, 3, weight)
    if len(basis) != 1:
        raise DomainError(f"the degree-3 seminvariants of weight {weight} span {len(basis)} dimensions, not one")
    return basis[0]


def protomorphs(p: int, max_weight: int) -> List[MultiPoly]:
    """Hammond's sources U, H, C3, Q4, ... up to the given weight.

    Every returned polynomial is verified to be annihilated by Omega.
    """
    if p < 2:
        raise DomainError("order must be at least 2")
    names = avar_names(p)
    out = [MultiPoly.variable(names, "a0")]
    for w in range(2, min(max_weight, p) + 1):
        source = quadrinvariant(p, w) if w % 2 == 0 else odd_source(p, w)
        if not omega(source, p).is_zero():
            raise AssertionError(f"source of weight {w} is not Omega-annihilated")
        out.append(source)
    return out


class SyzygantSolution(NamedTuple):
    alphas: Tuple[Fraction, ...]
    quotient: MultiPoly


def syzygant_search(sources: Sequence[MultiPoly], k: int) -> List[SyzygantSolution]:
    """Rational combinations of the sources divisible by a0^k.

    Returns one solution per nullspace basis vector, scaled so that its
    last nonzero alpha is 1; each quotient is verified to be a
    seminvariant.  Sources must be seminvariants of one degree and weight.
    """
    if not sources:
        raise DomainError("need at least one source")
    if k < 0:
        raise DomainError("k must be non-negative")
    names = sources[0].names
    dw = {degree_and_weight(s) for s in sources}
    if len(dw) != 1:
        raise DomainError(f"sources mix degree-weights: {sorted(dw)}")
    p = len(names) - 1
    for i, s in enumerate(sources, 1):
        if not omega(s, p).is_zero():
            raise DomainError(f"source {i} is not a seminvariant: Omega does not annihilate it")
    a0_idx = names.index("a0")
    # One row per monomial with a0 exponent below k, as a {source index:
    # coefficient} map, scaled to integers by the lcm of its denominators
    # and taken in lex order.
    rows: Dict[Exponent, Dict[int, Scalar]] = {}
    for i, s in enumerate(sources):
        for exp, c in s.terms.items():
            if exp[a0_idx] < k:
                rows.setdefault(exp, {})[i] = c
    int_rows = []
    for _, row in sorted(rows.items()):
        scale = math.lcm(*(c.denominator for c in row.values()))
        int_rows.append({i: c.numerator * (scale // c.denominator) for i, c in row.items()})
    # Each vector's last nonzero entry is its free column's and positive,
    # so dividing by it gives the RREF basis vector.
    basis = []
    for vec in nullspace_sparse(int_rows, len(sources)):
        last = next(v for v in reversed(vec) if v)
        basis.append([Fraction(v, last) for v in vec])
    out = []
    for vec in basis:
        terms: Dict[Exponent, Scalar] = {}
        for alpha, s in zip(vec, sources):
            for exp, c in s.terms.items():
                terms[exp] = terms.get(exp, 0) + alpha * c
        combo = MultiPoly(names, terms)
        # every term of a nonzero combo has a0 exponent >= k, so a0^k is in range
        quotient = combo.exact_div(MultiPoly.variable(names, "a0") ** k) if combo else combo
        if not omega(quotient, p).is_zero():
            raise AssertionError("syzygant quotient is not a seminvariant")
        out.append(SyzygantSolution(tuple(vec), quotient))
    return out


# -- root identities -------------------------------------------------------


def coefficients_from_roots(roots: Sequence[Fraction]) -> List[Fraction]:
    """Plain coefficients of prod (x - r y): a_k = (-1)^k e_k(roots)."""
    roots = [Fraction(r) for r in roots]
    n = len(roots)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[0] = Fraction(1)
    for r in roots:
        for k in range(n, 0, -1):
            coeffs[k] = coeffs[k] - r * coeffs[k - 1]
    return coeffs


def sum_of_squares_identity(roots: Sequence[Fraction]) -> Tuple[Fraction, Fraction]:
    """(2 a2 - a1^2, -sum r^2): the two sides of the q2 root identity."""
    coeffs = coefficients_from_roots(roots)
    q2 = 2 * coeffs[2] - coeffs[1] ** 2
    return q2, -sum(Fraction(r) ** 2 for r in roots)


def prior_product(a1: Fraction, a2: Fraction, a3: Fraction) -> Fraction:
    """The two-factor product that equals 9 whenever a1 + a2 + a3 = 0."""
    a1, a2, a3 = Fraction(a1), Fraction(a2), Fraction(a3)
    if a1 + a2 + a3 != 0:
        raise DomainError("identity requires a1 + a2 + a3 = 0")
    if a1 == 0 or a2 == 0 or a3 == 0 or a1 == a2 or a1 == a3 or a2 == a3:
        raise DomainError("degenerate triple")
    first = a1 / (a2 - a3) - a2 / (a1 - a3) + a3 / (a1 - a2)
    second = (a2 - a3) / a1 - (a1 - a3) / a2 + (a1 - a2) / a3
    return first * second


def _e1_e2(roots: Sequence):
    """(e1, e2) of the roots: a1 = -e1 and a2 = e2 in the plain
    coefficients of prod (x - r y), so 2 e2 - e1^2 = -sum r^2 is the q2
    identity.  Uses only +, * on the roots, so it takes ints or MultiPolys."""
    e1 = e2 = 0
    for r in roots:
        e2 = e2 + e1 * r
        e1 = e1 + r
    return e1, e2


def _prior_factors(a1, a2, a3):
    """(N1, D1, N2, D2) with prior_product's two factors N1 / D1 and N2 / D2,
    over the denominators (a1 - a2)(a1 - a3)(a2 - a3) and a1 a2 a3; each
    is homogeneous, so scaling a1, a2, a3 leaves both factors unchanged.
    Uses only +, -, * on its arguments, so it takes ints or MultiPolys."""
    b12, b13, b23 = a1 - a2, a1 - a3, a2 - a3
    n1 = a1 * b12 * b13 - a2 * b12 * b23 + a3 * b13 * b23
    n2 = a2 * a3 * b23 - a1 * a3 * b13 + a1 * a2 * b12
    return n1, b12 * b13 * b23, n2, a1 * a2 * a3


class RootsReport(NamedTuple):
    trials: int
    q2_identity_ok: bool
    prior_product_ok: bool


# trials * (p^2 + 16), the price of the Fraction check that once ran here:
# p^2 steps for the coefficients of p roots, 16 for the draws and product.
# The integer check takes about 2 ms at the cap (in process, Python 3.11
# on a 2-vCPU VM), so the cap is now conservative; it is kept so that the
# same requests are refused.
ROOTS_WORK_CAP = 2**17


def roots_correspondence_check(p: int, trials: int, seed: int = 0) -> RootsReport:
    """Random rational root sets: verify the q2 identity for order p and
    the three-variable product identity (= 9) exactly.

    Each sample n/d, d in 1..4, is scaled by 12 = lcm(1..4) to the integer
    n * (12 // d).  Both identities are homogeneous (q2 of degree 2, the
    product of degree 0), so they hold for the scaled integers exactly
    when they hold for the rationals."""
    if p < 2:  # the q2 identity reads the coefficient a2
        raise DomainError(f"p must be at least 2, not {p}")
    if trials < 1:
        raise DomainError("need at least one trial")
    work = trials * (p * p + 16)
    if work > ROOTS_WORK_CAP:
        raise DomainError(f"trials * (p^2 + 16) = {work} exceeds the cap {ROOTS_WORK_CAP}")
    rng = random.Random(seed)

    def draw() -> int:
        n = rng.randint(-9, 9)
        return n * (12 // rng.randint(1, 4))

    q2_ok = True
    for _ in range(trials):
        roots = [draw() for _ in range(p)]
        e1, e2 = _e1_e2(roots)
        q2_ok = q2_ok and 2 * e2 - e1 * e1 == -sum(r * r for r in roots)
    prior_ok = True
    done = 0
    while done < trials:
        a1, a2 = draw(), draw()
        n1, d1, n2, d2 = _prior_factors(a1, a2, -a1 - a2)
        if not (d1 and d2):
            continue  # degenerate sample: a zero or a repeated value; redraw
        prior_ok = prior_ok and n1 * n2 == 9 * d1 * d2
        done += 1
    return RootsReport(trials, q2_ok, prior_ok)


# -- named quartic objects used throughout ---------------------------------


def hessian_seed(p: int = 4) -> MultiPoly:
    """a0 a2 - a1^2."""
    return quadrinvariant(p, 2)


def quartic_invariant_i() -> MultiPoly:
    """I = a0 a4 - 4 a1 a3 + 3 a2^2."""
    return quadrinvariant(4, 4)


def quartic_invariant_j() -> MultiPoly:
    """J = a0 a2 a4 - a0 a3^2 - a2^3 + 2 a1 a2 a3 - a1^2 a4."""
    names = avar_names(4)
    return MultiPoly(
        names,
        {
            (1, 0, 1, 0, 1): 1,
            (1, 0, 0, 2, 0): -1,
            (0, 0, 3, 0, 0): -1,
            (0, 1, 1, 1, 0): 2,
            (0, 2, 0, 0, 1): -1,
        },
    )


def cubic_discriminant() -> MultiPoly:
    """(a0 a3 - a1 a2)^2 - 4 (a0 a2 - a1^2)(a1 a3 - a2^2), over a0..a3."""
    names = avar_names(3)
    a0, a1, a2, a3 = (MultiPoly.variable(names, n) for n in names)
    return (a0 * a3 - a1 * a2) ** 2 - 4 * (a0 * a2 - a1**2) * (a1 * a3 - a2**2)
