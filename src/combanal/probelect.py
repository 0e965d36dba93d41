"""Ballot-counting probabilities and the two-party sampling model.

Exact rationals everywhere except the explicitly approximate large-
electorate formulas, which use double precision and the C-library erf.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from . import DomainError


@dataclass(frozen=True)
class VoteTally:
    """Final per-candidate vote counts, non-increasing."""

    counts: Tuple[int, ...]

    def __post_init__(self):
        counts = tuple(self.counts)
        if len(counts) < 1 or any(c < 1 for c in counts):
            raise DomainError("tallies must be positive")
        if any(counts[i] < counts[i + 1] for i in range(len(counts) - 1)):
            raise DomainError("tallies must be non-increasing")
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class ElectorateModel:
    """Population A split b + c between two parties."""

    population: int
    b: int
    c: int

    def __post_init__(self):
        if self.b < 0 or self.c < 0 or self.b + self.c != self.population:
            raise DomainError("need b + c = population with b, c >= 0")


def ballot_strictly_ahead(m: int, n: int) -> Fraction:
    """Probability the winner stays strictly ahead throughout: (m-n)/(m+n)."""
    if n < 0 or m < n:
        raise DomainError("need m >= n >= 0")
    if m == n:
        return Fraction(0)
    return Fraction(m - n, m + n)


def ballot_never_behind(a: int, b: int) -> Fraction:
    """Probability the winner is never behind at any prefix: 1 - b/(a+1)."""
    if b < 0 or a < b:
        raise DomainError("need a >= b >= 0")
    return 1 - Fraction(b, a + 1)


def macmahon_order_probability(tally: VoteTally) -> Fraction:
    """Probability every prefix of the count preserves the final order:
    prod over pairs t < s of (1 - a_s / (a_t + s - t))."""
    counts = tally.counts
    n = len(counts)
    if n < 2:
        raise DomainError("need at least two candidates")
    out = Fraction(1)
    for t in range(1, n):
        for s in range(t + 1, n + 1):
            out *= 1 - Fraction(counts[s - 1], counts[t - 1] + s - t)
    return out


# -- sampling model --------------------------------------------------------


# k * bits(N) for a sample of k = min(p + q, N - p - q) from N voters: it
# bounds the bits of each binomial in sample_prob_exact, whose product and
# reduction cost quadratic time in them (0.3-0.8 s at the cap with Python
# 3.11 on a 2-vCPU VM)
SAMPLE_BIT_CAP = 2**19


def sample_prob_exact(model: ElectorateModel, p: int, q: int) -> Fraction:
    """Hypergeometric chance of drawing p of one party and q of the other."""
    if p < 0 or q < 0 or p + q > model.population:
        raise DomainError("infeasible sample size")
    n = model.population
    bits = min(p + q, n - p - q) * n.bit_length()
    if bits > SAMPLE_BIT_CAP:
        raise DomainError(f"the binomials have up to {bits} bits, past the cap of {SAMPLE_BIT_CAP}")
    if p > model.b or q > model.c:
        return Fraction(0)
    return Fraction(
        math.comb(model.b, p) * math.comb(model.c, q),
        math.comb(model.population, p + q),
    )


def sample_prob_approx(model: ElectorateModel, p: int, r: int) -> Tuple[float, float]:
    """(C0, S_r) by the Stirling-and-erf approximation.

    C0 approximates the chance of the exactly proportional sample with p
    drawn from the b-party; S_r approximates the cumulative chance of
    landing within r of proportionality:

        C0  = sqrt((1 + lam) b / (2 pi lam p (b - p)))
        S_r = erf(mu r) + (mu / sqrt(pi)) exp(-mu^2 r^2)

    with lam = c/b, d = b - p, and mu^2 = (1 + 1/lam)(1/d + 1/p)/2.
    Valid only for large parameters; the guard requires p, b - p and
    lam*p all at least 100.
    """
    b, c = model.b, model.c
    if b == 0 or p <= 0 or p >= b:
        raise DomainError("need 0 < p < b")
    lam = c / b
    d = b - p
    if p < 100 or d < 100 or lam * p < 100:
        raise DomainError(
            "parameters too small for the approximation; use sample_prob_exact"
        )
    c0 = math.sqrt((1 + lam) * b / (2 * math.pi * lam * p * d))
    mu = math.sqrt(0.5 * (1 + 1 / lam) * (1 / d + 1 / p))
    s_r = math.erf(mu * r) + (mu / math.sqrt(math.pi)) * math.exp(-(mu * r) ** 2)
    return c0, s_r


def sample_cumulative_exact(model: ElectorateModel, p: int, q: int, r: int) -> Fraction:
    """Sum of exact probabilities for deviations -r..r around (p, q)."""
    total = Fraction(0)
    for j in range(-r, r + 1):
        if p + j < 0 or q - j < 0:
            continue
        total += sample_prob_exact(model, p + j, q - j)
    return total


# -- seat rules -------------------------------------------------------------


def cube_law_seats(
    votes_a: float, votes_b: float, seats: int, exponent: float = 3.0
) -> Tuple[int, int]:
    """Split seats in the ratio votes_a^n : votes_b^n (cube law: n = 3).

    Largest-remainder rounding on the two-party split; an exact half-seat
    tie goes to the larger vote share (so equal shares round down for the
    first party).
    """
    if votes_a <= 0 or votes_b <= 0 or seats < 1:
        raise DomainError("need positive votes and at least one seat")
    if any(isinstance(v, float) and not math.isfinite(v) for v in (votes_a, votes_b, exponent)):
        raise DomainError("votes and exponent must be finite")
    if exponent == int(exponent) and isinstance(votes_a, int) and isinstance(votes_b, int):
        wa = Fraction(votes_a) ** int(exponent)
        wb = Fraction(votes_b) ** int(exponent)
        share = Fraction(wa, wa + wb) * seats
    else:
        # both votes over the larger (the smaller for a negative exponent):
        # one power is 1 and the other at most 1, so neither overflows
        top = max(votes_a, votes_b) if exponent >= 0 else min(votes_a, votes_b)
        wa, wb = (votes_a / top) ** exponent, (votes_b / top) ** exponent
        share = Fraction(wa / (wa + wb)) * seats
    base = int(share)
    remainder = share - base
    half = Fraction(1, 2)
    if remainder > half or (remainder == half and votes_a > votes_b):
        base += 1
    return base, seats - base


def taagepera_exponent(total_votes: int, total_seats: int) -> float:
    """n = ln V / ln S."""
    if total_seats < 2 or total_votes <= total_seats:
        raise DomainError("need V > S >= 2")
    return math.log(total_votes) / math.log(total_seats)


def cube_root_seat_rule(total_votes: int) -> int:
    """Integer S minimizing the channel load 2V/S + S^2/2.

    The continuous minimum sits at S = (2V)^(1/3); the integer minimizer
    is confirmed against both neighbours with exact arithmetic.
    """
    if total_votes < 1:
        raise DomainError("need at least one voter")

    def load(s: int) -> Fraction:
        return Fraction(2 * total_votes, s) + Fraction(s * s, 2)

    guess = max(1, round((2 * total_votes) ** (1 / 3)))
    best = min(range(max(1, guess - 2), guess + 3), key=load)
    while best > 1 and load(best - 1) < load(best):
        best -= 1
    while load(best + 1) < load(best):
        best += 1
    return best


# -- constituency simulation -------------------------------------------------

# Voters, the sum of the constituency sizes, that one simulation may draw:
# 0.15 s of bulk draws in large constituencies, but 8-9 s as a command in
# 2^22 constituencies of one voter, where each constituency's own draw
# call costs more than its voters.
ELECTION_VOTER_CAP = 2**22
# Voters drawn by one getrandbits call: 512 KiB of random bytes.
DRAW_BLOCK = 2**16


def check_voter_count(voters: int) -> None:
    if voters > ELECTION_VOTER_CAP:
        raise DomainError(f"{voters} voters exceed the election cap {ELECTION_VOTER_CAP}")


@functools.lru_cache(maxsize=None)
def _bytes_below(top: int) -> bytes:
    """The bytes.translate table that maps a byte to 1 when it is below top."""
    return bytes(v < top for v in range(256))


def _votes_below(rng: random.Random, size: int, local: float) -> int:
    """How many of `size` calls rng.random() would fall below `local`,
    drawing the same words in bulk.

    random() is ((a >> 5) * 2^26 + (b >> 6)) / 2^53 for two consecutive
    32-bit outputs a, b, and getrandbits(64 k) lays out 2k outputs least
    significant first: the k draws as 8-byte little-endian records.  A
    draw is below local exactly when its 53-bit integer N is below
    T = ceil(local * 2^53), and N >> 45 is a's high byte, record byte 3.
    A high byte below T >> 45 counts; one equal to it (about 1 in 256) is
    settled on the whole of N.
    """
    threshold = math.ceil(local * 2**53)
    top = threshold >> 45  # 256 when local = 1: every byte is below it
    below = _bytes_below(top)
    won = 0
    while size:
        k = min(size, DRAW_BLOCK)
        size -= k
        data = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        high = data[3::8]
        won += high.translate(below).count(1)
        if top < 256:
            i = high.find(top)
            while i >= 0:
                a = int.from_bytes(data[8 * i : 8 * i + 4], "little")
                b = int.from_bytes(data[8 * i + 4 : 8 * i + 8], "little")
                won += ((a >> 5) << 26 | b >> 6) < threshold
                i = high.find(top, i + 1)
    return won


@dataclass(frozen=True)
class ElectionReport:
    share: float
    mixing: float
    seats_a: int
    seats_b: int
    seat_share_a: float
    vote_share_a: float
    cube_law_seat_share: float
    seed: int

    def to_json(self) -> Dict[str, float]:
        """The report as a JSON value."""
        return asdict(self)


def read_constituency_sizes(path: str) -> List[int]:
    """Plain-text constituency file: one positive integer per line, blank
    lines skipped.  A file that cannot be opened raises OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            sizes = [int(line) for line in fh if line.strip()]
        except ValueError:  # a line that is no integer, or bytes that are no UTF-8
            sizes = []
    if not sizes or any(s < 1 for s in sizes):
        raise DomainError("constituency sizes must be positive integers")
    return sizes


def check_shares(share: float, mixing: float) -> None:
    """The national share and the mixing that simulate_election takes."""
    if not 0 < share < 1:
        raise DomainError("share must be strictly between 0 and 1")
    if not 0 <= mixing <= 1:
        raise DomainError("mixing must lie in [0, 1]")


def simulate_election(
    share: float, sizes: Sequence[int], seed: int, mixing: float = 1.0
) -> ElectionReport:
    """Draw each constituency from the two-party bin and count majorities.

    With perfect mixing (mixing = 1) every constituency samples voters
    independently with the national share; lower mixing spreads the local
    share with variance (1 - mixing) * share * (1 - share).  Ties split
    against the first party.  Deterministic for a fixed seed: a voter is
    one rng.random() draw, made in bulk by _votes_below.  At most
    ELECTION_VOTER_CAP voters in all.
    """
    check_shares(share, mixing)
    if not sizes or any(s < 1 for s in sizes):
        raise DomainError("constituency sizes must be positive")
    check_voter_count(sum(sizes))
    rng = random.Random(seed)
    seats_a = 0
    votes_a = 0
    total_votes = 0
    spread = math.sqrt((1 - mixing) * share * (1 - share))
    for size in sizes:
        local = share if mixing == 1.0 else min(1.0, max(0.0, rng.gauss(share, spread)))
        won = _votes_below(rng, size, local)
        votes_a += won
        total_votes += size
        if 2 * won > size:
            seats_a += 1
    n = len(sizes)
    ratio = share**3 / (share**3 + (1 - share) ** 3)
    return ElectionReport(
        share=share,
        mixing=mixing,
        seats_a=seats_a,
        seats_b=n - seats_a,
        seat_share_a=seats_a / n,
        vote_share_a=votes_a / total_votes,
        cube_law_seat_share=ratio,
        seed=seed,
    )
