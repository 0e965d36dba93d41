import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combanal import DomainError
from combanal import probelect as pe


def vote_sequences(counts):
    """All distinct counting orders for the given per-candidate totals."""
    remaining = list(counts)

    def rec(prefix):
        if not any(remaining):
            yield tuple(prefix)
            return
        for cand in range(len(remaining)):
            if remaining[cand]:
                remaining[cand] -= 1
                prefix.append(cand)
                yield from rec(prefix)
                prefix.pop()
                remaining[cand] += 1

    return list(rec([]))


def strictly_ahead_fraction(m, n):
    good = total = 0
    for seq in vote_sequences((m, n)):
        total += 1
        a = b = 0
        ok = True
        for v in seq:
            if v == 0:
                a += 1
            else:
                b += 1
            if a <= b:
                ok = False
                break
        good += ok
    return Fraction(good, total)


def never_behind_fraction(a_total, b_total):
    good = total = 0
    for seq in vote_sequences((a_total, b_total)):
        total += 1
        a = b = 0
        ok = True
        for v in seq:
            if v == 0:
                a += 1
            else:
                b += 1
            if a < b:
                ok = False
                break
        good += ok
    return Fraction(good, total)


class TestBallot:
    def test_two_one(self):
        assert pe.ballot_strictly_ahead(2, 1) == Fraction(1, 3)
        assert strictly_ahead_fraction(2, 1) == Fraction(1, 3)

    def test_unopposed(self):
        assert pe.ballot_strictly_ahead(5, 0) == 1

    def test_three_two(self):
        assert pe.ballot_strictly_ahead(3, 2) == Fraction(1, 5)
        assert strictly_ahead_fraction(3, 2) == Fraction(1, 5)

    def test_tie_gives_zero(self):
        assert pe.ballot_strictly_ahead(3, 3) == 0

    def test_never_behind_values(self):
        assert pe.ballot_never_behind(1, 1) == Fraction(1, 2)
        assert pe.ballot_never_behind(4, 0) == 1
        assert pe.ballot_never_behind(3, 2) == Fraction(1, 2)

    def test_exhaustive_agreement_up_to_total_12(self):
        for m in range(0, 13):
            for n in range(0, m + 1):
                if m + n > 12 or m + n == 0:
                    continue
                if m > n:
                    assert pe.ballot_strictly_ahead(m, n) == strictly_ahead_fraction(m, n)
                assert pe.ballot_never_behind(m, n) == never_behind_fraction(m, n)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pe.ballot_strictly_ahead(1, 2)
        with pytest.raises(ValueError):
            pe.ballot_never_behind(1, 2)


def order_preserving_fraction(counts):
    good = total = 0
    for seq in vote_sequences(counts):
        total += 1
        tally = [0] * len(counts)
        ok = True
        for v in seq:
            tally[v] += 1
            if any(tally[i] < tally[i + 1] for i in range(len(counts) - 1)):
                ok = False
                break
        good += ok
    return Fraction(good, total)


class TestOrderProbability:
    def test_two_candidates_reduces_to_never_behind(self):
        assert pe.macmahon_order_probability(pe.VoteTally((3, 2))) == Fraction(1, 2)

    def test_published_product_211(self):
        got = pe.macmahon_order_probability(pe.VoteTally((2, 1, 1)))
        assert got == Fraction(2, 3) * Fraction(3, 4) * Fraction(1, 2) == Fraction(1, 4)
        assert order_preserving_fraction((2, 1, 1)) == Fraction(1, 4)

    def test_two_two(self):
        assert pe.macmahon_order_probability(pe.VoteTally((2, 2))) == Fraction(1, 3)
        assert order_preserving_fraction((2, 2)) == Fraction(1, 3)

    def test_oracle_and_integrality_up_to_weight_10(self):
        tallies = [
            (2, 1), (3, 2), (2, 2), (2, 1, 1), (3, 2, 1), (2, 2, 2),
            (4, 3), (3, 3, 2), (4, 2, 1), (2, 2, 1, 1),
        ]
        for counts in tallies:
            if sum(counts) > 10:
                continue
            prob = pe.macmahon_order_probability(pe.VoteTally(counts))
            assert prob == order_preserving_fraction(counts)
            total = math.factorial(sum(counts))
            for c in counts:
                total //= math.factorial(c)
            assert (prob * total).denominator == 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_product_matches_vote_orders(self, data):
        # non-increasing tallies of 2-4 candidates and at most 10 votes,
        # against the exact share of distinct orders that keep the order
        n = data.draw(st.integers(2, 4))
        counts, left = [], 10
        for i in range(n):
            c = data.draw(st.integers(1, left - (n - 1 - i)))
            counts.append(c)
            left -= c
        counts = tuple(sorted(counts, reverse=True))
        assert pe.macmahon_order_probability(pe.VoteTally(counts)) == order_preserving_fraction(counts)

    def test_tally_validation(self):
        with pytest.raises(ValueError):
            pe.VoteTally((1, 2))


class TestSampling:
    def test_full_draw_is_certain(self):
        m = pe.ElectorateModel(6, 4, 2)
        assert pe.sample_prob_exact(m, 4, 2) == 1
        assert pe.sample_prob_exact(m, 3, 3) == 0

    def test_small_case_enumeration(self):
        m = pe.ElectorateModel(6, 3, 3)
        assert pe.sample_prob_exact(m, 2, 0) == Fraction(1, 5)
        assert pe.sample_prob_exact(m, 1, 1) == Fraction(3, 5)
        assert pe.sample_prob_exact(m, 0, 2) == Fraction(1, 5)

    def test_distribution_sums_to_one(self):
        for a, b, n in [(10, 6, 4), (12, 5, 3), (30, 17, 9)]:
            m = pe.ElectorateModel(a, b, a - b)
            total = sum(
                pe.sample_prob_exact(m, p, n - p) for p in range(0, n + 1)
            )
            assert total == 1

    def test_published_c0(self):
        m = pe.ElectorateModel(10000, 5000, 5000)
        exact = float(pe.sample_prob_exact(m, 2500, 2500))
        assert abs(exact - 0.01596) < 5e-5

    def test_approx_c0_within_one_percent(self):
        m = pe.ElectorateModel(10000, 5000, 5000)
        c0, _ = pe.sample_prob_approx(m, 2500, 0)
        exact = float(pe.sample_prob_exact(m, 2500, 2500))
        assert abs(c0 - exact) / exact < 0.01

    def test_published_sr_terms_at_r20(self):
        m = pe.ElectorateModel(10000, 5000, 5000)
        mu = math.sqrt(2) / 50
        erf_term = math.erf(mu * 20)
        tail = (mu / math.sqrt(math.pi)) * math.exp(-((mu * 20) ** 2))
        assert abs(erf_term - 0.5762) < 5e-4
        assert abs(tail - 0.0116) < 5e-4
        _, s20 = pe.sample_prob_approx(m, 2500, 20)
        assert abs(s20 - (erf_term + tail)) < 1e-12

    def test_sr_tracks_exact_cumulative_within_two_percent(self):
        m = pe.ElectorateModel(10000, 5000, 5000)
        for r in (5, 10, 20, 30, 40):
            _, s_r = pe.sample_prob_approx(m, 2500, r)
            exact = float(pe.sample_cumulative_exact(m, 2500, 2500, r))
            assert abs(s_r - exact) / exact < 0.02, r

    def test_guard(self):
        with pytest.raises(DomainError, match="parameters too small for the approximation"):
            pe.sample_prob_approx(pe.ElectorateModel(60, 30, 30), 15, 0)


class TestSeatRules:
    def test_even_split_rounds_down_for_a(self):
        assert pe.cube_law_seats(50, 50, 101) == (50, 51)
        assert pe.cube_law_seats(50, 50, 100) == (50, 50)

    def test_53_47_over_100(self):
        assert pe.cube_law_seats(53, 47, 100) == (59, 41)

    def test_sqrt3_variant(self):
        assert pe.cube_law_seats(53.0, 47.0, 100, exponent=math.sqrt(3)) == (55, 45)

    def test_taagepera(self):
        n = pe.taagepera_exponent(4 * 10**6, 200)
        assert abs(n - 2.869) < 5e-3
        assert pe.taagepera_exponent(50, 50 - 1) != 1  # sanity: V > S required

    def test_taagepera_near_one(self):
        assert abs(pe.taagepera_exponent(1000, 999) - 1.0) < 1e-3

    def test_channel_minimum(self):
        for v in (500, 4000, 4 * 10**6):
            s = pe.cube_root_seat_rule(v)
            load = lambda k: Fraction(2 * v, k) + Fraction(k * k, 2)
            assert load(s) <= load(s + 1)
            if s > 1:
                assert load(s) <= load(s - 1)

    def test_channel_minimum_exact_cube(self):
        # V = S^3 / 2 exactly: the continuous optimum is integral.
        s = 20
        v = s**3 // 2
        assert pe.cube_root_seat_rule(v) == s


def simulate_one_draw_per_voter(share, sizes, seed, mixing=1.0):
    """Oracle: (seats, votes) of the first party, one rng.random() a voter."""
    rng = random.Random(seed)
    seats = votes = 0
    spread = math.sqrt((1 - mixing) * share * (1 - share))
    for size in sizes:
        local = share if mixing == 1.0 else min(1.0, max(0.0, rng.gauss(share, spread)))
        won = sum(1 for _ in range(size) if rng.random() < local)
        votes += won
        seats += 2 * won > size
    return seats, votes


class TestSimulation:
    @pytest.mark.parametrize("share", [0.5, 1e-9, 0.999, 0.51])
    @pytest.mark.parametrize("mixing", [1.0, 0.3, 0.0])
    def test_bulk_draws_match_one_draw_per_voter(self, share, mixing):
        # mixing below 1 clamps some local shares to 0 and some to 1
        sizes_list = ([1], [2], [3], [1, 2, 3] * 4, [2001] * 4)
        for seed in range(4):
            for sizes in sizes_list:
                r = pe.simulate_election(share, sizes, seed, mixing=mixing)
                votes = round(r.vote_share_a * sum(sizes))
                assert (r.seats_a, votes) == simulate_one_draw_per_voter(share, sizes, seed, mixing)

    @pytest.mark.parametrize("local", [0.0, 2**-53, 0.25, 0.5 + 2**-40, 1 - 2**-53, 1.0])
    def test_votes_below_spans_blocks_and_consumes_every_draw(self, local):
        size = pe.DRAW_BLOCK + 3
        bulk, single = random.Random(7), random.Random(7)
        assert pe._votes_below(bulk, size, local) == sum(single.random() < local for _ in range(size))
        assert bulk.random() == single.random()

    def test_tied_high_bytes_are_settled_exactly(self):
        # a threshold whose high byte is drawn about once in 256 and whose
        # low 45 bits split the ties
        local = (0x80 * 2**45 + 2**44) / 2**53
        for seed in range(3):
            bulk, single = random.Random(seed), random.Random(seed)
            assert pe._votes_below(bulk, 5000, local) == sum(
                single.random() < local for _ in range(5000)
            )

    def test_voter_cap(self):
        with pytest.raises(ValueError, match="voters exceed"):
            pe.simulate_election(0.5, [pe.ELECTION_VOTER_CAP // 2, pe.ELECTION_VOTER_CAP // 2 + 1], 0)

    def test_deterministic_per_seed(self):
        sizes = [200] * 40
        a = pe.simulate_election(0.53, sizes, seed=11)
        b = pe.simulate_election(0.53, sizes, seed=11)
        assert a == b

    def test_majority_amplification_with_perfect_mixing(self):
        sizes = [2000] * 600
        report = pe.simulate_election(0.53, sizes, seed=5)
        assert report.seat_share_a > 0.53
        assert report.cube_law_seat_share == pytest.approx(
            0.53**3 / (0.53**3 + 0.47**3)
        )

    def test_symmetric_share(self):
        sizes = [501] * 400
        report = pe.simulate_election(0.5, sizes, seed=2)
        assert 0.35 < report.seat_share_a < 0.65

    def test_single_constituency_against_exact_hypergeometric(self):
        # Perfect mixing approximates sampling from a huge bin; compare the
        # Monte Carlo majority rate for one constituency size with the
        # binomial-limit probability implied by the exact hypergeometric
        # on a proportionally huge electorate.
        size = 75
        runs = 4000
        wins = 0
        for seed in range(runs):
            r = pe.simulate_election(0.53, [size], seed=seed)
            wins += r.seats_a
        rate = wins / runs
        # exact binomial majority probability
        p_major = sum(
            math.comb(size, k) * 0.53**k * 0.47 ** (size - k)
            for k in range(size // 2 + 1, size + 1)
        )
        assert abs(rate - p_major) < 0.03

    def test_json_report_stable(self):
        report = pe.simulate_election(0.53, [100] * 10, seed=1).to_json()
        assert pe.simulate_election(0.53, [100] * 10, seed=1).to_json() == report
        assert json.loads(json.dumps(report)) == report  # a JSON value, which the CLI serialises

    def test_constituency_file(self, tmp_path):
        path = tmp_path / "sizes.txt"
        path.write_text("100\n200\n\n300\n")
        assert pe.read_constituency_sizes(str(path)) == [100, 200, 300]
