"""Simulator checks: generator correctness, trial invariants, and agreement
between empirical frequencies and the exact pmfs.

Stochastic assertions use a 3.5 sigma band (or chi-square p > 0.001), so a
correct implementation fails any single one with probability < 5e-4.
"""

import copy
import math
import pickle
import time
from fractions import Fraction
from itertools import islice

import pytest
from scipy import stats

import oracles
from urnwait import (
    BernoulliParams,
    Color,
    Dist,
    DomainError,
    DrawOutcome,
    ParameterError,
    PmfTable,
    SimConfig,
    UrnParams,
    Xoshiro256StarStar,
    bernoulli_scheme,
    draw_until_both,
    draw_until_c_successes,
    draw_until_either,
    empirical_pmf,
    iter_outcomes,
    pmf,
    pmf_table,
    tv_distance,
)
from urnwait.urn_simulator import _bernoulli_trial, _chunks, _one, _trials

_M64 = (1 << 64) - 1


def _ref_stream(seed, count):
    """xoshiro256** 1.0 with splitmix64 seeding, written straight from the
    published reference code as an independent check."""
    x = seed & _M64
    s = []
    for _ in range(4):
        x = (x + 0x9E3779B97F4A7C15) & _M64
        z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _M64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
        s.append(z ^ (z >> 31))
    if s == [0, 0, 0, 0]:
        s[0] = 1

    def rotl(v, k):
        return ((v << k) | (v >> (64 - k))) & _M64

    out = []
    for _ in range(count):
        out.append(rotl((s[1] * 5) & _M64, 7) * 9 & _M64)
        t = (s[1] << 17) & _M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return out


# ---------------------------------------------------------------------------
# Reference trials, written from the _ref_stream words alone
# ---------------------------------------------------------------------------


def _ref_words(seed):
    """_ref_stream(seed, ...) as an endless iterator."""
    got, n = 0, 64
    while True:
        yield from _ref_stream(seed, n)[got:]
        got, n = n, 2 * n


def _ref_stopped(dist, c, n1, n2):
    if dist in (Dist.MAXNH, Dist.MAXNB):
        return n1 >= c and n2 >= c
    if dist in (Dist.MINNH, Dist.MINNB):
        return n1 == c or n2 == c
    return n1 == c


def _ref_outcome(dist, c, n1, n2, last):
    y = {Dist.MAXNH: n1 + n2 - 2 * c, Dist.MAXNB: n1 + n2 - 2 * c,
         Dist.MINNH: n1 + n2 - c, Dist.MINNB: n1 + n2 - c}.get(dist, n2)
    return DrawOutcome(y, Color.FIRST if last == 0 else Color.SECOND, (n1, n2))


def _ref_urn_trial(dist, params, words):
    """One urn trial: the draws go in blocks, each the longest run of
    totals N-k, N-k-1, ... (at most the scheme's longest trial) whose
    product P fits in the 64-bit words its first total needs; a block takes
    u in [0, P) by Lemire's multiply-and-reject and reads off one digit per
    total with divmod, color one iff the digit is below the balls of color
    one left."""
    N, m, c = params.N, params.m, params.c
    longest = {
        Dist.MAXNH: c + max(m, N - m), Dist.MINNH: 2 * c - 1, Dist.NH: c + N - m,
    }[dist]
    left, n, drawn = [m, N - m], [0, 0], 0
    while True:
        w = 1
        while N - drawn > 2 ** (64 * w):
            w += 1
        totals = [N - drawn]
        while (
            drawn + len(totals) < longest
            and math.prod(totals) * (N - drawn - len(totals)) <= 2 ** (64 * w)
        ):
            totals.append(N - drawn - len(totals))
        P = math.prod(totals)
        while True:
            x = 0
            for _ in range(w):
                x = x * 2**64 + next(words)
            u, low = divmod(x * P, 2 ** (64 * w))
            if low >= (2 ** (64 * w) - P) % P:
                break
        for T in totals:
            u, d = divmod(u, T)
            color = 0 if d < left[0] else 1
            left[color] -= 1
            n[color] += 1
            drawn += 1
            if _ref_stopped(dist, c, *n):
                return _ref_outcome(dist, c, *n, color)


def _ref_chunks(words):
    """The stream as 8-bit chunks, low end of each word first."""
    for w in words:
        for i in range(8):
            yield w >> (8 * i) & 255


def _ref_bernoulli_trial(dist, params, chunks):
    """One Bernoulli trial: a draw reads chunks as the base-256 digits of
    U until the interval they leave U in lies wholly below p (color one)
    or wholly at or above it."""
    p, c = Fraction(params.p), params.c
    n = [0, 0]
    while True:
        v, scale = 0, 1
        while True:
            v, scale = 256 * v + next(chunks), 256 * scale
            if Fraction(v + 1, scale) <= p:
                color = 0
                break
            if Fraction(v, scale) >= p:
                color = 1
                break
        n[color] += 1
        if _ref_stopped(dist, c, *n):
            return _ref_outcome(dist, c, *n, color)


def _ref_trials(dist, params, seed, trials):
    words = _ref_words(seed)
    if isinstance(params, UrnParams):
        return [_ref_urn_trial(dist, params, words) for _ in range(trials)]
    chunks = _ref_chunks(words)
    return [_ref_bernoulli_trial(dist, params, chunks) for _ in range(trials)]


_SINGLE = {
    Dist.MAXNH: draw_until_both,
    Dist.MINNH: draw_until_either,
    Dist.NH: draw_until_c_successes,
}


def _single(dist, params, seed):
    if dist in _SINGLE:
        return _SINGLE[dist](params, seed)
    return bernoulli_scheme(params, dist, seed)


_URN_CASES = [
    (dist, UrnParams(*t))
    for dist in (Dist.NH, Dist.MINNH, Dist.MAXNH)
    for t in ((15, 6, 3), (60, 30, 8), (1600, 800, 40))
]
_P_NEAR_ONE = math.nextafter(1.0, 0.0)
# nb needs c draws below p and maxnb also c at or above it, so an extreme p
# goes only where a trial ends in reasonable time.
_BERNOULLI_CASES = [
    (dist, BernoulliParams(c, p))
    for c in (1, 3, 20)
    for p in (0.1, 0.4, 0.5, 1e-300, _P_NEAR_ONE)
    for dist in (Dist.NB, Dist.MAXNB, Dist.MINNB)
    if dist is Dist.MINNB or 0.1 <= p <= 0.5 or (dist is Dist.NB and p > 0.5)
]


class TestReferenceTrials:
    @pytest.mark.parametrize("dist,params", _URN_CASES + _BERNOULLI_CASES)
    def test_single_trials_match_reference(self, dist, params):
        for seed in range(200):
            want = _ref_trials(dist, params, seed, 1)[0]
            assert _single(dist, params, seed) == want, seed

    @pytest.mark.parametrize(
        "dist,params",
        [
            (Dist.MAXNH, UrnParams(60, 30, 8)),
            (Dist.NH, UrnParams(15, 6, 3)),
            (Dist.MAXNB, BernoulliParams(3, 0.1)),
            (Dist.MINNB, BernoulliParams(20, 1e-300)),
        ],
    )
    def test_outcome_stream_matches_reference(self, dist, params):
        # later trials continue the stream: a block's unused digits are
        # dropped, unread chunks of a word carry over
        got = list(iter_outcomes(dist, params, SimConfig(seed=99, trials=40)))
        assert got == _ref_trials(dist, params, 99, 40)

    @pytest.mark.parametrize("draw", [draw_until_both, draw_until_either])
    def test_totals_above_two_to_the_64(self, draw):
        # each draw takes two words at N = 2**70
        params = UrnParams(2**70, 2**69, 3)
        dist = Dist.MAXNH if draw is draw_until_both else Dist.MINNH
        for seed in range(5):
            out = draw(params, seed)
            assert out == _ref_trials(dist, params, seed, 1)[0]
            assert sum(out.counts) <= 2 * 3 + out.y


_STREAM_CASES = [
    (Dist.MAXNH, UrnParams(60, 30, 8)),
    (Dist.MAXNB, BernoulliParams(3, 0.1)),
    (Dist.MAXNH, UrnParams(2**70, 2**69, 3)),
]


class TestSharedStream:
    @pytest.mark.parametrize("dist,params", _STREAM_CASES)
    def test_suspended_trial_shares_the_stream(self, dist, params):
        # a trial draws its words from the caller's generator as it goes, so
        # next_u64 continues after them while the trial is only suspended
        for seed in range(5):
            ref = Xoshiro256StarStar(seed)
            _one(dist, params, ref)
            want = ref.next_u64()
            rng = Xoshiro256StarStar(seed)
            trials = _trials(dist, params, rng)
            next(trials)
            assert rng.next_u64() == want, seed

    def test_second_bernoulli_trial_starts_at_a_fresh_word(self):
        dist, params = Dist.MAXNB, BernoulliParams(3, 0.1)
        for seed in range(20):
            rng = Xoshiro256StarStar(seed)
            first = _bernoulli_trial(params, rng, dist)
            second = _bernoulli_trial(params, rng, dist)
            drawn = []

            def counted():
                for w in _ref_words(seed):
                    drawn.append(w)
                    yield w

            assert first == _ref_bernoulli_trial(dist, params, _ref_chunks(counted()))
            fresh = _ref_chunks(islice(_ref_words(seed), len(drawn), None))
            assert second == _ref_bernoulli_trial(dist, params, fresh), seed

    @pytest.mark.parametrize(
        "dup", [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))]
    )
    def test_copies_continue_the_stream_independently(self, dup):
        params = UrnParams(60, 30, 8)
        ref = Xoshiro256StarStar(17)
        _one(Dist.MAXNH, params, ref)
        want = [ref.next_u64() for _ in range(10)]
        rng = Xoshiro256StarStar(17)
        _one(Dist.MAXNH, params, rng)
        twin = dup(rng)
        assert [twin.next_u64() for _ in range(10)] == want
        assert [rng.next_u64() for _ in range(10)] == want


class TestBernoulliChunks:
    @pytest.mark.parametrize(
        "p", [0.1, 0.4, 0.5, 5e-324, 1e-300, _P_NEAR_ONE]
    )
    def test_expansion_is_exact(self, p):
        chunks = _chunks(p)
        assert Fraction(int.from_bytes(chunks, "big"), 256 ** len(chunks)) == Fraction(p)
        assert chunks[-1] != 0

    @pytest.mark.parametrize(
        "p,seed,low_bits",
        [(0.5, 184, 8), (0.5 + 2**-16, 25784, 16)],
    )
    def test_tie_on_every_chunk_is_not_first(self, p, seed, low_bits):
        # the first word's low bytes spell out p's whole expansion, so the
        # first draw has U in [p, p + 256**-len) and must fail
        chunks = _chunks(p)
        assert len(chunks) * 8 == low_bits
        assert (_ref_stream(seed, 1)[0] & (2**low_bits - 1)).to_bytes(
            len(chunks), "little"
        ) == chunks
        out = bernoulli_scheme(BernoulliParams(1, p), Dist.NB, seed)
        assert out.y >= 1


class TestGenerator:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 0xDEADBEEF])
    def test_matches_reference_algorithm(self, seed):
        rng = Xoshiro256StarStar(seed)
        assert [rng.next_u64() for _ in range(100)] == _ref_stream(seed, 100)

    def test_random_unit_interval(self):
        rng = Xoshiro256StarStar(7)
        xs = [rng.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert len(set(xs)) > 990

    def test_randbelow_range_and_uniformity(self):
        rng = Xoshiro256StarStar(11)
        n, draws = 7, 70000
        counts = [0] * n
        for _ in range(draws):
            counts[rng.randbelow(n)] += 1
        res = stats.chisquare(counts)
        assert res.pvalue > 0.001

    def test_zero_seed_is_usable(self):
        rng = Xoshiro256StarStar(0)
        assert len({rng.next_u64() for _ in range(10)}) == 10


class TestSimConfig:
    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            SimConfig(seed=-1, trials=10)
        with pytest.raises(ParameterError):
            SimConfig(seed=2**64, trials=10)
        with pytest.raises(ParameterError):
            SimConfig(seed=3, trials=0)

    def test_accepts_bounds(self):
        SimConfig(seed=0, trials=1)
        SimConfig(seed=2**64 - 1, trials=1)

    @pytest.mark.parametrize(
        "seed, trials", [(True, 10), (False, 10), (1, True), (1.0, 10), (1, 2.0)]
    )
    def test_rejects_bools_and_non_integers(self, seed, trials):
        # a bool is an int to isinstance; SimConfig(1, True) would run one trial
        with pytest.raises(ParameterError):
            SimConfig(seed=seed, trials=trials)


class TestSingleDraws:
    def test_deterministic(self):
        params = UrnParams(15, 6, 3)
        assert draw_until_both(params, 123) == draw_until_both(params, 123)

    def test_regression_pin(self):
        # guards the pinned stream against accidental algorithm edits; the
        # value is the reference trial's at this seed
        assert draw_until_both(UrnParams(15, 6, 3), 2024) == DrawOutcome(
            4, Color.FIRST, (3, 7)
        )

    def test_balanced_urn_is_degenerate(self):
        params = UrnParams(6, 3, 3)
        for seed in range(50):
            out = draw_until_both(params, seed)
            assert out.y == 0
            assert out.counts == (3, 3)

    def test_both_scheme_count_pattern(self):
        params = UrnParams(15, 6, 3)
        for seed in range(300):
            out = draw_until_both(params, seed)
            want = (3, 3 + out.y) if out.terminal_color is Color.FIRST else (3 + out.y, 3)
            assert out.counts == want
            assert 0 <= out.y <= 6

    def test_either_scheme_count_pattern(self):
        params = UrnParams(15, 6, 3)
        for seed in range(300):
            out = draw_until_either(params, seed)
            finished, other = (
                out.counts if out.terminal_color is Color.FIRST else out.counts[::-1]
            )
            assert finished == 3
            assert other == out.y <= 2

    def test_success_scheme_count_pattern(self):
        params = UrnParams(15, 6, 3)
        for seed in range(300):
            out = draw_until_c_successes(params, seed)
            assert out.terminal_color is Color.FIRST
            assert out.counts == (3, out.y)

    def test_single_marked_ball_hit_rate(self):
        # one ball of each of two kinds among five: the pair is adjacent
        # in the shuffle with probability 2/5
        params = UrnParams(5, 1, 1)
        hits = sum(draw_until_both(params, s).y == 0 for s in range(20000))
        assert hits / 20000 == pytest.approx(0.4, abs=0.0125)

    def test_terminal_color_symmetric_when_balanced(self):
        params = UrnParams(12, 6, 2)
        firsts = sum(
            draw_until_both(params, s).terminal_color is Color.FIRST
            for s in range(20000)
        )
        assert firsts / 20000 == pytest.approx(0.5, abs=0.0125)


class TestBernoulliScheme:
    def test_rejects_urn_schemes(self):
        with pytest.raises(ParameterError):
            bernoulli_scheme(BernoulliParams(2, 0.5), Dist.NH, 1)

    def test_row_cap_raises_quickly(self):
        # Every entry point refuses the nb and maxnb shapes that pmf_table
        # refuses up front, before a draw; minnb at the same p ends in c draws.
        config = SimConfig(seed=1, trials=3)
        start = time.perf_counter()
        for params in (BernoulliParams(1, 1e-300), BernoulliParams(5000, 1e-7)):
            for dist in (Dist.NB, Dist.MAXNB):
                for call in (iter_outcomes, empirical_pmf):
                    with pytest.raises(DomainError, match="1000000-row cap"):
                        call(dist, params, config)
                with pytest.raises(DomainError, match="1000000-row cap"):
                    bernoulli_scheme(params, dist, 1)
        assert time.perf_counter() - start < 1.0
        out = bernoulli_scheme(BernoulliParams(3, 1e-300), Dist.MINNB, 1)
        assert out.counts == (0, 3)

    def test_long_tail_raises_quickly(self):
        # The wait peaks early but has a tail past the row cap: a maxnb trial
        # at p = 1 - 2**-53 waits about 2**53 draws for its rarer color.
        config = SimConfig(seed=1, trials=3)
        start = time.perf_counter()
        for dist, params in ((Dist.MAXNB, BernoulliParams(1, 1 - 2**-53)),
                             (Dist.NB, BernoulliParams(1, 1e-7))):
            for call in (iter_outcomes, empirical_pmf):
                with pytest.raises(DomainError, match="1000000-row cap"):
                    call(dist, params, config)
            with pytest.raises(DomainError, match="1000000-row cap"):
                bernoulli_scheme(params, dist, 1)
        assert time.perf_counter() - start < 1.0

    def test_deterministic(self):
        params = BernoulliParams(3, 0.4)
        assert bernoulli_scheme(params, Dist.MAXNB, 9) == bernoulli_scheme(
            params, Dist.MAXNB, 9
        )

    def test_min_scheme_with_c_one_is_immediate(self):
        params = BernoulliParams(1, 0.3)
        for seed in range(50):
            assert bernoulli_scheme(params, Dist.MINNB, seed).y == 0

    def test_count_pattern(self):
        params = BernoulliParams(3, 0.4)
        for seed in range(300):
            out = bernoulli_scheme(params, Dist.MAXNB, seed)
            want = (3, 3 + out.y) if out.terminal_color is Color.FIRST else (3 + out.y, 3)
            assert out.counts == want


def _chisquare_pvalue(table, trials, dist, params):
    """Chi-square p-value of an empirical table against the exact pmf."""
    exact = pmf_table(dist, params)
    width = max(len(table.ys), len(exact.ys))
    obs = [round(p * trials) for p in table.probs]
    obs += [0] * (width - len(obs))
    exp = [trials * pmf(dist, params, y) for y in range(width)]
    tail = trials - math.fsum(exp)
    if tail > 1e-9:  # unbounded support: lump everything past the window
        obs.append(0)
        exp.append(tail)
    obs, exp = oracles.merge_small_bins(obs, exp)
    scale = sum(obs) / math.fsum(exp)
    return stats.chisquare(obs, [e * scale for e in exp]).pvalue


class TestEmpiricalPmf:
    def test_bit_identical_reruns(self):
        config = SimConfig(seed=77, trials=5000)
        a = empirical_pmf(Dist.MAXNH, UrnParams(15, 6, 3), config)
        b = empirical_pmf(Dist.MAXNH, UrnParams(15, 6, 3), config)
        assert a.ys == b.ys and a.probs == b.probs

    def test_seed_changes_the_answer(self):
        params = UrnParams(15, 6, 3)
        a = empirical_pmf(Dist.MAXNH, params, SimConfig(seed=1, trials=5000))
        b = empirical_pmf(Dist.MAXNH, params, SimConfig(seed=2, trials=5000))
        assert a.probs != b.probs

    def test_table_shape(self):
        table = empirical_pmf(Dist.MAXNH, UrnParams(15, 6, 3), SimConfig(3, 2000))
        assert table.ys == list(range(len(table.ys)))
        assert table.truncation is None
        assert math.fsum(table.probs) == pytest.approx(1.0, abs=1e-9)

    def test_single_trial_matches_single_draw(self):
        for dist in Dist:
            if dist in _SINGLE:
                params = UrnParams(15, 6, 3)
            else:
                params = BernoulliParams(3, 0.4)
            for seed in range(20):
                table = empirical_pmf(dist, params, SimConfig(seed, 1))
                assert table.probs[_single(dist, params, seed).y] == 1.0

    @pytest.mark.parametrize(
        "dist,params",
        [
            (Dist.MAXNH, UrnParams(15, 6, 3)),
            (Dist.MINNH, UrnParams(12, 5, 4)),
            (Dist.NH, UrnParams(10, 4, 2)),
            (Dist.MAXNB, BernoulliParams(2, 0.3)),
            (Dist.NB, BernoulliParams(2, 0.5)),
            (Dist.MINNB, BernoulliParams(3, 0.6)),
        ],
    )
    def test_matches_exact_pmf(self, dist, params):
        trials = 200000
        table = empirical_pmf(dist, params, SimConfig(seed=20260816, trials=trials))
        assert _chisquare_pvalue(table, trials, dist, params) > 0.001

    def test_maxnb_p0_spot_value(self):
        # (q^3 + p^3 q^3 terms) at p = 0.4: Pr[y=0] = 0.27648
        trials = 1000000
        table = empirical_pmf(
            Dist.MAXNB, BernoulliParams(3, 0.4), SimConfig(seed=5, trials=trials)
        )
        assert table.probs[0] == pytest.approx(0.27648, abs=0.0016)

    def test_nb_mean(self):
        trials = 1000000
        table = empirical_pmf(
            Dist.NB, BernoulliParams(1, 0.5), SimConfig(seed=6, trials=trials)
        )
        got = math.fsum(y * p for y, p in zip(table.ys, table.probs))
        assert got == pytest.approx(1.0, abs=0.005)


class TestTvDistance:
    def _table(self, probs):
        return PmfTable(Dist.MAXNH, UrnParams(15, 6, 3), probs, None)

    def test_identity(self):
        t = pmf_table(Dist.MAXNH, UrnParams(15, 6, 3))
        assert tv_distance(t, t) == 0.0

    def test_disjoint_masses(self):
        assert tv_distance(self._table([1.0]), self._table([0.0, 1.0])) == 1.0

    def test_ragged_padding(self):
        assert tv_distance(self._table([1.0]), self._table([0.5, 0.5])) == 0.5

    def test_symmetric(self):
        a = pmf_table(Dist.MAXNH, UrnParams(15, 6, 3))
        b = pmf_table(Dist.MAXNH, UrnParams(20, 8, 3))
        assert tv_distance(a, b) == tv_distance(b, a)

    def test_exact_tables_spot_value(self):
        # the c = 3, m = 0.4 N pairing used by the convergence checks
        a = pmf_table(Dist.MAXNB, BernoulliParams(3, 0.4))
        b = pmf_table(Dist.MAXNH, UrnParams(120, 48, 3))
        assert tv_distance(a, b) == pytest.approx(0.014071970, abs=5e-9)
