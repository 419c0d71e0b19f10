"""Mode detection, the (c+1)/c head ratio, and the unimodal m range."""

import functools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from urnwait import (
    Dist,
    DomainError,
    ParameterError,
    PmfTable,
    UrnParams,
    exact_pmf,
    local_modes,
    p0_p1_ratio,
    pmf_table,
    support,
    unimodal_m_range,
)
from urnwait import distributions, modes

_DUMMY = UrnParams(15, 6, 3)


def _table(probs):
    return PmfTable(Dist.MAXNH, _DUMMY, probs, None)


def _maxnh_table(N, m, c):
    return pmf_table(Dist.MAXNH, UrnParams(N, m, c))


def _full_walk_verdict(N, m, c):
    # every row of maxnh's support, read as unimodal_m_range reads its rows
    return modes._modes(distributions._finite_weights(Dist.MAXNH, UrnParams(N, m, c))) == [0]


def _unimodal(N, c):
    return lambda m: local_modes(_maxnh_table(N, m, c)).is_unimodal


@st.composite
def urn_params(draw, n_max=40):
    N = draw(st.integers(min_value=2, max_value=n_max))
    m = draw(st.integers(min_value=1, max_value=N - 1))
    c = draw(st.integers(min_value=1, max_value=min(m, N - m)))
    return UrnParams(N, m, c)


class TestLocalModes:
    def test_balanced_moderate_c_is_unimodal(self):
        report = local_modes(_maxnh_table(10, 5, 2))
        assert report.modes == [0]
        assert report.is_unimodal

    def test_lopsided_large_c_is_bimodal(self):
        report = local_modes(_maxnh_table(24, 8, 6))
        assert len(report.modes) == 2
        assert report.modes[0] == 0
        assert not report.is_unimodal

    def test_degenerate_point_mass(self):
        report = local_modes(_maxnh_table(6, 3, 3))
        assert report.modes == [0]
        assert report.is_unimodal
        assert math.isnan(report.p0_over_p1)

    def test_underflowed_head_is_not_reported(self):
        # p(0) and p(1) underflow to 0.0; y=0 is still a mode of the law
        for N, c in ((10**6, 100), (10**5, 200)):
            report = local_modes(_maxnh_table(N, c, c))
            assert report.modes == [N - 2 * c]
            assert math.isnan(report.p0_over_p1)
            assert not report.is_unimodal

    def test_flat_tail_c_one(self):
        # m = c = 1 gives p(0) = 2/N and a flat 1/N tail: one mode at 0
        report = local_modes(_maxnh_table(10, 1, 1))
        assert report.modes == [0]
        assert report.is_unimodal
        assert report.p0_over_p1 == pytest.approx(2.0, rel=1e-12)

    def test_interior_plateau_counts_once_at_left_end(self):
        assert local_modes(_table([0.2, 0.3, 0.3, 0.2])).modes == [1]

    def test_rising_plateau_is_not_a_mode(self):
        assert local_modes(_table([0.3, 0.3, 0.4])).modes == [2]

    def test_uniform_table_has_one_mode(self):
        assert local_modes(_table([0.25, 0.25, 0.25, 0.25])).modes == [0]

    def test_two_separated_peaks(self):
        assert local_modes(_table([0.3, 0.1, 0.2, 0.1, 0.3])).modes == [0, 2, 4]


class TestHeadRatio:
    def test_known_values(self):
        assert p0_p1_ratio(UrnParams(15, 6, 3)) == pytest.approx(4 / 3, rel=1e-10)
        assert p0_p1_ratio(UrnParams(50, 25, 20)) == pytest.approx(21 / 20, rel=1e-10)
        assert p0_p1_ratio(UrnParams(10, 4, 1)) == pytest.approx(2.0, rel=1e-10)

    def test_large_population(self):
        ratio = p0_p1_ratio(UrnParams(10**6, 4 * 10**5, 50))
        assert ratio == pytest.approx(51 / 50, rel=2e-14)

    def test_point_support_raises(self):
        with pytest.raises(DomainError):
            p0_p1_ratio(UrnParams(6, 3, 3))

    @pytest.mark.parametrize("N,c", [(10**6, 100), (10**5, 200)])
    def test_underflowed_second_mass_raises(self, N, c):
        with pytest.raises(DomainError):
            p0_p1_ratio(UrnParams(N, c, c))

    def test_two_point_support_is_fine(self):
        assert p0_p1_ratio(UrnParams(9, 4, 4)) == pytest.approx(5 / 4, rel=1e-10)

    @given(params=urn_params(n_max=60))
    @settings(deadline=None, max_examples=100)
    def test_ratio_is_always_c_plus_one_over_c(self, params):
        if max(params.m - params.c, params.N - params.m - params.c) < 1:
            return
        want = (params.c + 1) / params.c
        assert p0_p1_ratio(params) == pytest.approx(want, rel=1e-10)


class TestReportShape:
    @given(params=urn_params())
    @settings(deadline=None, max_examples=60)
    def test_zero_is_always_a_mode(self, params):
        report = local_modes(pmf_table(Dist.MAXNH, params))
        assert report.modes
        assert report.modes[0] == 0
        assert report.is_unimodal == (len(report.modes) == 1)


class TestUnimodalRange:
    def test_small_population_rows(self):
        assert unimodal_m_range(10, 1) == [(1, 9)]
        assert unimodal_m_range(10, 2) == [(3, 7)]
        assert unimodal_m_range(10, 3) == [(4, 6)]
        assert unimodal_m_range(10, 4) == [(5, 5)]
        assert unimodal_m_range(10, 5) == []

    def test_mid_population_row(self):
        assert unimodal_m_range(50, 10) == [(20, 30)]

    def test_excluded_m_really_is_bimodal(self):
        # the c=2 row starts at m=3, so m=2 must carry a second mode
        assert not local_modes(_maxnh_table(10, 2, 2)).is_unimodal
        assert local_modes(_maxnh_table(10, 3, 2)).is_unimodal

    @pytest.mark.parametrize("N,c", [(24, 2), (24, 5), (30, 4)])
    def test_symmetric_about_half(self, N, c):
        intervals = unimodal_m_range(N, c)
        assert intervals
        mirrored = sorted((N - hi, N - lo) for lo, hi in intervals)
        assert intervals == mirrored

    def test_balanced_m_always_unimodal(self):
        for N in (10, 20, 30, 40):
            for c in range(1, N // 2):
                report = local_modes(_maxnh_table(N, N // 2, c))
                assert report.is_unimodal, (N, c)

    @pytest.mark.parametrize("N,c", [(50, 5), (100, 5), (250, 10), (51, 4)])
    def test_half_band_scan_equals_the_full_band(self, N, c):
        # the bisection reads m <= N/2 only; (250, 10) lies past the sweep below
        assert unimodal_m_range(N, c) == oracles.unimodal_scan(N, c, _unimodal(N, c))

    def test_every_small_population_equals_the_full_band(self):
        # the span verdict against local_modes of every full table
        for N in range(2, 101):
            for c in range(1, N // 2 + 1):
                assert unimodal_m_range(N, c) == oracles.unimodal_scan(
                    N, c, _unimodal(N, c)
                ), (N, c)

    def test_exact_verdicts_are_monotone_and_agree(self):
        # exact rationals and exact ties, no EQ_RTOL: below N/2 the verdict
        # only turns from bimodal to unimodal, which is what the bisection
        # needs, and the float answer is the exact one
        for N in range(2, 41):
            for c in range(1, N // 2 + 1):

                @functools.cache
                def exact(m):
                    params = UrnParams(N, m, c)
                    probs = [
                        exact_pmf(Dist.MAXNH, params, y)
                        for y in support(Dist.MAXNH, params)
                    ]
                    return oracles.mode_count(probs) == 1

                half = [exact(m) for m in range(c, N // 2 + 1) if N != 2 * c or m != c]
                assert half == sorted(half), (N, c)
                want = oracles.unimodal_scan(N, c, exact)
                assert unimodal_m_range(N, c) == want, (N, c)

    def test_large_population_in_few_tables(self, monkeypatch):
        calls, tables = 0, 0
        walk, init = modes._maxnh_rows, PmfTable.__init__

        def counted(*args):
            nonlocal calls
            calls += 1
            return walk(*args)

        def built(*args):
            nonlocal tables
            tables += 1
            init(*args)

        monkeypatch.setattr(modes, "_maxnh_rows", counted)
        monkeypatch.setattr(PmfTable, "__init__", built)
        assert unimodal_m_range(100_000, 10) == [(35144, 64856)]
        assert calls <= 17
        assert tables == 0

    def test_million_population(self):
        assert unimodal_m_range(10**6, 10) == [(351423, 648577)]

    @pytest.mark.parametrize(
        "N,c,want",
        [
            (10**8, 10, [(35142034, 64857966)]),
            (10**6, 1, [(1, 10**6 - 1)]),
            (10**7, 10**6, [(4996814, 5003186)]),
        ],
    )
    def test_verdicts_cost_their_span(self, N, c, want):
        # A verdict walks only up to y*, past which no row rises: a few
        # thousand rows at (10**8, 10), and none at c=1, where neither term
        # rises from y=0. At (10**7, 10**6) most probes have underflowed
        # heads and are read without a walk.
        tracemalloc.start()
        try:
            got = unimodal_m_range(N, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 5 * 10**6

    def test_verdict_equals_the_full_walk_on_small_populations(self):
        for N in range(2, 61):
            for c in range(1, N // 2 + 1):
                for m in range(c, N - c + 1):
                    assert modes._unimodal(N, m, c) == _full_walk_verdict(N, m, c), (N, m, c)

    def test_verdict_equals_the_full_walk_on_random_shapes(self):
        # a random m, which mostly reads bimodal, and the two m on either
        # side of m*, where the verdict turns
        rng = random.Random(25)
        for _ in range(150):
            N = rng.randint(61, 60000)
            c = rng.randint(1, N // 2)
            lo = unimodal_m_range(N, c)[0][0] if N > 2 * c else c
            for m in {rng.randint(c, N - c), max(c, lo - 1), lo}:
                assert modes._unimodal(N, m, c) == _full_walk_verdict(N, m, c), (N, m, c)

    @pytest.mark.parametrize("N,c", [(2**53, 2**50), (10**10, 10**9)])
    def test_verdict_past_the_row_cap_raises(self, N, c):
        with pytest.raises(DomainError, match="1000000 rows"):
            unimodal_m_range(N, c)

    def test_bisection_equals_the_full_scan_on_random_shapes(self):
        # The bisection assumes the verdict is monotone in m: hold it to the
        # scan of the whole band, with the verdict's own reading of the rows.
        rng = random.Random(24)
        for _ in range(8):
            N = rng.randint(101, 1000)
            c = rng.randint(1, N // 2)

            def verdict(m):
                return _full_walk_verdict(N, m, c)

            assert unimodal_m_range(N, c) == oracles.unimodal_scan(N, c, verdict), (N, c)

    @pytest.mark.parametrize(
        "N,c,want", [(40000, 6000, [(19842, 20158)]), (40000, 12000, [(19917, 20083)])]
    )
    def test_underflowed_head_is_bimodal(self, N, c, want):
        # At m = 13000 < m* of (40000, 6000) the head underflows to 0.0, so
        # the bulk's mode is the only one left to count; y=0 is a mode too,
        # so the verdict there must read bimodal (checked in log space).
        assert unimodal_m_range(N, c) == want

    def test_rejects_impossible_shapes(self):
        with pytest.raises(ParameterError):
            unimodal_m_range(10, 6)
        with pytest.raises(ParameterError):
            unimodal_m_range(10, 0)
        with pytest.raises(ParameterError):
            unimodal_m_range(10.0, 2)
        with pytest.raises(ParameterError):
            unimodal_m_range(2, True)

    @pytest.mark.parametrize("N", [2**60, 2**64])
    def test_rejects_N_past_float_range(self, N):
        with pytest.raises(ParameterError):
            unimodal_m_range(N, 1)
