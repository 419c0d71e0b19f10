"""Checks for the four limiting regimes and the convergence machinery."""

import math

import pytest

from urnwait import (
    ApproxKind,
    BernoulliParams,
    Dist,
    DomainError,
    ParameterError,
    UrnParams,
    approx_spec,
    convergence_sweep,
    gamma_approx_density,
    halfnormal_approx_density,
    maxnb_limit,
    normal_approx_params,
    pmf,
    pmf_table,
)
from urnwait.approximations import _approx_values

# single constant for the O(1/N) pointwise rate, fitted once at N=60
K_RATE = 0.730711520


class TestMaxnbLimit:
    def test_reads_off_p(self):
        bp = maxnb_limit(UrnParams(120, 48, 3))
        assert (bp.c, bp.p) == (3, 0.4)
        bp = maxnb_limit(UrnParams(96, 32, 6))
        assert bp.c == 6
        assert bp.p == pytest.approx(1 / 3, rel=1e-15)

    def test_balanced_gives_half(self):
        assert maxnb_limit(UrnParams(40, 20, 4)).p == 0.5

    def test_pointwise_rate(self):
        # |exact - limit| <= K/N for y <= 12; the constant fitted at N=60
        # must keep working when N doubles
        bp = BernoulliParams(3, 0.4)
        for N in (60, 120):
            params = UrnParams(N, 2 * N // 5, 3)
            dev = max(
                abs(pmf(Dist.MAXNH, params, y) - pmf(Dist.MAXNB, bp, y))
                for y in range(13)
            )
            assert dev <= K_RATE / N * (1 + 1e-9)


class TestGammaLimit:
    def test_shape_one_is_monotone_decreasing(self):
        params = UrnParams(100, 10, 1)
        vals = [gamma_approx_density(params, y) for y in range(11)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_transformed_point_value(self):
        # theta = 1, x = 1: density (1/10) e^{-1}
        got = gamma_approx_density(UrnParams(100, 10, 2), 10)
        assert got == pytest.approx(0.036788, abs=1e-6)
        assert got == pytest.approx(math.exp(-1.0) / 10.0, rel=1e-12)

    def test_nearby_exact_mass(self):
        assert pmf(Dist.MAXNH, UrnParams(100, 10, 2), 10) == pytest.approx(
            0.03984, abs=1e-4
        )

    def test_riemann_mass(self):
        params = UrnParams(10000, 100, 2)
        total = math.fsum(gamma_approx_density(params, y) for y in range(3001))
        assert total == pytest.approx(0.999992, abs=5e-6)
        assert abs(total - 1.0) < 0.02


    def test_large_shape_stays_finite(self):
        # (c-1)! overflows a float from c = 172 on, and x^(c-1) at large x
        assert gamma_approx_density(UrnParams(10**6, 10**5, 100), 10**5) == 0.0
        params = UrnParams(10**5, 500, 200)  # x = y / 200, mean y = 40000
        vals = [gamma_approx_density(params, y) for y in range(100_000)]
        assert all(math.isfinite(v) for v in vals)
        assert math.fsum(vals) == pytest.approx(1.0, abs=1e-6)

    def test_value_at_zero_and_below(self):
        assert gamma_approx_density(UrnParams(100, 10, 1), 0) == 0.1
        assert gamma_approx_density(UrnParams(100, 10, 2), 0) == 0.0
        assert gamma_approx_density(UrnParams(100, 10, 1), -1) == 0.0
        assert gamma_approx_density(UrnParams(100, 10, 2), -1) == 0.0


class TestHalfnormalLimit:
    def test_rejects_bad_c(self):
        for c in (0, -1, 2.0, True):
            with pytest.raises(ParameterError):
                halfnormal_approx_density(c, 1)

    def test_value_at_zero(self):
        assert halfnormal_approx_density(20, 0) == pytest.approx(0.12616, abs=5e-6)
        want = math.sqrt(2 / math.pi) / math.sqrt(40)
        assert halfnormal_approx_density(20, 0) == pytest.approx(want, rel=1e-12)

    def test_zero_below_the_support(self):
        # the density of |Z| has no mass below 0
        assert halfnormal_approx_density(20, -3) == 0.0
        assert halfnormal_approx_density(20, -1) == 0.0

    def test_decreasing(self):
        vals = [halfnormal_approx_density(20, y) for y in range(41)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_riemann_mass_small_c(self):
        # midpoint discretization overshoots by ~6% at c=20; the bias is
        # real and frozen here so a change in discretization shows up
        total = math.fsum(halfnormal_approx_density(20, y) for y in range(41))
        assert total == pytest.approx(1.063078, abs=1e-5)

    def test_riemann_mass_in_regime(self):
        params = UrnParams(1600, 800, 40)
        exact = pmf_table(Dist.MAXNH, params)
        total = math.fsum(
            _approx_values(ApproxKind.HALFNORMAL_LIMIT, params, exact.ys)
        )
        assert total == pytest.approx(1.0446, abs=1e-3)
        assert abs(total - 1.0) < 0.05


class TestNormalLimit:
    def test_known_mu_sigma(self):
        mu, sigma = normal_approx_params(UrnParams(400, 300, 20))
        assert mu == pytest.approx(40.0, rel=1e-12)
        assert sigma == pytest.approx(math.sqrt(15.0) * 4.0, rel=1e-12)

    def test_color_swap_invariance(self):
        # p is taken as the majority fraction, so m and N-m agree
        assert normal_approx_params(UrnParams(400, 100, 20)) == normal_approx_params(
            UrnParams(400, 300, 20)
        )

    def test_balanced_raises(self):
        with pytest.raises(DomainError):
            normal_approx_params(UrnParams(400, 200, 20))

    def test_riemann_mass_in_regime(self):
        params = UrnParams(400, 300, 20)
        exact = pmf_table(Dist.MAXNH, params)
        total = math.fsum(_approx_values(ApproxKind.NORMAL_LIMIT, params, exact.ys))
        assert abs(total - 1.0) < 0.05

    def test_exact_mode_near_mu(self):
        params = UrnParams(400, 300, 20)
        table = pmf_table(Dist.MAXNH, params)
        argmax = table.ys[max(range(len(table.ys)), key=table.probs.__getitem__)]
        mu, sigma = normal_approx_params(params)
        assert argmax == 37
        assert abs(argmax - mu) <= sigma


class TestApproxSpec:
    def test_derived_parameters(self):
        spec = approx_spec(ApproxKind.MAXNB_LIMIT, UrnParams(120, 48, 3))
        assert spec.derived == {"c": 3.0, "p": 0.4}
        spec = approx_spec(ApproxKind.GAMMA_LIMIT, UrnParams(100, 10, 2))
        assert spec.derived["theta"] == pytest.approx(1.0, rel=1e-15)
        spec = approx_spec(ApproxKind.HALFNORMAL_LIMIT, UrnParams(1600, 800, 40))
        assert spec.derived["scale"] == pytest.approx(math.sqrt(80), rel=1e-15)
        spec = approx_spec(ApproxKind.NORMAL_LIMIT, UrnParams(400, 300, 20))
        assert spec.kind is ApproxKind.NORMAL_LIMIT
        assert spec.derived["mu"] == pytest.approx(40.0)


class TestConvergenceSweep:
    def test_maxnb_regime_decreases(self):
        got = convergence_sweep(
            ApproxKind.MAXNB_LIMIT,
            lambda n: UrnParams(n, 2 * n // 5, 3),
            [15, 30, 60, 120],
        )
        sizes = [n for n, _ in got]
        tvs = [tv for _, tv in got]
        assert sizes == [15, 30, 60, 120]
        assert all(a > b for a, b in zip(tvs, tvs[1:]))
        assert all(0.0 <= tv <= 1.0 for tv in tvs)

    def test_table_past_the_row_cap_raises(self):
        with pytest.raises(DomainError, match="1000000 rows"):
            convergence_sweep(
                ApproxKind.GAMMA_LIMIT, lambda n: UrnParams(n, 2 * n // 5, 3), [2**64]
            )

    def test_halfnormal_regime_frozen_values(self):
        got = convergence_sweep(
            ApproxKind.HALFNORMAL_LIMIT,
            lambda n: UrnParams(n, n // 2, math.isqrt(n)),
            [100, 400, 1600],
        )
        want = [0.059035561, 0.033824931, 0.024301670]
        for (_, tv), w in zip(got, want):
            assert tv == pytest.approx(w, abs=1e-8)
        assert got[0][1] > got[1][1] > got[2][1]
