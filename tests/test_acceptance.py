"""Acceptance gate: eleven end-to-end criteria, one test per criterion.

Each test pins the tolerances and (where stated) the runtime budget it must
meet. Expected values marked as frozen were computed with independent
exact-rational or brute-force oracles before the library was written.

Criterion 7 is split into its two stated population sizes. Both check the
gap between the exact head probability P(Y=0) of the balanced urn and the
half-normal density at zero, 1/sqrt(pi c), against a two-sided envelope
derived from the raw formulas (oracles.halfnormal_head_gap_bounds):
P(Y=0) = C(2c, c)/4^c * prod_{i<c} (N-2i)/(N-2i-1), Wallis' bounds
1/sqrt(pi(c+1/2)) < C(2c, c)/4^c <= 1/sqrt(pi(c+1/4)) bound the first
factor and 1/k < ln(k/(k-1)) < 1/(k-1) bounds the product. The half-normal
is the N -> infinity limit, so at N=300, c=20 the gap must lie in
[0.0076603, 0.0085182]; a fixed 0.005 bound is not attainable there.
"""

import math
import time
from fractions import Fraction

import pytest
from scipy import stats

import oracles
from urnwait import (
    BernoulliParams,
    Classification,
    Dist,
    SimConfig,
    UrnParams,
    classify_critical_point,
    empirical_pmf,
    exact_pmf,
    halfnormal_approx_density,
    loglik_grad,
    loglik_hess,
    loglik_kernel,
    mle,
    normal_approx_params,
    p0_p1_ratio,
    phi,
    pmf,
    pmf_table,
    support,
    tv_distance,
    unimodal_m_range,
)
from urnwait._enumeration import enumerate_all

# (c, m_numerator, m_denominator) regime behind each pmf figure
FIG_REGIMES = {
    1: (3, 2, 5),
    2: (6, 1, 3),
    3: (20, 1, 4),
    4: (2, 1, 10),
    5: (20, 1, 2),
}

TABLE_2 = {
    (10, 1): [(1, 9)],
    (10, 2): [(3, 7)],
    (10, 3): [(4, 6)],
    (10, 4): [(5, 5)],
    (10, 5): [],
    (50, 1): [(1, 49)],
    (50, 2): [(9, 41)],
    (50, 3): [(13, 37)],
    (50, 4): [(15, 35)],
    (50, 5): [(16, 34)],
    (50, 10): [(20, 30)],
    (50, 15): [(22, 28)],
    (50, 20): [(24, 26)],
    (50, 25): [],
    (250, 1): [(1, 249)],
    (250, 2): [(38, 212)],
    (250, 3): [(55, 195)],
    (250, 4): [(65, 185)],
    (250, 5): [(73, 177)],
    (250, 10): [(90, 160)],
    (250, 15): [(98, 152)],
    (250, 20): [(103, 147)],
    (250, 25): [(106, 144)],
}

# frozen union-support TV values for the c=3, p=0.4 limit regime
TV_LIMIT_SEQUENCE = {
    15: 0.137940641,
    20: 0.096688395,
    30: 0.060807459,
    60: 0.028847156,
    120: 0.014071970,
}


def test_criterion_01_figure_pmf_golden_suite():
    """Exact pmfs reproduce every plotted point of the five pmf figures."""
    start = time.perf_counter()
    points = 0
    for which, (c, num, den) in FIG_REGIMES.items():
        for label, x, value in oracles.load_golden(which):
            y = int(x)
            if label == "maxnb":
                got = pmf(Dist.MAXNB, BernoulliParams(c, num / den), y)
            else:
                N = int(label[2:])
                got = pmf(Dist.MAXNH, UrnParams(N, N * num // den, c), y)
            assert abs(got - value) <= 1e-4, (which, label, x)
            points += 1
    elapsed = time.perf_counter() - start
    assert points >= 350
    # the two named anchor points
    assert pmf(Dist.MAXNH, UrnParams(15, 6, 3), 0) == pytest.approx(0.33566, abs=1e-4)
    assert pmf(Dist.MAXNH, UrnParams(50, 25, 20), 0) == pytest.approx(0.27479, abs=1e-4)
    assert elapsed < 1.0


def test_criterion_02_likelihood_golden_suite():
    """Lambda(m) reproduces the full likelihood-figure grid to 1e-5."""
    start = time.perf_counter()
    rows = oracles.load_golden(6)
    assert len(rows) >= 450
    for label, x, value in rows:
        got = loglik_kernel(float(x), 20, 3, int(label[2:]))
        assert abs(got - value) <= 1e-5, (label, x)
    assert loglik_kernel(10.0, 20, 3, 0) == pytest.approx(-3.292746, abs=1e-5)
    assert time.perf_counter() - start < 1.0


def test_criterion_03_unimodal_table_reproduction():
    """The full published table of unimodal m ranges, exactly."""
    start = time.perf_counter()
    for (N, c), want in TABLE_2.items():
        assert unimodal_m_range(N, c) == want, (N, c)
    assert time.perf_counter() - start < 30.0


def test_criterion_04_enumeration_oracle_equivalence():
    """Urn pmfs equal brute-force enumeration in exact rational arithmetic."""
    start = time.perf_counter()
    for N, m in oracles.valid_urns(12):
        # one walk per urn gives maxnh, minnh and nh for every c
        for (dist, c), ref in enumerate_all(N, m).items():
            params = UrnParams(N, m, c)
            assert sum(ref.values()) == 1
            for y in support(dist, params):
                assert exact_pmf(dist, params, y) == ref.get(y, Fraction(0))
    assert time.perf_counter() - start < 10.0


def test_criterion_05_mode_ratio_identity():
    """Pr[Y=0]/Pr[Y=1] = (c+1)/c wherever y=1 is possible, N up to 60."""
    checked = 0
    for N, m, c in oracles.valid_triples(60):
        if max(m - c, N - m - c) < 1:
            continue
        params = UrnParams(N, m, c)
        assert p0_p1_ratio(params) == pytest.approx((c + 1) / c, rel=1e-10), params
        checked += 1
    assert checked > 10000


def test_criterion_06_limit_convergence():
    """TV to the infinite-population limit falls monotonically in N."""
    limit = pmf_table(Dist.MAXNB, BernoulliParams(3, 0.4))
    tvs = []
    for N, frozen in TV_LIMIT_SEQUENCE.items():
        tv = tv_distance(pmf_table(Dist.MAXNH, UrnParams(N, 2 * N // 5, 3)), limit)
        assert tv == pytest.approx(frozen, abs=1e-8), N
        tvs.append(tv)
    assert all(a > b for a, b in zip(tvs, tvs[1:]))
    assert tvs[-1] < 0.02


def test_criterion_07a_halfnormal_gap_n300():
    """Half-normal density vs exact head probability at N=300, c=20.

    The half-normal limit ignores the finite population, so the gap
    P(Y=0) - 1/sqrt(pi c) is positive and of order c/N: the product
    prod_{i<c} (N-2i)/(N-2i-1) together with Wallis' bounds on
    C(2c, c)/4^c puts it in [0.0076603, 0.0085182]. The envelope fails a
    density that is wrong in either direction, such as one with the
    finite-population scale sqrt(2c(N-2c)/(N-1)) (gap -0.00064).
    """
    exact = pmf(Dist.MAXNH, UrnParams(300, 150, 20), 0)
    assert exact == pytest.approx(0.134652, abs=1e-6)
    # C(150, 20)^2 / C(300, 40) in exact rationals
    assert exact == pytest.approx(float(oracles.maxnh_ref(300, 150, 20, 0)), rel=1e-12)
    density = halfnormal_approx_density(20, 0)
    gap = abs(exact - density)
    assert gap == pytest.approx(0.008495831, abs=1e-6)
    lower, upper = oracles.halfnormal_head_gap_bounds(300, 20)
    assert lower <= exact - density <= upper


def test_criterion_07b_halfnormal_gap_n1600():
    """The same gap shrinks within 0.004 by N=1600, c=40, inside its envelope."""
    exact = pmf(Dist.MAXNH, UrnParams(1600, 800, 40), 0)
    density = halfnormal_approx_density(40, 0)
    gap = abs(exact - density)
    assert gap == pytest.approx(0.002031122, abs=1e-6)
    assert gap <= 0.004
    lower, upper = oracles.halfnormal_head_gap_bounds(1600, 40)
    assert lower <= exact - density <= upper


def test_criterion_08_normal_regime_location():
    """The exact mode sits within mu +/- sigma/2 in the normal regime."""
    params = UrnParams(400, 300, 20)
    table = pmf_table(Dist.MAXNH, params)
    argmax = table.ys[max(range(len(table.ys)), key=table.probs.__getitem__)]
    mu, sigma = normal_approx_params(params)
    assert mu == pytest.approx(40.0)
    assert sigma / 2 == pytest.approx(7.745966, abs=1e-5)
    assert abs(argmax - mu) <= sigma / 2


def test_criterion_09_estimator_transition():
    """Point estimate at N/2 for small y, symmetric pair after the phi flip."""
    for y in (0, 1, 2):
        assert mle(20, 3, y) == {10.0}, y
    for y in range(3, 8):
        got = sorted(mle(20, 3, y))
        assert len(got) == 2, y
        assert got[0] + got[1] == pytest.approx(20.0, rel=1e-12)
        assert got[1] > 10.0
    first_positive = next(y for y in range(8) if phi(20, 3, y) > 0)
    first_pair = next(y for y in range(8) if len(mle(20, 3, y)) == 2)
    assert first_positive == first_pair == 3


def test_criterion_10_monte_carlo_validation():
    """A million simulated draws match the exact pmf; runs are repeatable."""
    start = time.perf_counter()
    params = UrnParams(15, 6, 3)
    trials = 10**6
    table = empirical_pmf(Dist.MAXNH, params, SimConfig(seed=20260816, trials=trials))
    exact = pmf_table(Dist.MAXNH, params)
    width = max(len(table.ys), len(exact.ys))
    obs = [round(p * trials) for p in table.probs] + [0] * (width - len(table.ys))
    exp = [trials * pmf(Dist.MAXNH, params, y) for y in range(width)]
    obs, exp = oracles.merge_small_bins(obs, exp)
    scale = sum(obs) / math.fsum(exp)
    res = stats.chisquare(obs, [e * scale for e in exp])
    assert res.pvalue > 0.001
    config = SimConfig(seed=7, trials=10**5)
    a = empirical_pmf(Dist.MAXNH, params, config)
    b = empirical_pmf(Dist.MAXNH, params, config)
    assert a.ys == b.ys and a.probs == b.probs
    assert time.perf_counter() - start < 20.0


def test_criterion_11_derivative_suite():
    """Analytic derivatives match finite differences; N/2 is stationary."""
    import random

    rng = random.Random(20260816)
    checked = 0
    while checked < 100:
        N = rng.randint(12, 60)
        c = rng.randint(1, 3)
        y = rng.randint(0, 8)
        lo, hi = c + y, N - c - y
        if hi - lo < 2:
            continue
        m = rng.uniform(lo + 0.25, hi - 0.25)
        f = lambda m_: loglik_kernel(m_, N, c, y)
        g = lambda m_: loglik_grad(m_, N, c, y)
        assert loglik_grad(m, N, c, y) == pytest.approx(
            oracles.central_diff(f, m, 1e-5), abs=1e-5
        )
        assert loglik_hess(m, N, c, y) == pytest.approx(
            oracles.central_diff(g, m, 1e-4), abs=1e-3
        )
        checked += 1
    for N in (20, 30, 50):
        for c in range(1, 6):
            for y in range(11):
                if c + y > N // 2:
                    continue  # kernel undefined at m = N/2
                assert abs(loglik_grad(N / 2, N, c, y)) <= 1e-9, (N, c, y)
