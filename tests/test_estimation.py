"""Likelihood kernel, analytic derivatives, the phi criterion, and the
maximizer, checked against finite differences and frozen high-precision
roots from an exact-rational solver.
"""

import math
import random
from fractions import Fraction

import pytest

import oracles
from urnwait import (
    Classification,
    DomainError,
    ParameterError,
    classify_critical_point,
    loglik_grad,
    loglik_hess,
    loglik_kernel,
    mle,
    phi,
    profile,
)
from urnwait import estimation, kernel
from urnwait.cli import _LIKELIHOOD_SHAPES
from urnwait.estimation import _gradient_root

# phi(20, 3, y) for y = 0..7, exact-rational evaluation rounded to 9 digits
PHI_20_3 = [
    -0.037970679,
    -0.037970679,
    -0.014161155,
    0.047743607,
    0.175124559,
    0.428299162,
    0.974727734,
    2.567584877,
]

# interior maximizers of the (N=20, c=3) kernel for y = 3..7, found by
# bisection on the exact-rational derivative to 1e-12
MHAT_20_3 = {
    3: 13.301061507709,
    4: 14.209821530019,
    5: 14.786383063790,
    6: 15.267213457100,
    7: 15.674910133694,
}


# Shapes of the benchmark's likelihood profiles, whose grid is [N/2, N-c-1].
PROFILE_SHAPES = [(2000, 30, 200), (10001, 40, 400), (100000, 50, 2000)]
# Short shapes, where some or all runs are summed term by term, and the
# benchmark's profile shapes.
EXACT_SHAPES = [(20, 3, 5), (41, 6, 8), (61, 8, 12), (400, 10, 120)] + PROFILE_SHAPES

# mle inputs where the 1e-6 golden bracket ends beside the maximizer, and
# (20, 8, 3), where N/2 is a zero of the likelihood and phi has a pole.
MLE_EXACT_CASES = [(2000, 30, 200), (2001, 29, 201), (10001, 40, 400), (20, 8, 3)]


# The upper estimate of mle on the benchmark's 44 request shapes (classes
# mle.half, mle.N20_61, mle.N2000, mle.N1e4 and mle.N1e5), as the product
# walk gave it at every read, except (21, 3, 5) and (61, 7, 13), which moved
# by 1 ulp to the other float beside the exact root when the weights came
# from r at every read. The estimate set is {m_hat, N - m_hat}.
BENCHMARK_MLE = {
    (2000, 30, 2): 1000.0,
    (2000, 31, 1): 1000.0,
    (2000, 32, 0): 1000.0,
    (2001, 30, 2): 1000.5,
    (2001, 31, 1): 1000.5,
    (2001, 32, 0): 1000.5,
    (20, 2, 6): 16.32108264876909,
    (20, 3, 5): 14.78638306378958,
    (20, 4, 4): 13.511126278828048,
    (21, 2, 6): 17.119675117512923,
    (21, 3, 5): 15.512758066571134,
    (21, 4, 4): 14.173861670778692,
    (40, 4, 10): 31.397927258645872,
    (40, 5, 9): 29.717602736851937,
    (40, 6, 8): 28.20569172694625,
    (41, 4, 10): 32.17539005626532,
    (41, 5, 9): 30.454188198434316,
    (41, 6, 8): 28.905476889622435,
    (60, 6, 14): 46.428746728316895,
    (60, 7, 13): 44.68996050396829,
    (60, 8, 12): 43.07550702180577,
    (61, 6, 14): 47.19784472498446,
    (61, 7, 13): 45.43058655608316,
    (61, 8, 12): 43.78969218589577,
    (2000, 28, 202): 1783.3375712645366,
    (2000, 29, 201): 1776.4501561555323,
    (2000, 30, 200): 1769.6157219019674,
    (2000, 31, 199): 1762.8336594570724,
    (2000, 32, 198): 1756.1033690813954,
    (2001, 28, 202): 1784.2290439376602,
    (2001, 29, 201): 1777.3381868552801,
    (2001, 30, 200): 1770.500337104663,
    (2001, 31, 199): 1763.7148853347524,
    (2001, 32, 198): 1756.9812315064494,
    (10001, 38, 402): 9206.3620228414,
    (10001, 39, 401): 9187.141014185603,
    (10001, 40, 400): 9168.000093181772,
    (10001, 41, 399): 9148.938760314253,
    (10001, 42, 398): 9129.956520213556,
    (100000, 48, 2002): 97712.58392537003,
    (100000, 49, 2001): 97666.0317169704,
    (100000, 50, 2000): 97619.52384403603,
    (100000, 51, 1999): 97573.06024325895,
    (100000, 52, 1998): 97526.64085145187,
}


def _profile_points(N, c, count=5):
    """count real m spread over the profile range, off the integers."""
    lo, hi = N / 2, N - c - 1
    return [lo + (j + 0.37) * (hi - lo) / count for j in range(count)]


def _random_band_tuples(count, seed=20260816):
    """(m, N, c, y) with m real and strictly inside the two-sided safe band."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        N = rng.randint(12, 60)
        c = rng.randint(1, 3)
        y = rng.randint(0, 8)
        lo, hi = c + y, N - c - y
        if hi - lo < 2:
            continue
        m = rng.uniform(lo + 0.25, hi - 0.25)
        out.append((m, N, c, y))
    return out


def _log_ratio_points(kind, count=60, seed=18):
    """count points (m, N, c, y) on (c + y - 1, N - c] with N <= 10**4, of
    one kind: anywhere, where D's run crosses zero (x = N - m - c < y - 1),
    a few ulps from an integer x < y (a zero of D), or at x = 0."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        N = rng.choice((rng.randint(2, 60), rng.randint(2, 10_000)))
        c = rng.randint(1, N // 2)
        y = rng.randint(0, N - 2 * c)
        lo, hi = c + y - 1, N - c
        span = min(y, hi - lo)  # the integers x < y with m = N - c - x > lo
        if kind == "anywhere":
            m = rng.uniform(lo, hi)
        elif kind == "crossing" and span > 1:
            m = hi - rng.uniform(0.0, span - 1)
        elif kind == "pole" and span > 0:
            m = float(hi - rng.randrange(span))
            for _ in range(rng.randint(1, 4)):
                m = math.nextafter(m, rng.choice((lo, hi)))
        elif kind == "x0":
            m = float(hi)
        else:
            continue
        if lo < m <= hi:
            out.append((m, N, c, y))
    return out


class TestKernelValues:
    def test_fixture_points(self):
        assert loglik_kernel(10.0, 20, 3, 0) == pytest.approx(-3.292746, abs=2e-6)
        assert loglik_kernel(3.0, 20, 3, 0) == pytest.approx(-6.345636, abs=2e-6)
        assert loglik_kernel(10.0, 20, 3, 6) == pytest.approx(-9.354203, abs=2e-6)
        assert loglik_kernel(10.0, 20, 3, 7) == pytest.approx(-11.433644, abs=2e-6)
        assert loglik_kernel(4.25, 20, 3, 4) == pytest.approx(-6.063994, abs=2e-6)
        assert loglik_kernel(4.25, 20, 3, 5) == pytest.approx(-6.197559, abs=2e-6)

    def test_matches_plain_float_reference(self):
        for m, N, c, y in _random_band_tuples(100, seed=7):
            assert loglik_kernel(m, N, c, y) == pytest.approx(
                oracles.lam_ref(m, N, c, y), abs=1e-10
            )

    def test_symmetry(self):
        for m, N, c, y in _random_band_tuples(200):
            a = loglik_kernel(m, N, c, y)
            b = loglik_kernel(N - m, N, c, y)
            assert a == pytest.approx(b, abs=1e-10)

    def test_impossible_y_raises(self):
        # both factorial-polynomial terms vanish: nothing to take a log of
        with pytest.raises(DomainError):
            loglik_kernel(10.0, 20, 3, 8)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ParameterError):
            loglik_kernel(10.0, 20, 0, 1)
        with pytest.raises(ParameterError):
            loglik_kernel(10.0, 20, 11, 1)
        with pytest.raises(ParameterError):
            loglik_kernel(10.0, 20, 3, -1)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (phi, (20, 3, 2.5)),
            (loglik_kernel, (10.0, 20, 3, 2.5)),
            (loglik_kernel, (10.5, 20, True, 2)),
            (mle, (20, 3, 2.5)),
            (mle, (20.0, 3, 5)),
            (profile, (20, 3, 2.5, (3.0, 17.0, 0.25))),
            (classify_critical_point, (20, 3.0, 5)),
        ],
        ids=[
            "phi-y",
            "loglik_kernel-y",
            "loglik_kernel-bool-c",
            "mle-y",
            "mle-N",
            "profile-y",
            "classify-c",
        ],
    )
    def test_rejects_non_integer_shapes(self, fn, args):
        # N, c and y are counts; m alone is real
        with pytest.raises(ParameterError):
            fn(*args)

    @pytest.mark.parametrize("fn", [loglik_kernel, loglik_grad, loglik_hess])
    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_m(self, fn, m):
        with pytest.raises(ParameterError):
            fn(m, 2000, 30, 200)

    @pytest.mark.parametrize("fn", [loglik_kernel, loglik_grad, loglik_hess])
    @pytest.mark.parametrize(
        "m, N, c, y",
        [
            # C + D cancels far outside [0, N]: L was 1.2e-4 off the exact L
            # here, and 3.6e-3 off at 1e15
            (1e13, 20, 8, 3),
            (1e15, 20, 8, 3),
            # L raised here although S > 0, and L' was 7% off
            (9.926233405401103e204, 16, 4, 7),
            (-0.5, 20, 3, 5),
            (20.5, 20, 3, 5),
        ],
    )
    def test_refuses_m_outside_zero_to_n(self, fn, m, N, c, y):
        # m counts balls of one color
        with pytest.raises(DomainError, match="outside"):
            fn(m, N, c, y)

    @pytest.mark.parametrize(
        "call",
        [
            lambda y: phi(21, 3, y),
            lambda y: classify_critical_point(21, 3, y),
            lambda y: loglik_kernel(15.5, 21, 3, y),
            lambda y: loglik_grad(15.5, 21, 3, y),
            lambda y: loglik_hess(15.5, 21, 3, y),
            lambda y: mle(21, 3, y),
            lambda y: profile(21, 3, y, (3.0, 18.0, 0.5)),
        ],
        ids=["phi", "classify", "loglik_kernel", "loglik_grad", "loglik_hess", "mle", "profile"],
    )
    @pytest.mark.parametrize("y", [16, 100])
    def test_every_function_refuses_impossible_y(self, call, y):
        # y > N - 2c = 15 cannot be observed
        with pytest.raises(DomainError, match="impossible"):
            call(y)


class TestDerivatives:
    def test_stationary_at_half(self):
        assert loglik_grad(10.0, 20, 3, 5) == pytest.approx(0.0, abs=1e-12)

    def test_grad_matches_finite_difference(self):
        f = lambda m: loglik_kernel(m, 20, 3, 0)
        assert loglik_grad(8.0, 20, 3, 0) == pytest.approx(
            oracles.central_diff(f, 8.0, 1e-5), abs=1e-5
        )

    def test_grad_matches_finite_difference_at_random_points(self):
        for m, N, c, y in _random_band_tuples(100):
            f = lambda m_: loglik_kernel(m_, N, c, y)
            assert loglik_grad(m, N, c, y) == pytest.approx(
                oracles.central_diff(f, m, 1e-5), abs=1e-5
            )

    def test_hess_matches_finite_difference_at_random_points(self):
        for m, N, c, y in _random_band_tuples(100, seed=99):
            g = lambda m_: loglik_grad(m_, N, c, y)
            assert loglik_hess(m, N, c, y) == pytest.approx(
                oracles.central_diff(g, m, 1e-4), abs=1e-3
            )

    def test_antisymmetric_about_half(self):
        got = loglik_grad(11.5, 20, 3, 2)
        assert got == pytest.approx(-loglik_grad(8.5, 20, 3, 2), rel=1e-10)
        assert got != 0.0

    def test_hess_spot_check(self):
        h = loglik_hess(7.3, 20, 3, 2)
        g = lambda m: loglik_grad(m, 20, 3, 2)
        assert h == pytest.approx(oracles.central_diff(g, 7.3, 1e-4), abs=1e-4)

    def test_hess_sign_flips_with_y(self):
        assert loglik_hess(10.0, 20, 3, 0) < 0
        assert loglik_hess(10.0, 20, 3, 7) > 0

    def test_pole_raises(self):
        # integer m inside the falling-factorial range is a harmonic pole
        with pytest.raises(DomainError):
            loglik_grad(5.0, 20, 3, 4)

    def test_stationarity_sweep(self):
        for N in (20, 30, 50):
            for c in range(1, 6):
                for y in range(11):
                    if c + y > N // 2:
                        continue  # kernel undefined at m = N/2
                    assert abs(loglik_grad(N / 2, N, c, y)) <= 1e-9, (N, c, y)


class TestAgainstExactRationals:
    @pytest.mark.parametrize("N, c, y", EXACT_SHAPES)
    def test_kernel_within_2e12(self, N, c, y):
        for m in _profile_points(N, c):
            want = oracles.loglik_exact(m, N, c, y)
            assert abs(loglik_kernel(m, N, c, y) - want) <= 2e-12, m

    @pytest.mark.parametrize("N, c, y", EXACT_SHAPES)
    def test_grad_relative(self, N, c, y):
        for m in _profile_points(N, c):
            want = oracles.grad_exact(m, N, c, y)
            assert abs(Fraction(loglik_grad(m, N, c, y)) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("N, c, y", EXACT_SHAPES)
    def test_hess_relative(self, N, c, y):
        for m in _profile_points(N, c):
            want = oracles.hess_exact(m, N, c, y)
            assert abs(Fraction(loglik_hess(m, N, c, y)) - want) <= 1e-12 * abs(want)


class TestLogRatio:
    """r = ln C - ln|D| and s = sign D from lgamma, against exact rational
    products of the float m, within the bound _log_ratio states."""

    @pytest.mark.parametrize("kind", ["anywhere", "crossing", "pole", "x0"])
    def test_within_the_stated_bound(self, kind):
        for m, N, c, y in _log_ratio_points(kind):
            r, s, err = estimation._log_ratio(m, N, c, y)
            want, sign = oracles.log_ratio_exact(m, N, c, y)
            assert s == sign, (m, N, c, y)
            if math.isinf(want):
                # x = 0 zeroes D: its weight is exactly 0
                assert r == want and s * math.exp(-r) == 0.0, (m, N, c, y)
            else:
                assert abs(r - want) <= err, (m, N, c, y, r - want, err)


def _zero_shapes(n_max):
    """Every (N, c, y) with even N <= n_max and y > N/2 - c, where the runs
    of C and D hold b = 0 and C + D vanishes at m = N/2."""
    return [
        (N, c, y)
        for N in range(4, n_max + 1, 2)
        for c in range(1, N // 2)
        for y in range(N // 2 - c + 1, N - 2 * c + 1)
    ]


def _assert_exact(m, N, c, y):
    """L within 1e-12 max(1, |L|) of the exact L, and L' and L'' within
    1e-12 relative of theirs."""
    want = oracles.loglik_exact(m, N, c, y)
    got = loglik_kernel(m, N, c, y)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (m, N, c, y, got, want)
    g, h = loglik_grad(m, N, c, y), loglik_hess(m, N, c, y)
    errs = oracles.derivative_relerrs(g, h, m, N, c, y)
    assert max(errs) <= 1e-12, (m, N, c, y, errs)


class TestZeroAtHalf:
    """Near m = N/2 for even N with y > N/2 - c, C + D = -C expm1(-r) is
    taken without cancellation, and the zero at N/2 is exact."""

    @pytest.mark.parametrize(
        "m, N, c, y",
        [
            # a cancellation tolerance gave L = -54.18 (exact -73.52) and
            # L' = -4.2e3 (exact -1.06e12) here
            (15.999999999998119, 32, 15, 2),
            # and raised DomainError here, where L = -62.17
            (7.999999999997068, 16, 6, 3),
            # and was 0.0089 off in L here
            (2781 + 2.1e-11, 5562, 1803, 1947),
        ],
    )
    def test_points_a_tolerance_got_wrong(self, m, N, c, y):
        _assert_exact(m, N, c, y)

    def test_weights_where_e_to_the_r_overflows(self):
        # r = -940.7 and 940.7 here, far beyond exp's range of about 709
        for m in (490.5, 1509.5):
            _assert_exact(m, 2000, 10, 1500)

    def test_every_small_shape_near_half(self):
        # at m = N/2 +- 10**-k and at random |u| < P + 1, wherever S > 0
        rng = random.Random(21)
        for N, c, y in _zero_shapes(40):
            P = c + y - 1 - N // 2
            points = [N / 2 + s * 10.0**-k for k in range(1, 13) for s in (1, -1)]
            points += [N / 2 + rng.uniform(-P - 1, P + 1) for _ in range(2)]
            for m in points:
                if abs(m - N / 2) < P + 1 and oracles.bracket_sign(m, N, c, y) > 0:
                    _assert_exact(m, N, c, y)

    def test_zero_at_half_raises(self):
        for N, c, y in _zero_shapes(40):
            for fn in (loglik_kernel, loglik_grad, loglik_hess):
                with pytest.raises(DomainError):
                    fn(N / 2, N, c, y)

    def test_finite_exactly_where_the_bracket_is_positive(self):
        # every (N, c, y) with N <= 20, on a 1/16 grid of (0, N) and at
        # N/2 +- 10**-k: L is finite where S > 0, and L, L' and L'' raise
        # where S <= 0; every 7th finite value is held to the exact L
        finite = 0
        for N in range(2, 21):
            near = [N / 2 + s * 10.0**-k for k in (3, 6, 9, 12) for s in (1, -1)]
            points = [k / 16 for k in range(1, 16 * N)] + near
            for c in range(1, N // 2 + 1):
                for y in range(N - 2 * c + 1):
                    for m in points:
                        if oracles.bracket_sign(m, N, c, y) <= 0:
                            for fn in (loglik_kernel, loglik_grad, loglik_hess):
                                try:
                                    fn(m, N, c, y)
                                except DomainError:
                                    continue
                                raise AssertionError((fn.__name__, m, N, c, y))
                            continue
                        got = loglik_kernel(m, N, c, y)
                        finite += 1
                        if finite % 7 == 0:
                            want = oracles.loglik_exact(m, N, c, y)
                            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (m, N, c, y)


class TestPhi:
    def test_frozen_sequence(self):
        for y, want in enumerate(PHI_20_3):
            assert phi(20, 3, y) == pytest.approx(want, abs=1e-9)

    def test_first_two_values_coincide(self):
        assert phi(20, 3, 0) == phi(20, 3, 1)

    def test_monotone_in_y(self):
        vals = [phi(20, 3, y) for y in range(8)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        vals = [phi(30, 4, y) for y in range(10)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_sign_agrees_with_hessian_at_half(self):
        for y in range(8):
            assert math.copysign(1, phi(20, 3, y)) == math.copysign(
                1, loglik_hess(10.0, 20, 3, y)
            )

    def test_sign_is_exact(self):
        # every (N, c, y) with N <= 46 and c + y - 1 < N/2, where phi decides
        # whether mle returns {N/2}: no exact zero occurs there
        for N in range(2, 47):
            for c in range(1, N // 2 + 1):
                for y in range(math.ceil(N / 2) - c + 1):
                    want = oracles.phi_exact(N, c, y)
                    assert want != 0 and (phi(N, c, y) < 0) == (want < 0), (N, c, y)

    def test_zero_denominator_raises(self):
        with pytest.raises(DomainError):
            phi(20, 3, 8)

    def test_classification(self):
        for y in range(3):
            report = classify_critical_point(20, 3, y)
            assert report.classification is Classification.GLOBAL_MAX_AT_HALF
            assert report.phi_value < 0
        for y in range(3, 8):
            report = classify_critical_point(20, 3, y)
            assert report.classification is Classification.LOCAL_MIN_AT_HALF
            assert report.phi_value > 0
        # odd N with c + y - 1 >= N/2: phi is finite and negative, but L
        # vanishes at N/2 +- 1/2, and N/2 is not the maximum
        report = classify_critical_point(7, 1, 5)
        assert report.classification is Classification.ZERO_AT_HALF
        assert report.phi_value < 0
        assert loglik_kernel(max(mle(7, 1, 5)), 7, 1, 5) > loglik_kernel(3.5, 7, 1, 5)


class TestMle:
    def test_small_y_gives_half(self):
        for y in (0, 1, 2):
            assert mle(20, 3, y) == {10.0}

    def test_large_y_gives_symmetric_pair(self):
        for y, want in MHAT_20_3.items():
            got = sorted(mle(20, 3, y))
            assert len(got) == 2
            assert got[0] + got[1] == pytest.approx(20.0, rel=1e-12)
            assert got[1] == pytest.approx(want, abs=1e-8)

    def test_pair_members_are_stationary(self):
        for y in (3, 5, 7):
            for m_hat in mle(20, 3, y):
                assert abs(loglik_grad(m_hat, 20, 3, y)) < 1e-6

    def test_other_configuration(self):
        # transition behavior is not specific to (20, 3)
        got = mle(30, 2, 6)
        assert len(got) == 2
        hi = max(got)
        assert loglik_kernel(hi, 30, 2, 6) > loglik_kernel(15.0, 30, 2, 6)


def _refuse_walk(*args):
    raise AssertionError("mle walked")


class TestMleAgainstExactRoot:
    @pytest.mark.parametrize("N, c, y", MLE_EXACT_CASES)
    def test_within_1e7_of_the_exact_gradient_root(self, N, c, y):
        lo, hi = sorted(mle(N, c, y))
        assert lo + hi == pytest.approx(N, abs=1e-9 * N)
        # the exact L' changes sign from + to - within 1e-7 of the estimate
        assert oracles.grad_exact(hi - 1e-7, N, c, y) > 0
        assert oracles.grad_exact(hi + 1e-7, N, c, y) < 0

    def test_zero_of_the_likelihood_at_half(self):
        with pytest.raises(DomainError):
            phi(20, 8, 3)
        with pytest.raises(DomainError):
            loglik_kernel(10.0, 20, 8, 3)
        # C + D = 6 (m - 10)^2 here, so L is finite on both sides of the zero
        for m in (10.0 + 1e-14, 10.0 - 1e-14, 10.0 + 1e-9):
            x = Fraction(m)
            s = oracles.ff_int(x, 8) * oracles.ff_int(20 - x, 8) * 6 * (x - 10) ** 2
            want = oracles.log_rational(s / math.perm(20, 19))
            assert abs(loglik_kernel(m, 20, 8, 3) - want) <= 1e-12 * abs(want), m
        report = classify_critical_point(20, 8, 3)
        assert report.classification is Classification.ZERO_AT_HALF
        assert math.isnan(report.phi_value)
        lo, hi = sorted(mle(20, 8, 3))
        assert hi == pytest.approx(11.6442634939, abs=1e-9)
        assert lo == pytest.approx(20 - 11.6442634939, abs=1e-9)

    def test_impossible_y_raises(self):
        with pytest.raises(DomainError):
            mle(20, 3, 15)

    def test_maximum_on_an_end(self):
        # L still rises at the upper end: that end is the maximizer
        assert _gradient_root(lambda m: (1.0, 0.0), 0.0, 1.0) == 1.0

    def test_bisection_guards_newton(self):
        # from 5, Newton on -atan(m - 0.3) overshoots ever farther; bisection
        # takes over until Newton converges
        gh = lambda m: (-math.atan(m - 0.3), -1.0 / (1.0 + (m - 0.3) ** 2))
        assert _gradient_root(gh, 0.0, 10.0) == pytest.approx(0.3, abs=1e-15)

    def test_pole_at_a_trial_point(self):
        # the gradient walk raises DomainError at an integer m where a factor
        # of D is zero; here the first midpoint, halfway from 0 to one float
        # inside the upper end, is such a pole
        first = 0.5 * math.nextafter(1.0, 0.0)
        seen = []

        def gh(m):
            seen.append(m)
            if m == first:
                raise DomainError("pole")
            return 0.3 - m, -1.0

        assert _gradient_root(gh, 0.0, 1.0) == pytest.approx(0.3, abs=1e-12)
        assert first in seen

    def test_pole_at_the_upper_end(self):
        # the search's upper end N - c zeroes a factor of D, a pole of the
        # gradient walk, so L' is first read one float inside it
        N, c, y = 10**11, 1, 3
        with pytest.raises(DomainError):
            loglik_grad(float(N - c), N, c, y)
        lo, hi = sorted(mle(N, c, y))
        assert lo + hi == pytest.approx(N, abs=1e-9 * N)
        assert oracles.grad_exact(hi - 1e-3, N, c, y) > 0
        assert oracles.grad_exact(hi + 1e-3, N, c, y) < 0

    def test_newton_finishes_to_rounding(self):
        # L' of (28, 1, 2) vanishes at 14 + 2 sqrt 5: Newton's last step
        # leaves the estimate within rounding of it, not within 1e-10
        lo, hi = sorted(mle(28, 1, 2))
        assert lo + hi == pytest.approx(28.0, abs=1e-12)
        assert oracles.grad_exact(hi - 1e-12, 28, 1, 2) > 0
        assert oracles.grad_exact(hi + 1e-12, 28, 1, 2) < 0

    def test_terminates_where_an_ulp_exceeds_the_step_tolerance(self):
        # m_hat > 2**20, where one ulp is above M_TOL/100: the search must
        # stop once a step no longer moves m
        N, c, y = 2_000_000, 10, 100
        lo, hi = sorted(mle(N, c, y))
        assert lo + hi == pytest.approx(N, abs=1e-9 * N)
        assert oracles.grad_exact(hi - 1e-9, N, c, y) > 0
        assert oracles.grad_exact(hi + 1e-9, N, c, y) < 0

    def test_no_estimate_walks(self, monkeypatch):
        # every read takes its weights from (r, s): r from _log_ratio in O(1)
        # or summed over the unpaired run, so a walk, which raises here,
        # never runs. The selfcheck shapes have y <= N/2 - c; on the last
        # five c + y - 1 >= N/2, and the search starts at c + y - 1
        monkeypatch.setattr(kernel, "_walk", _refuse_walk)
        shapes = [(N, c, total - c) for N, total, cs in _LIKELIHOOD_SHAPES for c in cs]
        shapes += [(20, 8, 3), (12, 1, 10), (21, 3, 10), (41, 5, 20), (42, 1, 25)]
        for N, c, y in shapes + list(BENCHMARK_MLE):
            mle(N, c, y)

    @pytest.mark.parametrize(
        "N, c, y, hi",
        [
            (10**8, 5, 3 * 10**7, 99999983.839404),
            (10**7, 5, 3 * 10**6, 9999983.839452518),
            (10**6, 100, 5 * 10**5, 999800.580393376),
        ],
    )
    def test_large_inputs_take_no_walk(self, N, c, y, hi, monkeypatch):
        # as above; walking at every read took 43 s at N = 10**8 and gave the
        # same estimate
        monkeypatch.setattr(kernel, "_walk", _refuse_walk)
        assert mle(N, c, y) == {hi, N - hi}

    def test_benchmark_shapes_are_pinned(self):
        for (N, c, y), hi in BENCHMARK_MLE.items():
            assert mle(N, c, y) == {hi, N - hi}, (N, c, y)

    def test_small_pins_are_beside_the_exact_root(self):
        # each pin with N <= 61 is one of the two floats around the root of
        # the exact L', which changes sign between its two neighbours
        for (N, c, y), hi in BENCHMARK_MLE.items():
            if N <= 61:
                below, above = math.nextafter(hi, 0.0), math.nextafter(hi, math.inf)
                assert oracles.grad_exact(below, N, c, y) > 0, (N, c, y)
                assert oracles.grad_exact(above, N, c, y) < 0, (N, c, y)

    @pytest.mark.parametrize("N, c, y", [(12, 1, 10), (7, 1, 5)])
    def test_estimate_at_the_ends_of_the_band(self, N, c, y):
        # L still rises one float inside N - c and is finite at N - c, so
        # the estimates are the ends c and N - c exactly, as floats
        got = mle(N, c, y)
        assert got == {float(c), float(N - c)}
        assert all(type(m) is float for m in got)
        assert math.isfinite(loglik_kernel(float(N - c), N, c, y))

    def test_global_maximum_when_y_exceeds_half_minus_c(self):
        # L has a lesser local maximum near m = 6.66, where L = -10.96, while
        # it reaches -2.49 near m = N - c
        N, c, y = 12, 1, 10
        hi = max(mle(N, c, y))
        best = max(loglik_kernel(N - c - k * 1e-3, N, c, y) for k in range(1, 1000))
        assert loglik_kernel(hi, N, c, y) >= best

    def test_global_maximum_on_a_grid(self):
        # every (N, c, y) with N <= 20: L at the estimate is at least L on a
        # 1/32 grid of [N/2, N - c], and L is defined at every grid point
        # above max(N/2, c + y - 1), N - c included
        for N in range(2, 21):
            for c in range(1, N // 2 + 1):
                for y in range(N - 2 * c + 1):
                    lo = max(N / 2, c + y - 1)
                    grid = [N / 2 + k / 32 for k in range((N - 2 * c) * 16 + 1)]
                    assert grid[-1] == N - c
                    best = -math.inf
                    for m in grid:
                        try:
                            v = loglik_kernel(m, N, c, y)
                        except DomainError:
                            assert m <= lo, (N, c, y, m)
                            continue
                        assert math.isfinite(v), (N, c, y, m)
                        best = max(best, v)
                    got = loglik_kernel(max(mle(N, c, y)), N, c, y)
                    assert got >= best, (N, c, y)


class TestProfile:
    def test_grid_shape_and_values(self):
        prof = profile(20, 3, 0, (3.0, 17.0, 0.25))
        assert len(prof.grid) == 57
        assert prof.grid[0] == 3.0
        assert prof.grid[-1] == pytest.approx(17.0, abs=1e-12)
        assert prof.maximizers == {10.0}
        for g, v in zip(prof.grid, prof.values):
            assert v == loglik_kernel(g, 20, 3, 0)

    def test_mirrored_grid_values(self):
        prof = profile(20, 3, 4, (3.0, 17.0, 0.25))
        for i, g in enumerate(prof.grid):
            j = prof.grid.index(pytest.approx(20.0 - g, abs=1e-9))
            assert prof.values[i] == pytest.approx(prof.values[j], abs=1e-10)

    def test_bimodal_profile_maximizers(self):
        prof = profile(20, 3, 7, (3.0, 17.0, 0.25))
        assert len(prof.maximizers) == 2

    def test_bad_grid_raises(self):
        with pytest.raises(ParameterError):
            profile(20, 3, 0, (5.0, 4.0, 0.25))
        with pytest.raises(ParameterError):
            profile(20, 3, 0, (3.0, 17.0, -1.0))

    @pytest.mark.parametrize(
        "grid",
        [
            (math.nan, 11.0, 0.5),
            (1.0, math.inf, 0.5),
            (1.0, 11.0, math.nan),
            (1.0, 11.0, math.inf),
            (1.0, 1e300, 1e-300),  # finite ends, but no finite point count
            (1e308, 1.7e308, 1e308),  # the last point rounds up past the float range
        ],
    )
    def test_non_finite_grid_raises(self, grid):
        with pytest.raises(ParameterError):
            profile(20, 3, 5, grid)

    @pytest.mark.parametrize("grid", [(0.0, 1e12, 1.0), (0.0, 1e6, 1.0)])
    def test_refuses_more_than_a_million_points(self, grid, monkeypatch):
        # refused before mle runs and before any point is listed
        monkeypatch.setattr(estimation, "mle", None)
        with pytest.raises(ParameterError, match="points"):
            profile(20, 3, 5, grid)

    def test_nan_where_the_likelihood_is_undefined(self):
        # (12, 1, 10): S <= 0 at these grid points, L is defined between
        prof = profile(12, 1, 10, (1.0, 11.0, 0.5))
        assert len(prof.grid) == 21
        undefined = [g for g, v in zip(prof.grid, prof.values) if math.isnan(v)]
        assert undefined == [2, 2.5, 3, 4, 4.5, 5, 6, 7, 7.5, 8, 9, 9.5, 10]
        for g, v in zip(prof.grid, prof.values):
            if g in undefined:
                with pytest.raises(DomainError):
                    loglik_kernel(g, 12, 1, 10)
            else:
                assert v == loglik_kernel(g, 12, 1, 10)
        assert prof.maximizers == mle(12, 1, 10)

    def test_nan_outside_zero_to_n(self):
        prof = profile(20, 3, 5, (-1.0, 21.0, 0.5))
        outside = [g for g, v in zip(prof.grid, prof.values) if g < 0 or g > 20]
        assert outside == [-1.0, -0.5, 20.5, 21.0]
        assert all(math.isnan(v) for g, v in zip(prof.grid, prof.values) if g in outside)
        assert math.isfinite(prof.values[prof.grid.index(10.0)])

    def test_bad_shapes_still_raise(self):
        # mle runs before the grid, so these never turn into rows of nan
        with pytest.raises(DomainError):
            profile(20, 3, 50, (3.0, 17.0, 0.25))
        with pytest.raises(ParameterError):
            profile(20, 11, 0, (3.0, 17.0, 0.25))
