import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnwait import kernel
from urnwait.errors import DomainError

import oracles


class TestSignedLogValue:
    @given(st.floats(min_value=-1e250, max_value=1e250, allow_nan=False))
    def test_round_trip(self, x):
        v = kernel.SignedLogValue.from_real(x)
        if x == 0.0:
            assert v.sign == 0
        # exp() amplifies log-domain rounding by |log x|, so the
        # achievable relative error grows with the exponent.
        rel = 1e-15 * (2.0 + abs(v.logmag) if v.sign else 2.0)
        assert v.to_real() == pytest.approx(x, rel=rel)

    def test_overflow_maps_to_inf(self):
        assert kernel.SignedLogValue(1, 1e6).to_real() == math.inf
        assert kernel.SignedLogValue(-1, 1e6).to_real() == -math.inf

    def test_zero_constant(self):
        assert kernel.ZERO.to_real() == 0.0
        assert kernel.ONE.to_real() == 1.0


class TestLogFactorial:
    def test_exact_through_twenty(self):
        for n in range(21):
            assert kernel.log_factorial(n) == math.log(math.factorial(n))

    def test_small_values(self):
        assert kernel.log_factorial(0) == 0.0
        assert kernel.log_factorial(1) == 0.0

    def test_matches_lgamma_for_large_n(self):
        for n in (50, 500, 5000):
            assert kernel.log_factorial(n) == pytest.approx(
                math.lgamma(n + 1), rel=1e-14
            )

    def test_negative_raises(self):
        with pytest.raises(DomainError):
            kernel.log_factorial(-1)


class TestFallingFactorial:
    def test_k_zero_is_one(self):
        assert kernel.falling_factorial(7.3, 0) is kernel.ONE

    def test_negative_k_raises(self):
        with pytest.raises(DomainError):
            kernel.falling_factorial(3.0, -1)

    def test_integer_short_range_is_zero(self):
        # 0 <= z < k makes some factor exactly zero
        assert kernel.falling_factorial(4, 7).sign == 0
        assert kernel.falling_factorial(0, 1).sign == 0

    def test_integer_fast_path_matches_exact(self):
        for z in (1, 5, 12, 40, 200):
            for k in range(0, z + 1):
                got = kernel.falling_factorial(z, k)
                want = kernel.falling_factorial_exact(z, k)
                assert got.sign == 1
                assert got.logmag == pytest.approx(math.log(want), rel=1e-13)

    def test_frozen_real_value(self):
        # 4.5 * 3.5 * ... * (4.5 - 9): negative with an odd count of
        # negative factors
        v = kernel.falling_factorial(4.5, 10).to_real()
        assert v == pytest.approx(-872.0947265625, rel=1e-12)

    @given(
        st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
        st.integers(min_value=0, max_value=12),
    )
    def test_real_z_matches_plain_product(self, z, k):
        want = oracles.ff_float(z, k)
        got = kernel.falling_factorial(z, k).to_real()
        if want == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(want, rel=1e-12)

    def test_huge_product_does_not_overflow(self):
        # 400 factors around 1e3: a plain float product overflows, the
        # signed log path must not
        v = kernel.falling_factorial(1000.5, 400)
        assert v.sign == 1
        assert math.isfinite(v.logmag)

    def test_exact_is_big_integer(self):
        assert kernel.falling_factorial_exact(30, 30) == math.factorial(30)
        assert kernel.falling_factorial_exact(10, 3) == 720


def _exact_product(z: float, start: int, k: int) -> Fraction:
    """(z - start)(z - start - 1)...(z - start - k + 1) at the float z, exact."""
    out = Fraction(1)
    for i in range(start, start + k):
        out *= Fraction(z) - i
    return out


def _assert_matches(got: kernel.SignedLogValue, want: Fraction):
    assert got.sign == (1 if want > 0 else -1)
    want_log = oracles.log_rational(abs(want))
    assert got.logmag == pytest.approx(want_log, rel=1e-15, abs=1e-13)


class TestWalk:
    """The chunked product behind the real-z branch of falling_factorial.

    Terms below 2**x in magnitude are multiplied 1022 // x at a time, so the
    chunk size K at z = 1000.5 is 92 and at z = 2**52 - 1/2 it is 19, where
    20 terms would overflow a double.
    """

    @pytest.mark.parametrize("z, K", [(1000.5, 92), (2.0**52 - 0.5, 19)])
    def test_around_the_chunk_size(self, z, K):
        assert 1022 // math.frexp(abs(z) + 2 * K)[1] == K
        for k in (K - 1, K, K + 1, 2 * K):
            _assert_matches(kernel.falling_factorial(z, k), _exact_product(z, 0, k))

    def test_negative_non_integer_z(self):
        for k in (1, 2, 7, 40, 301):
            got = kernel.falling_factorial(-7.25, k)
            assert got.sign == (-1) ** k
            _assert_matches(got, _exact_product(-7.25, 0, k))

    def test_negative_integer_z_past_the_float_range(self):
        # each term is about 1e300: one term a chunk
        got = kernel.falling_factorial(-1e300, 3)
        _assert_matches(got, _exact_product(-1e300, 0, 3))

    @pytest.mark.parametrize("z", [5e-324, 7 * 5e-324, 1.2345e-310])
    def test_subnormal_z(self, z):
        for k in (1, 2, 5, 30):
            _assert_matches(kernel.falling_factorial(z, k), _exact_product(z, 0, k))

    def test_runs_are_consecutive_segments(self):
        z = 1300.37
        runs = kernel._walk(z, (30, 200, 0), moments=2)
        for (t, e, h1, h2), (start, k) in zip(runs, ((0, 30), (30, 200), (230, 0))):
            want = _exact_product(z, start, k)
            assert 0.5 <= abs(t) <= 1.0
            value = kernel.SignedLogValue(1, math.log(abs(t)) + e * math.log(2.0))
            _assert_matches(value, want)
            terms = [Fraction(z) - i for i in range(start, start + k)]
            assert h1 == pytest.approx(float(sum(1 / u for u in terms)), rel=1e-14)
            assert h2 == pytest.approx(float(sum(1 / u**2 for u in terms)), rel=1e-14)

    def test_zero_term(self):
        # an exact zero term zeroes its run; with moments it is a pole
        runs = kernel._walk(5.0, (3, 4))
        assert runs[0][0] != 0.0 and runs[1][0] == 0.0
        with pytest.raises(DomainError):
            kernel._walk(5.0, (3, 4), moments=1)


class TestLogBinomial:
    def test_matches_comb(self):
        for n in (0, 1, 7, 20, 60, 300):
            for k in range(0, n + 1, max(1, n // 7)):
                got = kernel.log_binomial(n, k)
                assert got.sign == 1
                assert got.logmag == pytest.approx(
                    math.log(math.comb(n, k)), abs=1e-11, rel=1e-13
                )

    def test_out_of_range_is_zero(self):
        assert kernel.log_binomial(5, -1).sign == 0
        assert kernel.log_binomial(5, 6).sign == 0


class TestSignedArithmetic:
    @given(
        st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
        st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_add_matches_float_sum(self, a, b):
        got = kernel.signed_log_add(
            kernel.SignedLogValue.from_real(a), kernel.SignedLogValue.from_real(b)
        ).to_real()
        want = a + b
        # cancellation below the declared epsilon legitimately flushes to 0
        scale = max(abs(a), abs(b), 1.0)
        assert got == pytest.approx(want, abs=2e-13 * scale, rel=1e-12)

    def test_total_cancellation_is_exact_zero(self):
        x = kernel.SignedLogValue.from_real(3.7)
        y = kernel.SignedLogValue.from_real(-3.7)
        assert kernel.signed_log_add(x, y) is kernel.ZERO

    def test_near_cancellation_flushes(self):
        x = kernel.SignedLogValue.from_real(1.0)
        y = kernel.SignedLogValue(-1, math.log1p(-1e-14))  # -(1 - 1e-14)
        assert kernel.signed_log_add(x, y).sign == 0

    def test_mul_div_scale(self):
        a = kernel.SignedLogValue.from_real(-6.0)
        b = kernel.SignedLogValue.from_real(1.5)
        assert kernel.signed_log_mul(a, b).to_real() == pytest.approx(-9.0)
        assert kernel.signed_log_div(a, b).to_real() == pytest.approx(-4.0)
        assert kernel.signed_log_scale(a, -2.0).to_real() == pytest.approx(12.0)
        assert kernel.signed_log_scale(a, 0.0) is kernel.ZERO

    def test_div_by_zero_raises(self):
        with pytest.raises(DomainError):
            kernel.signed_log_div(kernel.ONE, kernel.ZERO)
