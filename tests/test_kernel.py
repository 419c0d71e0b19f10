import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnwait import kernel
from urnwait.errors import DomainError

import oracles


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

    def test_lgamma_above_twenty(self):
        # ln(100000!) from the leading 200 bits of 100000! and its exponent
        f = math.factorial(10**5)
        shift = f.bit_length() - 200
        with localcontext() as ctx:
            ctx.prec = 60
            want = Decimal(f >> shift).ln() + shift * Decimal(2).ln()
            assert abs(Decimal(kernel.log_factorial(10**5)) - want) <= want * Decimal("1e-15")

    def test_table_does_not_grow(self):
        kernel.log_factorial(10**6)
        assert len(kernel._LOG_FACT) == 21

    def test_negative_raises(self):
        with pytest.raises(DomainError):
            kernel.log_factorial(-1)


def _exact_product(z: float, start: int, k: int) -> Fraction:
    """(z - start)(z - start - 1)...(z - start - k + 1) at the float z, exact."""
    out = Fraction(1)
    for i in range(start, start + k):
        out *= Fraction(z) - i
    return out


def _product(z: float, k: int) -> tuple[float, int]:
    """z (z-1) ... (z-k+1) from _walk, as t * 2**e."""
    ((t, e),) = kernel._walk(z, (k,))
    return t, e


def _assert_matches(got: tuple[float, int], want: Fraction):
    t, e = got
    assert (t > 0) == (want > 0)
    want_log = oracles.log_rational(abs(want))
    assert math.log(abs(t)) + e * math.log(2.0) == pytest.approx(
        want_log, rel=1e-15, abs=1e-13
    )


class TestWalk:
    """The chunked product behind the likelihood at real m.

    Terms below 2**x in magnitude are multiplied 1022 // x at a time, so the
    chunk size K at z = 1000.5 is 92 and at z = 2**52 - 1/2 it is 19, where
    20 terms would overflow a double.
    """

    @pytest.mark.parametrize("z, K", [(1000.5, 92), (2.0**52 - 0.5, 19)])
    def test_around_the_chunk_size(self, z, K):
        assert 1022 // math.frexp(abs(z) + 2 * K)[1] == K
        for k in (K - 1, K, K + 1, 2 * K):
            _assert_matches(_product(z, k), _exact_product(z, 0, k))

    def test_negative_non_integer_z(self):
        for k in (1, 2, 7, 40, 301):
            got = _product(-7.25, k)
            assert (got[0] > 0) == (k % 2 == 0)
            _assert_matches(got, _exact_product(-7.25, 0, k))

    def test_negative_integer_z_past_the_float_range(self):
        # each term is about 1e300: one term a chunk
        _assert_matches(_product(-1e300, 3), _exact_product(-1e300, 0, 3))

    def test_terms_near_the_float_maximum(self):
        # each term is above 2**1023, where 1022 // 1024 = 0 terms a chunk
        # would never end: one term a chunk cannot overflow either
        for z in (1.7e308, -1.7e308):
            _assert_matches(_product(z, 3), _exact_product(z, 0, 3))

    @pytest.mark.parametrize("z", [5e-324, 7 * 5e-324, 1.2345e-310])
    def test_subnormal_z(self, z):
        for k in (1, 2, 5, 30):
            _assert_matches(_product(z, k), _exact_product(z, 0, k))

    def test_frozen_real_value(self):
        # 4.5 * 3.5 * ... * (4.5 - 9): negative with an odd count of
        # negative factors
        assert math.ldexp(*_product(4.5, 10)) == pytest.approx(
            -872.0947265625, rel=1e-12
        )

    @given(
        st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
        st.integers(min_value=0, max_value=12),
    )
    def test_real_z_matches_plain_product(self, z, k):
        want = oracles.ff_float(z, k)
        got = math.ldexp(*_product(z, k))
        if want == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(want, rel=1e-12)

    def test_huge_product_does_not_overflow(self):
        # 400 factors around 1e3: a plain float product overflows, the
        # chunked walk must not
        _assert_matches(_product(1000.5, 400), _exact_product(1000.5, 0, 400))

    def test_runs_are_consecutive_segments(self):
        # the products of each run from the walk, and its sums from
        # _harmonic at the run's first term: runs of K and K + 1 terms are
        # summed term by term and in closed form
        z = 1300.37
        K = kernel._SHORT_RUN
        starts = (0, K, 2 * K + 1, 2 * K + 201)
        lengths = (K, K + 1, 200, 0)
        runs = kernel._walk(z, lengths)
        for (t, e), start, k in zip(runs, starts, lengths):
            want = _exact_product(z, start, k)
            assert 0.5 <= abs(t) <= 1.0
            _assert_matches((t, e), want)
            h1, h2 = kernel._harmonic(z - start, k)
            terms = [Fraction(z) - i for i in range(start, start + k)]
            assert h1 == pytest.approx(float(sum(1 / u for u in terms)), rel=1e-14)
            assert h2 == pytest.approx(float(sum(1 / u**2 for u in terms)), rel=1e-14)

    def test_zero_term(self):
        # an exact zero term zeroes its run in the walk, and is a pole of the
        # same run's sums, whether the run is summed term by term or not
        K = kernel._SHORT_RUN
        cases = ((5.0, (3, 4)), (K + 2.0, (3, K)), (K + 3.0, (3, K + 1)), (30.0, (3, 40)))
        for z, lengths in cases:
            runs = kernel._walk(z, lengths)
            assert runs[0][0] != 0.0 and runs[1][0] == 0.0
            kernel._harmonic(z, lengths[0])
            with pytest.raises(DomainError):
                kernel._harmonic(z - lengths[0], lengths[1])


def _exact_moments(z: float, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """(sum 1/t, sum 1/t**2, sum |1/t|) over t = z - i, i < n, exact."""
    inv = [1 / (Fraction(z) - i) for i in range(n)]
    return sum(inv, Fraction(0)), sum((r * r for r in inv), Fraction(0)), sum(map(abs, inv))


def _assert_moments(z: float, n: int, got: tuple[float, float]):
    """h1 within 1e-13 of sum |1/t| (a relative error wherever the run does
    not cross zero), h2 within 1e-13 relative."""
    h1, h2, scale = _exact_moments(z, n)
    assert abs(Fraction(got[0]) - h1) <= 1e-13 * scale, (z, n)
    assert abs(Fraction(got[1]) - h2) <= 1e-13 * h2, (z, n)


class TestHarmonic:
    """The closed-form moments of a run: sums of 1/(z-i) and 1/(z-i)**2."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        st.integers(min_value=0, max_value=80),
    )
    def test_random_runs(self, z, n):
        if 0 <= round(z) < n and abs(z - round(z)) < 1e-150:
            return  # a pole (below), or 1/t**2 overflows, in the walk as here
        _assert_moments(z, n, kernel._harmonic(z, n))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=80), st.floats(min_value=0.0, max_value=1.0))
    def test_runs_that_cross_zero(self, n, frac):
        z = frac * (n - 1)
        if abs(z - round(z)) < 1e-150:
            return  # a pole, or 1/t**2 overflows
        _assert_moments(z, n, kernel._harmonic(z, n))

    def test_symmetric_run_sums_to_zero(self):
        # 5.5, 4.5, ..., -5.5: the positive and negated parts cancel exactly
        h1, h2 = kernel._harmonic(5.5, 12)
        assert abs(h1) <= 1e-15
        _assert_moments(5.5, 12, (h1, h2))

    @given(st.integers(min_value=1, max_value=500), st.data())
    def test_pole(self, n, data):
        z = float(data.draw(st.integers(min_value=0, max_value=n - 1)))
        with pytest.raises(DomainError):
            kernel._harmonic(z, n)

    @pytest.mark.parametrize("z", [1e11, 1e11 + 0.37, 2.0**52 - 0.5])
    def test_far_from_zero(self, z):
        # psi(z+1) - psi(z-n+1) as a plain difference is 1e-4 off at 1e11
        for n in (1, 2, 3, 100):
            _assert_moments(z, n, kernel._harmonic(z, n))

    @pytest.mark.parametrize("z", [1300.37, 30.5, 20.25, 7.75])
    def test_walk_runs_on_both_sides_of_the_crossover(self, z):
        # a run of _SHORT_RUN terms is summed term by term; with one more
        # term, the terms above 10 take the closed form. Both agree with the
        # same terms split in two, and the walk's products of the same runs
        # are exact
        k = kernel._SHORT_RUN
        short = kernel._harmonic(z, k)
        long = kernel._harmonic(z, k + 1)
        one = kernel._harmonic(z - k, 1)
        assert long[0] == pytest.approx(short[0] + one[0], rel=1e-14, abs=1e-15)
        assert long[1] == pytest.approx(short[1] + one[1], rel=1e-14)
        _assert_moments(z, k, short)
        _assert_moments(z, k + 1, long)
        for n in (k, k + 1):
            _assert_matches(_product(z, n), _exact_product(z, 0, n))


def _pi() -> Decimal:
    """pi to the current decimal precision (the decimal module's recipe)."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _stirlerr_ref(n: int) -> Decimal:
    """ln(n!) - (n + 1/2) ln n + n - ln(2 pi)/2 at the current precision."""
    return (
        Decimal(math.factorial(n)).ln()
        - (n + Decimal("0.5")) * Decimal(n).ln()
        + n
        - (2 * _pi()).ln() / 2
    )


class TestStirlerr:
    def test_table_is_the_rounded_50_digit_value(self):
        with localcontext() as ctx:
            ctx.prec = 50
            want = [0.0] + [float(_stirlerr_ref(n)) for n in range(1, 16)]
        assert list(kernel._STIRLERR) == want
        assert [kernel._stirlerr(n) for n in range(16)] == want

    def test_series_past_the_table(self):
        # every branch of the series, at both ends
        with localcontext() as ctx:
            ctx.prec = 50
            for n in (16, 17, 35, 36, 80, 81, 500, 501, 2000):
                err = Decimal(kernel._stirlerr(n)) - _stirlerr_ref(n)
                assert abs(err) <= Decimal(2e-16), n


def _bd0_ref(x: int, mu: float) -> float:
    with localcontext() as ctx:
        ctx.prec = 50
        m = Decimal(mu)
        return float(x * (x / m).ln() + m - x)


class TestBd0:
    # |x - mu| = 0.1 (x + mu) at x = 11 mu / 9 and at x = 9 mu / 11
    @pytest.mark.parametrize("mu", [9.0, 900.0, 900.3, 9e5, 1.1e8 / 9])
    def test_both_sides_of_the_switch(self, mu):
        for edge in (11 * mu / 9, 9 * mu / 11):
            for x in (math.floor(edge) - 1, math.floor(edge), math.ceil(edge) + 1):
                if x < 1:
                    continue
                want = _bd0_ref(x, mu)
                assert kernel._bd0(x, mu) == pytest.approx(want, rel=4e-15), x

    @pytest.mark.parametrize("x, mu", [(5, 5.0), (5, 5.000000001), (10**6, 10**6 - 0.5)])
    def test_close_to_the_mean(self, x, mu):
        assert kernel._bd0(x, mu) == pytest.approx(_bd0_ref(x, mu), rel=4e-15, abs=1e-300)

    def test_far_from_the_mean(self):
        for x, mu in ((1, 1e-300), (1, 700.0), (10**6, 1.0), (3, 1e12)):
            assert kernel._bd0(x, mu) == pytest.approx(_bd0_ref(x, mu), rel=4e-15)


def _ln(f: Fraction) -> Decimal:
    """ln of a positive rational, in the current decimal context."""
    return Decimal(f.numerator).ln() - Decimal(f.denominator).ln()


def _log_binom_ref(x: int, n: int, p: float) -> float:
    """ln C(n, x) p^x (1-p)^(n-x) at the float p, to 60 digits: exact but
    for results within 1e-40 of 0."""
    pf = Fraction(p)
    with localcontext() as ctx:
        ctx.prec = 60
        return float(_ln(Fraction(math.comb(n, x))) + x * _ln(pf) + (n - x) * _ln(1 - pf))


def _log_hyper_ref(x: int, r: int, b: int, n: int) -> float:
    with localcontext() as ctx:
        ctx.prec = 60
        return float(
            _ln(Fraction(math.comb(r, x) * math.comb(b, n - x), math.comb(r + b, n)))
        )


class TestBinomTerm:
    @pytest.mark.parametrize(
        "p", [1e-300, 0.05, 0.5, 0.95, math.nextafter(1.0, 0.0)]
    )
    def test_edges(self, p):
        for n in (1, 2, 7, 1000):
            for x in (0, n):
                got = kernel._log_binom_term(x, n, p)
                want = _log_binom_ref(x, n, p)
                assert got == pytest.approx(want, rel=4e-16, abs=1e-40), (n, x)

    @pytest.mark.parametrize("p", [0.3, 0.5, 1e-3, 0.95, 1 / 3])
    def test_interior(self, p):
        # p = 0.3 and 1/3 leave q = 1 - p rounded, which the term corrects
        for n in (2, 16, 37, 1000, 10**5):
            mean = n * p
            sd = math.sqrt(n * p * (1 - p))
            xs = {1, n - 1, n // 2} | {
                round(mean + k * sd) for k in (-8, -3, -1, 0, 1, 3, 8)
            }
            for x in sorted(x for x in xs if 0 < x < n):
                want = _log_binom_ref(x, n, p)
                got = kernel._log_binom_term(x, n, p)
                # a few ulp of the log, plus up to eps |x - np| from the
                # rounding of np and nq
                tol = 4e-15 + 1e-15 * abs(want) + 2.3e-16 * abs(x - mean)
                assert abs(got - want) <= tol, (n, x)

    def test_outside_and_degenerate(self):
        assert kernel._log_binom_term(-1, 5, 0.5) == -math.inf
        assert kernel._log_binom_term(6, 5, 0.5) == -math.inf
        assert kernel._log_binom_term(0, 0, 0.5) == 0.0
        assert kernel._log_binom_term(0, 5, 0.0) == 0.0
        assert kernel._log_binom_term(1, 5, 0.0) == -math.inf
        assert kernel._log_binom_term(5, 5, 1.0) == 0.0
        assert kernel._log_binom_term(4, 5, 1.0) == -math.inf


class TestHyperTerm:
    @pytest.mark.parametrize(
        "r, b", [(1, 1), (6, 9), (40, 25), (4000, 6000), (300, 29_700)]
    )
    def test_against_comb(self, r, b):
        for n in sorted({0, 1, 2, r // 2, r, r + b - 1, r + b} & set(range(r + b + 1))):
            lo, hi = max(0, n - b), min(r, n)
            for x in sorted({lo, hi, (lo + hi) // 2, min(hi, lo + 1)}):
                want = _log_hyper_ref(x, r, b, n)
                got = kernel._log_hyper_term(x, r, b, n)
                assert abs(got - want) <= 4e-15 + 1e-15 * abs(want), (n, x)
            assert kernel._log_hyper_term(hi + 1, r, b, n) == -math.inf
