"""Exact-arithmetic and floating-point checks for the six waiting-time pmfs.

The urn pmfs are checked three ways: against a formula-free enumeration of
every equally likely draw order, against independently coded closed forms,
and against their own exact-rational twins.
"""

import hashlib
import itertools
import math
import struct
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from urnwait import (
    BernoulliParams,
    Dist,
    DomainError,
    ParameterError,
    SimConfig,
    UrnParams,
    cdf,
    empirical_pmf,
    exact_pmf,
    maxnh_p0,
    mean,
    pmf,
    pmf_table,
    quantile,
    support,
)
from urnwait import distributions
from urnwait._enumeration import enumerate_all
from urnwait.distributions import TAIL_EPS, _maxnh_pmf_binom

URN_DISTS = (Dist.NH, Dist.MINNH, Dist.MAXNH)

_REF = {
    Dist.NH: oracles.nh_ref,
    Dist.MINNH: oracles.minnh_ref,
    Dist.MAXNH: oracles.maxnh_ref,
}


@st.composite
def urn_params(draw, n_max=60):
    N = draw(st.integers(min_value=2, max_value=n_max))
    m = draw(st.integers(min_value=1, max_value=N - 1))
    c = draw(st.integers(min_value=1, max_value=min(m, N - m)))
    return UrnParams(N, m, c)


def bulk_rows(probs, k=16):
    """About k evenly spaced rows across the bulk (rows of at least 1e-12
    of the largest), plus the mode."""
    mode = probs.index(max(probs))
    big = [y for y, p in enumerate(probs) if p >= 1e-12 * probs[mode]]
    lo, hi = big[0], big[-1]
    return sorted(set(range(lo, hi + 1, max(1, (hi - lo) // (k - 1)))) | {mode})


class TestParamValidation:
    def test_urn_rejects_bad_shapes(self):
        for N, m, c in [(10, 5, 0), (10, 5, 6), (10, 12, 2), (12, 9, 4), (1, 1, 1)]:
            with pytest.raises(ParameterError):
                UrnParams(N, m, c)

    def test_urn_rejects_non_integers(self):
        with pytest.raises(ParameterError):
            UrnParams(10.0, 5, 2)
        with pytest.raises(ParameterError):
            UrnParams(10, 5, 2.5)

    def test_bernoulli_rejects_bad_shapes(self):
        for c, p in [(0, 0.5), (2, 0.0), (2, 1.0), (2, -0.1), (1.5, 0.5)]:
            with pytest.raises(ParameterError):
                BernoulliParams(c, p)

    def test_dispatch_rejects_mismatched_params(self):
        with pytest.raises(ParameterError):
            pmf(Dist.NB, UrnParams(10, 5, 2), 0)
        with pytest.raises(ParameterError):
            pmf(Dist.NH, BernoulliParams(2, 0.5), 0)

    @pytest.mark.parametrize("dist", list(Dist))
    def test_pmf_rejects_non_integer_y(self, dist):
        params = UrnParams(15, 6, 3) if dist in URN_DISTS else BernoulliParams(3, 0.4)
        law_pmf = getattr(distributions, f"{dist.value}_pmf")
        for y in (2.5, 2.0, True):
            with pytest.raises(ParameterError):
                pmf(dist, params, y)
            with pytest.raises(ParameterError):
                law_pmf(params, y)

    @pytest.mark.parametrize("dist", URN_DISTS)
    def test_exact_pmf_rejects_non_integer_y(self, dist):
        # as in pmf: no TypeError from math.comb, and True is not 1
        for y in (2.5, 2.0, True):
            with pytest.raises(ParameterError):
                exact_pmf(dist, UrnParams(15, 6, 3), y)

    def test_exact_pmf_is_urn_only(self):
        with pytest.raises(ParameterError):
            exact_pmf(Dist.NB, UrnParams(10, 5, 2), 0)


def _walk_stop(dist, seq, c):
    """Draws beyond the stopping point of one draw order, ball by ball."""
    succ = fail = 0
    for ball in seq:
        succ += ball
        fail += 1 - ball
        if dist is Dist.NH and succ == c:
            return fail
        if dist is Dist.MINNH and (succ == c or fail == c):
            return succ + fail - c
        if dist is Dist.MAXNH and succ >= c and fail >= c:
            return succ + fail - 2 * c
    raise AssertionError("c <= min(m, N-m) guarantees the rule stops")


class TestEnumerationWalk:
    def test_one_walk_equals_a_walk_per_placement(self):
        # enumerate_all reads every law and c from one tally of the draws at
        # which each color's c-th ball appears; this walks each draw order
        for N in range(2, 10):
            for m in range(1, N):
                got = enumerate_all(N, m)
                cs = range(1, min(m, N - m) + 1)
                assert set(got) == {(d, c) for d in URN_DISTS for c in cs}
                for (dist, c), pmf_ in got.items():
                    counts = {}
                    for positions in itertools.combinations(range(N), m):
                        seq = [1 if i in positions else 0 for i in range(N)]
                        y = _walk_stop(dist, seq, c)
                        counts[y] = counts.get(y, 0) + 1
                    total = math.comb(N, m)
                    want = {y: Fraction(k, total) for y, k in sorted(counts.items())}
                    assert pmf_ == want, (dist, N, m, c)
                    assert list(pmf_) == list(want)


class TestExactMatchesEnumeration:
    """exact_pmf must agree with counting draw orders, ratio for ratio."""

    @pytest.mark.parametrize("dist", URN_DISTS)
    def test_small_populations(self, dist):
        for N, m in oracles.valid_urns(9):
            refs = enumerate_all(N, m)
            for c in range(1, min(m, N - m) + 1):
                params = UrnParams(N, m, c)
                ref = refs[dist, c]
                assert sum(ref.values()) == 1
                for y in support(dist, params):
                    assert exact_pmf(dist, params, y) == ref.get(y, Fraction(0))


class TestExactMatchesClosedForms:
    @pytest.mark.parametrize("dist", URN_DISTS)
    def test_independent_formulas(self, dist):
        ref = _REF[dist]
        for N, m, c in oracles.valid_triples(14):
            params = UrnParams(N, m, c)
            for y in support(dist, params):
                assert exact_pmf(dist, params, y) == ref(N, m, c, y)


class TestFloatMatchesExact:
    @pytest.mark.parametrize("dist", URN_DISTS)
    @pytest.mark.parametrize("triple", [(30, 12, 5), (40, 20, 10), (25, 18, 7)])
    def test_log_space_path(self, dist, triple):
        params = UrnParams(*triple)
        for y in support(dist, params):
            got = pmf(dist, params, y)
            want = float(exact_pmf(dist, params, y))
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("dist", URN_DISTS)
    def test_zero_outside_support(self, dist):
        params = UrnParams(12, 7, 3)
        top = support(dist, params)[-1]
        assert pmf(dist, params, -1) == 0.0
        assert pmf(dist, params, top + 1) == 0.0
        assert exact_pmf(dist, params, -1) == 0
        assert exact_pmf(dist, params, top + 1) == 0


class TestBernoulliPmfs:
    @pytest.mark.parametrize("c", [1, 2, 5])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.77])
    def test_against_direct_formulas(self, c, p):
        params = BernoulliParams(c, p)
        for y in range(26):
            assert pmf(Dist.NB, params, y) == pytest.approx(
                oracles.nb_ref(c, p, y), rel=1e-11, abs=1e-300
            )
            assert pmf(Dist.MAXNB, params, y) == pytest.approx(
                oracles.maxnb_ref(c, p, y), rel=1e-11, abs=1e-300
            )
            assert pmf(Dist.MINNB, params, y) == pytest.approx(
                oracles.minnb_ref(c, p, y), rel=1e-11, abs=1e-300
            )

    def test_minnb_support_ends_at_c(self):
        params = BernoulliParams(4, 0.3)
        assert pmf(Dist.MINNB, params, 3) > 0.0
        assert pmf(Dist.MINNB, params, 4) == 0.0


class TestNormalization:
    @pytest.mark.parametrize("dist", URN_DISTS)
    @given(params=urn_params())
    @settings(deadline=None, max_examples=60)
    def test_urn_tables_sum_to_one(self, dist, params):
        table = pmf_table(dist, params)
        assert math.fsum(table.probs) == pytest.approx(1.0, abs=1e-10)

    @given(
        c=st.integers(min_value=1, max_value=8),
        p=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(deadline=None, max_examples=40)
    def test_bernoulli_tables_capture_the_mass(self, c, p):
        for dist in (Dist.NB, Dist.MAXNB, Dist.MINNB):
            table = pmf_table(dist, BernoulliParams(c, p))
            assert math.fsum(table.probs) == pytest.approx(1.0, abs=1e-10)


class TestSymmetry:
    """Extremum laws cannot tell the two colors apart."""

    @pytest.mark.parametrize("dist", [Dist.MAXNH, Dist.MINNH])
    @given(params=urn_params())
    @settings(deadline=None, max_examples=60)
    def test_m_flip(self, dist, params):
        flipped = UrnParams(params.N, params.N - params.m, params.c)
        for y in support(dist, params):
            assert exact_pmf(dist, params, y) == exact_pmf(dist, flipped, y)

    @pytest.mark.parametrize("dist", [Dist.MAXNH, Dist.MINNH])
    @given(params=urn_params(n_max=400))
    @settings(deadline=None, max_examples=60)
    def test_m_flip_tables_are_bit_identical(self, dist, params):
        # The table's two terms trade places, and float addition commutes.
        flipped = UrnParams(params.N, params.N - params.m, params.c)
        assert pmf_table(dist, params).probs == pmf_table(dist, flipped).probs

    @pytest.mark.parametrize("parity", [0, 1])
    @given(data=st.data())
    @settings(deadline=None, max_examples=40)
    def test_maxnh_m_flip_bit_identical_to_large_n(self, parity, data):
        # unimodal_m_range reads m <= N/2 only, on the strength of this
        N = 2 * data.draw(st.integers(min_value=1, max_value=4999)) + parity
        m = data.draw(st.integers(min_value=1, max_value=N - 1))
        c = data.draw(st.integers(min_value=1, max_value=min(m, N - m)))
        a = pmf_table(Dist.MAXNH, UrnParams(N, m, c)).probs
        b = pmf_table(Dist.MAXNH, UrnParams(N, N - m, c)).probs
        assert [x.hex() for x in a] == [x.hex() for x in b]


class TestClosedFormCorners:
    def test_single_ball_of_each_color_needed(self):
        # c = m = 1: one marked ball, stop on its first appearance.
        for N in range(2, 30):
            params = UrnParams(N, 1, 1)
            assert exact_pmf(Dist.MAXNH, params, 0) == Fraction(2, N)
            for y in support(Dist.NH, params):
                assert exact_pmf(Dist.NH, params, y) == Fraction(1, N)

    def test_near_balanced_two_point_law(self):
        # c = m, N = 2m + 1: only y = 0 or y = 1 can happen.
        for m in range(1, 16):
            params = UrnParams(2 * m + 1, m, m)
            assert support(Dist.MAXNH, params) == range(0, 2)
            assert exact_pmf(Dist.MAXNH, params, 0) == Fraction(m + 1, 2 * m + 1)
            assert exact_pmf(Dist.MAXNH, params, 1) == Fraction(m, 2 * m + 1)

    def test_balanced_degenerate_point_mass(self):
        for m in range(1, 12):
            params = UrnParams(2 * m, m, m)
            assert support(Dist.MAXNH, params) == range(0, 1)
            assert exact_pmf(Dist.MAXNH, params, 0) == 1

    def test_p0_shortcut_at_a_million(self):
        params = UrnParams(10**6, 4 * 10**5, 50)
        want = exact_pmf(Dist.MAXNH, params, 0)
        assert abs(Fraction(maxnh_p0(params)) - want) <= want / 10**14

    def test_p0_shortcut_matches_pmf(self):
        for N, m, c in [(15, 6, 3), (30, 11, 4), (50, 25, 20), (41, 13, 9)]:
            params = UrnParams(N, m, c)
            assert maxnh_p0(params) == pytest.approx(
                pmf(Dist.MAXNH, params, 0), rel=1e-12
            )


class TestDualMaxnhForms:
    def test_product_and_binomial_paths_agree(self):
        # Two algebraically equal expressions, entirely different float
        # pipelines (hypergeometric terms against lgamma binomials); they
        # must track each other to full precision on every admissible
        # parameter set up to N = 40.
        for N, m, c in oracles.valid_triples(40):
            params = UrnParams(N, m, c)
            for y in support(Dist.MAXNH, params):
                a = pmf(Dist.MAXNH, params, y)
                b = _maxnh_pmf_binom(params, y)
                assert abs(a - b) <= 1e-12


class TestSupportAndTables:
    def test_closed_form_supports(self):
        params = UrnParams(20, 8, 3)
        assert support(Dist.NH, params) == range(0, 13)
        assert support(Dist.MINNH, params) == range(0, 3)
        assert support(Dist.MAXNH, params) == range(0, 10)

    def test_truncation_marker(self):
        t = pmf_table(Dist.NB, BernoulliParams(2, 0.4))
        assert t.truncation == t.ys[-1]
        assert 1.0 - math.fsum(t.probs) < 1e-11
        t = pmf_table(Dist.MAXNH, UrnParams(15, 6, 3))
        assert t.truncation is None

    def test_table_matches_pointwise_pmf(self):
        # Tables and pointwise values are each held to the exact rationals:
        # the table rows within a few ulp, every pointwise value up to
        # N = 40 within 1e-13 relative (its worst there is 8e-15).
        params = UrnParams(15, 6, 3)
        t = pmf_table(Dist.MAXNH, params)
        assert t.ys == list(range(7))
        for y, p in zip(t.ys, t.probs):
            want = float(exact_pmf(Dist.MAXNH, params, y))
            assert abs(p - want) <= 2 * math.ulp(want), y
        for N, m, c in oracles.valid_triples(40):
            params = UrnParams(N, m, c)
            for dist in URN_DISTS:
                t = pmf_table(dist, params)
                for y, p in zip(t.ys, t.probs):
                    q = pmf(dist, params, y)
                    want = float(exact_pmf(dist, params, y))
                    assert abs(q - want) <= 1e-13 * want, (dist, params, y)
                    assert abs(p - q) <= 1e-13 * q, (dist, params, y)

    def test_open_support_is_the_table_range(self):
        params = BernoulliParams(4, 0.3)
        for dist in (Dist.NB, Dist.MAXNB):
            assert support(dist, params) == range(len(pmf_table(dist, params).ys))

    @pytest.mark.parametrize("dist", [Dist.NB, Dist.MAXNB])
    @pytest.mark.parametrize("c, p", [(1, 0.9), (5, 0.3), (40, 0.5), (7, 0.125)])
    def test_truncation_rule(self, dist, c, p):
        # The last row lies past the mode, and the exact mass beyond it is
        # below TAIL_EPS.
        ref = oracles.nb_ref if dist is Dist.NB else oracles.maxnb_ref
        t = pmf_table(dist, BernoulliParams(c, p))
        last = t.ys[-1]
        assert ref(c, p, last + 1) < ref(c, p, last)
        assert 1.0 - math.fsum(ref(c, p, y) for y in t.ys) < TAIL_EPS

    @pytest.mark.parametrize("c, p", [(2000, 0.999), (5, 0.9999999)])
    def test_high_p_nb_tables_are_short(self, c, p):
        # nb walks only its 1-p term, so the row cap looks at 1-p alone
        params = BernoulliParams(c, p)
        t = pmf_table(Dist.NB, params)
        assert support(Dist.NB, params) == range(len(t.ys))
        assert math.fsum(t.probs) == pytest.approx(1.0, abs=1e-10)
        for y in bulk_rows(t.probs):
            assert t.probs[y] == pytest.approx(oracles.nb_ref(c, p, y), rel=1e-11), y

    def test_row_cap_raises_quickly(self):
        start = time.perf_counter()
        for dist in (Dist.NB, Dist.MAXNB):
            with pytest.raises(DomainError, match="1000000 rows"):
                pmf_table(dist, BernoulliParams(5000, 1e-7))
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "dist, c, p",
        [(Dist.MAXNB, 1, 1 - 2**-53), (Dist.NB, 1, 1e-7), (Dist.NB, 2, 1e-5),
         (Dist.MAXNB, 1, 2e-5)],
    )
    def test_long_tail_refused_up_front(self, dist, c, p):
        # The largest term peaks inside the cap, but its geometric tail,
        # about ln(1/TAIL_EPS)/(1-g) rows, reaches past it. Walking the 10**6
        # rows before refusing takes over a second.
        start = time.perf_counter()
        with pytest.raises(DomainError, match="1000000 rows"):
            pmf_table(dist, BernoulliParams(c, p))
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "dist, params",
        [
            (Dist.MAXNH, UrnParams(2**64, 2**63, 1)),
            (Dist.NH, UrnParams(2**61, 2**60, 1)),
            (Dist.MINNH, UrnParams(2**64, 2**63, 2**62)),
            (Dist.MINNB, BernoulliParams(10**12, 0.5)),
            (Dist.NH, UrnParams(10**6 + 1, 1, 1)),
        ],
    )
    def test_finite_row_cap_refused_up_front(self, dist, params):
        # The first four would overflow an index or run out of memory
        # building their rows.
        with pytest.raises(DomainError, match="1000000 rows"):
            pmf_table(dist, params)

    def test_finite_table_at_the_row_cap(self):
        assert len(pmf_table(Dist.NH, UrnParams(10**6, 1, 1)).ys) == 10**6

    @pytest.mark.parametrize(
        "dist, params",
        [
            (Dist.NB, BernoulliParams(3, 0.4)),
            (Dist.MAXNB, BernoulliParams(3, 0.4)),
            (Dist.MINNB, BernoulliParams(5, 0.3)),
            (Dist.NH, UrnParams(40, 15, 4)),
            (Dist.MAXNH, UrnParams(40, 15, 4)),
            (Dist.MINNH, UrnParams(40, 15, 4)),
        ],
    )
    def test_ys_is_derived_from_probs(self, dist, params):
        for t in (pmf_table(dist, params), empirical_pmf(dist, params, SimConfig(3, 200))):
            ys = t.ys
            assert ys == list(range(len(t.probs)))
            ys[0] = -1
            ys.append(len(ys))
            assert t.ys == list(range(len(t.probs)))
        assert len(pmf_table(dist, params).probs) == len(support(dist, params))

    @pytest.mark.parametrize(
        "dist, params",
        [(Dist.NH, UrnParams(10**5, 9 * 10**4, 50)), (Dist.MAXNH, UrnParams(10**5, 4 * 10**4, 50))],
    )
    def test_rows_past_the_walk_are_zero(self, dist, params):
        # the walk ends where its terms have underflowed, and the table pads
        # the rest of the support with 0.0
        t = pmf_table(dist, params)
        walked = len(distributions._finite_weights(dist, params))
        assert walked < len(t.probs) == len(support(dist, params))
        assert not any(t.probs[walked:])

    def test_table_near_the_row_cap_holds_only_its_mass(self):
        # 999 991 rows, about 2000 of them walked: the rest are one shared
        # 0.0, so the table holds little more than its list of 8-byte slots
        tracemalloc.start()
        try:
            t = pmf_table(Dist.MAXNH, UrnParams(1_200_000, 200_000, 10))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(t.probs) == 999_991
        assert held < 10**7

    def test_tail_rows_is_a_lower_bound(self):
        # Every table takes at least _tail_rows rows, so the up-front test
        # refuses no shape whose walk would end inside the cap. For nb at
        # c = 1 every ratio is 1-p, and the bound is within one row (less the
        # slack of 1e-6 in its log).
        for dist in (Dist.NB, Dist.MAXNB):
            for c in (1, 2, 3, 5, 10, 30, 200):
                for p in (0.5, 0.25, 0.01, 1e-3, 1 - 1e-3, 0.999999, 1 - 2**-40):
                    params = BernoulliParams(c, p)
                    try:
                        rows = len(pmf_table(dist, params).ys)
                    except DomainError:
                        continue
                    bound = distributions._tail_rows(dist, params)
                    assert bound <= rows, (dist, c, p)
                    if dist is Dist.NB and c == 1:
                        assert bound > rows - 1.001, p

    def test_maxnh_tables_meet_the_binomial_form(self):
        # Rows 0, the mode and the last row of maxnh tables are within 1e-12
        # relative plus 4 ulp of ln N! of the binomial form, evaluated from
        # lgamma (one ulp of that log alone exceeds 1e-12 once N reaches the
        # thousands).
        big = [(100_000, 40_000, 50), (100_000, 50_000, 300), (200_000, 80_000, 100),
               (3000, 1200, 1)]
        for triple in [*oracles.valid_triples(40), *big]:
            params = UrnParams(*triple)
            probs = pmf_table(Dist.MAXNH, params).probs
            slack = 1e-12 + 4 * math.ulp(1.0) * math.lgamma(params.N + 1)
            for y in {0, probs.index(max(probs)), len(probs) - 1}:
                alt = _maxnh_pmf_binom(params, y)
                assert abs(probs[y] - alt) <= slack * max(probs[y], alt, 1e-300), (
                    params,
                    y,
                )

    @pytest.mark.parametrize(
        "triple", [(100_000, 50_000, 300), (200_000, 80_000, 100), (3000, 1200, 1)]
    )
    def test_maxnh_cross_check_reference_keeps_pointwise_slack(self, triple):
        # The lgamma reference stays within that slack of the exact pmf, so
        # accurate tables meet it; the cumulative log-factorial table would
        # drift 3.4e-9 off at (1e5, 5e4, 300), beyond that slack.
        params = UrnParams(*triple)
        N = params.N
        slack = 1e-12 + 4 * math.ulp(1.0) * math.lgamma(N + 1)
        t = pmf_table(Dist.MAXNH, params)
        for y in bulk_rows(t.probs):
            want = exact_pmf(Dist.MAXNH, params, y)
            got = Fraction(distributions._maxnh_pmf_binom(params, y))
            assert abs(got - want) <= slack * want, y


# The row count, the truncation row and the sha256 of probs as little-endian
# doubles, for shapes that reach every branch of the table walks: a change in
# how tables are built must not move a bit of them.
_PINNED_TABLES = [
    (Dist.NH, UrnParams(250, 60, 10), 191, None,
     "7d0f795abf894ef045f36cdf7ad68e608eba1f7e79636cc9ae384f60928788be"),
    (Dist.NH, UrnParams(100_000, 90_000, 50), 10001, None,
     "b035a17a3abdb123f8d67133eaa8e77220b430352aa00ebf2235071020e6271f"),
    (Dist.MINNH, UrnParams(250, 200, 30), 30, None,
     "1aa402c14f3315758d53cad56cf6bbb4c9a0712325b184458afb8d3867114773"),
    (Dist.MAXNH, UrnParams(250, 60, 10), 181, None,
     "356b236a787a2a563ef7f7d94643eecfd043f3203bbb6b56ff720a5b5315add6"),
    # rows start near 1e-114
    (Dist.MAXNH, UrnParams(2265, 144, 126), 1996, None,
     "8b2ccf07e4422601ff080ed9771e7c7f2b332e8354434fe88a6d583bd0ea0f0b"),
    # 58214 of the rows are 0.0
    (Dist.MAXNH, UrnParams(100_000, 40_000, 50), 59951, None,
     "e95bbea7268c031f5636f35aa35c55e3d3e7e643e65551466e5d9882c1186935"),
    (Dist.NB, BernoulliParams(50, 0.3), 305, 304,
     "f13956397a215b2fa0b7b9d33b23ecf523a917913ef295e2e0cb935d0dc64ee2"),
    (Dist.NB, BernoulliParams(5, 1 - 2**-53), 1, 0,
     "f0e3d350c0b30b3550e646576d0b95d2980125bcc5a77ac9adf5a79634b2f2f5"),
    (Dist.MAXNB, BernoulliParams(50, 0.25), 333, 332,
     "e6a3eba79c0b5d6e18547c7c42bda32501289621561942661140bf22fdbbff42"),
    (Dist.MAXNB, BernoulliParams(3, 1 - 2**-10), 34851, 34850,
     "66fe0ba48884786a412ff814bb14519a64ae750f057809447f441ed34df4b90d"),
    (Dist.MINNB, BernoulliParams(50, 0.4), 50, None,
     "be249520dc17673beddb5a041d59b8cdf4d93f27cdc8ea88cdc0103a59a182ca"),
    (Dist.MINNB, BernoulliParams(20, 5e-324), 20, None,
     "6c602861d0658aa1cf523200dceb999e2b82c65468fb7ea6f56c44ac1152e69c"),
    (Dist.MINNB, BernoulliParams(40, 1e-310), 40, None,
     "b005e4b689b0326c276711ccaef28239ade346c926a1ab0e46bd2fd3dc5bcf4c"),
    (Dist.MINNB, BernoulliParams(20, 1 - 2**-53), 20, None,
     "0d2013061871c219d12c5f6e7213ba7a1f2386dc1a8359bc0870d8a1e87e004a"),
]


@pytest.mark.parametrize("dist, params, n, trunc, digest", _PINNED_TABLES)
def test_table_bits_are_pinned(dist, params, n, trunc, digest):
    t = pmf_table(dist, params)
    packed = struct.pack(f"<{len(t.probs)}d", *t.probs)
    assert (len(t.probs), t.truncation) == (n, trunc)
    assert hashlib.sha256(packed).hexdigest() == digest


class TestTableAccuracy:
    """pmf_table and the pointwise pmfs against exact values at sizes the
    small-N suites never reach."""

    @pytest.mark.parametrize("dist", URN_DISTS)
    @pytest.mark.parametrize("N", [10**3, 10**4, 10**5, 10**6])
    def test_urn_pointwise_in_the_bulk(self, dist, N):
        params = UrnParams(N, 2 * N // 5, 50)
        t = pmf_table(dist, params)
        for y in bulk_rows(t.probs):
            want = exact_pmf(dist, params, y)
            assert abs(Fraction(pmf(dist, params, y)) - want) <= want / 10**13, y

    @pytest.mark.parametrize(
        "dist, triple",
        [
            (Dist.MAXNH, (100_000, 40_000, 50)),
            (Dist.NH, (100_000, 90_000, 50)),
            (Dist.MAXNH, (10_000, 6049, 50)),
            (Dist.MINNH, (250, 200, 30)),
        ],
    )
    def test_urn_tables_in_the_bulk(self, dist, triple):
        params = UrnParams(*triple)
        t = pmf_table(dist, params)
        for y in bulk_rows(t.probs):
            want = exact_pmf(dist, params, y)
            assert abs(Fraction(t.probs[y]) - want) <= want / 10**13, y

    @pytest.mark.parametrize("c", [5, 50, 2000])
    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_bernoulli_tables_in_the_bulk(self, c, p):
        params = BernoulliParams(c, p)
        for dist, ref in (
            (Dist.NB, oracles.nb_ref),
            (Dist.MAXNB, oracles.maxnb_ref),
            (Dist.MINNB, oracles.minnb_ref),
        ):
            t = pmf_table(dist, params)
            for y in bulk_rows(t.probs):
                want = ref(c, p, y)
                assert t.probs[y] == pytest.approx(want, rel=1e-11), (dist, y)
                assert pmf(dist, params, y) == pytest.approx(want, rel=1e-13), (dist, y)

    @pytest.mark.parametrize("p", [5e-324, 1e-309, 3e-309, 2.2e-308])
    @pytest.mark.parametrize("c", [1, 2, 5, 40])
    def test_minnb_table_at_subnormal_p(self, c, p):
        # the ratio 1/p of the p^y q^c term passes the float range below
        # about 5.6e-309; rows under 2**-1022 are not held to a relative bound
        t = pmf_table(Dist.MINNB, BernoulliParams(c, p))
        assert t.ys == list(range(c))
        for y, got in zip(t.ys, t.probs):
            want = oracles.minnb_ref(c, p, y)
            if want > 2.0**-1022:
                assert got == pytest.approx(want, rel=1e-12), y
            else:
                assert got <= 2.0**-1022, y


class TestCdfQuantileMean:
    def test_cdf_prefix(self):
        t = pmf_table(Dist.MAXNH, UrnParams(15, 6, 3))
        want = [
            0.335664336,
            0.587412587,
            0.763636364,
            0.881118881,
            0.953046953,
            0.989010989,
            1.0,
        ]
        for y, w in enumerate(want):
            assert cdf(t, y) == pytest.approx(w, abs=5e-10)
        assert cdf(t, -1) == 0.0
        assert cdf(t, 99) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_rejects_non_integer_y(self):
        # as in pmf: no TypeError from the index, True is not 1, and -0.5
        # is not a point below the support
        t = pmf_table(Dist.MAXNH, UrnParams(15, 6, 3))
        for y in (2.5, math.nan, True, -0.5):
            with pytest.raises(ParameterError):
                cdf(t, y)

    def test_cdf_is_the_correctly_rounded_prefix_sum(self):
        for dist, params in (
            (Dist.MAXNH, UrnParams(250, 100, 10)),
            (Dist.NH, UrnParams(40, 9, 3)),
            (Dist.NB, BernoulliParams(5, 0.3)),
            (Dist.MAXNB, BernoulliParams(3, 0.4)),
        ):
            t = pmf_table(dist, params)
            for y in t.ys:
                assert cdf(t, y) == math.fsum(t.probs[: y + 1])
            assert cdf(t, len(t.ys) + 5) == math.fsum(t.probs)

    def test_zero_rows_repeat_the_prefix_sum(self):
        # 209 of the 981 rows underflow to 0.0, from row 772 on
        t = pmf_table(Dist.MAXNH, UrnParams(2000, 1000, 20))
        first_zero = t.probs.index(0.0)
        assert all(p == 0.0 for p in t.probs[first_zero:])
        for y in (first_zero - 1, first_zero, first_zero + 100, t.ys[-1]):
            assert cdf(t, y) == math.fsum(t.probs[: y + 1])
        assert set(t._cum[first_zero - 1 :]) == {t._cum[first_zero - 1]}

    def test_quantile_is_the_first_row_reaching_u(self):
        t = pmf_table(Dist.NB, BernoulliParams(5, 0.3))
        levels = [cdf(t, y) for y in t.ys] + [0.0, 1e-300, 0.37, 1.0]
        for u in levels:
            want = next((y for y in t.ys if cdf(t, y) >= u), t.ys[-1])
            assert quantile(t, u) == want

    def test_quantile(self):
        t = pmf_table(Dist.MAXNH, UrnParams(15, 6, 3))
        assert quantile(t, 0.5) == 1
        assert quantile(t, 0.0) == 0
        assert quantile(t, 1.0) == 6
        with pytest.raises(DomainError):
            quantile(t, -0.1)
        with pytest.raises(DomainError):
            quantile(t, 1.1)

    def test_quantile_is_generalized_inverse(self):
        t = pmf_table(Dist.MAXNH, UrnParams(20, 8, 3))
        for u in [0.01, 0.25, 0.5, 0.9, 0.999]:
            y = quantile(t, u)
            assert cdf(t, y) >= u
            if y > 0:
                assert cdf(t, y - 1) < u

    def test_nb_mean_is_c_q_over_p(self):
        for c, p in [(3, 0.5), (2, 0.4), (1, 0.8)]:
            t = pmf_table(Dist.NB, BernoulliParams(c, p))
            assert mean(t) == pytest.approx(c * (1 - p) / p, rel=1e-9)

    def test_nh_mean_matches_enumeration(self):
        params = UrnParams(9, 4, 2)
        ref = enumerate_all(9, 4)[Dist.NH, 2]
        want = float(sum(Fraction(y) * p for y, p in ref.items()))
        assert mean(pmf_table(Dist.NH, params)) == pytest.approx(want, abs=1e-12)


class TestFrozenValues:
    def test_maxnh_spot_value(self):
        assert pmf(Dist.MAXNH, UrnParams(50, 25, 20), 0) == pytest.approx(
            0.274797553, abs=5e-10
        )

    def test_p0_rational(self):
        assert exact_pmf(Dist.MAXNH, UrnParams(15, 6, 3), 0) == Fraction(48, 143)
