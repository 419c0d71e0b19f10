"""Input checks at the public edge (README, "Input checks").

A law or an approximation kind may be given as its enum member or as the
member's value, with bit-identical results; anything else raises
ParameterError. Every exported function either returns or raises
ParameterError/DomainError, whatever its arguments: the property test at
the end draws them from ints, bools, floats (nan and inf included), None,
strings and small valid objects.
"""

import math
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import urnwait
from urnwait import (
    ApproxKind,
    BernoulliParams,
    Dist,
    DomainError,
    ParameterError,
    SimConfig,
    UrnParams,
    Xoshiro256StarStar,
    approx_spec,
    bernoulli_scheme,
    convergence_sweep,
    empirical_pmf,
    exact_pmf,
    iter_outcomes,
    pmf,
    pmf_table,
    profile,
    support,
)

URN = (Dist.NH, Dist.MINNH, Dist.MAXNH)
BERNOULLI = (Dist.NB, Dist.MAXNB, Dist.MINNB)
SHAPES = {
    **{d: UrnParams(15, 9, 3) for d in URN},
    **{d: BernoulliParams(3, 0.25) for d in BERNOULLI},
}


def _stream(law, params):
    return list(iter_outcomes(law, params, SimConfig(1, 40)))


# Each public function that takes a law, as (law, params) -> result.
LAW_CALLS = {
    "pmf": lambda d, p: [pmf(d, p, y) for y in range(-1, 12)],
    "support": support,
    "pmf_table": pmf_table,
    "exact_pmf": lambda d, p: [exact_pmf(d, p, y) for y in range(-1, 12)],
    "empirical_pmf": lambda d, p: empirical_pmf(d, p, SimConfig(1, 40)),
    "iter_outcomes": _stream,
    "bernoulli_scheme": lambda d, p: [bernoulli_scheme(p, d, s) for s in range(8)],
}
TAKES = {"exact_pmf": URN, "bernoulli_scheme": BERNOULLI}


def _cases():
    for name, call in LAW_CALLS.items():
        for law in TAKES.get(name, tuple(Dist)):
            yield pytest.param(call, law, id=f"{name}-{law.value}")


class TestLawNames:
    @pytest.mark.parametrize("call, law", _cases())
    def test_value_gives_the_members_result(self, call, law):
        # PmfTable compares its dist, so a table must hold the member itself
        by_value, by_member = call(law.value, SHAPES[law]), call(law, SHAPES[law])
        assert by_value == by_member
        assert repr(by_value) == repr(by_member)

    @pytest.mark.parametrize("name", LAW_CALLS)
    @pytest.mark.parametrize("bogus", ["bogus", "NB", None, 3, ApproxKind.GAMMA_LIMIT])
    @pytest.mark.parametrize("params", [UrnParams(15, 9, 3), BernoulliParams(3, 0.25)])
    def test_anything_else_raises(self, name, bogus, params):
        with pytest.raises(ParameterError):
            LAW_CALLS[name](bogus, params)

    @pytest.mark.parametrize("law", list(Dist))
    def test_tables_hold_the_member(self, law):
        assert type(pmf_table(law.value, SHAPES[law]).dist) is Dist
        assert type(empirical_pmf(law.value, SHAPES[law], SimConfig(1, 5)).dist) is Dist

    def test_nb_by_value_is_not_maxnb(self):
        table = pmf_table("nb", BernoulliParams(3, 0.25))
        assert len(table.ys) == 118
        assert table.probs[0] == 0.015625  # 0.25**3

    def test_nh_by_value_is_not_minnh(self):
        assert len(pmf_table("nh", UrnParams(15, 9, 3)).ys) == 7
        assert support("nh", UrnParams(15, 9, 3)) == range(7)

    def test_maxnh_stream_by_value(self):
        params, config = UrnParams(15, 9, 3), SimConfig(1, 10)
        want = empirical_pmf(Dist.MAXNH, params, config)
        assert empirical_pmf("maxnh", params, config) == want

    def test_nh_outcomes_by_value(self):
        params = UrnParams(15, 9, 3)
        assert _stream("nh", params) == _stream(Dist.NH, params)

    def test_pmf_by_value(self):
        assert pmf("nb", BernoulliParams(3, 0.25), 0) == 0.015625


class TestRefusals:
    def test_exact_pmf_of_a_bernoulli_law(self):
        with pytest.raises(ParameterError, match="no exact rational pmf"):
            exact_pmf(Dist.NB, BernoulliParams(3, 0.5), 1)

    def test_exact_pmf_by_value(self):
        params = UrnParams(15, 6, 3)
        assert exact_pmf("maxnh", params, 2) == exact_pmf(Dist.MAXNH, params, 2)
        with pytest.raises(ParameterError):
            exact_pmf("minnb", params, 1)

    def test_p_that_is_not_a_number(self):
        with pytest.raises(ParameterError):
            BernoulliParams(3, "0.5")

    @pytest.mark.parametrize("grid", [(0, 1), None, (0, "a", 1)])
    def test_profile_grid_that_is_not_three_numbers(self, grid):
        with pytest.raises(ParameterError):
            profile(20, 3, 5, grid)

    def test_seed_that_is_not_an_int(self):
        with pytest.raises(ParameterError):
            Xoshiro256StarStar(1.5)

    @pytest.mark.parametrize("n", [0, -3, 2**64 + 1, 1.5, True])
    def test_randbelow_outside_one_to_two_to_the_64(self, n):
        rng = Xoshiro256StarStar(1)
        words = iter(range(1000))

        def next_u64():  # a loop that never accepts runs out of words
            return next(words)

        rng.next_u64 = next_u64
        with pytest.raises(ParameterError):
            rng.randbelow(n)

    def test_randbelow_at_two_to_the_64(self):
        rng, ref = Xoshiro256StarStar(9), Xoshiro256StarStar(9)
        assert rng.randbelow(2**64) == ref.next_u64()

    @pytest.mark.parametrize("kind", list(ApproxKind))
    def test_approx_spec_by_value(self, kind):
        params = UrnParams(400, 300, 20)
        assert approx_spec(kind.value, params) == approx_spec(kind, params)
        assert approx_spec(kind.value, params).kind is kind

    @pytest.mark.parametrize("kind", ["gamma", "NORMAL_LIMIT", None, Dist.MAXNB])
    def test_approx_spec_of_another_kind(self, kind):
        with pytest.raises(ParameterError):
            approx_spec(kind, UrnParams(400, 300, 20))

    def test_convergence_sweep_by_value(self):
        def regime(n):
            return UrnParams(n, n // 4, 2)

        for kind in ApproxKind:
            if kind is ApproxKind.HALFNORMAL_LIMIT:
                continue
            want = convergence_sweep(kind, regime, [40, 80])
            assert convergence_sweep(kind.value, regime, [40, 80]) == want
        with pytest.raises(ParameterError):
            convergence_sweep("gamma", regime, [40])

    # An int that float arithmetic reads must be exact as a float, at most
    # 2**53 in size. These raised OverflowError from inside the arithmetic.
    HUGE = 2**1024

    @pytest.mark.parametrize(
        "call",
        [
            lambda h: urnwait.mle(h, 1, 1),
            lambda h: urnwait.loglik_kernel(h, 2**1030, 1, 1),
            lambda h: pmf(Dist.MAXNH, UrnParams(h, h // 2, 1), 1),
            lambda h: urnwait.gamma_approx_density(UrnParams(h, h // 2, 1), 1),
            lambda h: profile(20, 3, 5, (3, h, 1)),
            lambda h: urnwait.nb_pmf(BernoulliParams(h, 0.5), 1),
            lambda h: pmf_table("nb", BernoulliParams(h, 0.5)),
            lambda h: bernoulli_scheme(BernoulliParams(h, 0.5), "nb", 1),
            lambda h: urnwait.halfnormal_approx_density(h, 1),
        ],
        ids=[
            "mle",
            "loglik_kernel",
            "pmf",
            "gamma_approx_density",
            "profile",
            "nb_pmf",
            "pmf_table",
            "bernoulli_scheme",
            "halfnormal_approx_density",
        ],
    )
    def test_an_int_too_large_for_a_float(self, call):
        with pytest.raises(ParameterError, match="2\\*\\*53"):
            call(self.HUGE)

    def test_the_largest_exact_int_is_taken(self):
        # N = 2**53 is exact, and so are N/2 and every m
        assert urnwait.mle(2**53, 1, 1) == {2.0**52}
        assert pmf(Dist.MAXNH, UrnParams(2**53, 2**52, 1), 1) == pytest.approx(0.25)
        with pytest.raises(ParameterError):
            urnwait.mle(2**53 + 2, 1, 1)

    def test_the_simulator_takes_any_urn(self):
        # UrnParams has no size rule: the simulator draws in ints
        outcome = urnwait.draw_until_both(UrnParams(self.HUGE, self.HUGE // 2, 2), 1)
        assert outcome.y >= 0


# ---------------------------------------------------------------------------
# Property test of the public surface
# ---------------------------------------------------------------------------

SCALARS = st.one_of(
    st.integers(min_value=-80, max_value=80),
    st.booleans(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5]),
    st.none(),
    st.text("abehilmnoprtxABHMN_0123456789.-+e ∞é\x00", max_size=8),
    st.sampled_from([d.value for d in Dist] + [k.value for k in ApproxKind]),
)


@st.composite
def urns(draw):
    N = draw(st.integers(min_value=2, max_value=60))
    c = draw(st.integers(min_value=1, max_value=N // 2))
    return UrnParams(N, draw(st.integers(min_value=c, max_value=N - c)), c)


@st.composite
def shapes(draw):
    """(N, c, y) that mle takes."""
    N = draw(st.integers(min_value=2, max_value=60))
    c = draw(st.integers(min_value=1, max_value=N // 2))
    return N, c, draw(st.integers(min_value=0, max_value=N - 2 * c))


berns = st.builds(
    BernoulliParams, st.integers(min_value=1, max_value=8), st.floats(0.02, 0.98)
)
urn_laws = st.tuples(st.sampled_from(URN), urns())
bern_laws = st.tuples(st.sampled_from(BERNOULLI), berns)
law_params = st.one_of(urn_laws, bern_laws)
tables = law_params.map(lambda a: pmf_table(*a))
laws, kinds = st.sampled_from(list(Dist)), st.sampled_from(list(ApproxKind))
ints = st.integers(min_value=-2, max_value=70)
configs = st.builds(SimConfig, st.integers(0, 2**64 - 1), st.integers(1, 20))
grids = st.tuples(st.integers(0, 60), st.integers(0, 60), st.sampled_from([0.25, 1.0, 7.5]))


def _regime(n):
    return UrnParams(n, n // 3, 2)


# (N, c) on unimodal_m_range's verdict path at large N and any c, where
# each verdict walks only up to the row past which no row rises.
large_bands = st.integers(10**5, 10**8).flatmap(
    lambda N: st.tuples(st.just(N), st.integers(1, N // 2 - 1))
)


@st.composite
def _swap_one(draw, valid):
    """A valid argument tuple with at most one argument drawn from SCALARS
    instead."""
    args = list(draw(valid))
    i = draw(st.integers(min_value=-1, max_value=len(args) - 1))
    if i >= 0:
        args[i] = draw(SCALARS)
    return args


def calls(*good, valid=None):
    """Argument lists: each argument drawn from SCALARS or from good, or,
    where valid draws whole valid argument tuples, one of those with at
    most one argument swapped for a scalar."""
    each = st.tuples(*(st.one_of(SCALARS, g) for g in good))
    if valid is None:
        return each
    return st.one_of(each, _swap_one(valid))


def _append(valid, *more):
    return st.tuples(valid, *more).map(lambda t: (*t[0], *t[1:]))


@st.composite
def likelihood_args(draw):
    N, c, y = draw(shapes())
    return draw(st.floats(0.0, N)), N, c, y


URN_ARGS = calls(urns(), ints, valid=st.tuples(urns(), ints))
BERN_ARGS = calls(berns, ints, valid=st.tuples(berns, ints))
SHAPE_ARGS = calls(ints, ints, ints, valid=shapes())
LIKELIHOOD_ARGS = calls(
    st.one_of(ints, st.floats(0.0, 70.0)), ints, ints, ints, valid=likelihood_args()
)

# Every exported name, and for each function and input constructor the
# argument lists to call it with.
SURFACE = {
    "ApproxSpec": None,
    "ApproxKind": None,
    "Classification": None,
    "Color": None,
    "CriticalPointReport": None,
    "Dist": None,
    "DomainError": None,
    "DrawOutcome": None,
    "LikelihoodProfile": None,
    "ModeReport": None,
    "ParameterError": None,
    "PmfTable": None,
    "BernoulliParams": calls(ints, st.floats(0.0, 1.0)),
    "UrnParams": calls(ints, ints, ints),
    "SimConfig": calls(st.integers(0, 2**64 - 1), ints),
    "Xoshiro256StarStar": calls(st.integers()),
    "approx_spec": calls(kinds, urns()),
    "bernoulli_scheme": calls(
        berns, laws, ints, valid=st.tuples(berns, st.sampled_from(BERNOULLI), ints)
    ),
    "cdf": calls(tables, ints),
    "classify_critical_point": SHAPE_ARGS,
    "convergence_sweep": calls(
        kinds, st.just(_regime), st.lists(st.one_of(SCALARS, st.integers(6, 60)), max_size=3)
    ),
    "draw_until_both": URN_ARGS,
    "draw_until_c_successes": URN_ARGS,
    "draw_until_either": URN_ARGS,
    "empirical_pmf": calls(laws, urns(), configs, valid=_append(law_params, configs)),
    "exact_pmf": calls(laws, urns(), ints, valid=_append(urn_laws, ints)),
    "gamma_approx_density": URN_ARGS,
    "halfnormal_approx_density": calls(ints, ints),
    "iter_outcomes": calls(laws, berns, configs, valid=_append(law_params, configs)),
    "local_modes": calls(tables),
    "loglik_grad": LIKELIHOOD_ARGS,
    "loglik_hess": LIKELIHOOD_ARGS,
    "loglik_kernel": LIKELIHOOD_ARGS,
    "maxnb_limit": calls(urns()),
    "maxnb_pmf": BERN_ARGS,
    "maxnh_p0": calls(urns()),
    "maxnh_pmf": URN_ARGS,
    "mean": calls(tables),
    "minnb_pmf": BERN_ARGS,
    "minnh_pmf": URN_ARGS,
    "mle": SHAPE_ARGS,
    "nb_pmf": BERN_ARGS,
    "nh_pmf": URN_ARGS,
    "normal_approx_params": calls(urns()),
    "p0_p1_ratio": calls(urns()),
    "phi": SHAPE_ARGS,
    "pmf": calls(laws, berns, ints, valid=_append(law_params, ints)),
    "pmf_table": calls(laws, urns(), valid=law_params),
    "profile": calls(ints, ints, ints, grids, valid=_append(shapes(), grids)),
    "quantile": calls(tables, st.floats(0.0, 1.0)),
    "support": calls(laws, berns, valid=law_params),
    "tv_distance": calls(tables, tables),
    "unimodal_m_range": calls(
        ints, ints, valid=st.one_of(shapes().map(lambda t: t[:2]), large_bands)
    ),
    "Xoshiro256StarStar.randbelow": calls(st.integers(1, 2**70)),
}
CALLS = {n: getattr(urnwait, n) for n, a in SURFACE.items() if a is not None and "." not in n}
CALLS["Xoshiro256StarStar.randbelow"] = Xoshiro256StarStar(5).randbelow

# The property test, over every name, runs in under this many seconds of
# CPU time. Wall time would count the time other processes take on a
# loaded machine.
BUDGET_S = 5.0
_spent = {}


@pytest.fixture
def timed(request):
    t = time.process_time()
    yield
    _spent[request.node.callspec.params["name"]] = time.process_time() - t


def test_surface_lists_every_export():
    assert {n for n in SURFACE if "." not in n} == set(urnwait.__all__)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_every_input_returns_or_raises_a_stated_error(timed, name, data):
    args = data.draw(SURFACE[name])
    try:
        result = CALLS[name](*args)
        if name == "iter_outcomes":
            list(result)
    except (ParameterError, DomainError):
        pass


# Not summed into BUDGET_S: a verdict at N near 10**8 and large c takes up to
# 0.7 s of CPU, so these 40 take 0.4 to 1.1 s, and the sweep above already
# takes about 4.4 s of its 5 s in a full run of the suite.
@settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
@given(band=large_bands)
def test_unimodal_m_range_at_large_n(band):
    # every valid (N, c) with N >= 10**5, none swapped for a bad argument;
    # the range is closed under m -> N - m, as the law is
    N, c = band
    try:
        intervals = urnwait.unimodal_m_range(N, c)
    except (ParameterError, DomainError):
        return
    for lo, hi in intervals:
        assert c <= lo <= hi <= N - c
    assert intervals == sorted((N - hi, N - lo) for lo, hi in intervals)


def test_the_property_test_fits_its_budget():
    # reads the times of the cases above, which run first in file order
    if len(_spent) < len(CALLS):
        pytest.skip("the property test did not run in full")
    assert sum(_spent.values()) < BUDGET_S
