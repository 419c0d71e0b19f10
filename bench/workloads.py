"""The three workloads: their request lists and the checks on each output.

Each workload is a fixed list of request classes with fixed counts. The seed
picks the free parameters inside each class (m, c, y, simulator seeds) from
sets on which the amount of work is the same, and the order of the whole
list, so every seed does the same work.

Latency percentiles are only steady when they fall well inside one request
class, not on the edge between two classes of different speed. The counts
are set for that: in each workload about 30% of requests are faster than
the median's class, the median's class holds about 40%, and the p99 class
sits just below the few heaviest requests, about 1% from the top. The run
prints the rank span of the class at each percentile so this can be seen.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable

import urnwait as uw
from harness import CliResult, Request, run_cli
from oracles import bernoulli_pmf, loglik_relerr, phi_terms, relerr, tv_bound

SUM_TOL = 1e-8  # |sum of a table - 1|; the seed kernel is 1e-9 off at N=1e5
PMF_RTOL = 1e-7  # pointwise, against exact rationals
LOGLIK_RTOL = 1e-7  # likelihood, against exact rationals
POINTS_PER_TABLE = 16
FAST, HEAVY = 2.0, 60.0  # deadlines in seconds
PROBE_DEADLINE = 0.5

# Figure tolerances of `urnwait selfcheck`.
FIGURE_TOL = {1: 1e-4, 2: 1e-4, 3: 1e-4, 4: 1e-4, 5: 1e-4, 6: 1e-5}
# Published unimodal m ranges (Table 2 of the paper, as in the acceptance tests).
TABLE_2 = {(250, 10): [(90, 160)], (50, 5): [(16, 34)]}

URN = {"nh", "maxnh", "minnh"}


@dataclass
class Workload:
    name: str
    warmup: str  # run after `import urnwait` by every fresh interpreter
    requests: list[Request] = field(default_factory=list)
    worst_relerr: float = 0.0
    classes: dict[str, int] = field(default_factory=dict)

    def note_relerr(self, e: float) -> None:
        self.worst_relerr = max(self.worst_relerr, e)


class RequestList:
    def __init__(self, name: str, seed: int, warmup: str, reduced: bool):
        self.wl = Workload(name, warmup)
        self.rng = random.Random(f"{name}:{seed}")
        self.reduced = reduced

    def add(self, cls: str, count: int, make: Callable[[int], tuple], deadline=FAST,
            full_only=False) -> None:
        """make(i) -> (call, check) for the i-th request of the class."""
        if self.reduced:
            if full_only:
                return
            count = max(1, count // 50)
        for i in range(count):
            call, check = make(i)
            self.wl.requests.append(Request(cls, call, check, deadline))
        self.wl.classes[cls] = count

    def done(self) -> Workload:
        self.rng.shuffle(self.wl.requests)
        return self.wl


def _cycle(options, i):
    return options[i % len(options)]


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------


def _bulk_points(probs: list[float]) -> list[int]:
    """Up to POINTS_PER_TABLE evenly spaced ys across the bulk of the mass,
    plus the mode."""
    cum, lo, hi = 0.0, None, len(probs) - 1
    for y, p in enumerate(probs):
        cum += p
        if lo is None and cum >= 1e-6:
            lo = y
        if cum >= 1 - 1e-6:
            hi = y
            break
    lo = lo or 0
    step = max(1, (hi - lo) // (POINTS_PER_TABLE - 1))
    pts = set(range(lo, hi + 1, step))
    pts.add(max(range(len(probs)), key=probs.__getitem__))
    return sorted(pts)


def _exact(dist: str, params, y: int) -> Fraction:
    if dist in URN:
        return uw.exact_pmf(uw.Dist(dist), params, y)
    return bernoulli_pmf(dist, params.c, params.p, y)


def table_check(dist: str, params, wl: Workload | None = None):
    """A pmf table: contiguous ys, sums to 1, matches exact rationals in the
    bulk. With wl, the worst relative error goes into max_relerr."""

    def check(t) -> str | None:
        if t.dist.value != dist or t.params != params:
            return "table for other parameters"
        if t.ys != list(range(len(t.ys))):
            return "ys not contiguous from 0"
        if (t.truncation is None) != (dist not in ("nb", "maxnb")):
            return "truncation field wrong"
        if not all(0.0 <= p <= 1.0 for p in t.probs):
            return "probability outside [0, 1]"
        total = math.fsum(t.probs)
        if abs(total - 1.0) > SUM_TOL:
            return f"sums to {total!r}"
        worst = max(relerr(t.probs[y], _exact(dist, params, y)) for y in _bulk_points(t.probs))
        if wl is not None:
            wl.note_relerr(worst)
        if worst > PMF_RTOL:
            return f"relative error {worst:.3g}"
        return None

    return check


def _csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _sig9(x: float) -> str:
    return f"{x:.9g}"


def _close9(text: str, want: float) -> bool:
    """Equal to 9 significant digits, as the CLI prints reals."""
    got = float(text)
    return abs(got - want) <= 1e-8 * abs(want) or (want == 0.0 and abs(got) < 1e-300)


def cli_ok(res: CliResult) -> str | None:
    if not isinstance(res, CliResult):
        return "not a CLI result"
    if res.code != 0:
        return f"exit {res.code}: {res.err.strip()[:200]}"
    return None


def figure_check(which: int):
    golden_text = (
        resources.files("urnwait").joinpath(f"golden/fig{which}.csv").read_text("utf-8")
    )
    golden = [
        r for r in csv.reader(l for l in golden_text.splitlines() if l and not l.startswith("#"))
        if r[0] != "label"
    ]

    def check(res: CliResult) -> str | None:
        bad = cli_ok(res)
        if bad:
            return bad
        rows = _csv(res.out)
        if rows[0] != ["label", "x", "value"] or len(rows) - 1 != len(golden):
            return "figure shape differs from golden"
        for (gl, gx, gv), (l, x, v) in zip(golden, rows[1:]):
            if (gl, gx) != (l, x) or abs(float(v) - float(gv)) > FIGURE_TOL[which]:
                return f"figure {which} point {l},{x}: {v} vs golden {gv}"
        return None

    return check


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _maxnh_fixed_length(rng, N: int, L: int, cmax: int) -> uw.UrnParams:
    """maxnh has L = max(m-c, N-m-c) + 1 rows: m = L-1+c, or its mirror N-m,
    which gives the same table."""
    c = rng.randint(1, cmax)
    m = L - 1 + c
    return uw.UrnParams(N, m if rng.random() < 0.5 else N - m, c)


def _exact_unimodal(N: int, c: int) -> list[tuple[int, int]]:
    """unimodal_m_range in exact rationals (plateaus are exact ties)."""
    good = []
    for m in range(c, N - c + 1):
        if N == 2 * c and m == c:
            continue
        params = uw.UrnParams(N, m, c)
        probs = [uw.exact_pmf(uw.Dist.MAXNH, params, y) for y in uw.support(uw.Dist.MAXNH, params)]
        modes, i, n = 0, 0, len(probs)
        while i < n:
            j = i
            while j + 1 < n and probs[j + 1] == probs[j]:
                j += 1
            if (i == 0 or probs[i] > probs[i - 1]) and (j == n - 1 or probs[j + 1] < probs[j]):
                modes += 1
            i = j + 1
        if modes == 1:
            good.append(m)
    out: list[tuple[int, int]] = []
    for m in good:
        if out and m == out[-1][1] + 1:
            out[-1] = (out[-1][0], m)
        else:
            out.append((m, m))
    return out


def _regimes():
    K = uw.ApproxKind
    return {
        K.MAXNB_LIMIT: lambda n: uw.UrnParams(n, 2 * n // 5, 3),
        K.GAMMA_LIMIT: lambda n: uw.UrnParams(n, math.isqrt(n), 2),
        K.HALFNORMAL_LIMIT: lambda n: uw.UrnParams(n, n // 2, math.isqrt(n)),
        K.NORMAL_LIMIT: lambda n: uw.UrnParams(n, 3 * n // 4, 20),
    }


def _sweep_reference(kind, regime, sizes) -> list[tuple[int, float]]:
    """TV from the float tables and the public densities, summed apart from
    convergence_sweep's own loop."""
    K = uw.ApproxKind
    out = []
    for n in sizes:
        params = regime(n)
        exact = uw.pmf_table(uw.Dist.MAXNH, params)
        if kind is K.MAXNB_LIMIT:
            bp = uw.maxnb_limit(params)
            approx = [uw.maxnb_pmf(bp, y) for y in exact.ys]
        elif kind is K.GAMMA_LIMIT:
            approx = [uw.gamma_approx_density(params, y) for y in exact.ys]
        elif kind is K.HALFNORMAL_LIMIT:
            approx = [uw.halfnormal_approx_density(params.c, y) for y in exact.ys]
        else:
            mu, sigma = uw.normal_approx_params(params)
            approx = [
                math.exp(-0.5 * ((y - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
                for y in exact.ys
            ]
        total = math.fsum(approx)
        out.append((n, 0.5 * math.fsum(abs(p - a / total) for p, a in zip(exact.probs, approx))))
    return out


def build_tables(seed: int, reduced: bool = False) -> Workload:
    b = RequestList("tables", seed, "urnwait.kernel.log_factorial(100000)", reduced)
    rng, wl, D = b.rng, b.wl, uw.Dist

    def table(dist: str, pick, note=False):
        def make(i):
            params = pick(i)
            return (lambda: uw.pmf_table(D(dist), params)), table_check(dist, params, wl if note else None)
        return make

    def urn(N, m, c):
        return lambda i: uw.UrnParams(N, m, c)

    def bern(c, ps):
        return lambda i: uw.BernoulliParams(c, _cycle(ps, i))

    # N=15. maxnh has 10 rows, nh 7, minnh 3, whatever the seed picks.
    b.add("pmf_table.maxnh.N15", 1880, table("maxnh", lambda i: _maxnh_fixed_length(rng, 15, 10, 3)))
    b.add("pmf_table.nh.N15", 160, table("nh", lambda i: uw.UrnParams(15, 9, rng.randint(1, 6))))
    b.add("pmf_table.minnh.N15", 250, table("minnh", lambda i: uw.UrnParams(15, rng.randint(3, 12), 3)))
    # max_relerr must not depend on the seed, so only tables with fixed
    # parameters enter it: one anchor each for maxnh and nh at N=250 and
    # N=1e4, and the two N=1e5 tables. The anchors do the same work as the
    # seed-picked tables of their class.
    # N=250
    b.add("pmf_table.maxnh.N250", 39,
          table("maxnh", lambda i: _maxnh_fixed_length(rng, 250, 200, 25)))
    b.add("pmf_table.maxnh.N250.anchor", 1, table("maxnh", urn(250, 212, 13), note=True))
    b.add("pmf_table.nh.N250", 199,
          table("nh", lambda i: uw.UrnParams(250, 100, rng.randint(1, 100))))
    b.add("pmf_table.nh.N250.anchor", 1, table("nh", urn(250, 100, 50), note=True))
    b.add("pmf_table.minnh.N250", 300,
          table("minnh", lambda i: uw.UrnParams(250, rng.randint(30, 220), 30)))
    # N=1e4
    b.add("pmf_table.maxnh.N1e4", 1,
          table("maxnh", lambda i: _maxnh_fixed_length(rng, 10_000, 6000, 100)),
          HEAVY, full_only=True)
    b.add("pmf_table.maxnh.N1e4.anchor", 1, table("maxnh", urn(10_000, 6049, 50), note=True),
          HEAVY, full_only=True)
    b.add("pmf_table.nh.N1e4", 1,
          table("nh", lambda i: uw.UrnParams(10_000, 5000, rng.randint(1, 100))), HEAVY)
    b.add("pmf_table.nh.N1e4.anchor", 1, table("nh", urn(10_000, 5000, 50), note=True), HEAVY)
    b.add("pmf_table.minnh.N1e4", 1,
          table("minnh", lambda i: uw.UrnParams(10_000, rng.randint(20, 9980), 20)))
    # N=1e5
    b.add("pmf_table.maxnh.N1e5", 1, table("maxnh", urn(100_000, 40_000, 50), note=True), HEAVY,
          full_only=True)
    b.add("pmf_table.nh.N1e5", 1, table("nh", urn(100_000, 90_000, 50), note=True), HEAVY,
          full_only=True)
    b.add("pmf_table.minnh.N1e5", 1,
          table("minnh", lambda i: uw.UrnParams(100_000, rng.randint(50, 99_950), 50)))
    # Bernoulli laws. maxnb and minnb take p or 1-p, which give the same
    # amount of work. p is dyadic, so the exact rationals in the checks stay
    # small. p=1/4 keeps the c<=50 tables apart in speed from the N=15 and
    # N=250 maxnh classes that hold the percentiles; at c>=200 only p=1/2 is
    # used, since at c=2000 the hang below also hits every p != 1/2.
    for c, counts in ((5, (300, 300, 100)), (50, (60, 60, 60)), (200, (20, 20, 20)), (2000, (1, 1, 1))):
        dl, nb_p, maxnb_p = FAST, (0.25,), (0.25, 0.75)
        if c >= 200:
            nb_p = maxnb_p = (0.5,)
        if c == 2000:
            dl = HEAVY
        b.add(f"pmf_table.nb.c{c}", counts[0], table("nb", bern(c, nb_p)), dl)
        b.add(f"pmf_table.maxnb.c{c}", counts[1], table("maxnb", bern(c, maxnb_p)), dl)
        b.add(f"pmf_table.minnb.c{c}", counts[2], table("minnb", bern(c, maxnb_p)), dl)
    # The known hang: support() for nb/maxnb at c=5000 never returns, so these
    # two fail on their deadline until the kernel is fixed.
    for dist in ("nb", "maxnb"):
        b.add(f"probe.{dist}.c5000", 1, table(dist, lambda i: uw.BernoulliParams(5000, 0.5)),
              PROBE_DEADLINE)

    # Tables built once, then used by quantile, mean and cdf requests.
    used = [
        ("maxnh", _maxnh_fixed_length(rng, 250, 200, 25)),
        ("nh", uw.UrnParams(250, 100, 10)),
        ("nb", uw.BernoulliParams(50, 0.5)),
        ("maxnb", uw.BernoulliParams(50, 0.25)),
    ]
    used = [(uw.pmf_table(D(d), p), d, p) for d, p in used]
    exact_means: dict[int, Fraction] = {}

    def exact_mean(k):
        if k not in exact_means:
            t, d, p = used[k]
            exact_means[k] = sum((y * _exact(d, p, y) for y in t.ys), Fraction(0))
        return exact_means[k]

    def quantile_req(i):
        k, u = i % len(used), rng.random()
        t = used[k][0]

        def check(y):
            below, upto = math.fsum(t.probs[:y]), math.fsum(t.probs[: y + 1])
            if not (below < u + 1e-12 and upto >= u - 1e-12):
                return f"quantile({u}) = {y}: cdf {below} .. {upto}"
            return None
        return (lambda: uw.quantile(t, u)), check

    def mean_req(i):
        k = i % len(used)
        t = used[k][0]

        def check(v):
            e = relerr(v, exact_mean(k))
            return None if e <= PMF_RTOL else f"mean relative error {e:.3g}"
        return (lambda: uw.mean(t)), check

    b.add("quantile", 500, quantile_req)
    b.add("mean", 400, mean_req)

    # cdf at every y of a 2400-row table.
    sweep_table = uw.pmf_table(D.MAXNH, _maxnh_fixed_length(rng, 5000, 2400, 100))

    def cdf_req(i):
        def check(vals):
            acc, want = Fraction(0), []
            for p in sweep_table.probs:
                acc += Fraction(p)
                want.append(float(acc))
            if len(vals) != len(want) or any(abs(v - w) > 4e-16 * w for v, w in zip(vals, want)):
                return "cdf differs from the exact prefix sums"
            return None
        return (lambda: [uw.cdf(sweep_table, y) for y in sweep_table.ys]), check

    b.add("cdf.sweep", 1, cdf_req, HEAVY)

    def unimodal_req(N, c):
        def make(i):
            def check(got):
                want = TABLE_2.get((N, c)) or _exact_unimodal(N, c)
                return None if got == want else f"{got} != {want}"
            return (lambda: uw.unimodal_m_range(N, c)), check
        return make

    b.add("unimodal_m_range.100_5", 1, unimodal_req(100, 5), HEAVY)
    b.add("unimodal_m_range.250_10", 1, unimodal_req(250, 10), HEAVY, full_only=True)

    sizes = [100, 400, 1600]
    for kind, regime in _regimes().items():
        def make(i, kind=kind, regime=regime):
            def check(got):
                want = _sweep_reference(kind, regime, sizes)
                if [n for n, _ in got] != sizes:
                    return "wrong sizes"
                if any(abs(a - w) > 1e-9 for (_, a), (_, w) in zip(got, want)):
                    return f"{got} != {want}"
                return None
            return (lambda: uw.convergence_sweep(kind, regime, sizes)), check
        b.add(f"convergence_sweep.{kind.value}", 1, make, HEAVY)

    # CLI
    def cli_pmf(i):
        params = _maxnh_fixed_length(rng, 10_000, 6000, 100)
        argv = ["pmf", "maxnh", "--N", str(params.N), "--m", str(params.m), "--c", str(params.c), "--cdf"]

        def check(res):
            bad = cli_ok(res)
            if bad:
                return bad
            t = uw.pmf_table(D.MAXNH, params)
            rows = _csv(res.out)
            if rows[0] != ["y", "pmf", "cdf"] or len(rows) - 1 != len(t.ys):
                return "wrong shape"
            acc = Fraction(0)
            for (y, p, cd), ty, tp in zip(rows[1:], t.ys, t.probs):
                acc += Fraction(tp)
                if int(y) != ty or p != _sig9(tp) or not _close9(cd, float(acc)):
                    return f"row {y}: {p},{cd} vs {_sig9(tp)},{float(acc)!r}"
            return None
        return (lambda: run_cli(argv)), check

    def cli_modes_one(i):
        params = _maxnh_fixed_length(rng, 250, 200, 25)
        argv = ["modes", "--N", "250", "--m", str(params.m), "--c", str(params.c)]

        def check(res):
            bad = cli_ok(res)
            if bad:
                return bad
            r = uw.local_modes(uw.pmf_table(D.MAXNH, params))
            want = [["modes", "is_unimodal", "p0_over_p1"],
                    [";".join(map(str, r.modes)), str(r.is_unimodal), _sig9(r.p0_over_p1)]]
            return None if _csv(res.out) == want else f"{res.out!r}"
        return (lambda: run_cli(argv)), check

    def cli_modes_scan(i):
        def check(res):
            bad = cli_ok(res)
            if bad:
                return bad
            want = [["m_lo", "m_hi"]] + [[str(a), str(b)] for a, b in TABLE_2[(50, 5)]]
            return None if _csv(res.out) == want else f"{res.out!r}"
        return (lambda: run_cli(["modes", "--N", "50", "--c", "5"])), check

    def cli_selfcheck(i):
        def check(res):
            bad = cli_ok(res)
            if bad:
                return bad
            rows = _csv(res.out)[1:]
            return None if rows and all(r[-1] == "PASS" for r in rows) else res.out
        return (lambda: run_cli(["selfcheck"])), check

    b.add("cli.pmf.cdf", 1, cli_pmf, HEAVY)
    b.add("cli.modes.one", 1, cli_modes_one, HEAVY)
    b.add("cli.modes.scan", 1, cli_modes_scan, HEAVY)
    for which in range(1, 6):
        b.add(f"cli.figure.{which}", 1,
              lambda i, w=which: ((lambda: run_cli(["figure", "--which", str(w)])), figure_check(w)),
              HEAVY)
    b.add("cli.selfcheck", 1, cli_selfcheck, HEAVY)
    return b.done()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

# Scheme -> its stopping rule: c of both colors, of either, or of the first.
_RULES = {"maxnh": "both", "maxnb": "both", "minnh": "either", "minnb": "either",
          "nh": "first", "nb": "first"}


def outcome_check(scheme: str, params, redo):
    """One trial: counts fit the stopping rule and y, and the same seed gives
    the same outcome again."""
    c = params.c

    def check(out) -> str | None:
        n1, n2 = out.counts
        term = 0 if out.terminal_color is uw.Color.FIRST else 1
        rule = _RULES[scheme]
        if rule == "both":
            ok = out.counts[term] == c and min(n1, n2) == c and n1 + n2 == 2 * c + out.y
        elif rule == "either":
            ok = out.counts[term] == c and out.counts[1 - term] < c and n1 + n2 == c + out.y
        else:
            ok = term == 0 and out.counts == (c, out.y)
        if isinstance(params, uw.UrnParams):
            ok = ok and n1 <= params.m and n2 <= params.N - params.m
        if not ok:
            return f"inconsistent outcome {out}"
        return None if redo() == out else "same seed, different outcome"

    return check


_EXACT_TABLES: dict = {}


def _exact_table(scheme: str, params) -> list[float]:
    """The exact pmf as floats, over the support or, for maxnb, until the
    tail is below 1e-15."""
    key = (scheme, params)
    if key not in _EXACT_TABLES:
        if scheme in URN:
            probs = [float(uw.exact_pmf(uw.Dist(scheme), params, y))
                     for y in uw.support(uw.Dist(scheme), params)]
        else:
            probs, cum, y = [], Fraction(0), 0
            while cum < 1 - Fraction(1, 10**15):
                p = bernoulli_pmf(scheme, params.c, params.p, y)
                probs.append(float(p))
                cum += p
                y += 1
        _EXACT_TABLES[key] = probs
    return _EXACT_TABLES[key]


def _tv(freqs: list[float], probs: list[float]) -> float:
    n = max(len(freqs), len(probs))
    a = freqs + [0.0] * (n - len(freqs))
    b = probs + [0.0] * (n - len(probs))
    return 0.5 * math.fsum(abs(x - y) for x, y in zip(a, b))


def histogram_check(scheme: str, params, config, wl: Workload):
    """Counts add up to the trials, TV to the exact pmf is within its bound,
    and the same seed gives the same histogram again. For the urn laws the
    library's own table is also held to the exact pmf, into max_relerr."""

    def check(t) -> str | None:
        counts = [p * config.trials for p in t.probs]
        if any(abs(n - round(n)) > 1e-6 for n in counts) or round(math.fsum(counts)) != config.trials:
            return "counts do not add up to the trials"
        probs = _exact_table(scheme, params)
        tv, bound = _tv(t.probs, probs), tv_bound(probs, config.trials)
        if tv > bound:
            return f"TV {tv:.4f} > bound {bound:.4f} at {config.trials} trials"
        if scheme in URN:
            lib = uw.pmf_table(uw.Dist(scheme), params).probs
            wl.note_relerr(max(relerr(lib[y], Fraction(p)) for y, p in
                               ((y, uw.exact_pmf(uw.Dist(scheme), params, y)) for y in _bulk_points(lib))))
        again = uw.empirical_pmf(uw.Dist(scheme), params, config)
        return None if again == t else "same seed, different histogram"

    return check


def build_simulate(seed: int, reduced: bool = False) -> Workload:
    b = RequestList("simulate", seed, "urnwait.draw_until_both(urnwait.UrnParams(15, 6, 3), 1)", reduced)
    rng, wl, D = b.rng, b.wl, uw.Dist

    def seed64():
        return rng.getrandbits(64)

    def urn_single(fn_name: str, scheme: str, options):
        def make(i):
            params, s = _cycle(options, i), seed64()
            fn = lambda: getattr(uw, fn_name)(params, s)  # noqa: E731
            return fn, outcome_check(scheme, params, lambda: getattr(uw, fn_name)(params, s))
        return make

    def bern_single(scheme: str, c: int, ps):
        def make(i):
            params, s = uw.BernoulliParams(c, _cycle(ps, i)), seed64()
            fn = lambda: uw.bernoulli_scheme(params, D(scheme), s)  # noqa: E731
            return fn, outcome_check(scheme, params, fn)
        return make

    small = [uw.UrnParams(15, 6, 3), uw.UrnParams(15, 9, 3)]
    b.add("draw_until_either.N15", 200, urn_single("draw_until_either", "minnh", small))
    b.add("draw_until_c_successes.N15", 200, urn_single("draw_until_c_successes", "nh", small[:1]))
    b.add("bernoulli_scheme.minnb.c3", 100, bern_single("minnb", 3, (0.3, 0.7)))
    b.add("draw_until_both.N60", 700,
          urn_single("draw_until_both", "maxnh", [uw.UrnParams(60, 30, 8)]))
    b.add("draw_until_both.N200", 200,
          urn_single("draw_until_both", "maxnh", [uw.UrnParams(200, 80, 20), uw.UrnParams(200, 120, 20)]))
    b.add("bernoulli_scheme.maxnb.c20", 200, bern_single("maxnb", 20, (0.4, 0.6)))
    b.add("bernoulli_scheme.nb.c20", 153, bern_single("nb", 20, (0.5,)))
    b.add("draw_until_both.N1600", 20,
          urn_single("draw_until_both", "maxnh", [uw.UrnParams(1600, 800, 40)]))

    def histogram(scheme: str, params, trials: int):
        def make(i):
            config = uw.SimConfig(seed64(), trials)
            return ((lambda: uw.empirical_pmf(D(scheme), params, config)),
                    histogram_check(scheme, params, config, wl))
        return make

    b.add("empirical_pmf.maxnh.N15", 2, histogram("maxnh", uw.UrnParams(15, 6, 3), 20_000), HEAVY)
    b.add("empirical_pmf.maxnh.N1600", 2, histogram("maxnh", uw.UrnParams(1600, 800, 40), 2000), HEAVY)
    b.add("empirical_pmf.maxnb.c40", 1, histogram("maxnb", uw.BernoulliParams(40, 0.5), 2000), HEAVY)

    small_argv = ["--N", "15", "--m", "6", "--c", "3"]

    def cli_raw(i):
        s = seed64()
        argv = ["sample", "maxnh", *small_argv, "--trials", "1000", "--seed", str(s)]

        def check(res):
            bad = cli_ok(res)
            if bad:
                return bad
            rows = _csv(res.out)
            if rows[0] != ["y", "terminal_color", "count1", "count2"] or len(rows) != 1001:
                return "wrong shape"
            hist = [0] * 10
            for y, color, n1, n2 in rows[1:]:
                y, n1, n2 = int(y), int(n1), int(n2)
                term = n1 if color == "first" else n2
                if term != 3 or min(n1, n2) != 3 or n1 + n2 != 6 + y:
                    return f"inconsistent row {y},{color},{n1},{n2}"
                hist[y] += 1
            probs = _exact_table("maxnh", uw.UrnParams(15, 6, 3))
            tv, bound = _tv([h / 1000 for h in hist], probs), tv_bound(probs, 1000)
            if tv > bound:
                return f"TV {tv:.4f} > bound {bound:.4f}"
            return None if run_cli(argv) == res else "same seed, different rows"
        return (lambda: run_cli(argv)), check

    def cli_hist(i):
        config = uw.SimConfig(seed64(), 20_000)
        argv = ["sample", "maxnh", *small_argv, "--trials", "20000", "--seed", str(config.seed),
                "--empirical-pmf"]

        def check(res):
            bad = cli_ok(res)
            if bad:
                return bad
            t = uw.empirical_pmf(D.MAXNH, uw.UrnParams(15, 6, 3), config)
            want = [["y", "freq"]] + [[str(y), _sig9(p)] for y, p in zip(t.ys, t.probs)]
            if _csv(res.out) != want:
                return "differs from empirical_pmf"
            return histogram_check("maxnh", uw.UrnParams(15, 6, 3), config, wl)(t)
        return (lambda: run_cli(argv)), check

    b.add("cli.sample.raw", 1, cli_raw, HEAVY)
    b.add("cli.sample.empirical", 1, cli_hist, HEAVY)
    return b.done()


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _mle_params(rng, N: int, S: int, cs: range) -> tuple[int, int, int]:
    """(N, c, y) with c + y = S: the likelihood work is set by N and S."""
    c = rng.choice(cs)
    return N, c, S - c


def mle_check(N: int, c: int, y: int):
    """{N/2} exactly when phi < 0; otherwise {m, N-m} with the gradient
    changing sign from + to - across m."""

    def check(est) -> str | None:
        p = uw.phi(N, c, y)
        if p < 0:
            return None if est == {N / 2} else f"phi<0 but mle {est}"
        if len(est) != 2:
            return f"phi>=0 but mle {est}"
        lo, hi = sorted(est)
        if abs(lo + hi - N) > 1e-9 * N:
            return f"mle set {est} is not symmetric about N/2"
        d = 1e-3 * N
        g0 = uw.loglik_grad(hi, N, c, y)
        gl, gr = uw.loglik_grad(hi - d, N, c, y), uw.loglik_grad(hi + d, N, c, y)
        if not (gl > 0 > gr and abs(g0) <= 1e-3 * min(gl, -gr)):
            return f"gradient {gl}, {g0}, {gr} around m={hi}"
        return None

    return check


def phi_check(N: int, c: int, y: int):
    def check(v) -> str | None:
        pair, pen = phi_terms(N, c, y)
        err = abs(Fraction(v) - (pair - pen))
        return None if err <= 1e-9 * (pair + pen) else f"phi {v} vs {float(pair - pen)}"
    return check


def classify_check(N: int, c: int, y: int):
    def check(rep) -> str | None:
        want = (uw.Classification.GLOBAL_MAX_AT_HALF if rep.phi_value < 0
                else uw.Classification.LOCAL_MIN_AT_HALF)
        if rep.phi_value != uw.phi(N, c, y) or rep.classification is not want:
            return f"{rep} disagrees with phi"
        return phi_check(N, c, y)(rep.phi_value)
    return check


def _grid(N: int, c: int) -> tuple[float, float, float]:
    lo, hi = N / 2, N - c - 1
    return lo, hi, (hi - lo) / 999


def profile_check(N: int, c: int, y: int, wl: Workload | None):
    """Values equal loglik_kernel, maximizers equal mle; with wl, sampled
    values are held to the exact likelihood, into max_relerr."""

    def check(prof) -> str | None:
        lo, hi, step = _grid(N, c)
        if len(prof.grid) != 1000 or prof.grid[0] != lo:
            return "wrong grid"
        if prof.values != [uw.loglik_kernel(m, N, c, y) for m in prof.grid]:
            return "values differ from loglik_kernel"
        if prof.maximizers != uw.mle(N, c, y):
            return "maximizers differ from mle"
        if wl is not None:
            worst = max(loglik_relerr(prof.values[k], prof.grid[k], N, c, y)
                        for k in range(0, 1000, 111))
            wl.note_relerr(worst)
            if worst > LOGLIK_RTOL:
                return f"likelihood relative error {worst:.3g}"
        return None

    return check


def build_estimate(seed: int, reduced: bool = False) -> Workload:
    b = RequestList("estimate", seed, "urnwait.kernel.log_factorial(100000)", reduced)
    rng, wl = b.rng, b.wl

    def phi_req(fn_name: str, check_of, ys: range):
        def make(i):
            N, c = _cycle(((2000, 30), (2001, 30), (10_000, 40), (999, 12)), i)
            y = rng.choice(ys)
            return (lambda: getattr(uw, fn_name)(N, c, y)), check_of(N, c, y)
        return make

    def mle_req(options):
        def make(i):
            N, c, y = _mle_params(rng, *_cycle(options, i))
            return (lambda: uw.mle(N, c, y)), mle_check(N, c, y)
        return make

    b.add("classify_critical_point.small_y", 250, phi_req("classify_critical_point", classify_check, range(0, 20)))
    b.add("phi.small_y", 170, phi_req("phi", phi_check, range(0, 20)))
    # phi < 0: the estimate is {N/2} without a search.
    b.add("mle.half", 150, mle_req([(2000, 32, range(30, 33)), (2001, 32, range(30, 33))]))
    b.add("phi.y200", 760, phi_req("phi", phi_check, range(150, 251)))
    b.add("mle.N20_61", 739, mle_req([(20, 8, range(2, 5)), (21, 8, range(2, 5)), (40, 14, range(4, 7)),
                                      (41, 14, range(4, 7)), (60, 20, range(6, 9)), (61, 20, range(6, 9))]))
    b.add("mle.N2000", 20, mle_req([(2000, 230, range(28, 33)), (2001, 230, range(28, 33))]))
    b.add("mle.N1e4", 2, mle_req([(10_001, 440, range(38, 43))]), HEAVY)
    b.add("mle.N1e5", 2, mle_req([(100_000, 2050, range(48, 53))]), HEAVY, full_only=True)

    def profile_req(N, S, cs, anchor=False):
        def make(i):
            _, c, y = _mle_params(rng, N, S, cs)
            return ((lambda: uw.profile(N, c, y, _grid(N, c))),
                    profile_check(N, c, y, wl if anchor else None))
        return make

    # The two anchors have fixed parameters: they set max_relerr.
    b.add("profile.anchor.N2000", 1, profile_req(2000, 230, range(30, 31), anchor=True), HEAVY)
    b.add("profile.anchor.N10001", 1, profile_req(10_001, 440, range(40, 41), anchor=True), HEAVY)
    b.add("profile.N2001", 1, profile_req(2001, 230, range(28, 33)), HEAVY)
    b.add("profile.N4000", 1, profile_req(4000, 300, range(33, 38)), HEAVY)

    def cli_mle(i):
        N, c, y = _mle_params(rng, 2000, 230, range(28, 33))
        lo, hi, step = _grid(N, c)
        argv = ["mle", "--N", str(N), "--c", str(c), "--y", str(y), "--profile", f"{lo}:{hi}:{step!r}"]

        def check(res):
            bad = cli_ok(res)
            if bad:
                return bad
            prof = uw.profile(N, c, y, (lo, hi, step))
            want = [["m", "loglik"]] + [[_sig9(m), _sig9(v)] for m, v in zip(prof.grid, prof.values)]
            if _csv(res.out) != want:
                return "profile CSV differs from the library"
            rep = uw.classify_critical_point(N, c, y)
            tail = (f"maximizers={';'.join(_sig9(float(e)) for e in sorted(prof.maximizers))} "
                    f"phi={_sig9(rep.phi_value)} classification={rep.classification.value}")
            return None if res.err.strip() == tail else f"stderr {res.err!r}"
        return (lambda: run_cli(argv)), check

    b.add("cli.mle.profile", 2, cli_mle, HEAVY)
    b.add("cli.figure.6", 1, lambda i: ((lambda: run_cli(["figure", "--which", "6"])), figure_check(6)),
          HEAVY)
    return b.done()


WORKLOADS = {"tables": build_tables, "simulate": build_simulate, "estimate": build_estimate}
