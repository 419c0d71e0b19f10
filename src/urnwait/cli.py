"""Command-line front end: every capability as a CSV-emitting subcommand.

All tabular output goes to standard output as UTF-8 CSV with a header row,
reals rendered to 9 significant digits. No field holds a comma, quote or
newline, so each row is one f-string. Exit codes: 0 success, 1 self-check
failure, 2 usage or parameter errors.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from fractions import Fraction
from importlib import resources
from itertools import islice
from typing import Iterable

from . import _enumeration
from .distributions import (
    URN_DISTS,
    BernoulliParams,
    Dist,
    PmfTable,
    UrnParams,
    exact_pmf,
    pmf,
    pmf_table,
    support,
)
from .errors import DomainError, ParameterError
from .estimation import (
    classify_critical_point,
    loglik_grad,
    loglik_kernel,
    mle,
    profile,
)
from .modes import local_modes, unimodal_m_range
from .urn_simulator import SimConfig, empirical_pmf, iter_outcomes

# Figure regimes: figure -> (c, m_num, m_den); m = N*m_num/m_den and the
# limiting Bernoulli p is m_num/m_den.
_FIG_REGIMES = {
    1: (3, 2, 5),
    2: (6, 1, 3),
    3: (20, 1, 4),
    4: (2, 1, 10),
    5: (20, 1, 2),
}


# Rows per stdout write: memory stays bounded on long raw sample streams.
_BLOCK = 4096


def _emit(header: str, lines: Iterable[str]) -> None:
    """Write the header and the lines, each ending in a newline, to stdout."""
    write = sys.stdout.write
    write(header + "\n")
    lines = iter(lines)
    while block := "".join(islice(lines, _BLOCK)):
        write(block)


def _need(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        raise ParameterError(f"missing required flags: {flags}")


def _build_params(dist: Dist, args: argparse.Namespace):
    if dist in URN_DISTS:
        _need(args, "N", "m", "c")
        return UrnParams(args.N, args.m, args.c)
    _need(args, "c", "p")
    return BernoulliParams(args.c, args.p)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_pmf(args: argparse.Namespace) -> int:
    dist = Dist(args.dist)
    table = pmf_table(dist, _build_params(dist, args))
    if args.cdf:
        # table._cum[y] is cdf(table, y) on every row of the table
        rows = enumerate(zip(table.probs, table._cum))
        _emit("y,pmf,cdf", (f"{y},{p:.9g},{s:.9g}\n" for y, (p, s) in rows))
    else:
        _emit("y,pmf", (f"{y},{p:.9g}\n" for y, p in enumerate(table.probs)))
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    scheme = Dist(args.scheme)
    params = _build_params(scheme, args)
    _need(args, "trials", "seed")
    config = SimConfig(seed=args.seed, trials=args.trials)
    if args.empirical_pmf:
        table = empirical_pmf(scheme, params, config)
        _emit("y,freq", (f"{y},{p:.9g}\n" for y, p in enumerate(table.probs)))
        return 0
    _emit(
        "y,terminal_color,count1,count2",
        (
            f"{out.y},{out.terminal_color.value},{out.counts[0]},{out.counts[1]}\n"
            for out in iter_outcomes(scheme, params, config)
        ),
    )
    return 0


def cmd_modes(args: argparse.Namespace) -> int:
    _need(args, "N", "c")
    if args.m is not None:
        params = UrnParams(args.N, args.m, args.c)
        report = local_modes(pmf_table(Dist.MAXNH, params))
        modes = ";".join(map(str, report.modes))
        _emit(
            "modes,is_unimodal,p0_over_p1",
            [f"{modes},{report.is_unimodal},{report.p0_over_p1:.9g}\n"],
        )
        return 0
    intervals = unimodal_m_range(args.N, args.c)
    if not intervals:
        print(
            "note: every valid m is degenerate (point mass at 0); "
            "no intervals to report",
            file=sys.stderr,
        )
    _emit("m_lo,m_hi", (f"{lo},{hi}\n" for lo, hi in intervals))
    return 0


def _parse_grid(spec: str) -> tuple[float, float, float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParameterError(f"--profile wants lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"bad --profile value: {exc}") from None
    return lo, hi, step


def _maximizers(ms: set[float]) -> str:
    return ";".join(f"{float(e):.9g}" for e in sorted(ms))


def cmd_mle(args: argparse.Namespace) -> int:
    _need(args, "N", "c", "y")
    N, c, y = args.N, args.c, args.y
    report = classify_critical_point(N, c, y)
    phi, kind = report.phi_value, report.classification.value
    if args.profile is None:
        m_hat = _maximizers(mle(N, c, y))
        _emit("m_hat,phi,classification", [f"{m_hat},{phi:.9g},{kind}\n"])
        return 0
    prof = profile(N, c, y, _parse_grid(args.profile))
    rows = zip(prof.grid, prof.values)
    _emit("m,loglik", (f"{m:.9g},{v:.9g}\n" for m, v in rows))
    m_hat = _maximizers(prof.maximizers)
    print(f"maximizers={m_hat} phi={phi:.9g} classification={kind}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Figures and self-check
# ---------------------------------------------------------------------------


def _load_golden(which: int) -> list[tuple[str, str, float]]:
    """Rows of the embedded reference dataset for one figure."""
    text = (
        resources.files(__package__)
        .joinpath(f"golden/fig{which}.csv")
        .read_text(encoding="utf-8")
    )
    rows = []
    for rec in csv.reader(
        line for line in text.splitlines() if line and not line.startswith("#")
    ):
        if rec[0] == "label":
            continue
        rows.append((rec[0], rec[1], float(rec[2])))
    return rows


def _figure_rows(which: int) -> list[tuple[str, str, float]]:
    """Recompute every (label, x) point of a figure from first principles.

    Figures 1-5 read one pmf table per trace; every golden point lies
    inside its table, truncated ones included.
    """
    golden = _load_golden(which)
    if which == 6:
        return [
            (label, x, loglik_kernel(float(x), 20, 3, int(label[2:])))
            for label, x, _ in golden
        ]
    c, num, den = _FIG_REGIMES[which]
    tables: dict[str, PmfTable] = {}
    out = []
    for label, x, _ in golden:
        if label not in tables:
            if label == "maxnb":
                dist, params = Dist.MAXNB, BernoulliParams(c, num / den)
            else:
                N = int(label[2:])
                dist, params = Dist.MAXNH, UrnParams(N, N * num // den, c)
            tables[label] = pmf_table(dist, params)
        out.append((label, x, tables[label].probs[int(x)]))
    return out


def cmd_figure(args: argparse.Namespace) -> int:
    _need(args, "which")
    if args.which not in range(1, 7):
        raise ParameterError(f"--which must be 1..6, got {args.which}")
    rows = _figure_rows(args.which)
    _emit("label,x,value", (f"{label},{x},{v:.9g}\n" for label, x, v in rows))
    return 0


def _check_figures() -> list[tuple[str, float, float, bool]]:
    suites = []
    for which in range(1, 7):
        tol = 1e-5 if which == 6 else 1e-4
        golden = _load_golden(which)
        computed = _figure_rows(which)
        dev = max(
            abs(value - ref) for (_, _, ref), (_, _, value) in zip(golden, computed)
        )
        suites.append((f"figure {which}", dev, tol, dev <= tol))
    return suites


def _check_enumeration() -> tuple[str, float, float, bool]:
    """Closed forms vs brute-force enumeration for every N <= 12.

    One enumeration walk per urn (N, m) gives the exact pmf of every law
    and c. The rational path must match it exactly; the reported deviation
    is the pointwise float path's worst distance from the rationals.
    """
    ok = True
    float_dev = 0.0
    for N in range(2, 13):
        for m in range(1, N):
            refs = _enumeration.enumerate_all(N, m)
            for c in range(1, min(m, N - m) + 1):
                params = UrnParams(N, m, c)
                for dist in URN_DISTS:
                    ref = refs[dist, c]
                    if sum(ref.values()) != 1:
                        ok = False
                    for y in support(dist, params):
                        rational = exact_pmf(dist, params, y)
                        if rational != ref.get(y, 0):
                            ok = False
                        float_dev = max(
                            float_dev, abs(pmf(dist, params, y) - float(rational))
                        )
    return ("enumeration N<=12", float_dev, 1e-12, ok and float_dev <= 1e-12)


# (N, c + y, the values of c) of the mle shapes checked against exact
# rationals. The y = 120 runs of the last one are long enough for
# kernel._harmonic to take their sums in closed form, and at the larger m its
# D run crosses zero.
_LIKELIHOOD_SHAPES = (
    (20, 8, (2, 3, 4)),
    (21, 8, (2, 3, 4)),
    (40, 14, (4, 5, 6)),
    (41, 14, (4, 5, 6)),
    (60, 20, (6, 7, 8)),
    (61, 20, (6, 7, 8)),
    (400, 130, (10,)),
)


def _exact_likelihood(m: float, N: int, c: int, y: int) -> tuple[Fraction, Fraction]:
    """The likelihood and L' = S'/S at the float m, in exact rationals.

    With m = p/q, each product of 2c+y factors is formed on integer
    numerators as (value, derivative) pairs: a factor m - i is (p - iq)/q
    with derivative q/q, a factor N - m - j is ((N-j)q - p)/q with -q/q.
    """
    p, q = m.as_integer_ratio()
    s = ds = 0
    for a, b in ((c, c + y), (c + y, c)):
        v, d = 1, 0
        for f, df in [(p - i * q, q) for i in range(a)] + [
            ((N - j) * q - p, -q) for j in range(b)
        ]:
            v, d = v * f, d * f + v * df
        s, ds = s + v, ds + d
    return Fraction(s, q ** (2 * c + y) * math.perm(N, 2 * c + y)), Fraction(ds, s)


def _check_likelihood() -> tuple[str, float, float, bool]:
    """loglik_kernel and loglik_grad against exact rationals at N <= 400.

    The deviation is the worst of the absolute error of L and the error of
    L' relative to max(1, |L'|), at two real m in (N/2, N-c) per shape.
    """
    dev = 0.0
    for N, total, cs in _LIKELIHOOD_SHAPES:
        for c in cs:
            y = total - c
            for k in range(2):
                m = N / 2 + (k + 0.37) * (N / 2 - c) / 2
                lik, grad = _exact_likelihood(m, N, c, y)
                err_l = abs(loglik_kernel(m, N, c, y) - math.log(lik))
                g = Fraction(loglik_grad(m, N, c, y))
                err_g = abs(g - grad) / max(1, abs(grad))
                dev = max(dev, err_l, float(err_g))
    return ("likelihood N<=400", dev, 1e-12, dev <= 1e-12)


def cmd_selfcheck(args: argparse.Namespace) -> int:
    suites = _check_figures()
    suites.append(_check_enumeration())
    suites.append(_check_likelihood())
    _emit(
        "suite,max_deviation,tolerance,status",
        (
            f"{name},{dev:.9g},{tol:.9g},{'PASS' if good else 'FAIL'}\n"
            for name, dev, tol, good in suites
        ),
    )
    return 0 if all(good for _, _, _, good in suites) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--N", type=int, default=None, help="population size")
    sub.add_argument("--m", type=int, default=None, help="first-color count")
    sub.add_argument("--c", type=int, default=None, help="target count")
    sub.add_argument("--p", type=float, default=None, help="success probability")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnwait",
        description="Waiting-time distributions for two-color urn sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = [d.value for d in Dist]

    p_pmf = sub.add_parser("pmf", help="tabulate a pmf over its support")
    p_pmf.add_argument("dist", choices=names)
    _add_common(p_pmf)
    p_pmf.add_argument("--cdf", action="store_true", help="append a cdf column")
    p_pmf.set_defaults(func=cmd_pmf)

    p_sample = sub.add_parser("sample", help="simulate a sampling scheme")
    p_sample.add_argument("scheme", choices=names)
    _add_common(p_sample)
    p_sample.add_argument("--trials", type=int, default=None)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument(
        "--empirical-pmf",
        action="store_true",
        help="emit the normalized histogram instead of raw draws",
    )
    p_sample.set_defaults(func=cmd_sample)

    p_modes = sub.add_parser("modes", help="mode report or unimodal m ranges")
    _add_common(p_modes)
    p_modes.set_defaults(func=cmd_modes)

    p_mle = sub.add_parser("mle", help="estimate m from one observed y")
    _add_common(p_mle)
    p_mle.add_argument("--y", type=int, default=None, help="observed value")
    p_mle.add_argument(
        "--profile", default=None, metavar="LO:HI:STEP", help="also emit the grid"
    )
    p_mle.set_defaults(func=cmd_mle)

    p_fig = sub.add_parser("figure", help="regenerate a reference figure")
    p_fig.add_argument("--which", type=int, default=None, help="figure number 1..6")
    p_fig.set_defaults(func=cmd_figure)

    p_self = sub.add_parser("selfcheck", help="compare against embedded references")
    p_self.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream closed early (e.g. piping into head); not our error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
