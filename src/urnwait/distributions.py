"""Exact pmfs for the six waiting-time distributions of two-color sampling.

The finite-population family draws balls without replacement from an urn of N
balls, m of the first color. The infinite-population family draws iid
Bernoulli(p) trials. For each, three stopping rules give three distributions
of the excess draw count Y:

==========  =============================================  ==============
label       stopping rule                                  support
==========  =============================================  ==============
nb          c successes (failures counted)                 0..N-m / inf
maxnb       c of BOTH outcomes, draws beyond 2c            0.. inf
minnb       c of EITHER outcome, draws beyond c            0..c-1
nh          urn version of nb                              0..N-m
maxnh       urn version of maxnb                           0..max(m,N-m)-c
minnh       urn version of minnb                           0..c-1
==========  =============================================  ==============

The maximum negative hypergeometric (maxnh) is the centerpiece; the others
exist as its relatives and limiting partners.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul, truediv

from . import kernel
from .errors import DomainError, ParameterError

# Infinite supports are truncated where a bound on the remaining tail mass
# drops below this; the truncation point is recorded on the table.
TAIL_EPS = 1e-12

# Tables that would need more rows than this raise DomainError, before any
# row is built; estimation.profile refuses grids of more points.
_MAX_ROWS = 10**6


class Dist(str, enum.Enum):
    NB = "nb"
    MAXNB = "maxnb"
    MINNB = "minnb"
    NH = "nh"
    MAXNH = "maxnh"
    MINNH = "minnh"


def _int(name: str, v, lo: int | None = None) -> int:
    """v, if it is an int, not a bool, and at least lo; else ParameterError."""
    if not isinstance(v, int) or isinstance(v, bool) or (lo is not None and v < lo):
        least = "" if lo is None else f" >= {lo}"
        raise ParameterError(f"{name} must be an integer{least}, got {v!r}")
    return v


def _float(name: str, v: int | float) -> float:
    """v as a float: the one rule for an int that float arithmetic reads. The
    int must be exact as a float, at most 2**53 in size; a larger one raises
    ParameterError. Past 2**53, N - m and N/2 round, terms such as the
    deviances of kernel._log_binom_term lose every digit, and past 2**512
    or 2**1024 ints overflow on their way into floats."""
    if isinstance(v, int) and not -(2**53) <= v <= 2**53:
        raise ParameterError(f"{name} must be at most 2**53 in size, got a {v.bit_length()}-bit int")
    return float(v)


def _real(name: str, v) -> int | float:
    """v, if it is an int or a float, and fits in a float (_float);
    otherwise ParameterError."""
    if not isinstance(v, (int, float)):
        raise ParameterError(f"{name} must be a number, got {v!r}")
    _float(name, v)
    return v


def _member(kind: type[enum.Enum], v):
    """v as a member of kind: a member passes, its value is converted, and
    anything else raises ParameterError."""
    try:
        return v if type(v) is kind else kind(v)
    except ValueError:
        names = ", ".join(k.value for k in kind)
        raise ParameterError(f"unknown {kind.__name__} {v!r}: use one of {names}") from None


def _check_band(N: int, c: int) -> None:
    """The (N, c) band in which some m is valid: integers, 1 <= c <= N - c."""
    if not 1 <= _int("c", c) <= _int("N", N) - c:
        raise ParameterError(f"no valid m exists for N={N}, c={c}")


@dataclass(frozen=True)
class UrnParams:
    """Finite population: N balls, m of the first color, target count c.

    Constraints: 1 <= c <= min(m, N - m), so that c balls of both colors
    exist. Invalid triples are rejected at construction.
    """

    N: int
    m: int
    c: int

    def __post_init__(self) -> None:
        N, m, c = _int("N", self.N), _int("m", self.m), _int("c", self.c)
        if not 1 <= c <= min(m, N - m):
            raise ParameterError(f"need 1 <= c <= min(m, N - m), got N={N}, m={m}, c={c}")


@dataclass(frozen=True)
class BernoulliParams:
    """Infinite population: success probability p, target count c."""

    c: int
    p: float

    def __post_init__(self) -> None:
        _float("c", _int("c", self.c, 1))
        if not 0.0 < _real("p", self.p) < 1.0:
            raise ParameterError(f"p must lie strictly in (0, 1), got {self.p!r}")


@dataclass(frozen=True)
class PmfTable:
    """A distribution tabulated over its (possibly truncated) support.

    probs[y] is the mass at y, from y = 0 on. truncation is None for finite
    supports; for the infinite-support distributions it records the largest
    tabulated y: the first row past the mode at which a geometric bound on
    the untabulated tail mass is below TAIL_EPS (see pmf_table).
    """

    dist: Dist
    params: UrnParams | BernoulliParams
    probs: list[float]
    truncation: int | None = None

    @property
    def ys(self) -> list[int]:
        """The tabulated ys, list(range(len(probs))): a new list on each read."""
        return list(range(len(self.probs)))

    @functools.cached_property
    def _cum(self) -> list[float]:
        """Correctly rounded prefix sums of probs, built on first use.

        Every float is a whole multiple of 2**-1074, so the running sum is an
        exact integer in that unit and only the final division rounds: entry
        y equals math.fsum(probs[:y+1]) bit for bit. A zero row repeats the
        previous entry without dividing again.
        """
        unit = 1 << 1074
        acc, last, out = 0, 0.0, []
        for p in self.probs:
            if p:
                n, d = p.as_integer_ratio()
                acc += n << (1075 - d.bit_length())
                last = acc / unit
            out.append(last)
        return out


def _table(t) -> PmfTable:
    """t, if it is a PmfTable; otherwise ParameterError."""
    if not isinstance(t, PmfTable):
        raise ParameterError(f"expected a PmfTable, got {t!r}")
    return t


URN_DISTS = (Dist.NH, Dist.MINNH, Dist.MAXNH)


def _check_params(dist: Dist | str, params: UrnParams | BernoulliParams) -> Dist:
    """dist as a Dist member (_member), once params is of the type it takes."""
    dist = _member(Dist, dist)
    want = UrnParams if dist in URN_DISTS else BernoulliParams
    if not isinstance(params, want):
        raise ParameterError(f"{dist.value} takes {want.__name__}, got {params!r}")
    return dist


# The largest y in each law's support, from its params: math.inf for nb
# and maxnb. A table, not a chain of `dist is Dist.X` tests: reading a
# member off the Dist class costs about 150 ns, and the pointwise pmfs look
# the last y up per value.
_LAST_Y = {
    Dist.NB: lambda params: math.inf,
    Dist.MAXNB: lambda params: math.inf,
    Dist.MINNB: lambda params: params.c - 1,
    Dist.MINNH: lambda params: params.c - 1,
    Dist.NH: lambda params: params.N - params.m,
    Dist.MAXNH: lambda params: max(params.m, params.N - params.m) - params.c,
}


def _in_support(dist: Dist, params: UrnParams | BernoulliParams, y: int) -> bool:
    """Whether the int y lies in the support, once params are checked."""
    return _LAST_Y[_check_params(dist, params)](params) >= _int("y", y) >= 0


# ---------------------------------------------------------------------------
# Pointwise pmfs: a rational prefactor times one or two positive binomial or
# hypergeometric terms (see README, "How single values are computed").
# ---------------------------------------------------------------------------


def nb_pmf(params: BernoulliParams, y: int) -> float:
    """Failures before the c-th success: C(c+y-1, c-1) p^c q^y, which is p
    times the binomial term of c-1 successes in c+y-1 trials."""
    if not _in_support(Dist.NB, params, y):
        return 0.0
    _float("y", y)
    c, p = params.c, params.p
    return p * math.exp(kernel._log_binom_term(c - 1, c + y - 1, p))


def maxnb_pmf(params: BernoulliParams, y: int) -> float:
    """Draws beyond 2c to see c of both outcomes: C(2c+y-1, c-1)(p^y + q^y)(pq)^c,
    which is c/(2c+y) times the binomial terms of c+y and c successes in 2c+y."""
    if not _in_support(Dist.MAXNB, params, y):
        return 0.0
    _float("y", y)
    c, p = params.c, params.p
    n, b = 2 * c + y, kernel._log_binom_term
    return c / n * (math.exp(b(c + y, n, p)) + math.exp(b(c, n, p)))


def minnb_pmf(params: BernoulliParams, y: int) -> float:
    """Draws beyond c to see c of either outcome: C(c+y-1, c-1)(p^c q^y + p^y q^c),
    which is c/(c+y) times the binomial terms of c and y successes in c+y."""
    if not _in_support(Dist.MINNB, params, y):
        return 0.0
    c, p = params.c, params.p
    n, b = c + y, kernel._log_binom_term
    return c / n * (math.exp(b(c, n, p)) + math.exp(b(y, n, p)))


def nh_pmf(params: UrnParams, y: int) -> float:
    """Failures before the c-th success without replacement.

    Pr[Y=y] = C(c+y-1, c-1) C(N-c-y, m-c) / C(N, m) for y in 0..N-m: the
    hypergeometric term of c-1 successes in c+y-1 draws, times the chance
    (m-c+1)/(N-c-y+1) that the next draw is a success.
    """
    if not _in_support(Dist.NH, params, y):
        return 0.0
    _float("N", params.N)
    N, m, c = params.N, params.m, params.c
    h = math.exp(kernel._log_hyper_term(c - 1, m, N - m, c + y - 1))
    return h * (m - c + 1) / (N - c - y + 1)


def minnh_pmf(params: UrnParams, y: int) -> float:
    """Draws beyond c to see c balls of either color.

    Pr[Y=y] = C(c+y-1, c-1) {C(m,c)C(N-m,y) + C(m,y)C(N-m,c)}
              / {C(c+y, c) C(N, c+y)} for y in 0..c-1,

    c/(c+y) times the hypergeometric terms of c and y first-color balls.
    """
    if not _in_support(Dist.MINNH, params, y):
        return 0.0
    _float("N", params.N)
    N, m, c = params.N, params.m, params.c
    n, h = c + y, kernel._log_hyper_term
    return c / n * (math.exp(h(c, m, N - m, n)) + math.exp(h(y, m, N - m, n)))


def maxnh_pmf(params: UrnParams, y: int) -> float:
    """Draws beyond 2c to see c balls of both colors.

    Pr[Y=y] = {c/(2c+y)} {C(m, c+y)C(N-m, c) + C(m, c)C(N-m, c+y)} / C(N, 2c+y)

    for y in 0..max(m-c, N-m-c): c/(2c+y) times the hypergeometric terms of
    c+y and c first-color balls in 2c+y draws. The tests hold pmf_table's
    rows to _maxnh_pmf_binom, an lgamma evaluation of this form.
    """
    if not _in_support(Dist.MAXNH, params, y):
        return 0.0
    _float("N", params.N)
    N, m, c = params.N, params.m, params.c
    n, h = 2 * c + y, kernel._log_hyper_term
    return c / n * (math.exp(h(c + y, m, N - m, n)) + math.exp(h(c, m, N - m, n)))


def maxnh_p0(params: UrnParams) -> float:
    """Pr[Y=0] of maxnh: C(N-2c, m-c) C(2c, c) / C(N, m), which is the
    hypergeometric term C(m, c) C(N-m, c) / C(N, 2c)."""
    return maxnh_pmf(params, 0)


def exact_pmf(dist: Dist | str, params: UrnParams, y: int) -> Fraction:
    """Exact rational pmf for the urn distributions (big-integer path).

    Test-oracle companion of the float pmfs; only nh, minnh, and maxnh have
    rational masses; any other law raises ParameterError. dist, params and
    y are checked as in pmf.
    """
    dist = _member(Dist, dist)
    if dist not in URN_DISTS:
        raise ParameterError(f"{dist.value} has no exact rational pmf")
    if not _in_support(dist, params, y):
        return Fraction(0)
    N, m, c = params.N, params.m, params.c
    if dist is Dist.NH:
        # C(N-c-y, m-c) / C(N, m), as falling factorials of length c+y
        num = math.comb(c + y - 1, c - 1) * math.perm(m, c) * math.perm(N - m, y)
        return Fraction(num, math.perm(N, c + y))
    if dist is Dist.MINNH:
        num = math.comb(c + y - 1, c - 1) * (
            math.comb(m, c) * math.comb(N - m, y)
            + math.comb(m, y) * math.comb(N - m, c)
        )
        return Fraction(num, math.comb(c + y, c) * math.comb(N, c + y))
    num = math.comb(2 * c + y - 1, c - 1) * (
        math.perm(m, c + y) * math.perm(N - m, c)
        + math.perm(m, c) * math.perm(N - m, c + y)
    )
    return Fraction(num, math.perm(N, 2 * c + y))


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

_PMF = {
    Dist.NB: nb_pmf,
    Dist.MAXNB: maxnb_pmf,
    Dist.MINNB: minnb_pmf,
    Dist.NH: nh_pmf,
    Dist.MAXNH: maxnh_pmf,
    Dist.MINNH: minnh_pmf,
}


def pmf(dist: Dist | str, params: UrnParams | BernoulliParams, y: int) -> float:
    """The named law's pmf at y, 0.0 outside its support.

    dist is a Dist member or its value; params must be of the type the law
    takes, and y an int (README, "Input checks").
    """
    return _PMF[_member(Dist, dist)](params, y)


def support(dist: Dist | str, params: UrnParams | BernoulliParams) -> range:
    """Closed-form support, or the truncated range for infinite supports.

    For nb and maxnb this is the range of pmf_table's rows, so that the
    truncation rule has one definition. dist and params are checked as in
    pmf.
    """
    last = _LAST_Y[_check_params(dist, params)](params)
    if last == math.inf:
        return range(0, len(pmf_table(dist, params).probs))
    return range(0, last + 1)


# Every law is a sum of one or two terms, and each term's ratio between
# neighbouring rows is rational in y and never grows along the direction in
# which the table is built, so each term is unimodal. A running term is
# carried as t * 2**e, with frexp keeping t inside [_T_LO, _T_HI]: it can
# neither underflow nor overflow, and the rescaling itself is exact.
_T_LO, _T_HI = 2.0**-64, 2.0**64


def _term_rows(e: int, ratios) -> list[float]:
    """The rows of the term that is 2**e at its first row, walked along
    ratios: one row per ratio and one more. The walk stops short at the row
    where the term has underflowed to 0.0 ahead of a falling ratio, since no
    later ratio is larger and every later row would be 0.0."""
    ldexp, frexp = math.ldexp, math.frexp
    rows: list[float] = []
    append = rows.append
    t = 1.0
    for r in ratios:
        v = ldexp(t, e)
        if v == 0.0 and r < 1.0:
            return rows
        append(v)
        t *= r
        if not _T_LO <= t <= _T_HI:
            t, de = frexp(t)
            e += de
    append(ldexp(t, e))
    return rows


def _sum(a: list[float], b: list[float]) -> list[float]:
    """The rows of two terms that start at the same row, added row by row;
    the rows that only the longer list has are kept as they are."""
    if len(a) < len(b):
        a, b = b, a
    a[: len(b)] = map(add, a, b)
    return a


def _upward(down: list[float], n: int) -> list[float]:
    """Rows y = 0..n-1 from the rows walked down from the anchor row y = n;
    the rows below where the walk stopped are 0.0."""
    rows = [0.0] * (n + 1 - len(down))
    rows += reversed(down)
    rows.pop()  # the anchor row y = n
    return rows


def _urn_ratios(k: int, a: int, j: int, n: int, count: int):
    """(k+i)(a-i) / ((j+i)(n-i)) for i = 0..count-1, each correctly rounded."""
    return map(
        truediv,
        map(mul, range(k, k + count), range(a, a - count, -1)),
        map(mul, range(j, j + count), range(n, n - count, -1)),
    )


def _log_comb(n: int, k: int) -> float:
    # k and n-k enter symmetrically, so a table's scale, and with it every
    # bit of a maxnh or minnh table, is the same under m <-> N-m.
    return math.lgamma(n + 1) - (math.lgamma(k + 1) + math.lgamma(n - k + 1))


def _pow(x: float, n: int) -> tuple[float, int]:
    """x**n as (t, e) with x**n = t * 2**e, for 0 < x < 1 and any n >= 0."""
    t, e = math.frexp(x)
    out, exp = 1.0, e * n
    while n > 0:
        k = min(n, 1000)  # t**k >= 2**-1000 stays a normal float
        out, de = math.frexp(out * t**k)
        exp += de
        n -= k
    return out, exp


def _exponent(log_anchor: float) -> int:
    """Starting exponent for a term whose anchor value is exp(log_anchor).

    Rows then come out near 2**64 times the pmf: rows whose pmf is
    subnormal are still normal floats, so normalizing rounds them only
    once, and a row that underflows to 0.0 has a pmf below 2**-1138.
    """
    return round(log_anchor / kernel._LN2) + 64


def _maxnh_exponent(N: int, m: int, c: int) -> int:
    # Both terms equal p(0)/2 = C(N-2c, m-c) C(2c, c) / (2 C(N, m)) at y = 0.
    log_p0 = _log_comb(N - 2 * c, m - c) + _log_comb(2 * c, c) - _log_comb(N, m)
    return _exponent(log_p0 - kernel._LN2)


def _maxnh_rows(N: int, m: int, c: int, e: int, count: int) -> list[float]:
    """maxnh's rows from y = 0, where both terms are 2**e, along each term's
    first count ratios; the term for color count a has ratio
    (2c+y)(a-c-y) / ((c+y+1)(N-2c-y)), which reaches 0 past y = a-c."""
    terms = (_term_rows(e, _urn_ratios(2 * c, a - c, c + 1, N - 2 * c, count)) for a in (m, N - m))
    return _sum(*terms)


def _finite_weights(dist: Dist, params: UrnParams | BernoulliParams) -> list[float]:
    """Rows proportional to the pmf of nh, maxnh, minnh or minnb, from y = 0
    to the last row that a term walked; every later row of the support is
    0.0, and is not in the list.

    The anchor values come from lgamma, which only sets the scale: the
    rows are normalized afterwards.
    """
    if dist is Dist.MINNB:
        # Both terms equal C(2c-1, c-1) (pq)^c at y = c, one row past the
        # support. Recur down from there: p(y)/p(y+1) = (y+1) / ((c+y) f),
        # with f = q for the p^c q^y term and f = p for the other; p is
        # taken as the exact rational pn/pd that the float holds.
        c, p = params.c, params.p
        pn, pd = p.as_integer_ratio()
        log_pq = c * math.log(p * (1.0 - p))
        down: list[float] = []
        for fn in (pd - pn, pn):
            # At subnormal f a ratio into row k-1 can pass 2**1023, so this
            # term's row k is below 2**-1023; it walks from the top row whose
            # ratio fits, at C(c+top-1, c-1) f^top (1-f)^c. The other term is
            # at most f/(1-f) times this one, so it need not share this scale.
            top = c
            while top and top * pd >= (c + top - 1) * fn << 1023:
                top -= 1
            log_f = math.log(fn / pd)
            dens = range((c + top - 1) * fn, (c - 1) * fn, -fn)
            ratios = map(truediv, range(top * pd, 0, -pd), dens)
            e = _exponent(_log_comb(c + top - 1, c - 1) + log_pq - (c - top) * log_f)
            down = _sum(down, [0.0] * (c - top) + _term_rows(e, ratios))
        return _upward(down, c)
    N, m, c = params.N, params.m, params.c
    if dist is Dist.NH:
        # p(y+1)/p(y) = (c+y)(N-m-y) / ((y+1)(N-c-y)), from p(0) = C(m,c)/C(N,c).
        e = _exponent(_log_comb(m, c) - _log_comb(N, c))
        return _term_rows(e, _urn_ratios(c, N - m, 1, N - c, N - m))
    if dist is Dist.MAXNH:
        return _maxnh_rows(N, m, c, _maxnh_exponent(N, m, c), max(m, N - m) - c)
    # minnh is the sum of two nh-like terms, C(m,c) C(N-m,y) and C(m,y)
    # C(N-m,c) over C(N,c+y), times c/(c+y). Both equal
    # C(m,c) C(N-m,c) / (2 C(N,2c)) at y = c, one row past the support; with
    # b the other color's count, p(y)/p(y+1) = (y+1)(N-c-y) / ((c+y)(b-y)),
    # written below with i = c-1-y.
    e = _exponent(_log_comb(m, c) + _log_comb(N - m, c) - _log_comb(N, 2 * c) - kernel._LN2)
    terms = (_term_rows(e, _urn_ratios(N - 2 * c + 1, c, b - c + 1, 2 * c - 1, c)) for b in (N - m, m))
    return _upward(_sum(*terms), c)


def _rows_capped(dist: Dist, params: BernoulliParams) -> bool:
    """The up-front row cap of nb and maxnb, shared with sampling: whether
    the term (k+y) f / (j+y) of _open_rows with the largest f, g = 1 - s,
    peaks past _MAX_ROWS rows, near y = (k g - j)/(1 - g), or its tail
    reaches past them. nb walks only f = 1-p. The tail bound _tail_rows is
    below ln(1/(s TAIL_EPS))/s, so it is taken only where that passes the
    cap."""
    c, p = params.c, params.p
    k, j, s = (c, 1, p) if dist is Dist.NB else (2 * c, c + 1, min(p, 1.0 - p))
    g = 1.0 - s
    if not (g < 1.0 and k * g - j < _MAX_ROWS * (1.0 - g)):
        return True
    return -math.log(s * TAIL_EPS) > _MAX_ROWS * s and _tail_rows(dist, params) > _MAX_ROWS


def _tail_rows(dist: Dist, params: BernoulliParams) -> float:
    """A lower bound on the rows of an nb or maxnb table, for g < 1.

    Take the term of _open_rows with the largest f, g = 1 - s: at y = 0 it
    is v0 = p^c (nb) or C(2c-1, c-1) (p (1-p))^c (maxnb), at most 1, and
    every ratio r of it is at least g. The walk ends only where v(y) r/(1-r) <
    TAIL_EPS, and v(y) r/(1-r) >= v0 g^(y+1)/s, so it takes more than
    ln(v0/(s TAIL_EPS)) / -ln(g) rows. The 1e-6 taken off the log covers
    the rounding of the walk and of lgamma.
    """
    c, p = params.c, params.p
    if dist is Dist.NB:
        s, log_v0 = p, c * math.log(p)
    else:
        s = min(p, 1.0 - p)
        log_v0 = _log_comb(2 * c - 1, c - 1) + c * (math.log(p) + math.log1p(-p))
    return (log_v0 - math.log(s * TAIL_EPS) - 1e-6) / -math.log1p(-s)


def _open_rows(dist: Dist, params: BernoulliParams) -> list[float]:
    """nb or maxnb from an absolute anchor at y = 0 to the truncation row.

    Each term's ratio is (k+y) f / (j+y), with f = p or 1-p taken as the
    exact rational pn/pd that the float p holds. Rows end at the first y
    where every term's ratio r is below 1 and sum_terms p(y) r/(1-r), a
    bound on the mass past y, is below TAIL_EPS. Raises DomainError up
    front where _rows_capped, and past _MAX_ROWS rows.
    """
    c, p = params.c, params.p
    pn, pd = p.as_integer_ratio()
    k, j = (c, 1) if dist is Dist.NB else (2 * c, c + 1)

    def ratios(fn: int):  # the first _MAX_ROWS of them
        nums = range(k * fn, (k + _MAX_ROWS) * fn, fn)
        return map(truediv, nums, range(j * pd, (j + _MAX_ROWS) * pd, pd))

    ldexp, frexp = math.ldexp, math.frexp
    rows: list[float] = []
    if _rows_capped(dist, params):
        pass  # refused below, before an anchor is computed
    elif dist is Dist.NB:
        t, e = _pow(p, c)
        for r in ratios(pd - pn):
            v = ldexp(t, e)
            rows.append(v)
            if r < 1.0 and v * r / (1.0 - r) < TAIL_EPS:
                return rows
            t *= r
            if not _T_LO <= t <= _T_HI:
                t, de = frexp(t)
                e += de
    else:
        # Both terms start at C(2c-1, c-1) p^c q^c; q = 1-p rounds, and the
        # last factor restores (1-p)^c from q^c.
        q = 1.0 - p
        binom = math.comb(2 * c - 1, c - 1)
        eb = binom.bit_length()
        (tp, ep), (tq, eq) = _pow(p, c), _pow(q, c)
        fix = math.exp(c * math.log1p(((1.0 - q) - p) / q))
        t1, e1 = math.frexp(binom / (1 << eb) * tp * tq * fix)
        e1 += eb + ep + eq
        t2, e2 = t1, e1
        for r1, r2 in zip(ratios(pn), ratios(pd - pn)):
            v1, v2 = ldexp(t1, e1), ldexp(t2, e2)
            rows.append(v1 + v2)
            if r1 < 1.0 and r2 < 1.0:
                if v1 * r1 / (1.0 - r1) + v2 * r2 / (1.0 - r2) < TAIL_EPS:
                    return rows
            t1 *= r1
            if not _T_LO <= t1 <= _T_HI:
                t1, de = frexp(t1)
                e1 += de
            t2 *= r2
            if not _T_LO <= t2 <= _T_HI:
                t2, de = frexp(t2)
                e2 += de
    raise DomainError(
        f"{dist.value} table at c={c}, p={p!r} needs more than {_MAX_ROWS} rows"
    )


def _maxnh_pmf_binom(params: UrnParams, y: int) -> float:
    """maxnh's binomial form, with each C(n, k) from lgamma: a test oracle
    for maxnh tables and values, within a few ulp of ln N!.

    Pr[Y=y] = {c/(2c+y)} {C(m, c+y)C(N-m, c) + C(m, c)C(N-m, c+y)} / C(N, 2c+y)
    """
    N, m, c = params.N, params.m, params.c
    k = c + y
    log_den = _log_comb(N, 2 * c + y)
    s = 0.0
    for a, b in ((m, N - m), (N - m, m)):
        if k <= a:
            s += math.exp(_log_comb(a, k) + _log_comb(b, c) - log_den)
    return c / (2 * c + y) * s


def pmf_table(dist: Dist | str, params: UrnParams | BernoulliParams) -> PmfTable:
    """Tabulate the pmf over its full (or truncated) support.

    dist and params are checked as in pmf, and the table's dist is the
    Dist member even where dist is its value.

    Rows come from each law's exact ratio p(y+1)/p(y), in plain floats (see
    README, "How tables are computed"). Finite supports are normalized by
    the fsum of their rows. nb and maxnb start from p(0) itself and end at
    the first row past the mode where the geometric tail bound
    sum p(y) r/(1-r) is below TAIL_EPS. A table of any law that would need
    more than _MAX_ROWS = 10**6 rows raises DomainError.
    """
    dist = _check_params(dist, params)
    if dist in (Dist.NB, Dist.MAXNB):
        probs = _open_rows(dist, params)
        return PmfTable(dist, params, probs, len(probs) - 1)
    n = _LAST_Y[dist](params) + 1
    if n > _MAX_ROWS:
        raise DomainError(f"{dist.value} table at {params} needs more than {_MAX_ROWS} rows")
    rows = _finite_weights(dist, params)
    total = math.fsum(rows)
    probs = [v / total if v else 0.0 for v in rows]
    probs.extend(repeat(0.0, n - len(probs)))
    return PmfTable(dist, params, probs)


def cdf(table: PmfTable, y: int) -> float:
    """Prefix-sum cdf of a tabulated distribution, correctly rounded.

    The prefix sums are built once per table, so each call after the
    first is O(1). y is checked as in pmf.
    """
    cum = _table(table)._cum
    return cum[min(y, len(cum) - 1)] if _int("y", y) >= 0 else 0.0


def quantile(table: PmfTable, u: float) -> int:
    """Smallest y with cdf(y) >= u; the last y if float shortfall keeps
    every cdf below u."""
    if not 0.0 <= _real("u", u) <= 1.0:
        raise DomainError(f"quantile level must lie in [0, 1], got {u!r}")
    i = bisect.bisect_left(_table(table)._cum, u)
    return min(i, len(table.probs) - 1)


def mean(table: PmfTable) -> float:
    """Sum of y * p(y) over the table."""
    probs = _table(table).probs
    return math.fsum(map(mul, range(len(probs)), probs))
