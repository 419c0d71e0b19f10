"""Estimating the urn composition m from one observed waiting time.

With (N, c) known and one observation y of the both-colors excess wait, the
m-dependent part of the log-likelihood is

    L(m) = log{ (m^(c) (N-m)^(c+y) + m^(c+y) (N-m)^(c)) / N^(2c+y) },

treated as a function of continuous m. It satisfies L(m) = L(N-m), so m and
N-m cannot be told apart and every estimate here is the full symmetric set.
Where c + y - 1 < N/2, m = N/2 is a critical point; whether it is the
global maximum or a local minimum flanked by two symmetric maxima is decided
by the sign of the quantity phi below, which is negative for small y and
grows with y. Where c + y - 1 >= N/2, L vanishes at m = c + y - 1 >= N/2,
and the maxima lie on (c + y - 1, N - c] and its mirror image.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from . import kernel
from .distributions import _MAX_ROWS, _check_band, _float, _int, _real
from .errors import DomainError, ParameterError

# Maximizer location tolerance.
M_TOL = 1e-8

# A profile grid keeps lo + k step while k <= (hi - lo)/step (1 + _GRID_SLACK).
# The quotient rounds by a few 2**-53 of itself, and at the 10**6-point cap
# the slack is still under 10**-6 of a step.
_GRID_SLACK = 2.0**-40


class Classification(enum.Enum):
    GLOBAL_MAX_AT_HALF = "global_max_at_half"
    LOCAL_MIN_AT_HALF = "local_min_at_half"
    ZERO_AT_HALF = "zero_at_half"


@dataclass(frozen=True)
class CriticalPointReport:
    """Sign analysis of the critical point at m = N/2."""

    phi_value: float
    classification: Classification


@dataclass(frozen=True)
class LikelihoodProfile:
    N: int
    c: int
    y: int
    grid: list[float]
    values: list[float]
    maximizers: set[float]


def _check_nc(N: int, c: int, y: int, m: float = 0.0) -> None:
    """The shape (N, c, y) and, for the likelihood, an m in [0, N]."""
    _check_band(N, c)
    _float("N", N)
    if 2 * c + _int("y", y, 0) > N:
        raise DomainError(f"y={y} is impossible for N={N}, c={c}")
    if not math.isfinite(_real("m", m)):
        raise ParameterError(f"m must be finite, got {m!r}")
    if not 0 <= m <= N:
        raise DomainError(f"m={m} is outside [0, N={N}]")


# Past this log-ratio, |D/C| < 2**-64, so C + D rounds to C in floats and
# C/(C+D) = 1.0 exactly.
_FAR = 45.0

# The bound on the error of r, per unit of the magnitudes of the terms it
# sums (see _log_ratio).
_R_ERR = 2.0**-48

# Reads with c + y below this sum r over R at once. Measured with mle over
# every (N, c, y) with N <= 120, grouped by c + y: below 30, trying
# _log_ratio first cost up to 25% more than summing at once (1-6% at 21-29),
# and from 30 to 80 it cost up to 14% less.
_SHORT_WALK = 30


def _log_falling(z: float, n: int) -> tuple[float, float, float]:
    """(ln|z^(n)|, its sign, size) for z^(n) = z (z-1) ... (z-n+1), z >= 0.

    A run above zero is lgamma(z+1) - lgamma(z-n+1). A run that crosses
    zero is split as kernel._harmonic splits it: its p = ceil(z) positive
    terms, lgamma(z+1) - lgamma(z-p+1), and its n - p negative terms
    negated, lgamma(n-z) - lgamma(p-z), one factor -1 each. z - p + 1 and
    p - z are exact, so the logs keep their accuracy a few ulps from an
    integer z. A zero term gives (-inf, 0.0). size sums the magnitudes of
    the lgamma values, which set the error.
    """
    a = math.lgamma(z + 1.0)
    if z > n - 1:
        b = math.lgamma(z - n + 1.0)
        return a - b, 1.0, abs(a) + abs(b)
    p = math.ceil(z)
    if z == p:
        return -math.inf, 0.0, 0.0
    lg = (math.lgamma(z - (p - 1)), math.lgamma(n - z), math.lgamma(p - z))
    sign = -1.0 if (n - p) % 2 else 1.0
    return a - lg[0] + lg[1] - lg[2], sign, abs(a) + sum(map(abs, lg))


def _log_ratio(m: float, N: int, c: int, y: int) -> tuple[float, float, float]:
    """(r, s, err) with r = ln C - ln|D| and s = sign D, in O(1), for
    c + y - 1 < m <= N - c, where every term of C = (m-c)^(y) is positive
    and D = (N-m-c)^(y) starts at x = N - m - c >= 0 (D = 0 at x = 0, and
    then r = inf and s = 0.0).

    |r - ln(C/|D|)| <= err = 2**-48 (size + 1), where size sums the
    magnitudes of the terms of both logs (_log_falling). The bound is
    measured, not proven: against exact rational products of the float m
    (tests/oracles.py), at 9600 points with N <= 10**4, a quarter each
    anywhere, where D's run crosses zero, a few ulps from a zero of D and at
    x = 0, the largest error was 11.1 * 2**-52 (size + 1), at a run above
    zero whose lgamma values lie near their zeros at 1 and 2.
    """
    lc, _, sc = _log_falling(m - c, y)
    ld, s, sd = _log_falling(N - m - c, y)
    return lc - ld, s, _R_ERR * (sc + sd + 1.0)


def _ratio(m: float, N: int, c: int, y: int) -> tuple[float, float, int]:
    """(r, s, k) with D/C = s e^-r, where C + D = C (1 + s e^-r).

    With u = m - N/2 and b_i = N/2 - c - i, C = prod(b_i + u) and
    D = prod(b_i - u). C's last k terms are the pairs +-|b| and any b = 0,
    the block, a factor of D too, times (-1)^k. So r = sum ln|(b+u)/(b-u)|
    over the unpaired run R, C's first n = y - k terms, where every b > 0.

    r is taken from _log_ratio where that shows r > _FAR + err, which is
    tried for c + y >= _SHORT_WALK and c + y - 1 < m <= N - c. Otherwise it
    is summed over R. For u >= 0 each term is log1p of a positive ratio:
    2u/hi where hi = (N-c-i) - m > 0, and 2b/|hi| where hi < 0, hi being
    exact on [0, N]. For u < 0 the terms are mirrored, with lo = m - (c+i)
    in place of hi and the opposite sign. A term is exact to a few ulps,
    the terms share the sign of u, and fsum adds them. A zero hi gives
    r = inf (D = 0), a zero lo r = -inf (C = 0).
    """
    k = max(0, 2 * (c + y) - 1 - N)
    if c + y >= _SHORT_WALK and c + y - 1 < m <= N - c:
        r, s, err = _log_ratio(m, N, c, y)
        if r > _FAR + err:
            return r, s, k
    n = y - k
    if 2.0 * m >= N:
        z, d, sign = (N - c) - m, 2.0 * m - N, 1.0
    else:
        z, d, sign = m - c, N - 2.0 * m, -1.0
    p = min(n, max(0, math.ceil(z)))  # the terms where lo and hi share a sign
    if p < n and z == p:
        return sign * math.inf, 1.0, k
    log1p = math.log1p
    terms = [log1p(d / (z - i)) for i in range(p)]
    terms += [log1p((N - 2 * (c + i)) / (i - z)) for i in range(p, n)]
    return sign * math.fsum(terms), -1.0 if (k + n - p) % 2 else 1.0, k


@functools.lru_cache(maxsize=64)
def _den(N: int, n: int) -> tuple:
    """N^(n), walked over the exact integers N, N-1, ..."""
    return kernel._walk(float(N), (n,))[0]


# ln 2 in two parts, as fdlibm's log splits it: _LN2_HI has 32 significant
# bits, so k * _LN2_HI is exact for |k| < 2**21.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _factor(r: float, s: float) -> tuple[float, float]:
    """(1 + s e^-|r|, e^-|r|), the first from expm1 where s < 0, so that it
    does not cancel."""
    x = math.exp(-abs(r))
    return (1.0 + x if s > 0.0 else -math.expm1(-abs(r))), x


def loglik_kernel(m: float, N: int, c: int, y: int) -> float:
    """L(m), defined wherever the two-term sum is positive.

    C + D is the larger of the two times 1 + s e^-|r| (see _ratio): C for
    r >= 0 (m >= N/2), walked with A from m, and D = (-1)^k Q D_R for
    r < 0, with the block Q walked with A from m and the unpaired run D_R
    from the exact (N - c) - m. B is walked from N - m. A zero term of C
    or D outside the block gives r = -inf or inf, where C + D is the other
    one exactly; a zero term in the block zeroes both.
    """
    _check_nc(N, c, y, m)
    r, s, k = _ratio(m, N, c, y)
    if r >= 0.0:
        A, X = kernel._walk(m, (c, y))
    else:
        A, _, Q = kernel._walk(m, (c, y - k, k))
        (D,) = kernel._walk((N - c) - m, (y - k,))
        X = ((-Q[0] if k % 2 else Q[0]) * D[0], Q[1] + D[1])
    (B,) = kernel._walk(N - m, (c,))
    t = A[0] * B[0] * (X[0] * _factor(r, s)[0])
    if t <= 0.0:
        raise DomainError(
            f"likelihood kernel undefined: the bracketed sum is <= 0 at m={m}"
        )
    den = _den(N, 2 * c + y)
    # the binary exponents cancel as integers before any log is taken, and
    # their k ln 2 is added last, with one rounding
    k = A[1] + B[1] + X[1] - den[1]
    return k * _LN2_HI + (math.log(t / den[0]) + k * _LN2_LO)


def _grad_hess(m: float, N: int, c: int, y: int, check: bool = False) -> tuple[float, float]:
    """(L', L'') from the runs' sums h = sum 1/(z-i) and q = sum 1/(z-i)^2:
    P'/P = h and (log P)'' = -q for a factorial polynomial P in z, so
    P''/P = h^2 - q.

    C + D = Q (C_R + D_R'), with Q the block and C_R, D_R' = (-1)^k D_R the
    unpaired run (see _ratio). L' = A'/A + Q'/Q - B'/B + wc h_C - wd h_D
    with weights wc = C_R/(C_R + D_R') and wd = D_R'/(C_R + D_R'), both
    from (r, s); B and D run in N - m, which flips the sign of their h. The
    block enters unweighted, as A does. Each run starts at an exact float:
    m, m - c, (N - c) - m and m - (c + n); N - m rounds for m < N/2, where
    B has no term near zero. A zero term is a pole and raises. With check,
    S <= 0 raises too: the sign of S is the parity of the negative terms of
    A, B and C times the sign of 1 + s e^-r.
    """
    r, s, k = _ratio(m, N, c, y)
    n = y - k
    ha, qa = kernel._harmonic(m, c)
    hb, qb = kernel._harmonic(N - m, c)
    hc, qc = kernel._harmonic(m - c, n)
    hd, qd = kernel._harmonic((N - c) - m, n)
    if k:
        hq, qq = kernel._harmonic(m - (c + n), k)
        ha, qa = ha + hq, qa + qq
    # the smaller weight is s x/f, and wc + wd = 1 gives the other with one
    # rounding; past r = _FAR they are 1.0 and s e^-r
    f, x = _factor(r, s)
    w = s * x / f
    wc, wd = (w, 1.0 - w) if r < 0.0 else (1.0 - w, w)
    if check:
        # the parity of the negative terms of A, B and C; 1 + s e^-r has the
        # sign of f, or of s where r < 0
        runs = ((m, c), (N - m, c), (m - c, y))
        odd = sum(j - min(j, max(0, math.ceil(z))) for z, j in runs) % 2
        if f == 0.0 or (r < 0.0 and s < 0.0) != bool(odd):
            raise DomainError(
                f"likelihood kernel undefined: the bracketed sum is <= 0 at m={m}"
            )
    v = wc * hc - wd * hd
    return ha - hb + v, wc * (hc**2 - qc) + wd * (hd**2 - qd) - v * v - qa - qb


def loglik_grad(m: float, N: int, c: int, y: int) -> float:
    """L', from the same terms as L'' (see _grad_hess)."""
    _check_nc(N, c, y, m)
    return _grad_hess(m, N, c, y, check=True)[0]


def loglik_hess(m: float, N: int, c: int, y: int) -> float:
    """L'', from the same terms as L' (see _grad_hess)."""
    _check_nc(N, c, y, m)
    return _grad_hess(m, N, c, y, check=True)[1]


def phi(N: int, c: int, y: int) -> float:
    """Curvature sign of L at m = N/2.

    phi = sum_{0<=k<k'<=y-1} 1/((N/2-c-k)(N/2-c-k')) - sum_{i=0}^{c-1} (N/2-i)^{-2};
    sign(phi) = sign(L''(N/2)). The pairwise sum is empty for y <= 1, so phi
    starts negative and increases with y. Odd N evaluates at real N/2. The
    pairwise sum is (h1^2 - h2)/2 over the run N/2 - c, N/2 - c - 1, ...,
    and the penalty is h2 over N/2, N/2 - 1, ...: kernel._harmonic gives
    both in O(1).
    """
    _check_nc(N, c, y)
    v = _phi(N, c, y)
    if math.isnan(v):
        raise DomainError(f"phi undefined: N/2 - c - k vanishes at k={N // 2 - c}")
    return v


def _phi(N: int, c: int, y: int) -> float:
    """phi, or nan at a pole of phi."""
    try:
        total, squares = kernel._harmonic(N / 2 - c, y)
    except DomainError:
        return math.nan
    pairwise = 0.5 * (total * total - squares)
    return pairwise - kernel._harmonic(N / 2, c)[1]


def classify_critical_point(N: int, c: int, y: int) -> CriticalPointReport:
    """Sign analysis at N/2.

    Where c + y - 1 >= N/2, L is not maximal at N/2: it vanishes there for
    even N (phi has a pole, so phi_value is nan) and at N/2 +- 1/2 for odd
    N. That is ZERO_AT_HALF. Otherwise phi < 0 makes N/2 the global maximum
    and phi >= 0 a local minimum.
    """
    _check_nc(N, c, y)
    v = _phi(N, c, y)
    if c + y - 1 >= N / 2:
        kind = Classification.ZERO_AT_HALF
    elif v < 0:
        kind = Classification.GLOBAL_MAX_AT_HALF
    else:
        kind = Classification.LOCAL_MIN_AT_HALF
    return CriticalPointReport(v, kind)


def _gradient_root(gh, lo: float, hi: float, run: float = math.inf) -> float:
    """Where g = L' falls through zero on (lo, hi], for gh(m) = (L', L'').

    L rises just right of lo, so g is never read there. Nor is it read at
    hi, where a term of D may be zero, but one float inside, or one float
    below run where every float of [run, hi] is a zero of D:
    if L still rises there, hi is the maximizer. Otherwise Newton's method
    finishes on (lo, that float] from the midpoint, safeguarded by bisection
    (rtsafe, Numerical Recipes 9.4): a Newton step that would leave the
    bracket, or fails to halve the step before last, is replaced by a
    bisection. It stops at a step below M_TOL/100. Where gh raises
    DomainError (a zero term of D at an integer m), g is read one
    float further into the bracket. Where no float of (lo, hi) lies below
    run, g can be read nowhere, and DomainError is raised.
    """

    def read(x: float, toward: float) -> tuple[float, float, float]:
        while True:
            try:
                return (x, *gh(x))
            except DomainError:
                x = math.nextafter(x, toward)

    b = math.nextafter(min(hi, run), lo)
    if b <= lo:
        raise DomainError(
            f"L' cannot be read at any float of ({lo}, {hi}): each is a zero of D"
        )
    b, g, _ = read(b, lo)
    if g > 0.0:
        return hi
    a = lo
    x = 0.5 * (a + b)
    step = last = b - a
    while True:
        x, g, h = read(x, b)
        if g < 0.0:
            b = x
        elif g > 0.0:
            a = x
        else:
            return x
        # x - g/h lies strictly inside (a, b) iff the two factors differ in sign
        outside = ((x - a) * h - g) * ((x - b) * h - g) >= 0.0
        if outside or abs(2.0 * g) > abs(last * h):
            last, step = step, 0.5 * (b - a)
            x_new = a + step
        else:
            last, step = step, g / h
            x_new = x - step
        if x_new == x or abs(step) < M_TOL * 1e-2:
            return x_new
        x = x_new


def mle(N: int, c: int, y: int) -> set[float]:
    """Maximum-likelihood estimates of m, always as the symmetric set.

    With u = m - N/2 and b_i = N/2 - c - i (i < y), C = prod(b_i + u) and
    D = prod(b_i - u). Since y <= N - 2c, every negative b_i pairs with
    +|b_i|, and each pair puts the same factor u^2 - b_i^2 into C and D, so
    S = A B (C + D) > 0 on (lo, N - c] with lo = max(N/2, c + y - 1), and
    S = 0 at lo whenever c + y - 1 >= N/2. Where classify_critical_point
    finds N/2 the global maximum, {N/2} is returned. Otherwise the
    maximizer m_hat is the root of L' on (lo, N - c] found by
    _gradient_root, and {m_hat, N - m_hat} is returned. That the global
    maximum of L lies on this interval, as its only local maximum, is
    measured (every input with N <= 40), not proven.

    No read walks. Each read of L' and L'' costs O(1) where
    c + y >= _SHORT_WALK and C dwarfs |D| (see _ratio); the reads near
    N/2, and every read of a shape with c + y < _SHORT_WALK, sum r over the
    unpaired run, at most y terms.
    """
    _check_nc(N, c, y)
    if classify_critical_point(N, c, y).classification is Classification.GLOBAL_MAX_AT_HALF:
        return {N / 2}
    lo = max(N / 2, c + y - 1)
    # From 2**52 up every float is an integer, so D's zeros N - c - i (i < y)
    # are floats there; the first read starts below them all instead of
    # stepping past them one at a time
    run = float(max(N - c - y + 1, 2**52))
    m_hat = _gradient_root(lambda m: _grad_hess(m, N, c, y), lo, float(N - c), run)
    return {m_hat, N - m_hat}


def profile(
    N: int, c: int, y: int, grid_spec: tuple[float, float, float]
) -> LikelihoodProfile:
    """L on the grid lo + k step, k = 0, 1, ..., K, plus the maximizer set.

    K is the largest k with lo + k step <= hi, allowing for the rounding of
    n = (hi - lo)/step: K = floor(n (1 + _GRID_SLACK)), so a point past hi
    by at most 2**-40 of the span is kept. (3, 17, 0.25) has 57 points,
    ending at 17, and (0.1, 0.3, 0.1) 3, though n rounds to
    1.9999999999999998; (3, 17, 0.3) ends at 16.8.

    Bad shapes and impossible y raise as in mle. A grid point where L is
    undefined (the two-term sum is not positive there, or m is outside
    [0, N]) gets nan. A grid that is not three numbers, whose ends, step,
    point count or last point are not finite, or that has more than
    _MAX_ROWS = 10**6 points, the cap on a table's rows, raises
    ParameterError.
    """
    if not (isinstance(grid_spec, Sequence) and len(grid_spec) == 3):
        raise ParameterError(f"grid must be (lo, hi, step), got {grid_spec!r}")
    lo, hi, step = map(_real, ("lo", "hi", "step"), grid_spec)
    n = (hi - lo) / step if step > 0 and hi >= lo else math.nan
    # an end or a step that is not finite makes n or the last point not finite;
    # a grid past the cap is refused whatever K is, and min keeps K finite
    K = math.floor(min(n, _MAX_ROWS) * (1 + _GRID_SLACK)) if math.isfinite(n) else -1
    if K < 0 or not math.isfinite(lo + K * step):
        raise ParameterError(f"bad grid {lo}:{hi}:{step}")
    if K >= _MAX_ROWS:
        raise ParameterError(f"grid {lo}:{hi}:{step} has more than {_MAX_ROWS} points")
    maximizers = mle(N, c, y)

    def value(m: float) -> float:
        try:
            return loglik_kernel(m, N, c, y)
        except DomainError:
            return math.nan

    grid = [lo + k * step for k in range(K + 1)]
    return LikelihoodProfile(N, c, y, grid, [value(g) for g in grid], maximizers)
