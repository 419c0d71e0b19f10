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
    """The shape (N, c, y) and, for the likelihood, a finite m."""
    _check_band(N, c)
    _float("N", N)
    if 2 * c + _int("y", y, 0) > N:
        raise DomainError(f"y={y} is impossible for N={N}, c={c}")
    if not math.isfinite(_real("m", m)):
        raise ParameterError(f"m must be finite, got {m!r}")


def _zero_run(m: float, N: int, c: int, y: int) -> tuple[float, int] | None:
    """(u, P) where C + D has its zero at m = N/2, else None.

    With u = m - N/2 and b_i = N/2 - c - i (i < y), C = prod(b_i + u) and
    D = prod(b_i - u). For even N with y > N/2 - c the b_i run through 0,
    which puts u into C and -u into D, and the P = c + y - 1 - N/2 negative
    b pair with +|b|, which puts u^2 - b^2 into both. So D/C = -e^-r, with
    r over the unpaired run P+1..N/2-c (_unpaired_ratio), and C + D =
    -C expm1(-r) does not cancel. It is taken for |u| < P + 1, where every
    term of r is finite.
    """
    P = c + y - 1 - N // 2
    if P < 0 or N % 2:
        return None
    u = m - N // 2
    return (u, P) if abs(u) < P + 1 else None


def _unpaired_ratio(u: float, lo: int, hi: int) -> float:
    """r = sum of ln((b+u)/(b-u)) over b = lo..hi, for |u| < lo.

    Each term is exact to a few ulps: log1p(2u/(b-u)) where the ratio lies
    in [1/2, 3/2], else the log of the ratio, which is at least ln 1.5 in
    size there. The terms share the sign of u, and fsum adds them exactly.
    """

    def term(b: int) -> float:
        x = 2.0 * u / (b - u)
        return math.log1p(x) if -0.5 <= x <= 0.5 else math.log((b + u) / (b - u))

    return math.fsum(map(term, range(lo, hi + 1)))


def _parts(m: float, N: int, c: int, y: int):
    """S = A B (C + D) from the walks of A = m^(c), C = (m-c)^(y) and
    B = (N-m)^(c). Returns the runs A and B, the weights (C/(C+D), D/(C+D)),
    and C + D as s * 2**e * e**g. S <= 0 raises DomainError.

    Off _zero_run, D = (N-m-c)^(y) is walked too, and g = 0.0. Near the
    zero, C + D = -C expm1(-r), and g = ln|expm1(-r)| keeps the factor from
    overflowing. C's terms are exact floats; D's start, N - m, rounds for
    m < N/2, so D is not walked. At m = N/2, C = 0.0 and S = 0 raises. The
    weights are None there: _grad_hess takes them from r.

    loglik_kernel walks at every m. _grad_hess walks only off _zero_run,
    where _weights has no O(1) answer: c + y < _SHORT_WALK, m outside
    (c + y - 1, N - c], or r <= _FAR + err, where C and |D| are near in size.
    """
    A, C = kernel._walk(m, (c, y))
    zero = _zero_run(m, N, c, y)
    if zero is None:
        B, D = kernel._walk(N - m, (c, y))
        e = max(C[1], D[1])
        cv, dv = math.ldexp(C[0], C[1] - e), math.ldexp(D[0], D[1] - e)
        s = cv + dv
    else:
        u, P = zero
        (B,) = kernel._walk(N - m, (c,))
        r = _unpaired_ratio(u, P + 1, N // 2 - c)
        s, e = (C[0] if r > 0.0 else -C[0]), C[1]
    if A[0] * B[0] * s <= 0.0:
        raise DomainError(
            f"likelihood kernel undefined: the bracketed sum is <= 0 at m={m}"
        )
    if zero is None:
        return A, B, (cv / s, dv / s), s, e, 0.0
    return A, B, None, s, e, max(-r, 0.0) + math.log(-math.expm1(-abs(r)))


# Past this log-ratio, |D/C| < 2**-64, so C + D rounds to C in floats and a
# walk would give C/(C+D) = 1.0 exactly.
_FAR = 45.0

# The bound on the error of r, per unit of the magnitudes of the terms it
# sums (see _log_ratio).
_R_ERR = 2.0**-48

# Reads with c + y below this walk at once. Measured over every (N, c, y)
# with N <= 120: below it, computing r first cost more than the walks it
# saved, and from it on it cost less.
_SHORT_WALK = 24


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


def _weights(m: float, N: int, c: int, y: int) -> tuple[float, float]:
    """(C/(C+D), D/(C+D)): from r when C dwarfs D, where they are 1.0 and
    s e^-r, otherwise from the walk (_parts)."""
    if c + y >= _SHORT_WALK and c + y - 1 < m <= N - c:
        r, s, err = _log_ratio(m, N, c, y)
        if r > _FAR + err:
            return 1.0, s * math.exp(-r)
    return _parts(m, N, c, y)[2]


@functools.lru_cache(maxsize=64)
def _den(N: int, n: int) -> tuple:
    """N^(n), walked over the exact integers N, N-1, ..."""
    return kernel._walk(float(N), (n,))[0]


# ln 2 in two parts, as fdlibm's log splits it: _LN2_HI has 32 significant
# bits, so k * _LN2_HI is exact for |k| < 2**21.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def loglik_kernel(m: float, N: int, c: int, y: int) -> float:
    """L(m), defined wherever the two-term sum is positive."""
    _check_nc(N, c, y, m)
    A, B, _, s, e, g = _parts(m, N, c, y)
    den = _den(N, 2 * c + y)
    # the binary exponents cancel as integers before any log is taken, and
    # their k ln 2 is added last, with one rounding
    k = A[1] + B[1] + e - den[1]
    return k * _LN2_HI + (math.log(A[0] * B[0] * s / den[0]) + (k * _LN2_LO + g))


def _grad_hess(m: float, N: int, c: int, y: int) -> tuple[float, float]:
    """(L', L'') from the weights C/(C+D) and D/(C+D) (_weights) and four
    runs' sums h = sum 1/(z-i) and q = sum 1/(z-i)^2: P'/P = h and
    (log P)'' = -q for a factorial polynomial P in z, so P''/P = h^2 - q.
    L' = A'/A + B'/B + (C' + D')/(C + D), where B and D run in N - m, which
    flips the sign of their h. The sums come first, so a pole (a zero term)
    raises before any walk.

    Near the zero (_zero_run), C + D = u Q (C_R - D_R), with Q the pairs
    and C_R, D_R the unpaired run: the formula holds with C_R and D_R,
    weighted by -1/expm1(-r) and -1/expm1(r), and the block u Q (the terms
    u + b for b = -P..P, a pole at u = 0) adds its sums unweighted. Each
    run starts at an exact float: m - (N/2 - P), m - c and (N - c) - m.
    """
    ha, qa = kernel._harmonic(m, c)
    hb, qb = kernel._harmonic(N - m, c)
    zero = _zero_run(m, N, c, y)
    if zero is None:
        hc, qc = kernel._harmonic(m - c, y)
        hd, qd = kernel._harmonic(N - m - c, y)
        wc, wd = _weights(m, N, c, y)
    else:
        u, P = zero
        n = N // 2 - c - P
        hu, qu = kernel._harmonic(m - (N // 2 - P), 2 * P + 1)
        hc, qc = kernel._harmonic(m - c, n)
        hd, qd = kernel._harmonic((N - c) - m, n)
        # -1/expm1(-r) and -1/expm1(r), from expm1 at -|r|, which cannot
        # overflow
        r = _unpaired_ratio(u, P + 1, N // 2 - c)
        t = math.expm1(-abs(r))
        wc, wd = -1.0 / t, math.exp(-abs(r)) / t
        if r < 0.0:
            wc, wd = wd, wc
        ha, qa = ha + hu, qa + qu  # the block enters unweighted, as A does
    v = wc * hc - wd * hd
    return ha - hb + v, wc * (hc**2 - qc) + wd * (hd**2 - qd) - v * v - qa - qb


def loglik_grad(m: float, N: int, c: int, y: int) -> float:
    """L', from the same terms as L'' (see _grad_hess)."""
    _check_nc(N, c, y, m)
    return _grad_hess(m, N, c, y)[0]


def loglik_hess(m: float, N: int, c: int, y: int) -> float:
    """L'', from the same terms as L' (see _grad_hess)."""
    _check_nc(N, c, y, m)
    return _grad_hess(m, N, c, y)[1]


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


def _gradient_root(gh, lo: float, hi: float) -> float:
    """Where g = L' falls through zero on (lo, hi], for gh(m) = (L', L'').

    L rises just right of lo, so g is never read there. Nor is it read at
    hi, where a term of D may be zero, but one float inside:
    if L still rises there, hi is the maximizer. Otherwise Newton's method
    finishes on (lo, that float] from the midpoint, safeguarded by bisection
    (rtsafe, Numerical Recipes 9.4): a Newton step that would leave the
    bracket, or fails to halve the step before last, is replaced by a
    bisection. It stops at a step below M_TOL/100. Where gh raises
    DomainError (a zero term of D at an integer m), g is read one
    float further into the bracket.
    """

    def read(x: float, toward: float) -> tuple[float, float, float]:
        while True:
            try:
                return (x, *gh(x))
            except DomainError:
                x = math.nextafter(x, toward)

    b, g, _ = read(math.nextafter(hi, lo), lo)
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

    Each read of L' and L'' costs O(1) where c + y >= _SHORT_WALK and C
    dwarfs |D| (see _weights); only the reads near N/2, and every read of
    a shape with c + y < _SHORT_WALK, walk the 2(c + y) terms of _parts.
    """
    _check_nc(N, c, y)
    if classify_critical_point(N, c, y).classification is Classification.GLOBAL_MAX_AT_HALF:
        return {N / 2}
    lo = max(N / 2, c + y - 1)
    m_hat = _gradient_root(lambda m: _grad_hess(m, N, c, y), lo, float(N - c))
    return {m_hat, N - m_hat}


def profile(
    N: int, c: int, y: int, grid_spec: tuple[float, float, float]
) -> LikelihoodProfile:
    """L on an inclusive lo:hi:step grid, plus the maximizer set.

    Bad shapes and impossible y raise as in mle. A grid point where L is
    undefined (the two-term sum is not positive there) gets nan. A grid
    that is not three numbers, whose ends, step, point count or points are
    not finite, or that has more than _MAX_ROWS = 10**6 points, the cap on
    a table's rows, raises ParameterError.
    """
    if not (isinstance(grid_spec, Sequence) and len(grid_spec) == 3):
        raise ParameterError(f"grid must be (lo, hi, step), got {grid_spec!r}")
    lo, hi, step = map(_real, ("lo", "hi", "step"), grid_spec)
    n = (hi - lo) / step if step > 0 and hi >= lo else math.nan
    # an end or a step that is not finite makes n or the last point not finite
    if not (math.isfinite(n) and math.isfinite(lo + round(n) * step)):
        raise ParameterError(f"bad grid {lo}:{hi}:{step}")
    if round(n) >= _MAX_ROWS:
        raise ParameterError(f"grid {lo}:{hi}:{step} has more than {_MAX_ROWS} points")
    maximizers = mle(N, c, y)

    def value(m: float) -> float:
        try:
            return loglik_kernel(m, N, c, y)
        except DomainError:
            return math.nan

    grid = [lo + k * step for k in range(round(n) + 1)]
    return LikelihoodProfile(N, c, y, grid, [value(g) for g in grid], maximizers)
