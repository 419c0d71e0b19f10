"""Estimating the urn composition m from one observed waiting time.

With (N, c) known and one observation y of the both-colors excess wait, the
m-dependent part of the log-likelihood is

    L(m) = log{ (m^(c) (N-m)^(c+y) + m^(c+y) (N-m)^(c)) / N^(2c+y) },

treated as a function of continuous m. It satisfies L(m) = L(N-m), so m and
N-m cannot be told apart and every estimate here is the full symmetric set.
m = N/2 is always a critical point; whether it is the global maximum or a
local minimum flanked by two symmetric maxima is decided by the sign of the
quantity phi below, which is negative for small y and grows with y.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from . import kernel
from .errors import DomainError, ParameterError

# Search brackets stay this far inside pole/zero points of the likelihood.
EDGE_CLIP = 1e-6
# Maximizer location tolerance.
M_TOL = 1e-8

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def _check_nc(N: int, c: int, y: int) -> None:
    if c < 1 or 2 * c > N:
        raise ParameterError(f"no valid m exists for N={N}, c={c}")
    if y < 0:
        raise ParameterError(f"y must be nonnegative, got {y}")


def _parts(m: float, N: int, c: int, y: int, moments: int = 0):
    """S = A B (C + D) from two walks of c + y terms: A = m^(c), C = (m-c)^(y),
    B = (N-m)^(c), D = (N-m-c)^(y). The two products are A B D and A B C, so
    C + D has their relative residual and takes the CANCEL_EPS zero rule.
    Returns the four walk runs, C/(C+D), D/(C+D), and C + D as s * 2**e.
    """
    A, C = kernel._walk(m, (c, y), moments)
    B, D = kernel._walk(N - m, (c, y), moments)
    e = max(C[1], D[1])
    cv, dv = math.ldexp(C[0], C[1] - e), math.ldexp(D[0], D[1] - e)
    s = cv + dv
    if A[0] * B[0] * s <= 0.0 or abs(s) <= kernel.CANCEL_EPS * max(abs(cv), abs(dv)):
        raise DomainError(
            f"likelihood kernel undefined: the bracketed sum is <= 0 at m={m}"
        )
    return A, B, C, D, cv / s, dv / s, s, e


@functools.lru_cache(maxsize=64)
def _den(N: int, n: int) -> tuple:
    """N^(n), walked over the exact integers N, N-1, ..."""
    return kernel._walk(float(N), (n,))[0]


def loglik_kernel(m: float, N: int, c: int, y: int) -> float:
    """L(m), defined wherever the two-term sum is positive."""
    _check_nc(N, c, y)
    if 2 * c + y > N:
        raise DomainError(f"y={y} is impossible for N={N}, c={c}")
    A, B, _, _, _, _, s, e = _parts(m, N, c, y)
    den = _den(N, 2 * c + y)
    # the binary exponents cancel as integers before any log is taken
    return math.log(A[0] * B[0] * s / den[0]) + (A[1] + B[1] + e - den[1]) * kernel._LN2


def loglik_grad(m: float, N: int, c: int, y: int) -> float:
    """L' = A'/A + B'/B + (C' + D')/(C + D), where P'/P = sum 1/(z-i) for a
    factorial polynomial in z; B and D run in N - m, which flips the sign."""
    _check_nc(N, c, y)
    A, B, C, D, wc, wd, _, _ = _parts(m, N, c, y, 1)
    return A[2] - B[2] + wc * C[2] - wd * D[2]


def _grad_hess(m: float, N: int, c: int, y: int) -> tuple[float, float]:
    """(L', L'') from one walk: (log P)'' = -sum 1/(z-i)^2 and
    P''/P = (P'/P)^2 + (log P)''."""
    A, B, C, D, wc, wd, _, _ = _parts(m, N, c, y, 2)
    v = wc * C[2] - wd * D[2]
    h = wc * (C[2] ** 2 - C[3]) + wd * (D[2] ** 2 - D[3]) - v * v - A[3] - B[3]
    return A[2] - B[2] + v, h


def loglik_hess(m: float, N: int, c: int, y: int) -> float:
    """L'', from the same terms as L' (see _grad_hess)."""
    _check_nc(N, c, y)
    return _grad_hess(m, N, c, y)[1]


def phi(N: int, c: int, y: int) -> float:
    """Curvature sign of L at m = N/2.

    phi = sum_{0<=k<k'<=y-1} 1/((N/2-c-k)(N/2-c-k')) - sum_{i=0}^{c-1} (N/2-i)^{-2};
    sign(phi) = sign(L''(N/2)). The pairwise sum is empty for y <= 1, so phi
    starts negative and increases with y. Odd N evaluates at real N/2.
    """
    _check_nc(N, c, y)
    recips = []
    for k in range(y):
        d = N / 2 - c - k
        if d == 0.0:
            raise DomainError(f"phi undefined: N/2 - c - k vanishes at k={k}")
        recips.append(1.0 / d)
    total = math.fsum(recips)
    squares = math.fsum(r * r for r in recips)
    pairwise = 0.5 * (total * total - squares)
    penalty = math.fsum(1.0 / (N / 2 - i) ** 2 for i in range(c))
    return pairwise - penalty


def classify_critical_point(N: int, c: int, y: int) -> CriticalPointReport:
    """Sign analysis at N/2; where phi has a pole (even N, y > N/2 - c), N/2
    is a zero of the likelihood: ZERO_AT_HALF, with phi_value nan."""
    try:
        v = phi(N, c, y)
    except DomainError:
        return CriticalPointReport(math.nan, Classification.ZERO_AT_HALF)
    if v < 0:
        return CriticalPointReport(v, Classification.GLOBAL_MAX_AT_HALF)
    return CriticalPointReport(v, Classification.LOCAL_MIN_AT_HALF)


def _golden_max(f, a: float, b: float, width: float) -> tuple[float, float]:
    """Golden-section bracket shrink for a maximum of f on [a, b], to width
    or until rounding stops it shrinking (a width below one ulp of m)."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    last = math.inf
    while width < b - a < last:
        last = b - a
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
    return a, b


def _gradient_root(gh, a: float, b: float, lo: float, hi: float) -> float:
    """Where g = L' falls through zero, for gh(m) = (L', L'').

    [a, b] steps the way g points, by doubling steps inside [lo, hi], until
    g(a) >= 0 >= g(b). If L still rises at hi, or falls from lo, that end
    is the maximizer. Otherwise Newton's method finishes from the midpoint,
    safeguarded by bisection (rtsafe, Numerical Recipes 9.4): a Newton step
    that would leave the bracket, or fails to halve the step before last,
    is replaced by a bisection. It stops at a step below M_TOL/100.
    """
    ga, gb = gh(a)[0], gh(b)[0]
    w = b - a
    while gb > 0.0 and b < hi:
        a, ga, b = b, gb, min(b + w, hi)
        gb, w = gh(b)[0], 2.0 * w
    while ga < 0.0 and a > lo:
        b, gb, a = a, ga, max(a - w, lo)
        ga, w = gh(a)[0], 2.0 * w
    if gb > 0.0:
        return b
    if ga < 0.0:
        return a
    x = 0.5 * (a + b)
    step = last = b - a
    while True:
        g, h = gh(x)
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

    If phi < 0 the likelihood peaks at N/2 and {N/2} is returned. Otherwise
    the maximizer m_hat is the root of L' on (N/2, N-c] found by
    _gradient_root, and {m_hat, N - m_hat} is returned. For y <= N/2 - c
    every factor of C = (m-c)^(y) exceeds the matching |factor| of
    D = (N-m-c)^(y) for m > N/2, so L is defined on the whole range and the
    search starts from [N/2, N-c]. For y > N/2 - c, and so whenever N/2 is
    a zero of the likelihood, L can have several local maxima there:
    golden-section search on L brackets one to 1e-6 first. Where the
    gradient is undefined, golden-section search finishes instead.
    """
    if 2 * c + y > N:
        raise DomainError(f"y={y} is impossible for N={N}, c={c}")
    half = N / 2
    if classify_critical_point(N, c, y).phi_value < 0:
        return {half}

    def f(m: float) -> float:
        try:
            return loglik_kernel(m, N, c, y)
        except DomainError:
            return -math.inf

    lo, hi = half, N - c - EDGE_CLIP
    a, b = (lo, hi) if y <= half - c else _golden_max(f, lo, hi, 1e-6)
    try:
        m_hat = _gradient_root(lambda m: _grad_hess(m, N, c, y), a, b, lo, hi)
    except DomainError:
        a, b = _golden_max(f, a, b, M_TOL * 1e-2)
        m_hat = 0.5 * (a + b)
    return {m_hat, N - m_hat}


def profile(
    N: int, c: int, y: int, grid_spec: tuple[float, float, float]
) -> LikelihoodProfile:
    """L on an inclusive lo:hi:step grid, plus the maximizer set."""
    lo, hi, step = grid_spec
    if step <= 0 or hi < lo:
        raise ParameterError(f"bad grid {lo}:{hi}:{step}")
    n = round((hi - lo) / step)
    grid = [lo + k * step for k in range(n + 1)]
    values = [loglik_kernel(g, N, c, y) for g in grid]
    return LikelihoodProfile(N, c, y, grid, values, mle(N, c, y))
