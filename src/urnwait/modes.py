"""Mode structure of the both-colors waiting-time distribution.

The pmf always has a local mode at y=0 (the first two masses sit in the
fixed ratio (c+1)/c), and depending on (N, m, c) may grow a second interior
mode. This module locates the modes of a tabulated pmf and bisects over m
for where the distribution stays unimodal: where y=0 is the only mode.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .distributions import Dist, PmfTable, UrnParams, maxnh_pmf
from .distributions import _LAST_Y, _check_band, _check_params, _finite_weights, _float, _table
from .errors import DomainError

# Table rows carry the rounding of their ratio recurrence, a few ulp per
# row walked, so two masses that are equal in exact arithmetic can differ in
# the last digits; equality of adjacent masses (a plateau) is declared at
# this relative tolerance.
EQ_RTOL = 1e-12


@dataclass(frozen=True)
class ModeReport:
    """Local maxima of a pmf table.

    For maxnh, modes contains 0 unless the head underflows to 0.0 (as at
    (N, m, c) = (10**6, 100, 100)): y=0 is then still a mode of the law, but
    it is not reported. Since y=0 is always a mode of maxnh, is_unimodal
    there means modes == [0], as in unimodal_m_range's verdict, so an
    underflowed head reads bimodal; for every other law it means exactly
    one reported mode. p0_over_p1 is the first mass ratio, nan for a
    single-point support and where the second mass underflows to 0.0.
    """

    modes: list[int]
    is_unimodal: bool
    p0_over_p1: float


def _eq(a: float, b: float) -> bool:
    return abs(a - b) <= EQ_RTOL * max(abs(a), abs(b))


def _modes(probs) -> list[int]:
    """Indices of the local maxima of probs; an equal-valued plateau (_eq)
    counts once, at its left end. Every comparison is relative, so scaling
    probs moves no index, unless two neighbours differ by about EQ_RTOL or
    a row leaves the range of normal floats."""
    n = len(probs)
    modes = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and _eq(probs[j + 1], probs[j]):
            j += 1
        rising = i == 0 or probs[i] > probs[i - 1]
        falling = j == n - 1 or probs[j + 1] < probs[j]
        if rising and falling:
            modes.append(i)
        i = j + 1
    return modes


def local_modes(table: PmfTable) -> ModeReport:
    """Find local maxima; an equal-valued plateau counts once, at its left end."""
    probs = _table(table).probs
    modes = _modes(probs)
    ratio = probs[0] / probs[1] if len(probs) >= 2 and probs[1] else math.nan
    unimodal = modes == [0] if table.dist is Dist.MAXNH else len(modes) == 1
    return ModeReport(modes, unimodal, ratio)


def p0_p1_ratio(params: UrnParams) -> float:
    """Pr[Y=0]/Pr[Y=1]; always equals (c+1)/c when y=1 is in support.

    Raises DomainError for the support {0}, and where Pr[Y=1] underflows
    to 0.0 (as at (N, m, c) = (10**6, 100, 100)): the ratio is then not
    reported.
    """
    if _LAST_Y[_check_params(Dist.MAXNH, params)](params) < 1:
        raise DomainError("support is {0}: the ratio needs y=1 in support")
    p1 = maxnh_pmf(params, 1)
    if not p1:
        raise DomainError(f"Pr[Y=1] underflows to 0.0 at {params}")
    return maxnh_pmf(params, 0) / p1


def unimodal_m_range(N: int, c: int) -> list[tuple[int, int]]:
    """All m whose distribution is unimodal, as a list of intervals (lo, hi).

    m runs over the valid band c..N-c, less the degenerate point mass at
    m = c = N/2. On c <= m <= N/2 the verdict is bimodal below some m* and
    unimodal from m* on (measured, not proven: exact-rational verdicts
    certify it for every (N, c) with N <= 100), so m* is found by bisection
    from about log2 N verdicts. The rows of m and N-m are bit-identical
    (distributions._log_comb), so the answer is [(m*, N - m*)], or [] when
    m = N//2 is not unimodal. Raises when no valid m exists, and for N
    above 2**53, which lgamma reads as a float.

    A verdict reads the unnormalized rows of distributions._finite_weights,
    which end where both terms have stopped, and holds when y=0 is the only
    mode. It is not a count of modes: y=0 is always one, and where the head
    underflows to 0.0 only the bulk's mode is left to count. Where neither
    term rises from y=0 the verdict holds without a walk.
    """
    _check_band(N, c)
    _float("N", N)

    def unimodal(m: int) -> bool:
        # A term's ratio (2c+y)(a-c-y) / ((c+y+1)(N-2c-y)) never grows in y,
        # so where it is at most 1 at y=0 for a = max(m, N-m) neither term
        # rises, and neither do their rounded rows or the rows' sum: y=0 is
        # the only mode. This holds for every m at c=1, where the rows of
        # small m reach across the whole support.
        if 2 * c * (max(m, N - m) - c) <= (c + 1) * (N - 2 * c):
            return True
        return _modes(_finite_weights(Dist.MAXNH, UrnParams(N, m, c))) == [0]

    if N == 2 * c or not unimodal(N // 2):
        return []
    m = c + bisect.bisect_left(range(c, N // 2), True, key=unimodal)
    return [(m, N - m)]
