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
from .distributions import _LAST_Y, _MAX_ROWS, _check_band, _check_params, _float, _table
from .distributions import _maxnh_exponent, _maxnh_rows
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


def _unimodal(N: int, m: int, c: int) -> bool:
    """Whether y=0 is the only mode of maxnh at (N, m, c), read from rows
    0..y* alone: no term's rounded rows, nor their sum, rise past y*, the
    first y where the larger term's ratio is at most 1 (README, "How the
    unimodal range is found")."""
    a = max(m, N - m)
    d = 2 * c * (a - c) - (c + 1) * (N - 2 * c)  # the ratio is <= 1 iff y (N-a-1) >= d
    y_star = -(-d // (N - a - 1)) if d > 0 else 0
    e = _maxnh_exponent(N, m, c)
    if e < -1074:  # row 0 is 0.0: the bulk's mode is a second one
        return False
    if y_star > _MAX_ROWS:
        raise DomainError(f"verdict at (N, m, c) = ({N}, {m}, {c}) needs more than {_MAX_ROWS} rows")
    return _modes(_maxnh_rows(N, m, c, e, y_star)) == [0]


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

    A verdict (_unimodal) reads maxnh's unnormalized rows only up to y*,
    past which no row rises, and holds when y=0 is the only mode among
    them. It is not a count of modes: y=0 is always one, so where the head
    underflows to 0.0 the verdict is bimodal, read from the anchor exponent
    without a walk. A verdict that needs more than 10**6 rows raises
    DomainError, as a table past the same cap does.
    """
    _check_band(N, c)
    _float("N", N)
    if N == 2 * c or not _unimodal(N, N // 2, c):
        return []
    m = c + bisect.bisect_left(range(c, N // 2), True, key=lambda m: _unimodal(N, m, c))
    return [(m, N - m)]
