"""Mode structure of the both-colors waiting-time distribution.

The pmf always has a local mode at y=0 (the first two masses sit in the
fixed ratio (c+1)/c), and depending on (N, m, c) may grow a second interior
mode. This module locates the modes of a tabulated pmf and bisects over m
for where the distribution stays unimodal.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .distributions import Dist, PmfTable, UrnParams, maxnh_pmf, pmf_table
from .distributions import _LAST_Y, _check_band, _check_params, _table
from .errors import DomainError

# Table rows carry the rounding of their ratio recurrence, a few ulp per
# row walked, so two masses that are equal in exact arithmetic can differ in
# the last digits; equality of adjacent masses (a plateau) is declared at
# this relative tolerance.
EQ_RTOL = 1e-12


@dataclass(frozen=True)
class ModeReport:
    """Local maxima of a pmf table.

    modes always contains 0; is_unimodal means exactly one mode. p0_over_p1
    is the first mass ratio, nan for a single-point support.
    """

    modes: list[int]
    is_unimodal: bool
    p0_over_p1: float


def _eq(a: float, b: float) -> bool:
    return abs(a - b) <= EQ_RTOL * max(abs(a), abs(b))


def local_modes(table: PmfTable) -> ModeReport:
    """Find local maxima; an equal-valued plateau counts once, at its left end."""
    ys, probs = _table(table).ys, table.probs
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
            modes.append(ys[i])
        i = j + 1
    ratio = probs[0] / probs[1] if n >= 2 else math.nan
    return ModeReport(modes, len(modes) == 1, ratio)


def p0_p1_ratio(params: UrnParams) -> float:
    """Pr[Y=0]/Pr[Y=1]; always equals (c+1)/c when y=1 is in support."""
    if _LAST_Y[_check_params(Dist.MAXNH, params)](params) < 1:
        raise DomainError("support is {0}: the ratio needs y=1 in support")
    return maxnh_pmf(params, 0) / maxnh_pmf(params, 1)


def unimodal_m_range(N: int, c: int) -> list[tuple[int, int]]:
    """All m whose distribution is unimodal, as a list of intervals (lo, hi).

    m runs over the valid band c..N-c, less the degenerate point mass at
    m = c = N/2. On c <= m <= N/2 the verdict is bimodal below some m* and
    unimodal from m* on (measured, not proven: exact-rational verdicts
    certify it for every (N, c) with N <= 100), so m* is found by bisection
    from about log2 N tables. The tables of m and N-m are bit-identical
    (distributions._log_comb), so the answer is [(m*, N - m*)], or [] when
    m = N//2 is not unimodal. Raises when no valid m exists.
    """
    _check_band(N, c)

    def unimodal(m: int) -> bool:
        return local_modes(pmf_table(Dist.MAXNH, UrnParams(N, m, c))).is_unimodal

    if N == 2 * c or not unimodal(N // 2):
        return []
    m = c + bisect.bisect_left(range(c, N // 2), True, key=unimodal)
    return [(m, N - m)]
