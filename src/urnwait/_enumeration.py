"""Brute-force reference pmfs by exhausting every urn arrangement.

Each of the C(N, m) placements of the first-color balls among the N draw
positions is equally likely, so walking every placement and tallying the
stopping time gives the exact distribution as a rational number. This is
deliberately formula-free: it shares nothing with the closed-form pmfs it
is used to validate. One walk serves every law and every c: it tallies the
draws (a, b) at which the c-th ball of each color appears, and each
stopping rule reads its wait off (a, b).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, repeat

from .distributions import Dist

# nh waits for c of the first color, minnh for c of either, maxnh for both.
_RULES = {
    Dist.NH: lambda c, a, b: a - c,
    Dist.MINNH: lambda c, a, b: min(a, b) - c,
    Dist.MAXNH: lambda c, a, b: max(a, b) - 2 * c,
}


def enumerate_all(N: int, m: int) -> dict[tuple[Dist, int], dict[int, Fraction]]:
    """Exact pmfs of nh, minnh and maxnh for every valid c, from one walk
    over all C(N, m) orderings (enumerated literally: keep N small).

    Returns {(dist, c): {y: probability}}, Fraction values summing to 1.
    """
    draws = range(1, N + 1)
    cs = range(1, min(m, N - m) + 1)
    # Complementing a subset reverses lexicographic order, so the second
    # color's draws are the (N-m)-subsets taken in reverse.
    seconds = reversed(list(combinations(draws, N - m)))
    # (c, a, b) for each c and each placement, counted at C speed
    triples = map(zip, repeat(cs), combinations(draws, m), seconds)
    tally = Counter(chain.from_iterable(triples))
    counts: dict[tuple[Dist, int], Counter[int]] = {
        (dist, c): Counter() for dist in _RULES for c in cs
    }
    for (c, a, b), k in tally.items():
        for dist, rule in _RULES.items():
            counts[dist, c][rule(c, a, b)] += k
    total = math.comb(N, m)
    return {
        key: {y: Fraction(k, total) for y, k in sorted(ys.items())}
        for key, ys in counts.items()
    }
