"""Stochastic simulation of every sampling scheme, urn and Bernoulli alike.

The urn is never materialized: two remaining-count integers fully determine
the law of the next draw (color one comes up with probability
remaining1/total), which is equivalent to shuffling the urn up front.

Randomness comes from xoshiro256** 1.0 (Blackman & Vigna, 2018), seeded
through splitmix64, rather than platform default randomness: the algorithm
is fixed here, so identical seeds reproduce identical draw sequences on any
platform and any Python version. The step is written once, in next_u64;
the trial loops call it, so the generator object holds the only state.
Every draw is exactly uniform, and one word serves many draws: a block of
urn draws shares one Lemire draw below the product of their totals, and a
Bernoulli draw reads the bytes of a word against p's binary expansion
(README, "How the simulator draws").
"""

from __future__ import annotations

import enum
import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterator

from .distributions import (
    URN_DISTS,
    BernoulliParams,
    Dist,
    PmfTable,
    UrnParams,
    _LAST_Y,
    _MAX_ROWS,
    _check_params,
    _int,
    _member,
    _rows_capped,
    _table,
)
from .errors import DomainError, ParameterError

_M64 = (1 << 64) - 1
_TWO64 = 1 << 64


class Color(str, enum.Enum):
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class DrawOutcome:
    """One simulated experiment.

    y is the excess draw count beyond the scheme's minimum, terminal_color
    the color whose c-th ball ended the experiment, counts the balls of
    each color drawn by then. For the both-colors scheme counts is
    (c, c+y) or (c+y, c); for the either-color scheme exactly one count
    equals c.
    """

    y: int
    terminal_color: Color
    counts: tuple[int, int]


@dataclass(frozen=True)
class SimConfig:
    seed: int
    trials: int

    def __post_init__(self) -> None:
        _seed(self.seed)
        _int("trials", self.trials, 1)


def _seed(seed: int) -> int:
    """The seed rule of every seeded function: an int in [0, 2**64)."""
    if not 0 <= _int("seed", seed) <= _M64:
        raise ParameterError(f"seed must be a 64-bit unsigned int, got {seed!r}")
    return seed


def _seed_state(seed: int) -> list[int]:
    """splitmix64 expansion of one word into the four xoshiro state words.

    The four inputs seed + i*0x9E3779B97F4A7C15 (i = 1..4) differ mod 2**64,
    since the constant is odd, and the finalizer is a bijection, so at most
    one word is 0 and the state is never the all-zero fixed point.
    """
    x = seed
    state = []
    for _ in range(4):
        x = (x + 0x9E3779B97F4A7C15) & _M64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        state.append(z ^ (z >> 31))
    return state


class Xoshiro256StarStar:
    """Seedable counter-quality generator with a pinned algorithm.

    A seed is an int in [0, 2**64), the rule SimConfig reads too (_seed);
    any other raises ParameterError. splitmix64 expands it into the state.
    """

    def __init__(self, seed: int) -> None:
        self._s = _seed_state(_seed(seed))

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        r = (s1 * 5) & _M64
        r = (((r << 7) | (r >> 57)) & _M64) * 9 & _M64
        t = (s1 << 17) & _M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _M64
        self._s = [s0, s1, s2, s3]
        return r

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randbelow(self, n: int) -> int:
        """Exactly uniform integer in [0, n), for an int n in [1, 2**64]."""
        if _int("n", n, 1) > _TWO64:
            raise ParameterError(f"n must be at most 2**64, got {n!r}")
        while True:
            prod = self.next_u64() * n
            low = prod & _M64
            if low >= n or low >= (_TWO64 - n) % n:
                return prod >> 64


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


def _rule(scheme: Dist, c: int) -> tuple[int, int, int, int, int]:
    """The stopping rule as (t1, g2, t2, g1, base): a draw of color one ends
    the trial when it brings n1 to t1 while n2 >= g2, a draw of color two
    when it brings n2 to t2 while n1 >= g1; y = n1 + n2 - base."""
    if scheme in (Dist.MAXNH, Dist.MAXNB):  # c of both colors
        return c, c, c, c, 2 * c
    if scheme in (Dist.MINNH, Dist.MINNB):  # c of either color
        return c, 0, c, 0, c
    return c, 0, -1, 0, c  # c of color one


def _blocks(T: int, k: int):
    """Greedy blocks of the next k urn draws, totals T, T-1, ...: each is
    the longest run whose product P fits in the fewest 64-bit words that
    hold its first total, as (P, Lemire's rejection threshold, 64 * words,
    the totals)."""
    while k > 0:
        bits = 64 * max(1, ((T - 1).bit_length() + 63) // 64)
        P, n = T, 1
        while n < k and P * (T - n) <= 1 << bits:
            P *= T - n
            n += 1
        yield P, ((1 << bits) - P) % P, bits, range(T, T - n, -1)
        T -= n
        k -= n


# Layouts longer than this many draws are walked lazily, not cached.
_CACHED_DRAWS = 1 << 14


@functools.lru_cache(maxsize=32)
def _layout(N: int, K: int) -> tuple | None:
    return tuple(_blocks(N, K)) if K <= _CACHED_DRAWS else None


def _urn_trials(params: UrnParams, scheme: Dist, rng: Xoshiro256StarStar):
    """Endless trials as (y, first, n1, n2), first the terminal color. A
    block of draws shares one Lemire draw u in [0, P) and reads off one
    divmod digit per total (README, "How the simulator draws"). No trial
    draws more than base + the largest y balls, so the layout stops there."""
    N, m = params.N, params.m
    t1, g2, t2, g1, base = _rule(scheme, params.c)
    K = base + _LAST_Y[scheme](params)
    layout = _layout(N, K)
    # The rule on the balls left, with T the total before the draw: color
    # one ends the trial when rem1 falls to e1 while rem2 <= h2, color two
    # when T - rem1 (rem2 + 1 after the draw) reaches f2 while rem1 <= h1.
    e1, h2, f2, h1 = m - t1, N - m - g2, N - m - t2 + 1, m - g1
    dm = divmod
    nxt = rng.next_u64
    while True:
        rem1 = m
        for P, thr, bits, totals in layout or _blocks(N, K):
            while True:
                r = nxt()
                if bits > 64:  # a total above 2**64: more words
                    for _ in range(bits // 64 - 1):
                        r = r << 64 | nxt()
                r *= P
                u = r >> bits
                if r - (u << bits) >= thr:
                    break
            for T in totals:
                u, d = dm(u, T)
                if d < rem1:
                    rem1 -= 1
                    if rem1 == e1 and T - 1 - rem1 <= h2:
                        first = True
                        break
                elif T - rem1 == f2 and rem1 <= h1:
                    first = False
                    break
            else:
                continue
            break
        n1 = m - rem1
        n2 = N - T + 1 - n1
        yield n1 + n2 - base, first, n1, n2


def _chunks(p: float) -> bytes:
    """p's binary expansion in 8-bit chunks, most significant first: p is
    exactly int.from_bytes(chunks, "big") / 256**len(chunks)."""
    a, b = float(p).as_integer_ratio()
    e = b.bit_length() - 1
    n = -(-e // 8)
    return (a << (8 * n - e)).to_bytes(n, "big")


def _bernoulli_trials(params: BernoulliParams, scheme: Dist, rng: Xoshiro256StarStar):
    """Endless trials, as _urn_trials gives them. A draw reads the stream's
    bytes, low byte of each word first, against the chunks of p until one
    differs; a tie on all of them means U >= p. A word is drawn when its
    first byte is read, and its unread bytes carry into the next trial."""
    t1, g2, t2, g1, base = _rule(scheme, params.c)
    pc = _chunks(params.p)
    last = len(pc) - 1
    words = iter(rng.next_u64, None)
    byte = chain.from_iterable(
        map(int.to_bytes, words, repeat(8), repeat("little"))
    ).__next__
    j = 0  # the chunk of p
    while True:
        n1 = n2 = 0
        while True:
            ch = byte()
            pj = pc[j]
            if ch != pj:
                first = ch < pj
            elif j < last:
                j += 1
                continue
            else:
                first = False
            j = 0
            if first:
                n1 += 1
                if n1 == t1 and n2 >= g2:
                    break
            else:
                n2 += 1
                if n2 == t2 and n1 >= g1:
                    break
        yield n1 + n2 - base, first, n1, n2


def _trials(scheme: Dist | str, params: UrnParams | BernoulliParams, rng: Xoshiro256StarStar):
    """Endless trials of scheme on params, both checked as in pmf."""
    scheme = _check_params(scheme, params)
    if scheme in URN_DISTS:
        return _urn_trials(params, scheme, rng)
    if scheme is not Dist.MINNB and _rows_capped(scheme, params):
        raise DomainError(f"{scheme.value} at {params}: past the {_MAX_ROWS}-row cap")
    return _bernoulli_trials(params, scheme, rng)


def _outcome(y: int, first: bool, n1: int, n2: int) -> DrawOutcome:
    return DrawOutcome(y, Color.FIRST if first else Color.SECOND, (n1, n2))


def _one(scheme: Dist, params, rng: Xoshiro256StarStar) -> DrawOutcome:
    return _outcome(*next(_trials(scheme, params, rng)))


def _urn_trial(params: UrnParams, rng: Xoshiro256StarStar, scheme: Dist) -> DrawOutcome:
    """One urn trial on a caller's generator, which it advances."""
    return _one(scheme, params, rng)


def _bernoulli_trial(
    params: BernoulliParams, rng: Xoshiro256StarStar, scheme: Dist
) -> DrawOutcome:
    """One Bernoulli trial on a caller's generator, which it advances past
    the last word read; chunks of that word left unread are dropped."""
    return _one(scheme, params, rng)


def draw_until_both(params: UrnParams, seed: int) -> DrawOutcome:
    """Draw without replacement until both colors have appeared c times."""
    return _one(Dist.MAXNH, params, Xoshiro256StarStar(seed))


def draw_until_either(params: UrnParams, seed: int) -> DrawOutcome:
    """Draw without replacement until either color has appeared c times."""
    return _one(Dist.MINNH, params, Xoshiro256StarStar(seed))


def draw_until_c_successes(params: UrnParams, seed: int) -> DrawOutcome:
    """Draw without replacement until the c-th ball of the first color."""
    return _one(Dist.NH, params, Xoshiro256StarStar(seed))


def bernoulli_scheme(params: BernoulliParams, scheme: Dist | str, seed: int) -> DrawOutcome:
    """Run one of the three stopping rules on iid Bernoulli(p) draws; an
    urn law raises ParameterError."""
    if (scheme := _member(Dist, scheme)) in URN_DISTS:
        raise ParameterError(f"not a Bernoulli scheme: {scheme.value}")
    return _one(scheme, params, Xoshiro256StarStar(seed))


def _run(scheme: Dist | str, params, config: SimConfig):
    """The config.trials trials of one seeded stream, as _trials gives them."""
    if not isinstance(config, SimConfig):
        raise ParameterError(f"expected a SimConfig, got {config!r}")
    trials = _trials(scheme, params, Xoshiro256StarStar(config.seed))
    return islice(trials, config.trials)


def iter_outcomes(
    scheme: Dist | str, params: UrnParams | BernoulliParams, config: SimConfig
) -> Iterator[DrawOutcome]:
    """The config.trials outcomes of one seeded stream, in order; they
    tally to empirical_pmf with the same config. scheme and params are
    checked as in pmf."""
    return (_outcome(*t) for t in _run(scheme, params, config))


def empirical_pmf(
    scheme: Dist | str,
    params: UrnParams | BernoulliParams,
    config: SimConfig,
) -> PmfTable:
    """Normalized histogram of simulated y values over one seeded stream.

    The table is contiguous from y=0 with zero-frequency gaps filled in,
    and its dist is the Dist member, as in pmf_table.
    """
    counts = Counter(map(itemgetter(0), _run(scheme, params, config)))
    probs = [counts[y] / config.trials for y in range(max(counts) + 1)]
    return PmfTable(_member(Dist, scheme), params, probs, None)


def tv_distance(a: PmfTable, b: PmfTable) -> float:
    """Total variation distance (1/2) sum |a(y) - b(y)|, missing bins = 0."""
    n = max(len(_table(a).probs), len(_table(b).probs))
    pa = a.probs + [0.0] * (n - len(a.probs))
    pb = b.probs + [0.0] * (n - len(b.probs))
    return 0.5 * math.fsum(abs(x - y) for x, y in zip(pa, pb))
