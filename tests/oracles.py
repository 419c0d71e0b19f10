"""Independent reference implementations for the test suite.

Everything here is deliberately written from the raw formulas with stdlib
arithmetic (math.comb, Fraction, plain float products) and shares no code
with the package under test.
"""

from __future__ import annotations

import csv
import functools
import math
from decimal import Context, Decimal
from fractions import Fraction
from importlib import resources


def ff_float(z: float, k: int) -> float:
    """Falling factorial as a literal float product."""
    v = 1.0
    for i in range(k):
        v *= z - i
    return v


def ff_int(z: int, k: int) -> int:
    v = 1
    for i in range(k):
        v *= z - i
    return v


# ---------------------------------------------------------------------------
# Reference pmfs
# ---------------------------------------------------------------------------


def nh_ref(N: int, m: int, c: int, y: int) -> Fraction:
    if y < 0 or y > N - m:
        return Fraction(0)
    return Fraction(
        math.comb(c + y - 1, c - 1) * math.comb(N - c - y, m - c), math.comb(N, m)
    )


def minnh_ref(N: int, m: int, c: int, y: int) -> Fraction:
    if y < 0 or y > c - 1:
        return Fraction(0)
    num = math.comb(c + y - 1, c - 1) * (
        math.comb(m, c) * math.comb(N - m, y)
        + math.comb(m, y) * math.comb(N - m, c)
    )
    return Fraction(num, math.comb(c + y, c) * math.comb(N, c + y))


def maxnh_ref(N: int, m: int, c: int, y: int) -> Fraction:
    if y < 0 or y > max(m - c, N - m - c):
        return Fraction(0)
    num = math.comb(2 * c + y - 1, c - 1) * (
        ff_int(m, c + y) * ff_int(N - m, c) + ff_int(m, c) * ff_int(N - m, c + y)
    )
    return Fraction(num, ff_int(N, 2 * c + y))


# The Bernoulli references work in exact rationals at the float p (with
# q = 1 - p exact) and round once, so they hold at any c: float powers such
# as p**c underflow, and float(comb) overflows, once c reaches the thousands.


def nb_ref(c: int, p: float, y: int) -> float:
    if y < 0:
        return 0.0
    p = Fraction(p)
    return float(math.comb(c + y - 1, c - 1) * p**c * (1 - p) ** y)


def maxnb_ref(c: int, p: float, y: int) -> float:
    if y < 0:
        return 0.0
    p = Fraction(p)
    q = 1 - p
    return float(math.comb(2 * c + y - 1, c - 1) * (p**y + q**y) * (p * q) ** c)


def minnb_ref(c: int, p: float, y: int) -> float:
    if y < 0 or y > c - 1:
        return 0.0
    p = Fraction(p)
    q = 1 - p
    return float(math.comb(c + y - 1, c - 1) * (p**c * q**y + p**y * q**c))


def halfnormal_head_gap_bounds(N: int, c: int) -> tuple[float, float]:
    """Envelope on P(Y=0) - 1/sqrt(pi c) for the balanced urn (m = N/2).

    1/sqrt(pi c) is the half-normal density at zero with scale sqrt(2c).
    At m = N/2 the head probability factors as

        P(Y=0) = C(2c, c)/4^c * R,   R = prod_{i<c} (N-2i)/(N-2i-1),

    the N -> infinity value times a finite-population factor. Wallis'
    bounds give 1/sqrt(pi(c+1/2)) < C(2c, c)/4^c <= 1/sqrt(pi(c+1/4)),
    and 1/k < ln(k/(k-1)) < 1/(k-1) puts ln R between sum 1/(N-2i) and
    sum 1/(N-2i-1). N must be even. Returns (lower, upper) on the signed gap.
    """
    log_r_lo = sum(Fraction(1, N - 2 * i) for i in range(c))
    log_r_hi = sum(Fraction(1, N - 2 * i - 1) for i in range(c))
    limit = 1.0 / math.sqrt(math.pi * c)
    lower = math.exp(log_r_lo) / math.sqrt(math.pi * (c + 0.5)) - limit
    upper = math.exp(log_r_hi) / math.sqrt(math.pi * (c + 0.25)) - limit
    return lower, upper


def lam_ref(m: float, N: int, c: int, y: int) -> float:
    """Likelihood kernel from the raw formula, plain floats."""
    s = ff_float(m, c) * ff_float(N - m, c + y) + ff_float(m, c + y) * ff_float(
        N - m, c
    )
    return math.log(s / ff_float(N, 2 * c + y))


@functools.lru_cache(maxsize=64)
def _likelihood_jet(m: float, N: int, c: int, y: int) -> tuple[int, ...]:
    """(S, S', S'') at the float m, exact, each times q^(2c+y), and q^(2c+y).

    S is the bracketed sum and m = p/q exactly. A factor m - i is
    (p - i q)/q with d/dm = q/q, a factor N - m - j is ((N-j) q - p)/q with
    d/dm = -q/q. Products follow Leibniz on the integer numerators; both
    terms of S have 2c+y factors, so they share the denominator.
    """
    p, q = Fraction(m).as_integer_ratio()

    def product(factors):
        v, d1, d2 = 1, 0, 0
        for f, df in factors:
            v, d1, d2 = v * f, d1 * f + v * df, d2 * f + 2 * d1 * df
        return v, d1, d2

    def term(a, b):
        left = [(p - i * q, q) for i in range(a)]
        right = [((N - j) * q - p, -q) for j in range(b)]
        return product(left + right)

    t1, t2 = term(c, c + y), term(c + y, c)
    return tuple(u + v for u, v in zip(t1, t2)) + (q ** (2 * c + y),)


# ln 2 to 40 digits: math.log(2.0) is 2.3e-17 off, which a shift of a few
# hundred bits turns into a bias of several ulps of ln x.
_LN2 = Decimal(2).ln(Context(prec=40))


def log_rational(x: Fraction) -> float:
    """ln x for a positive rational, to about an ulp of its absolute size."""
    shift = x.numerator.bit_length() - x.denominator.bit_length()
    return math.log(x / Fraction(2) ** shift) + float(shift * _LN2)


def log_ratio_exact(m: float, N: int, c: int, y: int) -> tuple[float, int]:
    """(ln C - ln|D|, sign D) for C = (m-c)^(y) > 0 and D = (N-m-c)^(y) at
    the float m = p/q, from exact integer products: each factor is
    (integer)/q, and the common q^y cancels. D = 0 gives (inf, 0)."""
    p, q = Fraction(m).as_integer_ratio()
    C = math.prod(p - (c + i) * q for i in range(y))
    D = math.prod((N - c - i) * q - p for i in range(y))
    if D == 0:
        return math.inf, 0
    return log_rational(Fraction(C, abs(D))), 1 if D > 0 else -1


def bracket_sign(m: float, N: int, c: int, y: int) -> int:
    """The sign of S at the float m = p/q, in integers: both products of S
    times q^(2c+y), from the numerators p - i q and (N-j) q - p."""
    p, q = Fraction(m).as_integer_ratio()
    low = [p - i * q for i in range(c + y)]
    high = [(N - j) * q - p for j in range(c + y)]
    s = math.prod(low[:c]) * math.prod(high) + math.prod(low) * math.prod(high[:c])
    return (s > 0) - (s < 0)


def loglik_exact(m: float, N: int, c: int, y: int) -> float:
    """L(m) = ln(S / N^(2c+y)) from the exact rational likelihood."""
    s, _, _, scale = _likelihood_jet(m, N, c, y)
    return log_rational(Fraction(s, scale * math.perm(N, 2 * c + y)))


def grad_exact(m: float, N: int, c: int, y: int) -> Fraction:
    """L'(m) = S'/S in exact rationals."""
    s, s1, _, _ = _likelihood_jet(m, N, c, y)
    return Fraction(s1, s)


def hess_exact(m: float, N: int, c: int, y: int) -> Fraction:
    """L''(m) = S''/S - (S'/S)^2 in exact rationals."""
    s, s1, s2, _ = _likelihood_jet(m, N, c, y)
    return Fraction(s2, s) - Fraction(s1, s) ** 2


def derivative_relerrs(g: float, h: float, m: float, N: int, c: int, y: int):
    """Relative errors of g and h against L' = S'/S and
    L'' = (S'' S - S'^2)/S^2, in integers: no fraction is reduced."""
    s, s1, s2, _ = _likelihood_jet(m, N, c, y)
    a, b = g.as_integer_ratio()
    hess = s2 * s - s1 * s1
    a2, b2 = h.as_integer_ratio()
    return abs(a * s - s1 * b) / abs(s1 * b), abs(a2 * s * s - hess * b2) / abs(hess * b2)


def phi_exact(N: int, c: int, y: int) -> Fraction:
    """phi in exact rationals, from its definition: the sum over pairs
    k < k' < y of 1/((N/2-c-k)(N/2-c-k')), taken one k' at a time against
    the running sum over k < k', minus sum_{i<c} (N/2-i)^-2."""
    half = Fraction(N, 2)
    pairwise = running = Fraction(0)
    for k in range(y):
        r = 1 / (half - c - k)
        pairwise += r * running
        running += r
    return pairwise - sum((1 / (half - i) ** 2 for i in range(c)), Fraction(0))


# ---------------------------------------------------------------------------
# Unimodal m ranges
# ---------------------------------------------------------------------------


def mode_count(probs) -> int:
    """Local maxima of a list of masses; a plateau of exactly equal masses
    counts once."""
    n, count, i = len(probs), 0, 0
    while i < n:
        j = i
        while j + 1 < n and probs[j + 1] == probs[j]:
            j += 1
        rising = i == 0 or probs[i] > probs[i - 1]
        falling = j == n - 1 or probs[j + 1] < probs[j]
        count += rising and falling
        i = j + 1
    return count


def unimodal_scan(N: int, c: int, unimodal) -> list[tuple[int, int]]:
    """The full-band scan: every m in c..N-c, less the point mass at
    m = c = N/2, for which unimodal(m) holds, merged into maximal intervals."""
    intervals: list[tuple[int, int]] = []
    for m in range(c, N - c + 1):
        if (N == 2 * c and m == c) or not unimodal(m):
            continue
        if intervals and m == intervals[-1][1] + 1:
            intervals[-1] = (intervals[-1][0], m)
        else:
            intervals.append((m, m))
    return intervals


# ---------------------------------------------------------------------------
# Numeric helpers
# ---------------------------------------------------------------------------


def central_diff(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def valid_urns(n_max: int):
    """Every urn (N, m) with 1 <= m < N <= n_max."""
    for N in range(2, n_max + 1):
        for m in range(1, N):
            yield N, m


def valid_triples(n_max: int):
    """Every valid (N, m, c) with N <= n_max."""
    for N, m in valid_urns(n_max):
        for c in range(1, min(m, N - m) + 1):
            yield N, m, c


def load_golden(which: int) -> list[tuple[str, str, float]]:
    """(label, x, value) rows of a packaged reference figure."""
    text = (
        resources.files("urnwait")
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


def merge_small_bins(observed: list[int], expected: list[float], floor: float = 5.0):
    """Pool trailing bins until every expected count reaches the floor.

    Standard chi-square practice; pools from the right since these pmfs
    have thin right tails.
    """
    obs = list(observed)
    exp = list(expected)
    while len(exp) > 1 and exp[-1] < floor:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        del exp[-1], obs[-1]
    return obs, exp
