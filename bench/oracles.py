"""Exact references the output checks compare against.

The urn pmfs have the library's own big-integer ``exact_pmf``. The Bernoulli
pmfs, the log-likelihood and phi are written out here in rational
arithmetic, from the formulas in the library's docstrings, so that the
checks do not share code with the float paths they check.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

_LN_BITS = 256


def bernoulli_pmf(dist: str, c: int, p: float, y: int) -> Fraction:
    """Exact pmf of nb, maxnb or minnb at the float p, taken as a rational."""
    p = Fraction(p)
    q = 1 - p
    if dist == "nb":
        return math.comb(c + y - 1, c - 1) * p**c * q**y
    if dist == "maxnb":
        return math.comb(2 * c + y - 1, c - 1) * (p**y + q**y) * (p * q) ** c
    if dist == "minnb":
        if y > c - 1:
            return Fraction(0)
        return math.comb(c + y - 1, c - 1) * (p**c * q**y + p**y * q**c)
    raise ValueError(dist)


def _falling(z: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= z - i
    return out


def _ln_int(n: int) -> Decimal:
    """ln(n) to about 60 digits, for an integer n >= 1 of any size."""
    shift = max(0, n.bit_length() - _LN_BITS)
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(n >> shift).ln() + shift * Decimal(2).ln()


def likelihood(m: float, N: int, c: int, y: int) -> Fraction:
    """(m^(c) (N-m)^(c+y) + m^(c+y) (N-m)^(c)) / N^(2c+y) at the float m."""
    m = Fraction(m)
    s = _falling(m, c) * _falling(N - m, c + y) + _falling(m, c + y) * _falling(N - m, c)
    return s / math.perm(N, 2 * c + y)


def loglik_relerr(value: float, m: float, N: int, c: int, y: int) -> float:
    """Relative error of exp(value) against the exact likelihood."""
    exact = likelihood(m, N, c, y)
    if exact <= 0:
        raise ValueError(f"likelihood is not positive at m={m}")
    with localcontext() as ctx:
        ctx.prec = 60
        diff = Decimal(value) - (_ln_int(exact.numerator) - _ln_int(exact.denominator))
    return abs(math.expm1(float(diff)))


def phi_terms(N: int, c: int, y: int) -> tuple[Fraction, Fraction]:
    """The pairwise sum and the penalty whose difference is the library's phi."""
    half = Fraction(N, 2)
    recips = [1 / (half - c - k) for k in range(y)]
    total = sum(recips, Fraction(0))
    squares = sum((r * r for r in recips), Fraction(0))
    penalty = sum((1 / (half - i) ** 2 for i in range(c)), Fraction(0))
    return (total * total - squares) / 2, penalty


def relerr(got: float, want: Fraction) -> float:
    if want == 0:
        return 0.0 if got == 0.0 else math.inf
    return float(abs(Fraction(got) - want) / want)


def tv_bound(probs: list[float], trials: int, delta: float = 1e-6) -> float:
    """A bound that an n-trial histogram's total variation distance from the
    pmf `probs` exceeds with probability below delta.

    E[TV] <= (1/2) sum_y sqrt(p_y (1 - p_y) / n), and one trial moves TV by
    at most 1/n, so McDiarmid adds sqrt(ln(1/delta) / (2n)).
    """
    mean = 0.5 * math.fsum(math.sqrt(p * (1 - p) / trials) for p in probs if p > 0)
    return mean + math.sqrt(math.log(1 / delta) / (2 * trials))
