"""Numerical kernels: binomial and hypergeometric terms for the pointwise
pmfs, the chunked factor products behind the likelihood at real m, and
the sums of their reciprocals and squared reciprocals.

The terms follow C. Loader, "Fast and Accurate Computation of Binomial
Probabilities" (2000), the method behind R's dbinom and dhyper: the log of
a term is a sum of small Stirling remainders and deviances, never a
difference of large log-factorials, so its error does not grow with n.
"""

from __future__ import annotations

import math
from itertools import accumulate, count, islice, repeat

from .errors import DomainError

_LN2 = math.log(2.0)


# ln(n!) from exact integer factorials through n = 20; log_factorial takes
# lgamma above. No pmf reads it; log_factorial stays public for callers
# outside the package.
_LOG_FACT = [math.log(math.factorial(n)) for n in range(21)]


def log_factorial(n: int) -> float:
    """ln(n!) for n >= 0: exact through 20, math.lgamma(n + 1) above, which
    is within 3.2e-16 relative of ln(n!) at every n from 21 to 10**5."""
    if n < 0:
        raise DomainError(f"log_factorial needs n >= 0, got {n}")
    return _LOG_FACT[n] if n < len(_LOG_FACT) else math.lgamma(n + 1)


def _psi_tails(x: float) -> tuple[float, float]:
    """(T1, T2) with psi(x) = ln x - 1/(2x) - T1 and psi'(x) = 1/x + T2, for
    x >= 10: the asymptotic series (Abramowitz & Stegun 6.3.18, 6.4.12)
    through B_16, whose first omitted terms are below 1e-17 of psi and 1e-16
    of psi' at x = 10."""
    u = 1.0 / (x * x)
    t1 = u * (1 / 12 - u * (1 / 120 - u * (1 / 252 - u * (1 / 240 - u * (
        1 / 132 - u * (691 / 32760 - u * (1 / 12 - u * 3617 / 8160)))))))
    t2 = u * (0.5 + (1 / 6 - u * (1 / 30 - u * (1 / 42 - u * (1 / 30 - u * (
        5 / 66 - u * (691 / 2730 - u * (7 / 6 - u * 3617 / 510))))))) / x)
    return t1, t2


# A run of up to this many terms is summed term by term: measured, that
# costs no more than the psi differences below.
_SHORT_RUN = 12


def _harmonic_up(b: float, n: int) -> tuple[float, float]:
    """(sum 1/x, sum 1/x**2) over x = b, b+1, ..., b+n-1, for b > 0.

    Terms below 10, and the last _SHORT_RUN or fewer, are added one by one;
    the rest is psi(a) - psi(b) and psi'(b) - psi'(a) with a = b + n, whose
    leading parts are written as log1p(n/b) and n/(ab) so that nothing
    cancels when n << b.
    """
    s1 = s2 = 0.0
    while n and (b < 10.0 or n <= _SHORT_RUN):
        r = 1.0 / b
        s1 += r
        s2 += r * r
        b += 1.0
        n -= 1
    if n:
        a = b + n
        ta1, ta2 = _psi_tails(a)
        tb1, tb2 = _psi_tails(b)
        s1 += math.log1p(n / b) + (0.5 * n / a / b + (tb1 - ta1))
        s2 += n / a / b + (tb2 - ta2)
    return s1, s2


def _harmonic(z: float, n: int) -> tuple[float, float]:
    """(sum_{i<n} 1/(z-i), sum_{i<n} 1/(z-i)**2) in O(1), for finite z.

    A run that crosses zero is split into its positive terms and its
    negated negative terms, each summed by _harmonic_up. A zero term
    raises DomainError.
    """
    p = min(n, max(0, math.ceil(z)))  # the terms above zero, i < z
    if p < n and z == p:
        raise DomainError(f"derivative pole, walking from {z}")
    h1, h2 = _harmonic_up(z - (p - 1), p) if p else (0.0, 0.0)
    if p < n:
        g1, g2 = _harmonic_up(p - z, n - p)
        h1 -= g1
        h2 += g2
    return h1, h2


def _walk(z: float, lengths) -> list[tuple[float, int]]:
    """Products of consecutive runs of the terms z, z-1, z-2, ...

    _walk(m, (c, y)) gives m^(c) and (m-c)^(y). Each run is (t, e): the
    product is t * 2**e with 0.5 <= |t| <= 1 (t = 0.0 at a zero term).
    math.prod multiplies in C, k terms at a time, and frexp renormalizes
    after each chunk: every term is below 2**x in magnitude, so k = 1022 // x
    of them stay below 2**1022, and a single term below 2**1024 cannot
    overflow either.
    """
    total = sum(lengths)
    k = max(1022 // max(math.frexp(abs(z) + total)[1], 1), 1)
    terms = accumulate(repeat(-1.0, total - 1), initial=z)
    out = []
    for n in lengths:
        t, e = 1.0, 0
        while n > 0:
            j = n if n < k else k
            n -= j
            t, x = math.frexp(math.prod(islice(terms, j), start=t))
            e += x
        out.append((t, e))
    return out


_LN_2PI = math.log(2.0 * math.pi)

# _stirlerr(n) for n = 0..15, from 50-digit decimal arithmetic; n = 0 is a
# placeholder, never read.
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirlerr(n: int) -> float:
    """ln(n!) - ln(sqrt(2 pi n) (n/e)^n): tabulated through n = 15, and
    above that Stirling's series 1/12n - 1/360n^3 + 1/1260n^5 - 1/1680n^7
    + 1/1188n^9, whose next term is below 2e-16."""
    if n <= 15:
        return _STIRLERR[n]
    nn = n * n
    s = 1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn
    return s / n


def _bd0(x: int, mu: float) -> float:
    """The deviance x ln(x/mu) + mu - x, for x > 0 and mu > 0.

    Near x = mu, where that form cancels, it is the series (x-mu) v + 2x
    sum_j v^(2j+1)/(2j+1) in v = (x-mu)/(x+mu), each term below 1/100 of
    the last; farther out, x log1p(d/mu) - d with d = x - mu.
    """
    d = x - mu
    if abs(d) >= 0.1 * (x + mu):
        return x * math.log1p(d / mu) - d
    v = d / (x + mu)
    s = d * v
    ej = 2 * x * v
    v *= v
    for j in count(3, 2):
        ej *= v
        s1 = s + ej / j
        if s1 == s:
            return s
        s = s1


def _log_binom_term(x: int, n: int, p: float) -> float:
    """ln of C(n, x) p^x (1-p)^(n-x) at the float p; -inf where it is 0.

    For 0 < x < n, Loader's stirlerr(n) - stirlerr(x) - stirlerr(n-x) -
    bd0(x, np) - bd0(n-x, nq) - ln(2 pi x (n-x)/n)/2. The error is a few ulp
    of the log plus up to eps |x - np|, from the rounding of np and nq.
    """
    if x < 0 or x > n:
        return -math.inf
    if p == 0.0 or p == 1.0:  # a point mass at x = np
        return 0.0 if x == n * p else -math.inf
    if x == 0:
        return n * math.log1p(-p)
    if x == n:
        return n * math.log(p)
    q = 1.0 - p
    lc = _stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)
    lc -= _bd0(x, n * p) + _bd0(n - x, n * q)
    # Loader's form is C(n, x) p^x q^(n-x) e^(n(1-p-q)), and q rounds for
    # p < 1/2: e = q - (1-p), computed exactly, turns it into the term at 1-p.
    e = p - (1.0 - q)
    lc += n * e + (n - x) * math.log1p(-e / q)
    return lc - 0.5 * (_LN_2PI + math.log(x * (n - x) / n))


def _log_hyper_term(x: int, r: int, b: int, n: int) -> float:
    """ln of C(r, x) C(b, n-x) / C(r+b, n), for 0 <= n <= r+b: three binomial
    terms at p = n/(r+b), whose powers of p and 1-p cancel exactly."""
    p = n / (r + b)
    lb = _log_binom_term
    return lb(x, r, p) + lb(n - x, b, p) - lb(n, r + b, p)
