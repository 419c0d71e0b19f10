"""Signed log-space arithmetic for factorial polynomials and binomials.

Every probability in this package is assembled from falling factorials
z*(z-1)*...*(z-k+1), whose raw values overflow doubles for moderate
population sizes. They are therefore carried as (sign, log magnitude)
pairs and converted to plain floats only at API boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import mul, truediv

from .errors import DomainError

# Below this relative residual, the sum of two opposing terms is declared an
# exact zero rather than a spurious rounding remainder.
CANCEL_EPS = 1e-13

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SignedLogValue:
    """A real number as (sign, natural log of magnitude).

    sign is -1, 0, or +1; sign 0 encodes exactly zero, and logmag is then
    meaningless and never read.
    """

    sign: int
    logmag: float

    @classmethod
    def from_real(cls, x: float) -> "SignedLogValue":
        if x == 0.0:
            return ZERO
        return cls(1 if x > 0.0 else -1, math.log(abs(x)))

    def to_real(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.logmag)
        except OverflowError:
            return self.sign * math.inf


ZERO = SignedLogValue(0, 0.0)
ONE = SignedLogValue(1, 0.0)


# Cumulative table of ln(n!). Entries through n=20 come from exact integer
# factorials; beyond that the table grows by adding ln(n) terms, which keeps
# every entry consistent with its neighbors (no independent lgamma calls).
_LOG_FACT = [math.log(math.factorial(n)) for n in range(21)]
_LOG_FACT[0] = 0.0


def log_factorial(n: int) -> float:
    """ln(n!) for n >= 0."""
    if n < 0:
        raise DomainError(f"log_factorial needs n >= 0, got {n}")
    while n >= len(_LOG_FACT):
        _LOG_FACT.append(_LOG_FACT[-1] + math.log(len(_LOG_FACT)))
    return _LOG_FACT[n]


def falling_factorial(z: float, k: int) -> SignedLogValue:
    """The factorial polynomial z*(z-1)*...*(z-k+1), with value 1 at k=0.

    Total over all real z. Non-integer z takes the literal signed product
    (see _walk), which stays finite between the integer roots where a
    gamma-ratio form would sit on a pole; integer z >= 0 short-circuits
    through the exact log-factorial table (zero when 0 <= z < k).
    """
    if k < 0:
        raise DomainError(f"falling_factorial needs k >= 0, got {k}")
    if k == 0:
        return ONE
    if isinstance(z, int) or (isinstance(z, float) and z.is_integer()):
        zi = int(z)
        if 0 <= zi < k:
            return ZERO
        if zi >= k:
            return SignedLogValue(1, log_factorial(zi) - log_factorial(zi - k))
        # negative integers fall through to the product form
    ((t, e, _, _),) = _walk(z, (k,))
    return SignedLogValue(1 if t > 0.0 else -1, math.log(abs(t)) + e * _LN2)


def _walk(z: float, lengths, moments: int = 0) -> list[tuple]:
    """Products of consecutive runs of the terms z, z-1, z-2, ...

    _walk(m, (c, y)) gives m^(c) and (m-c)^(y). Each run is (t, e, h1, h2):
    the product is t * 2**e with 0.5 <= |t| <= 1 (t = 0.0 at a zero term),
    and with moments 1 or 2, h1 = sum 1/term and h2 = sum 1/term**2, where a
    zero term raises DomainError. math.prod multiplies in C, k terms at a
    time, and frexp renormalizes after each chunk: every term is below
    2**x in magnitude, so k = 1022 // x of them stay below 2**1022.
    """
    total = sum(lengths)
    k = 1022 // max(math.frexp(abs(z) + total)[1], 1)
    terms = accumulate(repeat(-1.0, total - 1), initial=z)
    out = []
    for n in lengths:
        t, e, h1, h2 = 1.0, 0, 0.0, 0.0
        while n > 0:
            j = n if n < k else k
            n -= j
            chunk = islice(terms, j)
            if moments:
                chunk = list(chunk)
                try:
                    inv = list(map(truediv, repeat(1.0), chunk))
                except ZeroDivisionError:
                    raise DomainError(f"derivative pole, walking from {z}") from None
                h1 += math.fsum(inv)
                if moments > 1:
                    h2 += math.fsum(map(mul, inv, inv))
            t, x = math.frexp(math.prod(chunk, start=t))
            e += x
        out.append((t, e, h1, h2))
    return out


def falling_factorial_exact(z: int, k: int) -> int:
    """Big-integer falling factorial for integer arguments (test oracle path)."""
    out = 1
    for i in range(k):
        out *= z - i
    return out


def log_binomial(n: int, k: int) -> SignedLogValue:
    """C(n, k) as a SignedLogValue; exact zero when k < 0 or k > n."""
    if k < 0 or k > n:
        return ZERO
    return SignedLogValue(
        1, log_factorial(n) - log_factorial(k) - log_factorial(n - k)
    )


def signed_log_add(a: SignedLogValue, b: SignedLogValue) -> SignedLogValue:
    """a + b with log-sum-exp stabilization and exact-zero cancellation.

    Opposing terms whose residual is below CANCEL_EPS of the larger operand
    collapse to the exact zero, so downstream logs see a domain error rather
    than rounding noise.
    """
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    if a.logmag < b.logmag:
        a, b = b, a
    d = b.logmag - a.logmag  # <= 0
    if a.sign == b.sign:
        return SignedLogValue(a.sign, a.logmag + math.log1p(math.exp(d)))
    r = -math.expm1(d)  # residual as a fraction of the larger magnitude
    if r <= CANCEL_EPS:
        return ZERO
    return SignedLogValue(a.sign, a.logmag + math.log(r))


def signed_log_mul(a: SignedLogValue, b: SignedLogValue) -> SignedLogValue:
    if a.sign == 0 or b.sign == 0:
        return ZERO
    return SignedLogValue(a.sign * b.sign, a.logmag + b.logmag)


def signed_log_div(a: SignedLogValue, b: SignedLogValue) -> SignedLogValue:
    if b.sign == 0:
        raise DomainError("division by an exact-zero SignedLogValue")
    if a.sign == 0:
        return ZERO
    return SignedLogValue(a.sign * b.sign, a.logmag - b.logmag)


def signed_log_scale(a: SignedLogValue, x: float) -> SignedLogValue:
    """a times a plain real factor x."""
    if a.sign == 0 or x == 0.0:
        return ZERO
    s = a.sign if x > 0.0 else -a.sign
    return SignedLogValue(s, a.logmag + math.log(abs(x)))
