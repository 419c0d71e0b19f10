"""The four limiting regimes of the both-colors waiting time.

Each limit trades the finite urn for a simpler law:

  maxnb_limit      N -> inf, m/N -> p          (same family, no urn)
  gamma_limit      m ~ theta*sqrt(N), scaled   (Erlang/gamma shape c)
  halfnormal_limit m = N/2, c ~ sqrt(N)        (half-normal after scaling)
  normal_limit     m/N -> p > 1/2, c large     (normal with mu, sigma below)

Densities are discretized by midpoint evaluation at integer y and, for
distance measurements, renormalized over the exact support so that total
variation against the exact pmf is meaningful.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .distributions import (
    BernoulliParams,
    Dist,
    UrnParams,
    _check_params,
    _float,
    _int,
    _member,
    maxnb_pmf,
    pmf_table,
)
from .errors import DomainError, ParameterError


class ApproxKind(enum.Enum):
    MAXNB_LIMIT = "maxnb_limit"
    GAMMA_LIMIT = "gamma_limit"
    HALFNORMAL_LIMIT = "halfnormal_limit"
    NORMAL_LIMIT = "normal_limit"


@dataclass(frozen=True)
class ApproxSpec:
    """An approximation kind plus its parameters derived from (N, m, c)."""

    kind: ApproxKind
    derived: dict[str, float]


def maxnb_limit(params: UrnParams) -> BernoulliParams:
    """Bernoulli-population parameters approached as N grows: (c, p=m/N)."""
    _check_params(Dist.MAXNH, params)
    return BernoulliParams(params.c, params.m / params.N)


def gamma_approx_density(params: UrnParams, y: int) -> float:
    """Jacobian-corrected Erlang(c) density at the point x = theta*y/sqrt(N).

    With theta = m/sqrt(N): (theta/sqrt(N)) x^(c-1) e^(-x) / (c-1)!
    Intended for m much smaller than N; no regime check is made, so the
    small-m figure regimes evaluate as printed. Evaluated in log space, so
    (c-1)! and x^(c-1) cannot overflow.
    """
    _check_params(Dist.MAXNH, params)
    _float("y", _int("y", y))
    N, m, c = params.N, params.m, params.c
    root = math.sqrt(_float("N", N))
    theta = m / root
    x = theta * y / root
    if x <= 0.0:  # y = 0 is exact; y < 0 lies outside the support
        return theta / root if y == 0 and c == 1 else 0.0
    return math.exp(math.log(theta / root) + (c - 1) * math.log(x) - x - math.lgamma(c))


def halfnormal_approx_density(c: int, y: int) -> float:
    """Half-normal density for the balanced urn: scale sqrt(2c), x = y/scale;
    0 for y < 0, outside the support."""
    _float("c", _int("c", c, 1))
    if _float("y", _int("y", y)) < 0:
        return 0.0
    scale = math.sqrt(2 * c)
    x = y / scale
    return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x * x) / scale


def normal_approx_params(params: UrnParams) -> tuple[float, float]:
    """Normal location and spread for the unbalanced urn.

    With p = max(m, N-m)/N (the limit loses nothing by swapping colors):
    mu = c(p-q)/q and sigma = sqrt(cp)/q. The balanced urn has no such
    limit; use the half-normal instead.
    """
    _check_params(Dist.MAXNH, params)
    N, m, c = params.N, params.m, params.c
    if 2 * m == N:
        raise DomainError("m = N/2 has mu = 0; the balanced limit is half-normal")
    p = max(m, N - m) / N
    q = 1.0 - p
    return c * (p - q) / q, math.sqrt(c * p) / q


def approx_spec(kind: ApproxKind | str, params: UrnParams) -> ApproxSpec:
    """Derive the kind-specific parameters from an urn configuration.

    kind is an ApproxKind member or its value, such as "gamma_limit"; the
    spec holds the member. Anything else, or params that are not
    UrnParams, raises ParameterError.
    """
    kind = _member(ApproxKind, kind)
    _check_params(Dist.MAXNH, params)
    if kind is ApproxKind.MAXNB_LIMIT:
        bp = maxnb_limit(params)
        return ApproxSpec(kind, {"c": float(bp.c), "p": bp.p})
    if kind is ApproxKind.GAMMA_LIMIT:
        theta = params.m / math.sqrt(params.N)
        return ApproxSpec(kind, {"theta": theta, "c": float(params.c)})
    if kind is ApproxKind.HALFNORMAL_LIMIT:
        return ApproxSpec(kind, {"scale": math.sqrt(2 * params.c)})
    mu, sigma = normal_approx_params(params)
    return ApproxSpec(kind, {"mu": mu, "sigma": sigma})


def _approx_values(kind: ApproxKind, params: UrnParams, ys: Sequence[int]) -> list[float]:
    if kind is ApproxKind.MAXNB_LIMIT:
        bp = maxnb_limit(params)
        return [maxnb_pmf(bp, y) for y in ys]
    if kind is ApproxKind.GAMMA_LIMIT:
        return [gamma_approx_density(params, y) for y in ys]
    if kind is ApproxKind.HALFNORMAL_LIMIT:
        return [halfnormal_approx_density(params.c, y) for y in ys]
    mu, sigma = normal_approx_params(params)
    norm = sigma * math.sqrt(2.0 * math.pi)
    return [math.exp(-0.5 * ((y - mu) / sigma) ** 2) / norm for y in ys]


def convergence_sweep(
    kind: ApproxKind,
    regime: Callable[[int], UrnParams],
    sizes: Sequence[int],
) -> list[tuple[int, float]]:
    """Total variation between exact pmf and approximation at each size.

    regime maps a population size to its urn parameters (the figure regimes
    are callables like N -> UrnParams(N, 2*N//5, 3)). The approximation is
    discretized over the exact support and renormalized there before the
    distance is taken. kind is read as in approx_spec; regime must be
    callable, sizes a sequence of ints, and regime(size) UrnParams.
    """
    kind = _member(ApproxKind, kind)
    if not (callable(regime) and isinstance(sizes, Sequence)):
        raise ParameterError("convergence_sweep takes a callable regime and a sequence of sizes")
    out = []
    for size in sizes:
        params = regime(_int("size", size))
        exact = pmf_table(Dist.MAXNH, params)
        approx = _approx_values(kind, params, range(len(exact.probs)))
        total = math.fsum(approx)
        if total <= 0.0:
            raise DomainError(f"approximation mass vanished at size {size}")
        tv = 0.5 * math.fsum(
            abs(p - q / total) for p, q in zip(exact.probs, approx)
        )
        out.append((size, tv))
    return out
