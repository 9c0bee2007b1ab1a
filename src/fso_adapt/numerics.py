"""Special functions and quadrature primitives shared by every other module.

Conventions used throughout:

* Gauss-Hermite rules are in the physicists' convention, i.e. they
  integrate against the weight exp(-t^2) over the whole real line, so
  the weights sum to sqrt(pi).
* Gauss-Legendre rules integrate against 1 on [-1, 1], so the weights
  sum to 2.
* Both rules come from ``numpy.polynomial`` (already in these
  conventions) and the inverse Q-function from ``statistics.NormalDist``;
  this module checks and caches them.
* ``integrate_truncated_normal`` evaluates integrals of the form

      int_lo^hi f(I) f_I(I) dI

  where I is lognormal with ln(I) ~ N(mean, std^2).  The substitution
  I = exp(mean + std*u) maps the integral onto a standard-normal
  segment in u, which is then covered by composite Gauss-Legendre
  panels.  The limits may be arrays: the integrand is called on whole
  intervals at a time, up to ``MAX_PANELS_PER_CALL`` panels per call, so
  a whole SNR grid of regions costs a few calls in bounded memory.  Both
  limits are clipped into ten standard deviations of the mean in the log
  domain, beyond which the tail mass is below 1e-20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import Callable, Literal

import numpy as np

SQRT2 = math.sqrt(2.0)
SQRT_PI = math.sqrt(math.pi)

_STANDARD_NORMAL = NormalDist()

# Truncation point for infinite limits, in standard deviations of the
# log-domain Gaussian.  The normal tail beyond 10 sigma is ~7.6e-24.
LOG_DOMAIN_TAIL = 10.0

# Gauss-Hermite order of every fading-averaged BER.  At high SNR the BER
# integrand is a sharp sigmoid in the log-fading variable and Hermite
# rules converge slowly on it: 100 nodes keep the absolute gap to the
# panel-based reference integrator below 1e-8 for log-amplitude
# deviations up to 0.5 and average SNR up to 30 dB (30 nodes leave
# ~1e-5 there).
DEFAULT_HERMITE_ORDER = 100

# Composite Gauss-Legendre panels of the truncated-normal integrator:
# width in standard deviations of the log-domain Gaussian, and nodes
# per panel.
PANEL_WIDTH = 0.5
PANEL_ORDER = 20
# Panels per call of the integrand, unless one interval alone has more;
# each panel costs a few KB of temporaries.
MAX_PANELS_PER_CALL = 8192


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P{N(0,1) > x}.

    Evaluated through the complementary error function,
    Q(x) = erfc(x / sqrt(2)) / 2.
    """
    if not math.isfinite(x):
        raise ValueError(f"q_function requires a finite argument, got {x!r}")
    return 0.5 * math.erfc(x / SQRT2)


def q_function_array(x: np.ndarray) -> np.ndarray:
    """Vectorized Q(x); accepts +-inf (limits 0 and 1).

    Maps the libm ``math.erfc`` over the elements, which is accurate to
    within a few ulp across the normal range.
    """
    z = np.asarray(x, dtype=float) / SQRT2
    erfc = np.fromiter(map(math.erfc, z.ravel().tolist()), dtype=float, count=z.size)
    return 0.5 * erfc.reshape(z.shape)


def inverse_q(p: float) -> float:
    """Inverse of ``q_function``: the x with Q(x) = p, for p in (0, 1).

    Evaluated as -Phi^{-1}(p) with the standard library's normal
    quantile (Wichura's AS241, Applied Statistics, 1988).  Against
    mpmath it is within 6e-16 relative for p in [1e-300, 1 - 1e-8].
    The ``0.0 -`` keeps inverse_q(0.5) at +0.0.
    """
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise ValueError(f"inverse_q requires p in (0, 1), got {p!r}")
    return 0.0 - _STANDARD_NORMAL.inv_cdf(p)


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable nodes/weights pair for one of the two weight functions."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: Literal["hermite", "legendre"]
    order: int

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError("quadrature order must be >= 2")
        if self.nodes.shape != (self.order,) or self.weights.shape != (self.order,):
            raise ValueError("nodes/weights must both have length `order`")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must all be positive")
        target = SQRT_PI if self.kind == "hermite" else 2.0
        total = float(np.sum(self.weights))
        if abs(total - target) > 1e-12 * target:
            raise ValueError(f"{self.kind} weights sum to {total!r}, expected {target!r}")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=None)
def gauss_hermite(order: int) -> QuadratureRule:
    """Physicists' Gauss-Hermite rule: sum(w_i g(t_i)) ~ int exp(-t^2) g(t) dt."""
    if not (2 <= order <= 128):
        raise ValueError(f"gauss_hermite order must be in [2, 128], got {order!r}")
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return QuadratureRule(nodes=nodes, weights=weights, kind="hermite", order=order)


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1]: sum(w_i g(t_i)) ~ int_-1^1 g(t) dt."""
    if not (2 <= order <= 128):
        raise ValueError(f"gauss_legendre order must be in [2, 128], got {order!r}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return QuadratureRule(nodes=nodes, weights=weights, kind="legendre", order=order)


def row_dot(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of every vector along the last axis of ``a`` with ``v``.

    Each row is one (1 x n) @ (n x 1) product, which numpy hands to the
    BLAS dot, so a row of a batch equals ``np.dot`` on that row alone,
    bit for bit, whatever the batch size.  A 1-D ``a`` gives a 0-d array.
    """
    return (np.asarray(a, dtype=float)[..., None, :] @ np.asarray(v, dtype=float)[:, None])[..., 0, 0]


def integrate_truncated_normal(
    f: Callable[..., np.ndarray],
    lo,
    hi,
    mean: float,
    std: float,
    args: tuple = (),
):
    """Integrate f(I) against the lognormal density of I over [lo, hi].

    ``mean``/``std`` parameterize the log-domain Gaussian, i.e.
    ln(I) ~ N(mean, std^2).  ``lo`` and ``hi`` are scalars or arrays that
    broadcast together, one integral per interval; ``hi`` may be +inf,
    and a negative ``lo`` or an empty interval raises ValueError.
    The result is a float for scalar limits and an array of the limits'
    shape otherwise.  Each interval gets its own panels, and ``f`` is
    evaluated on the (panels x nodes) array of intensities of a group of
    whole intervals, at most ``MAX_PANELS_PER_CALL`` panels unless one
    interval alone has more; it must return an array of that shape, and
    any other shape raises ValueError.  Each interval sums alone, so the
    grouping never changes a result.  Each entry of ``args`` holds one
    per-interval parameter (an array that broadcasts to the limits'
    shape); ``f`` receives it as a (panels x 1) column beside the
    intensities, so ``f(intensity, *columns)`` broadcasts row by row.
    """
    if not (std > 0.0):
        raise ValueError("std must be positive")
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    negative = lo < 0.0
    if negative.any():
        first = int(np.argmax(negative))
        raise ValueError(f"negative lower limit lo={float(lo[first])!r} (intensity is nonnegative)")
    empty = ~(lo < hi)
    if empty.any():
        first = int(np.argmax(empty))
        raise ValueError(f"empty integration region: lo={float(lo[first])!r} >= hi={float(hi[first])!r}")

    # log(0) is -inf, and a law too narrow for float resolution maps
    # its limits to +-inf; both are then cut at the truncation points.
    # Clipping both limits from both sides keeps u_hi - u_lo finite
    # for regions beyond a tail too, which get no panels either way.
    with np.errstate(divide="ignore", over="ignore"):
        u_lo = np.clip((np.log(lo) - mean) / std, -LOG_DOMAIN_TAIL, LOG_DOMAIN_TAIL)
        u_hi = np.clip((np.log(hi) - mean) / std, -LOG_DOMAIN_TAIL, LOG_DOMAIN_TAIL)
    # A region that lies entirely beyond the truncated tails gets no
    # panels and integrates to 0.
    counts = np.where(
        u_lo < u_hi, np.maximum(1.0, np.ceil((u_hi - u_lo) / PANEL_WIDTH)), 0.0
    ).astype(np.intp)

    ends = np.cumsum(counts)
    starts = ends - counts
    rule = gauss_legendre(PANEL_ORDER)
    args = [np.broadcast_to(a, shape).ravel() for a in args]
    totals = np.empty(lo.size)
    first = 0
    while first < lo.size:
        last = np.searchsorted(ends, starts[first] + MAX_PANELS_PER_CALL, side="right")
        last = max(first + 1, int(last))
        # Panel k of an interval spans the k-th step of
        # np.linspace(u_lo, u_hi, count + 1), edge for edge.
        owner = np.repeat(np.arange(first, last), counts[first:last])
        offsets = starts[first:last] - starts[first]
        k = np.arange(owner.size) - offsets[owner - first]
        start, stop, count = u_lo[owner], u_hi[owner], counts[owner]
        step = (stop - start) / count
        left = k * step + start
        right = np.where(k + 1 == count, stop, (k + 1) * step + start)
        half_widths = 0.5 * (right - left)

        u = half_widths[:, None] * rule.nodes + 0.5 * (left + right)[:, None]
        intensity = np.exp(mean + std * u)
        values = np.asarray(f(intensity, *(a[owner, None] for a in args)), dtype=float)
        if values.shape != intensity.shape:
            raise ValueError(
                f"f returned shape {values.shape} for intensities of shape {intensity.shape}"
            )
        density = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        sums = np.sum(rule.weights * values * density, axis=1)
        # One BLAS dot per interval, so that an interval sums the same in
        # a group as alone.
        bounds = zip(offsets.tolist(), (offsets + counts[first:last]).tolist())
        totals[first:last] = [np.dot(half_widths[a:b], sums[a:b]) for a, b in bounds]
        first = last
    return float(totals[0]) if shape == () else totals.reshape(shape)
