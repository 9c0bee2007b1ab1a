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
  panels, all evaluated in one call of the integrand.  Infinite limits
  are truncated at ten standard deviations in the log domain, where the
  remaining tail mass is below 1e-20.
"""

from __future__ import annotations

import math
import warnings
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

# Default Gauss-Hermite order for fading averages.  At high SNR the BER
# integrand is a sharp sigmoid in the log-fading variable and Hermite
# rules converge slowly on it: 100 nodes keep the absolute gap to the
# panel-based reference integrator below 1e-8 for log-amplitude
# deviations up to 0.5 and average SNR up to 30 dB (30 nodes leave
# ~1e-5 there).  Callers can lower the order where speed matters.
DEFAULT_HERMITE_ORDER = 100


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


def integrate_truncated_normal(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    mean: float,
    std: float,
    *,
    panel_width: float = 0.5,
    panel_order: int = 20,
) -> float:
    """Integrate f(I) against the lognormal density of I over [lo, hi].

    ``mean``/``std`` parameterize the log-domain Gaussian, i.e.
    ln(I) ~ N(mean, std^2).  ``hi`` may be +inf.  ``f`` is evaluated once,
    on a (panels x nodes) array of intensity values, and must return an
    array of the same shape; any other shape raises ValueError.
    """
    if not (std > 0.0):
        raise ValueError("std must be positive")
    if not lo < hi:
        raise ValueError(f"empty integration region: lo={lo!r} >= hi={hi!r}")
    if lo < 0.0:
        warnings.warn("negative lower limit clamped to 0 (intensity is nonnegative)", stacklevel=2)
        lo = 0.0

    u_lo = -LOG_DOMAIN_TAIL if lo == 0.0 else max((math.log(lo) - mean) / std, -LOG_DOMAIN_TAIL)
    u_hi = LOG_DOMAIN_TAIL if math.isinf(hi) else min((math.log(hi) - mean) / std, LOG_DOMAIN_TAIL)
    if u_lo >= u_hi:
        return 0.0  # region lies entirely beyond the truncated tails

    rule = gauss_legendre(panel_order)
    n_panels = max(1, math.ceil((u_hi - u_lo) / panel_width))
    edges = np.linspace(u_lo, u_hi, n_panels + 1)
    half_widths = 0.5 * (edges[1:] - edges[:-1])
    u = half_widths[:, None] * rule.nodes + 0.5 * (edges[:-1] + edges[1:])[:, None]
    intensity = np.exp(mean + std * u)
    values = np.asarray(f(intensity), dtype=float)
    if values.shape != intensity.shape:
        raise ValueError(
            f"f returned shape {values.shape} for intensities of shape {intensity.shape}"
        )
    density = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return float(np.dot(half_widths, np.sum(rule.weights * values * density, axis=1)))
