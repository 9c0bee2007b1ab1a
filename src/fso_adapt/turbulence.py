"""Lognormal turbulence-induced fading, single path and aggregated.

A single optical path carries the fading coefficient

    I = exp(2 x),    x ~ N(m_x, sigma_x^2),  m_x = -sigma_x^2,

so ln(I) ~ N(-2 sigma_x^2, 4 sigma_x^2) and E{I} = 1: fading neither
attenuates nor amplifies the average received power.

For an F x L aperture array with equal gain combining, the decision
variable is the plain arithmetic mean of the F*L per-path coefficients.
Analytics approximate that mean by a moment-matched lognormal law,

    sigma_xi^2 = ln(1 + (exp(4 sigma_x^2) - 1) / (F L)),
    m_xi       = -sigma_xi^2 / 2,

while the Monte Carlo sampler always draws the exact sum, so the
quality of the approximation is itself measurable.  Both laws expose
``log_mean``/``log_std`` (the Gaussian parameters of ln I); everything
downstream consumes only those two numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .numerics import q_function_array


@dataclass(frozen=True)
class TurbulenceParams:
    """Single-path lognormal fading, parameterized by the log-amplitude
    standard deviation ``sigma_x``."""

    sigma_x: float

    def __post_init__(self) -> None:
        if not (0.0 < self.sigma_x <= 1.0):
            raise ValueError(
                f"sigma_x must lie in (0, 1] (lognormal validity regime), got {self.sigma_x!r}"
            )

    @property
    def m_x(self) -> float:
        """Log-amplitude mean; always -sigma_x^2 so that E{I} = 1."""
        return -(self.sigma_x * self.sigma_x)

    @property
    def log_std(self) -> float:
        return 2.0 * self.sigma_x

    @property
    def log_mean(self) -> float:
        return -0.5 * self.log_std * self.log_std

    @property
    def n_paths(self) -> int:
        return 1


@dataclass(frozen=True)
class MimoConfig:
    """F x L aperture array over i.i.d. single-path fading.

    Stores both the exact composition (``f_tx``, ``l_rx``, per-path
    ``sigma_x``, used by the sampler) and the moment-matched aggregate
    law (``sigma_xi``, ``m_xi``, used by the analytics).
    """

    f_tx: int
    l_rx: int
    sigma_x: float

    def __post_init__(self) -> None:
        if not (isinstance(self.f_tx, int) and self.f_tx >= 1):
            raise ValueError(f"f_tx must be an integer >= 1, got {self.f_tx!r}")
        if not (isinstance(self.l_rx, int) and self.l_rx >= 1):
            raise ValueError(f"l_rx must be an integer >= 1, got {self.l_rx!r}")
        if not (0.0 < self.sigma_x <= 1.0):
            raise ValueError(
                f"sigma_x must lie in (0, 1] (lognormal validity regime), got {self.sigma_x!r}"
            )

    @property
    def n_paths(self) -> int:
        return self.f_tx * self.l_rx

    @property
    def sigma_xi(self) -> float:
        # The F = L = 1 aggregate is the single-path law itself; computing
        # it directly keeps the reduction bit-exact rather than merely
        # close after the exp/log round trip.
        if self.n_paths == 1:
            return 2.0 * self.sigma_x
        spread = math.expm1(4.0 * self.sigma_x * self.sigma_x)
        return math.sqrt(math.log1p(spread / self.n_paths))

    @property
    def m_xi(self) -> float:
        return -0.5 * self.sigma_xi * self.sigma_xi

    @property
    def log_std(self) -> float:
        return self.sigma_xi

    @property
    def log_mean(self) -> float:
        return self.m_xi


FadingLaw = Union[TurbulenceParams, MimoConfig]


def _validate_intensity(i) -> np.ndarray:
    arr = np.asarray(i, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("intensity must be positive and finite")
    return arr


def pdf(params: FadingLaw, i) -> float | np.ndarray:
    """Lognormal fading density at intensity ``i`` (scalar or array)."""
    arr = _validate_intensity(i)
    z = (np.log(arr) - params.log_mean) / params.log_std
    out = np.exp(-0.5 * z * z) / (arr * params.log_std * math.sqrt(2.0 * math.pi))
    return float(out) if np.isscalar(i) else out


def cdf(params: FadingLaw, i_th) -> float | np.ndarray:
    """P{I <= i_th} = 1 - Q((ln i_th - log_mean) / log_std).

    Evaluated as Q(-z) to stay accurate in the deep lower tail, where
    the literal 1 - Q(z) form would cancel.
    """
    arr = _validate_intensity(i_th)
    z = (np.log(arr) - params.log_mean) / params.log_std
    out = q_function_array(-z)
    return float(out) if np.isscalar(i_th) else out


def draw_fading(params: FadingLaw, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` fading coefficients from an existing generator.

    Single path: exp(2x) with x ~ N(m_x, sigma_x^2).  Aperture arrays
    draw the exact arithmetic mean of F*L independent per-path
    coefficients -- deliberately NOT the lognormal approximation, so
    simulations probe the approximation rather than assume it.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    sigma = params.sigma_x
    m_x = -(sigma * sigma)
    paths = params.n_paths
    # exp(2 (m_x + sigma z)) in place, in the same operation order.
    z = rng.standard_normal((count, paths))
    z *= sigma
    z += m_x
    z *= 2.0
    intensity = np.exp(z, out=z)
    if paths == 1:
        return intensity[:, 0]
    return intensity.mean(axis=1)


def sample_fading(params: FadingLaw, rng_seed, count: int) -> np.ndarray:
    """Deterministic fading draw: same (params, seed, count) -> same samples."""
    rng = np.random.default_rng(rng_seed)
    return draw_fading(params, rng, count)


def standardized_boundary(params: FadingLaw, boundary: float) -> float:
    """Map an intensity threshold onto the standard-normal axis of ln I.

    Zero maps to -inf (the threshold excludes nothing), matching the
    open lower end of the fading support.
    """
    if boundary < 0.0:
        raise ValueError("boundary must be nonnegative")
    if boundary == 0.0:
        return -math.inf
    return (math.log(boundary) - params.log_mean) / params.log_std
