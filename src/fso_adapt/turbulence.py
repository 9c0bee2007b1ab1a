"""The lognormal fading law of one optical path or of an aperture array.

A single optical path carries the fading coefficient

    I = exp(2 x),    x ~ N(m_x, sigma_x^2),  m_x = -sigma_x^2,

so ln(I) ~ N(-2 sigma_x^2, 4 sigma_x^2) and E{I} = 1: fading neither
attenuates nor amplifies the average received power.

For an F x L aperture array with equal gain combining, the decision
variable is the plain arithmetic mean of the F*L per-path coefficients.
Analytics approximate that mean by a moment-matched lognormal law of
the same form, with log spread and log mean

    log_std^2 = ln(1 + (exp(4 sigma_x^2) - 1) / (F L)),
    log_mean  = -log_std^2 / 2,

while the Monte Carlo sampler always draws the exact mean, so the
quality of the approximation is itself measurable.  One type,
``TurbulenceParams`` (also exported as ``MimoConfig``), covers both
cases: a single path is the 1 x 1 array.  Everything downstream reads
the law through ``log_mean``/``log_std`` and ``standardize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import q_function_array


@dataclass(frozen=True)
class TurbulenceParams:
    """Lognormal fading of an ``f_tx`` x ``l_rx`` aperture array over
    i.i.d. paths with log-amplitude standard deviation ``sigma_x``.

    The defaults describe a single path.  The sampler uses the exact
    composition (``f_tx``, ``l_rx``, ``sigma_x``); the analytics use the
    moment-matched law (``log_mean``, ``log_std``).
    """

    sigma_x: float
    f_tx: int = 1
    l_rx: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.sigma_x <= 1.0):
            raise ValueError(
                f"sigma_x must lie in (0, 1] (lognormal validity regime), got {self.sigma_x!r}"
            )
        if not (isinstance(self.f_tx, int) and self.f_tx >= 1):
            raise ValueError(f"f_tx must be an integer >= 1, got {self.f_tx!r}")
        if not (isinstance(self.l_rx, int) and self.l_rx >= 1):
            raise ValueError(f"l_rx must be an integer >= 1, got {self.l_rx!r}")

    @property
    def m_x(self) -> float:
        """Log-amplitude mean; always -sigma_x^2 so that E{I} = 1."""
        return -(self.sigma_x * self.sigma_x)

    @property
    def n_paths(self) -> int:
        return self.f_tx * self.l_rx

    @property
    def log_std(self) -> float:
        # One path is exactly 2 sigma_x; the general formula would reach
        # it only approximately, after an exp/log round trip.
        if self.n_paths == 1:
            return 2.0 * self.sigma_x
        spread = math.expm1(4.0 * self.sigma_x * self.sigma_x)
        return math.sqrt(math.log1p(spread / self.n_paths))

    @property
    def log_mean(self) -> float:
        return -0.5 * self.log_std * self.log_std

    def standardize(self, levels) -> np.ndarray:
        """Map intensity levels onto the standard-normal axis of ln I,
        (ln I - log_mean) / log_std.

        Zero maps to -inf and +inf to +inf, the ends of the fading
        support; a law too narrow for float resolution gives +-inf.
        """
        with np.errstate(divide="ignore", over="ignore"):
            return (np.log(np.asarray(levels, dtype=float)) - self.log_mean) / self.log_std


# An aperture array is the same law; the second name keeps array call
# sites readable.
MimoConfig = TurbulenceParams


def _validate_intensity(i) -> np.ndarray:
    arr = np.asarray(i, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("intensity must be positive and finite")
    return arr


def pdf(params: TurbulenceParams, i) -> float | np.ndarray:
    """Lognormal fading density at intensity ``i`` (scalar or array)."""
    arr = _validate_intensity(i)
    z = params.standardize(arr)
    out = np.exp(-0.5 * z * z) / (arr * params.log_std * math.sqrt(2.0 * math.pi))
    return float(out) if np.isscalar(i) else out


def cdf(params: TurbulenceParams, i_th) -> float | np.ndarray:
    """P{I <= i_th} = 1 - Q((ln i_th - log_mean) / log_std).

    Evaluated as Q(-z) to stay accurate in the deep lower tail, where
    the literal 1 - Q(z) form would cancel.
    """
    out = q_function_array(-params.standardize(_validate_intensity(i_th)))
    return float(out) if np.isscalar(i_th) else out


def draw_fading(params: TurbulenceParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` fading coefficients from an existing generator.

    Single path: exp(2x) with x ~ N(m_x, sigma_x^2).  Aperture arrays
    draw the exact arithmetic mean of F*L independent per-path
    coefficients -- deliberately NOT the lognormal approximation, so
    simulations probe the approximation rather than assume it.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    paths = params.n_paths
    # exp(2 (m_x + sigma_x z)) in place, in the same operation order.
    z = rng.standard_normal((count, paths))
    z *= params.sigma_x
    z += params.m_x
    z *= 2.0
    intensity = np.exp(z, out=z)
    if paths == 1:
        return intensity[:, 0]
    return intensity.mean(axis=1)


def sample_fading(params: TurbulenceParams, rng_seed, count: int) -> np.ndarray:
    """Deterministic fading draw: same (params, seed, count) -> same samples."""
    rng = np.random.default_rng(rng_seed)
    return draw_fading(params, rng, count)
