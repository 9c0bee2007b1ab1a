"""Non-adaptive subcarrier M-PSK link analysis: conditional and
fading-averaged bit error rate, and the high-SNR capacity upper bound.

The received electrical sample is modeled (after normalization) as
r = sqrt(snr) * I * s + n with unit-power complex noise, so the
instantaneous electrical SNR is ``avg_snr * I^2``.  Conditional BER:

    M = 2:  Pb(2, I) = Q(I sqrt(2 snr))
    M > 2:  Pb(M, I) ~ (2 / log2 M) Q(I sqrt(2 snr) sin(pi / M))

The M > 2 expression is the standard nearest-neighbour approximation
under Gray labeling; it is adopted verbatim for the analytics (it also
defines the adaptation thresholds) and the symbol-level simulator
quantifies its residual error rather than hiding it.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import (
    DEFAULT_HERMITE_ORDER,
    SQRT2,
    SQRT_PI,
    gauss_hermite,
    integrate_truncated_normal,
    q_function_array,
    row_dot,
)
from .turbulence import TurbulenceParams

# Below ~10 dB average SNR the dropped high-SNR capacity residue is no
# longer negligible and the bound loses meaning.
_CAPACITY_TRUST_SNR = 10.0


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"avg_snr must be positive and finite, got 10**({db!r}/10)") from None


def linear_to_db(value: float) -> float:
    if value <= 0.0:
        raise ValueError("dB conversion requires a positive value")
    return 10.0 * math.log10(value)


@dataclass(frozen=True)
class LinkBudget:
    """Average electrical SNR, optionally carrying its physical constituents.

    When the constituents are supplied, ``avg_snr`` must equal
    mu^2 eta^2 p_opt^2 e_s / n_o exactly (use :meth:`from_components`).
    """

    avg_snr: float
    mu: float | None = None
    eta: float | None = None
    p_opt: float | None = None
    e_s: float | None = None
    n_o: float | None = None

    def __post_init__(self) -> None:
        if not (self.avg_snr > 0.0 and math.isfinite(self.avg_snr)):
            raise ValueError(f"avg_snr must be positive and finite, got {self.avg_snr!r}")
        # The region boundaries scale as 1/sqrt(snr), which overflows for
        # a subnormal SNR.
        if self.avg_snr < sys.float_info.min:
            raise ValueError(f"avg_snr must be a normal float, got {self.avg_snr!r}")
        parts = (self.mu, self.eta, self.p_opt, self.e_s, self.n_o)
        given = [p is not None for p in parts]
        if any(given):
            if not all(given):
                raise ValueError("give all of mu/eta/p_opt/e_s/n_o or none of them")
            if not (0.0 < self.mu < 1.0):
                raise ValueError(f"modulation index mu must lie in (0, 1), got {self.mu!r}")
            if min(self.eta, self.p_opt, self.e_s, self.n_o) <= 0.0:
                raise ValueError("eta, p_opt, e_s and n_o must all be positive")
            expected = (self.mu * self.eta * self.p_opt) ** 2 * self.e_s / self.n_o
            if expected != self.avg_snr:
                raise ValueError(
                    f"avg_snr={self.avg_snr!r} inconsistent with constituents "
                    f"(expected {expected!r})"
                )

    @classmethod
    def from_components(
        cls, mu: float, eta: float, p_opt: float, e_s: float, n_o: float
    ) -> "LinkBudget":
        snr = (mu * eta * p_opt) ** 2 * e_s / n_o
        return cls(avg_snr=snr, mu=mu, eta=eta, p_opt=p_opt, e_s=e_s, n_o=n_o)

    @classmethod
    def from_db(cls, snr_db: float) -> "LinkBudget":
        return cls(avg_snr=db_to_linear(snr_db))

    @property
    def snr_db(self) -> float:
        return linear_to_db(self.avg_snr)


@dataclass(frozen=True)
class ModOrder:
    """PSK constellation size; restricted to powers of two, m >= 2."""

    m: int

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and self.m >= 2 and self.m & (self.m - 1) == 0):
            raise ValueError(f"modulation order must be a power of two >= 2, got {self.m!r}")

    @property
    def bits(self) -> int:
        return self.m.bit_length() - 1


def as_order(m) -> ModOrder:
    return m if isinstance(m, ModOrder) else ModOrder(int(m))


def _avg_snr(budget):
    # A LinkBudget, or an array of average SNRs (linear) taken from
    # LinkBudgets, one per point of an SNR grid.
    return budget.avg_snr if isinstance(budget, LinkBudget) else np.asarray(budget, dtype=float)


def ber_conditional(m, i, budget):
    """BER of M-PSK at fixed fading ``i`` (scalar or array).

    ``budget`` is a LinkBudget, or an array of linear average SNRs that
    broadcasts against ``i``.
    """
    order = as_order(m)
    arr = np.asarray(i, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("fading intensity must be positive")
    with np.errstate(over="ignore"):  # an SNR beyond half the float range: BER 0, its limit
        arg = arr * np.sqrt(2.0 * _avg_snr(budget))
    if order.m == 2:
        out = q_function_array(arg)
    else:
        out = (2.0 / order.bits) * q_function_array(arg * math.sin(math.pi / order.m))
    return float(out) if np.ndim(out) == 0 else out


def ber_average(m, params: TurbulenceParams, budget):
    """Fading-averaged BER, int_0^inf Pb(M, I) f_I(I) dI.

    Gauss-Hermite after substituting the Gaussian log-fading variable,
    ln I = log_mean + log_std * sqrt(2) * t.  For a LinkBudget the result
    is a float; for an array of linear average SNRs it is an array of
    their shape, each entry bit-identical to the call for that SNR alone.
    """
    order = as_order(m)
    rule = gauss_hermite(DEFAULT_HERMITE_ORDER)
    intensity = np.exp(params.log_mean + params.log_std * SQRT2 * rule.nodes)
    values = ber_conditional(order, intensity, np.asarray(_avg_snr(budget))[..., None])
    out = row_dot(values, rule.weights) / SQRT_PI
    return float(out) if isinstance(budget, LinkBudget) else out


def _warn_if_untrusted(budget: LinkBudget) -> None:
    if budget.avg_snr < _CAPACITY_TRUST_SNR:
        warnings.warn(
            "capacity upper bound is a high-SNR approximation; "
            f"below {_CAPACITY_TRUST_SNR:.0f} dB average SNR it is not trustworthy",
            stacklevel=3,
        )


def capacity_upper_numeric(
    params: TurbulenceParams, budget: LinkBudget, bandwidth: float
) -> float:
    """Capacity upper bound in bit/s by numerically averaging
    (W/2) log2(snr * I^2 / e) over the fading density."""
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    _warn_if_untrusted(budget)
    snr = budget.avg_snr

    def integrand(intensity: np.ndarray) -> np.ndarray:
        return np.log2(snr * intensity * intensity / math.e)

    avg = integrate_truncated_normal(
        integrand, 0.0, math.inf, params.log_mean, params.log_std
    )
    return 0.5 * bandwidth * avg


def capacity_upper_closed(
    params: TurbulenceParams, budget: LinkBudget, bandwidth: float
) -> float:
    """Closed form of :func:`capacity_upper_numeric`.

    The log2 splits into a constant plus 2 E[ln I] / ln 2, and the
    Gaussian log-fading moments are exact:

        C = (W/2) (log2(snr/e) + 2 log_mean / ln 2)

    which for a single path reduces to (W/2)(log2(snr/e) - 4 sigma_x^2/ln 2).
    For aperture arrays the same moment identity is applied to the
    matched aggregate law; that variant has no independent reference and
    is flagged as an extrapolation in CLI metadata.
    """
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    _warn_if_untrusted(budget)
    return 0.5 * bandwidth * (
        math.log2(budget.avg_snr / math.e) + 2.0 * params.log_mean / math.log(2.0)
    )
