"""BER-constrained rate adaptation: region boundaries, order selection,
achievable spectral efficiency and average BER of the adaptive scheme.

The transmitter picks, per fading block, the largest constellation
whose conditional BER still meets the target ``p_o``.  With orders
M_j = 2^j the fading axis splits into an outage region [0, I_1) where
transmission stops, and regions [I_j, I_{j+1}) where order M_j is used;
the boundary I_j is exactly the fading level at which M_j first meets
the target:

    I_1 = sqrt(1 / (2 snr)) Qinv(p_o)
    I_j = sqrt(1 / (2 snr)) Qinv(j p_o / 2) / sin(pi / 2^j),  j >= 2

and the top region extends to an infinity sentinel.  Boundaries scale
as 1/sqrt(snr), so they are recomputed per SNR point (trivially cheap)
rather than cached across a sweep.

Spectral efficiency counts bits per symbol interval divided by two (the
subcarrier's bandwidth penalty); outage intervals count zero bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link import LinkBudget, ModOrder, ber_conditional, db_to_linear
from .numerics import integrate_truncated_normal, inverse_q, q_function_array
from .turbulence import TurbulenceParams

# Largest supported number of orders: 2^8 = 256-PSK is already far past
# any regime where the nearest-neighbour BER approximation is sane.
MAX_ORDERS = 8

# Transmission probability below which the average BER is reported as
# outage-only rather than a 0/0 ratio.
_MIN_TRANSMIT_PROB = 1e-12


@dataclass(frozen=True)
class AdaptiveScheme:
    """Region boundaries and the orders they activate, for one SNR point.

    ``boundaries`` has one entry per active order plus a trailing +inf
    sentinel; ``notes`` records any orders dropped because the target is
    unreachable or their region is empty.  ``thresholds_by_order`` keeps
    the raw per-order activation levels for all requested orders
    (clamped at 0, NaN where the target is unreachable) -- the reporting
    surface, independent of the region cleanup.
    """

    target_ber: float
    budget: LinkBudget
    orders: tuple[ModOrder, ...]
    boundaries: np.ndarray
    thresholds_by_order: tuple[float, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.boundaries) != len(self.orders) + 1:
            raise ValueError("boundaries must hold one entry per order plus the sentinel")
        if not math.isinf(self.boundaries[-1]):
            raise ValueError("last boundary must be the +inf sentinel")
        if np.any(np.diff(self.boundaries) <= 0.0):
            raise ValueError("boundaries must be strictly increasing")
        self.boundaries.setflags(write=False)

    @property
    def bits_per_order(self) -> tuple[int, ...]:
        return tuple(order.bits for order in self.orders)


@dataclass(frozen=True)
class PerfPoint:
    """Analytic performance at one SNR grid point.

    ``avg_ber`` is NaN when the point is outage-only or failed; the
    reason is then recorded in ``notes``.
    """

    snr_db: float
    spectral_eff: float
    avg_ber: float
    outage_prob: float
    region_probs: tuple[float, ...]
    orders: tuple[int, ...]
    notes: tuple[str, ...] = ()


def compute_boundaries(n_orders: int, target_ber: float, budget: LinkBudget) -> AdaptiveScheme:
    """Construct the adaptation regions for ``n_orders`` orders 2^1..2^N.

    Orders that can never meet the target (inverse-Q argument >= 1) and
    orders whose region comes out empty (a larger order already meets
    the target at a lower fading level) are dropped with a note instead
    of failing the whole construction.
    """
    if not (isinstance(n_orders, int) and 1 <= n_orders <= MAX_ORDERS):
        raise ValueError(f"n_orders must be an integer in [1, {MAX_ORDERS}], got {n_orders!r}")
    # The degenerate target 0.5 is allowed: it yields a zero boundary
    # (transmission always on).
    if not (0.0 < target_ber <= 0.5):
        raise ValueError(f"target_ber must lie in (0, 0.5], got {target_ber!r}")

    scale = math.sqrt(1.0 / (2.0 * budget.avg_snr))
    notes: list[str] = []
    candidates: list[tuple[int, float]] = []
    raw: list[float] = []
    for j in range(1, n_orders + 1):
        m = 2 ** j
        q_arg = target_ber if j == 1 else 0.5 * j * target_ber
        if q_arg >= 1.0:
            notes.append(f"order {m} dropped: target {target_ber!r} unreachable")
            raw.append(math.nan)
            continue
        boundary = scale * inverse_q(q_arg)
        if j > 1:
            boundary /= math.sin(math.pi / m)
        # A non-positive boundary means the order meets the target at any
        # fading level; clamp to the edge of the support.
        boundary = max(boundary, 0.0)
        candidates.append((m, boundary))
        raw.append(boundary)

    # Remove orders whose region is empty: scanning from the largest
    # order down, an order survives only if it activates strictly below
    # every larger surviving order.
    kept: list[tuple[int, float]] = []
    upper = math.inf
    for m, boundary in reversed(candidates):
        if boundary < upper:
            kept.append((m, boundary))
            upper = boundary
        else:
            notes.append(f"order {m} dropped: region empty (superseded by a larger order)")
    kept.reverse()
    if not kept:
        raise ValueError("no feasible modulation order for this target BER")

    boundaries = np.array([b for _, b in kept] + [math.inf])
    return AdaptiveScheme(
        target_ber=target_ber,
        budget=budget,
        orders=tuple(ModOrder(m) for m, _ in kept),
        boundaries=boundaries,
        thresholds_by_order=tuple(raw),
        notes=tuple(notes),
    )


def select_order(scheme: AdaptiveScheme, i: float) -> ModOrder | None:
    """Order used at fading level ``i``; None means no transmission.

    Regions are left-closed/right-open, so a fading level exactly on a
    boundary belongs to the higher order.
    """
    if not (i > 0.0):
        raise ValueError("fading intensity must be positive")
    idx = int(np.searchsorted(scheme.boundaries, i, side="right")) - 1
    if idx < 0:
        return None
    return scheme.orders[idx]


def region_probabilities(
    scheme: AdaptiveScheme, params: TurbulenceParams
) -> tuple[float, np.ndarray]:
    """(outage probability, per-region probabilities a_j).

    a_j = Q(x_j) - Q(x_{j+1}) with x_j the standardized log boundary;
    outage + sum(a_j) telescopes to 1 by construction.
    """
    tails = q_function_array(params.standardize(scheme.boundaries))
    probs = tails[:-1] - tails[1:]
    outage = 1.0 - tails[0]
    return float(outage), probs


def spectral_efficiency(scheme: AdaptiveScheme, params: TurbulenceParams) -> float:
    """Achievable spectral efficiency in bit/s/Hz.

    Computed in telescoped form, S = sum_j (k_j - k_{j-1}) Q(x_j) / 2
    with k_j the bits of the j-th active order (for the standard
    consecutive order set this is the plain sum of the Q(x_j) over 2);
    cross-checked internally against sum_j a_j k_j / 2.
    """
    tails = q_function_array(params.standardize(scheme.boundaries))
    bits = np.asarray(scheme.bits_per_order, dtype=float)
    increments = np.diff(bits, prepend=0.0)
    s_telescoped = 0.5 * float(np.dot(increments, tails[:-1]))
    s_direct = 0.5 * float(np.dot(tails[:-1] - tails[1:], bits))
    if abs(s_telescoped - s_direct) > 1e-12:
        raise AssertionError(
            f"telescoping identity violated: {s_telescoped!r} vs {s_direct!r}"
        )
    return s_telescoped


def average_ber_adaptive(scheme: AdaptiveScheme, params: TurbulenceParams) -> float | None:
    """Average BER of the adaptive scheme: mean erroneous bits over mean
    transmitted bits, with per-region fading averages of the conditional
    BER.  Returns None when the transmission probability is negligible
    (outage-only operating point).

    By construction the conditional BER inside region j never exceeds
    the target (it equals the target exactly at the lower boundary), so
    the result is always <= target_ber.
    """
    _, probs = region_probabilities(scheme, params)
    bits = np.asarray(scheme.bits_per_order, dtype=float)
    mean_bits = float(np.dot(probs, bits))
    if mean_bits < _MIN_TRANSMIT_PROB:
        return None

    budget = scheme.budget
    mean_error_bits = 0.0
    for order, k, lo, hi in zip(
        scheme.orders, bits, scheme.boundaries[:-1], scheme.boundaries[1:]
    ):
        regional = integrate_truncated_normal(
            lambda intensity: ber_conditional(order, intensity, budget),
            float(lo),
            float(hi),
            params.log_mean,
            params.log_std,
        )
        mean_error_bits += k * regional
    return mean_error_bits / mean_bits


def sweep(
    n_orders: int,
    target_ber: float,
    params: TurbulenceParams,
    snr_db_grid,
) -> list[PerfPoint]:
    """Evaluate the adaptive scheme across an ascending SNR grid (dB).

    Boundaries are recomputed at every point.  Per-point failures
    (ValueError) are returned as flagged entries (NaN fields plus a note)
    so a long sweep never aborts midway; any other exception, such as a
    broken internal invariant, propagates.
    """
    grid = [float(s) for s in snr_db_grid]
    if not grid:
        raise ValueError("snr grid must be nonempty")
    if any(b < a for a, b in zip(grid[:-1], grid[1:])):
        raise ValueError("snr grid must be sorted ascending")

    points: list[PerfPoint] = []
    for snr_db in grid:
        try:
            budget = LinkBudget(avg_snr=db_to_linear(snr_db))
            scheme = compute_boundaries(n_orders, target_ber, budget)
            outage, probs = region_probabilities(scheme, params)
            eff = spectral_efficiency(scheme, params)
            ber = average_ber_adaptive(scheme, params)
            notes = scheme.notes
            if ber is None:
                ber = math.nan
                notes = notes + ("outage_only: transmission probability < 1e-12",)
            points.append(
                PerfPoint(
                    snr_db=snr_db,
                    spectral_eff=eff,
                    avg_ber=ber,
                    outage_prob=outage,
                    region_probs=tuple(float(p) for p in probs),
                    orders=tuple(order.m for order in scheme.orders),
                    notes=notes,
                )
            )
        except ValueError as exc:  # flagged entry, never abort the sweep
            points.append(
                PerfPoint(
                    snr_db=snr_db,
                    spectral_eff=math.nan,
                    avg_ber=math.nan,
                    outage_prob=math.nan,
                    region_probs=(),
                    orders=(),
                    notes=(f"error: {exc}",),
                )
            )
    return points
