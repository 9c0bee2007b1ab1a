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
as 1/sqrt(snr), so the orders kept and the notes are the same at every
SNR, and an SNR grid is evaluated as a whole: one inverse-Q value per
order, one Q-function call over the (points x boundaries) array, and
one quadrature call over the regions of every point.  The per-point
functions are one-row uses of the same code.

Spectral efficiency counts bits per symbol interval divided by two (the
subcarrier's bandwidth penalty); outage intervals count zero bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link import LinkBudget, ModOrder, ber_conditional
from .numerics import integrate_truncated_normal, inverse_q, q_function_array, row_dot
from .turbulence import TurbulenceParams

# Largest supported number of orders: 2^8 = 256-PSK is already far past
# any regime where the nearest-neighbour BER approximation is sane.
MAX_ORDERS = 8

# Transmission probability below which the average BER is reported as
# outage-only rather than a 0/0 ratio.
_MIN_TRANSMIT_PROB = 1e-12


def _check_boundaries(boundaries: np.ndarray, n_orders: int) -> None:
    # The AdaptiveScheme invariants, along the last axis.
    if boundaries.shape[-1] != n_orders + 1:
        raise ValueError("boundaries must hold one entry per order plus the sentinel")
    if not np.all(np.isinf(boundaries[..., -1])):
        raise ValueError("last boundary must be the +inf sentinel")
    if np.any(boundaries[..., 1:] <= boundaries[..., :-1]):
        raise ValueError("boundaries must be strictly increasing")


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
        _check_boundaries(self.boundaries, len(self.orders))
        self.boundaries.setflags(write=False)

    @property
    def bits_per_order(self) -> tuple[int, ...]:
        return tuple(order.bits for order in self.orders)


@dataclass(frozen=True)
class SchemeGrid:
    """The adaptive scheme at every point of an ascending SNR grid (dB).

    ``errors`` holds one entry per point: None, or the reason LinkBudget
    rejects the point's SNR (not a positive, finite, normal float once
    made linear).  Such a point has no row;
    the other points have one row each, in grid order, in ``avg_snr``
    (linear), ``boundaries`` and ``thresholds_by_order`` (both as in
    AdaptiveScheme).  ``orders`` and ``notes`` hold at every point.
    """

    snr_db: tuple[float, ...]
    errors: tuple[str | None, ...]
    avg_snr: np.ndarray
    orders: tuple[ModOrder, ...]
    boundaries: np.ndarray
    thresholds_by_order: np.ndarray
    notes: tuple[str, ...]


@dataclass(frozen=True)
class PerfPoint:
    """Analytic performance at one SNR grid point.

    ``avg_ber`` is NaN when the point is outage-only or failed, the
    reason then being recorded in ``notes``, and at every point of an
    ``efficiency_sweep``, which does not compute it.
    """

    snr_db: float
    spectral_eff: float
    avg_ber: float
    outage_prob: float
    region_probs: tuple[float, ...]
    orders: tuple[int, ...]
    notes: tuple[str, ...] = ()


def _regions(n_orders: int, target_ber: float, avg_snr: np.ndarray):
    """(orders, boundaries, raw thresholds, notes) at each linear SNR of
    ``avg_snr``; boundaries and thresholds have one row per SNR.

    Orders that can never meet the target (inverse-Q argument >= 1) and
    orders whose region is empty (a larger order already meets the
    target at a lower fading level) are dropped with a note instead of
    failing the whole construction.  Both depend only on the levels at
    unit scale, so they are decided once, and every row is then checked
    against the AdaptiveScheme invariants.
    """
    if not (isinstance(n_orders, int) and 1 <= n_orders <= MAX_ORDERS):
        raise ValueError(f"n_orders must be an integer in [1, {MAX_ORDERS}], got {n_orders!r}")
    # The degenerate target 0.5 is allowed: it yields a zero boundary
    # (transmission always on).
    if not (0.0 < target_ber <= 0.5):
        raise ValueError(f"target_ber must lie in (0, 0.5], got {target_ber!r}")

    notes: list[str] = []
    reachable: list[int] = []
    q_values: list[float] = []
    sines: list[float] = []
    for j in range(1, n_orders + 1):
        q_arg = target_ber if j == 1 else 0.5 * j * target_ber
        if q_arg >= 1.0:
            notes.append(f"order {2 ** j} dropped: target {target_ber!r} unreachable")
            continue
        reachable.append(j)
        q_values.append(inverse_q(q_arg))
        # Dividing BPSK's level by 1.0 is exact.
        sines.append(1.0 if j == 1 else math.sin(math.pi / 2 ** j))

    # Level = scale * Qinv / sin with scale = sqrt(1 / (2 snr)), written
    # as 0.5 / snr, which rounds the same but cannot overflow for a
    # large SNR.  A non-positive level means the order meets the target
    # at any fading level; clamp to the edge of the support.
    q_values, sines = np.array(q_values), np.array(sines)
    scale = np.sqrt(0.5 / avg_snr)
    levels = np.maximum(scale[:, None] * q_values / sines, 0.0)
    raw = np.full((len(avg_snr), n_orders), math.nan)
    raw[:, np.array(reachable) - 1] = levels

    # Scanning from the largest order down, an order survives only if it
    # activates strictly below every larger surviving order.
    unit = np.maximum(q_values / sines, 0.0)
    kept: list[int] = []
    upper = math.inf
    for idx in reversed(range(len(reachable))):
        if unit[idx] < upper:
            kept.append(idx)
            upper = unit[idx]
        else:
            notes.append(
                f"order {2 ** reachable[idx]} dropped: region empty (superseded by a larger order)"
            )
    kept.reverse()

    boundaries = np.concatenate([levels[:, kept], np.full((len(avg_snr), 1), math.inf)], axis=1)
    _check_boundaries(boundaries, len(kept))
    orders = tuple(ModOrder(2 ** reachable[idx]) for idx in kept)
    return orders, boundaries, raw, tuple(notes)


def compute_boundaries(n_orders: int, target_ber: float, budget: LinkBudget) -> AdaptiveScheme:
    """Construct the adaptation regions for ``n_orders`` orders 2^1..2^N."""
    orders, boundaries, raw, notes = _regions(n_orders, target_ber, np.array([budget.avg_snr]))
    return AdaptiveScheme(
        target_ber=target_ber,
        budget=budget,
        orders=orders,
        boundaries=boundaries[0],
        thresholds_by_order=tuple(raw[0].tolist()),
        notes=notes,
    )


def scheme_grid(n_orders: int, target_ber: float, snr_db_grid) -> SchemeGrid:
    """The adaptive scheme over an ascending SNR grid (dB).

    A point whose SNR LinkBudget rejects is recorded in ``errors``;
    invalid parameters raise ValueError.
    """
    grid = [float(s) for s in snr_db_grid]
    if not grid:
        raise ValueError("snr grid must be nonempty")
    if any(b < a for a, b in zip(grid[:-1], grid[1:])):
        raise ValueError("snr grid must be sorted ascending")
    errors: list[str | None] = []
    avg_snr: list[float] = []
    for snr_db in grid:
        try:
            avg_snr.append(LinkBudget.from_db(snr_db).avg_snr)
            errors.append(None)
        except ValueError as exc:
            errors.append(str(exc))
    avg_snr = np.array(avg_snr)
    orders, boundaries, raw, notes = _regions(n_orders, target_ber, avg_snr)
    return SchemeGrid(
        snr_db=tuple(grid),
        errors=tuple(errors),
        avg_snr=avg_snr,
        orders=orders,
        boundaries=boundaries,
        thresholds_by_order=raw,
        notes=notes,
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


def _region_split(boundaries: np.ndarray, params: TurbulenceParams):
    """(tails, outage, region probabilities) along the last axis.

    tails are Q(x_j) at the standardized log boundaries x_j, and
    a_j = Q(x_j) - Q(x_{j+1}); outage + sum(a_j) telescopes to 1 by
    construction.
    """
    tails = q_function_array(params.standardize(boundaries))
    return tails, 1.0 - tails[..., 0], tails[..., :-1] - tails[..., 1:]


def _efficiency(tails: np.ndarray, probs: np.ndarray, bits: np.ndarray):
    """(S, mean bits per symbol) along the last axis.

    S is computed in telescoped form, S = sum_j (k_j - k_{j-1}) Q(x_j) / 2
    with k_j the bits of the j-th active order (for the standard
    consecutive order set this is the plain sum of the Q(x_j) over 2),
    and checked against the region sum, sum_j a_j k_j / 2.
    """
    s_telescoped = 0.5 * row_dot(tails[..., :-1], np.diff(bits, prepend=0.0))
    mean_bits = row_dot(probs, bits)
    broken = np.abs(s_telescoped - 0.5 * mean_bits) > 1e-12
    if broken.any():
        first = np.argmax(broken)
        raise AssertionError(
            "telescoping identity violated: "
            f"{float(s_telescoped.flat[first])!r} vs {float(0.5 * mean_bits.flat[first])!r}"
        )
    return s_telescoped, mean_bits


def _average_ber(
    orders: tuple[ModOrder, ...],
    boundaries: np.ndarray,
    avg_snr: np.ndarray,
    mean_bits: np.ndarray,
    params: TurbulenceParams,
) -> np.ndarray:
    """Adaptive average BER of every row; NaN where the transmission
    probability is negligible (outage-only operating point).

    Mean erroneous bits over mean transmitted bits, with per-region
    fading averages of the conditional BER, all regions of all rows in
    one quadrature call.
    """
    transmit = mean_bits >= _MIN_TRANSMIT_PROB

    def integrand(intensity, region, snr):
        values = np.empty_like(intensity)
        for j, order in enumerate(orders):
            panels = region[:, 0] == j
            values[panels] = ber_conditional(order, intensity[panels], snr[panels])
        return values

    regional = integrate_truncated_normal(
        integrand,
        boundaries[transmit, :-1],
        boundaries[transmit, 1:],
        params.log_mean,
        params.log_std,
        args=(np.arange(len(orders)), avg_snr[transmit, None]),
    )
    mean_error_bits = 0.0
    for j, order in enumerate(orders):
        mean_error_bits = mean_error_bits + float(order.bits) * regional[:, j]
    ber = np.full(mean_bits.shape, math.nan)
    ber[transmit] = mean_error_bits / mean_bits[transmit]
    return ber


def _bits(orders: tuple[ModOrder, ...]) -> np.ndarray:
    return np.array([order.bits for order in orders], dtype=float)


def region_probabilities(
    scheme: AdaptiveScheme, params: TurbulenceParams
) -> tuple[float, np.ndarray]:
    """(outage probability, per-region probabilities a_j)."""
    _, outage, probs = _region_split(scheme.boundaries, params)
    return float(outage), probs


def spectral_efficiency(scheme: AdaptiveScheme, params: TurbulenceParams) -> float:
    """Achievable spectral efficiency in bit/s/Hz (see ``_efficiency``)."""
    tails, _, probs = _region_split(scheme.boundaries, params)
    return float(_efficiency(tails, probs, _bits(scheme.orders))[0])


def average_ber_adaptive(scheme: AdaptiveScheme, params: TurbulenceParams) -> float | None:
    """Average BER of the adaptive scheme; None when the transmission
    probability is negligible (outage-only operating point).

    By construction the conditional BER inside region j never exceeds
    the target (it equals the target exactly at the lower boundary), so
    the result is always <= target_ber.
    """
    tails, _, probs = _region_split(scheme.boundaries, params)
    _, mean_bits = _efficiency(tails, probs, _bits(scheme.orders))
    ber = _average_ber(
        scheme.orders,
        scheme.boundaries[None, :],
        np.array([scheme.budget.avg_snr]),
        mean_bits[None],
        params,
    )[0]
    return None if math.isnan(ber) else float(ber)


def _sweep(n_orders, target_ber, params, snr_db_grid, with_ber: bool) -> list[PerfPoint]:
    grid = scheme_grid(n_orders, target_ber, snr_db_grid)
    tails, outage, probs = _region_split(grid.boundaries, params)
    eff, mean_bits = _efficiency(tails, probs, _bits(grid.orders))
    if with_ber:
        ber = _average_ber(grid.orders, grid.boundaries, grid.avg_snr, mean_bits, params)
    else:
        ber = np.full(mean_bits.shape, math.nan)
    orders = tuple(order.m for order in grid.orders)

    points: list[PerfPoint] = []
    row = 0
    for snr_db, error in zip(grid.snr_db, grid.errors):
        if error is not None:  # flagged entry, never abort the sweep
            points.append(PerfPoint(snr_db, math.nan, math.nan, math.nan, (), (), (f"error: {error}",)))
            continue
        notes = grid.notes
        if not mean_bits[row] >= _MIN_TRANSMIT_PROB:
            notes = notes + ("outage_only: transmission probability < 1e-12",)
        points.append(
            PerfPoint(
                snr_db=snr_db,
                spectral_eff=float(eff[row]),
                avg_ber=float(ber[row]),
                outage_prob=float(outage[row]),
                region_probs=tuple(probs[row].tolist()),
                orders=orders,
                notes=notes,
            )
        )
        row += 1
    return points


def sweep(
    n_orders: int,
    target_ber: float,
    params: TurbulenceParams,
    snr_db_grid,
) -> list[PerfPoint]:
    """Evaluate the adaptive scheme across an ascending SNR grid (dB).

    Each point equals the per-point functions at that SNR, bit for bit.
    A point whose SNR LinkBudget rejects is returned as a flagged entry
    (NaN fields plus a note), so a long sweep never aborts midway;
    invalid parameters raise ValueError, and any other exception, such
    as a broken internal invariant, propagates.
    """
    return _sweep(n_orders, target_ber, params, snr_db_grid, with_ber=True)


def efficiency_sweep(
    n_orders: int,
    target_ber: float,
    params: TurbulenceParams,
    snr_db_grid,
) -> list[PerfPoint]:
    """``sweep`` without the average BER: spectral efficiency, outage and
    region probabilities only, with every ``avg_ber`` NaN."""
    return _sweep(n_orders, target_ber, params, snr_db_grid, with_ber=False)
