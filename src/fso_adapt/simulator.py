"""Independent Monte Carlo oracle: symbol-level simulation of the
subcarrier PSK link over sampled fading.

Normalization: the received sample per symbol is

    r = sqrt(avg_snr) * I * s + n,   |s| = 1,   E{|n|^2} = 1

(circularly symmetric complex noise, variance 1/2 per dimension); this
is algebraically identical to the physical front-end model, so the
individual constants (modulation index, efficiency, optical power,
pulse energy) never appear.  Fading is drawn exactly -- for aperture
arrays that means the true arithmetic mean of per-path coefficients,
NOT the lognormal approximation the analytics use, so simulated-vs-
analytic gaps quantify both the nearest-neighbour BER approximation and
the aggregate-fading approximation.

Determinism: work splits into fixed chunks of consecutive blocks; each
chunk owns the generator ``Generator(SFC64([seed, chunk_index]))`` and
draws in a fixed layout: fading, then per-slab symbol uniforms, then
noise normals.  Only what the kernel reads is drawn: nothing for outage
blocks, one uniform and one in-phase normal per BPSK symbol, and one
uniform and two normals (in-phase, quadrature) per M >= 4 symbol, packed
from the front of full-length zero arrays in slot order.  Results
therefore depend only on (config, seed), never on worker count or
scheduling, and chunk tallies merge by exact integer addition.

The demodulation inner loop is the hot path; a compiled kernel is
preferred at import time with a bit-identical numpy fallback (see
``KERNEL_BACKEND``).
"""

from __future__ import annotations

import math
import mmap
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _psk_kernel_py
from ._tables import MAX_CONSTELLATION, POPCOUNT, TAB_IM, TAB_OFFSET, TAB_RE
from .adaptation import AdaptiveScheme, average_ber_adaptive, spectral_efficiency
from .link import LinkBudget, ModOrder, ber_average
from .turbulence import TurbulenceParams, draw_fading

try:
    from . import _psk_kernel as _kernel_module
except ImportError:  # extension not built; numpy fallback
    _kernel_module = _psk_kernel_py

KERNEL_BACKEND: str = _kernel_module.BACKEND

# Swappable at runtime (benchmarks and backend-parity tests); read on
# every chunk, not captured.
active_kernel = _kernel_module.count_bit_errors

# Target symbols per chunk; one chunk is the unit of work and of RNG
# stream assignment.
CHUNK_SYMBOLS = 1 << 20

# Guard rail against accidentally monstrous runs.
MAX_TOTAL_SYMBOLS = 10 ** 9

# Simulations sized automatically aim for at least this many expected
# bit errors, for stable confidence intervals.
TARGET_ERRORS = 100.0


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: channel, link budget, mode, and sizing."""

    blocks: int
    symbols_per_block: int
    seed: int
    mode: Union[ModOrder, AdaptiveScheme]
    channel: TurbulenceParams
    budget: LinkBudget

    def __post_init__(self) -> None:
        if self.blocks < 1 or self.symbols_per_block < 1:
            raise ValueError("blocks and symbols_per_block must be >= 1")
        if self.blocks * self.symbols_per_block > MAX_TOTAL_SYMBOLS:
            raise ValueError(
                f"blocks * symbols_per_block exceeds the {MAX_TOTAL_SYMBOLS:.0e} guard rail"
            )
        if isinstance(self.mode, AdaptiveScheme):
            if self.mode.budget.avg_snr != self.budget.avg_snr:
                raise ValueError("adaptive scheme was computed for a different link budget")
            top = self.mode.orders[-1].m
        else:
            top = self.mode.m
        if top > MAX_CONSTELLATION:
            raise ValueError(f"constellations above {MAX_CONSTELLATION}-PSK are not supported")

    @property
    def total_symbols(self) -> int:
        return self.blocks * self.symbols_per_block


@dataclass(frozen=True)
class SimReport:
    """Tallies of one run.  ``ber_ci95`` is the normal-approximation
    binomial half-width; ``per_region_histogram`` counts blocks per
    active order (fixed mode: a single bucket)."""

    bits_sent: int
    bit_errors: int
    ber_point: float
    ber_ci95: float
    throughput_bits_per_symbol: float
    outage_fraction: float
    per_region_histogram: tuple[int, ...]
    blocks: int
    symbols_per_block: int
    seed: int
    kernel: str


def _zeros(n: int) -> np.ndarray:
    # A private anonymous mapping reads as zeros, becomes resident only
    # where written and is returned to the system when the array dies,
    # so the unread zero tail never takes memory.  np.zeros may instead
    # get a freed heap block, which calloc clears, and so touches, in
    # full; how much the heap keeps then varies from run to run.
    buf = mmap.mmap(-1, 8 * n, flags=mmap.MAP_PRIVATE)  # fd -1: anonymous
    if hasattr(mmap, "MADV_HUGEPAGE"):  # Linux: fault in 2 MB at a time
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64)


def _classify(scheme: AdaptiveScheme, fading: np.ndarray, k: int):
    """Assign each block to its adaptation region in one pass.

    ``region`` counts the finite boundaries at or below each fade: 0 is
    outage and i the i-th active order, so a fade exactly on an edge
    belongs to the upper region, as in ``select_order``.  Returns the
    per-block orders, the per-order block histogram, the outage count,
    the bits sent at ``k`` symbols per block, and the sending (M >= 2)
    and quadrature (M >= 4) block counts.
    """
    edges = scheme.boundaries[:-1]
    region = np.zeros(fading.size, dtype=np.uint8)  # at most 8 edges
    for edge in edges:
        region += fading >= edge
    counts = np.bincount(region, minlength=edges.size + 1)
    m_table = np.array([0] + [order.m for order in scheme.orders], dtype=np.int64)
    bits_table = np.array([0] + list(scheme.bits_per_order), dtype=np.int64)
    outage = int(counts[0])
    return (
        m_table.take(region),
        counts[1:],
        outage,
        int(counts @ bits_table) * k,
        fading.size - outage,
        int(counts[m_table >= 4].sum()),
    )


def _run_chunk(config: SimConfig, chunk_index: int, block_lo: int, block_hi: int):
    rng = np.random.Generator(np.random.SFC64([config.seed, chunk_index]))
    nb = block_hi - block_lo
    k = config.symbols_per_block
    fading = draw_fading(config.channel, rng, nb)
    amp = math.sqrt(config.budget.avg_snr) * fading

    mode = config.mode
    if isinstance(mode, AdaptiveScheme):
        m_blocks, histogram, outage_blocks, bits_sent, sending, quad = _classify(mode, fading, k)
    else:
        m_blocks = np.full(nb, mode.m, dtype=np.int64)
        histogram = np.array([nb], dtype=np.int64)
        outage_blocks = 0
        bits_sent = nb * mode.bits * k
        sending = nb
        quad = nb if mode.m >= 4 else 0

    kernel = active_kernel

    def count(slots: int) -> int:
        # Full-length arrays keep the kernel's length contract; only the
        # prefix it reads is drawn, and the zero tail is never written.
        u = _zeros(nb * slots)
        noise = _zeros(2 * nb * slots)
        rng.random(out=u[: slots * sending])
        rng.standard_normal(out=noise[: slots * (sending + quad)])
        return int(kernel(amp, m_blocks, u, noise, slots, TAB_RE, TAB_IM, TAB_OFFSET, POPCOUNT))

    # A chunk holds at most CHUNK_SYMBOLS symbols, or else one oversized
    # block, whose symbol stream is cut into slabs of that size with the
    # same draw order.  A chunk whose blocks are all in outage draws
    # nothing (sending == 0 leaves the range empty).
    errors = sum(
        count(min(CHUNK_SYMBOLS, k - done)) for done in range(0, k * sending, CHUNK_SYMBOLS)
    )
    return errors, bits_sent, histogram, outage_blocks


def run(config: SimConfig, workers: int = 1) -> SimReport:
    """Execute the simulation; deterministic for (config, seed) at any
    worker count."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    k = config.symbols_per_block
    blocks_per_chunk = max(1, CHUNK_SYMBOLS // k)
    bounds = list(range(0, config.blocks, blocks_per_chunk)) + [config.blocks]
    tasks = [(idx, lo, hi) for idx, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]

    if workers == 1 or len(tasks) == 1:
        results = [_run_chunk(config, *task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_chunk, config, *task) for task in tasks]
            results = [f.result() for f in futures]  # merged in chunk order

    bit_errors = sum(r[0] for r in results)
    bits_sent = sum(r[1] for r in results)
    histogram = np.sum([r[2] for r in results], axis=0)
    outage_blocks = sum(r[3] for r in results)

    if bits_sent > 0:
        ber = bit_errors / bits_sent
        ci95 = 1.96 * math.sqrt(max(ber * (1.0 - ber), 0.0) / bits_sent)
    else:
        ber = math.nan
        ci95 = math.nan
    backend = getattr(sys.modules.get(active_kernel.__module__), "BACKEND", "unknown")
    return SimReport(
        bits_sent=bits_sent,
        bit_errors=bit_errors,
        ber_point=ber,
        ber_ci95=ci95,
        throughput_bits_per_symbol=bits_sent / config.total_symbols,
        outage_fraction=outage_blocks / config.blocks,
        per_region_histogram=tuple(int(h) for h in histogram),
        blocks=config.blocks,
        symbols_per_block=config.symbols_per_block,
        seed=config.seed,
        kernel=backend,
    )


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of one simulator-vs-analytics comparison."""

    status: str  # "pass" | "fail" | "inconclusive"
    details: dict
    report: SimReport | None


def _fixed_point_size(analytic_ber: float, bits_per_symbol: int, tolerance: float) -> int | None:
    # Bits needed so that the 95% CI half-width stays below
    # tolerance * analytic value; None when the guard rail forbids it,
    # as it does for an analytic BER that underflows to 0.
    if analytic_ber <= 0.0:
        return None
    needed = 1.96 ** 2 * (1.0 - analytic_ber) / (tolerance ** 2 * analytic_ber)
    needed = max(needed, TARGET_ERRORS / analytic_ber)
    symbols = int(math.ceil(needed / bits_per_symbol))
    if symbols > MAX_TOTAL_SYMBOLS:
        return None
    return max(symbols, 10 ** 5)


def validate_point(
    snr_db: float,
    params: TurbulenceParams,
    mode: Union[ModOrder, AdaptiveScheme],
    tolerance: float,
    *,
    seed: int = 2024,
    workers: int = 1,
) -> ValidationResult:
    """Size, run and judge one simulated point against the analytics.

    Every block holds one symbol, so every symbol sees a fresh fading
    draw: the marginal error indicator is then exactly Bernoulli and the
    binomial CI is the right yardstick.  (With long blocks the
    fading-sampling noise would dominate the binomial term and a
    binomial CI would understate the run-to-run spread.)

    Fixed order: the simulated BER must sit within
    max(3 reference CI half-widths, tolerance * analytic) of the
    fading-averaged analytic BER; the reference CI uses the analytic
    probability, so an error-free run at a tiny analytic BER still
    judges correctly.  For orders above 2 the analytic side is the
    nearest-neighbour approximation, which underestimates the BER by
    about 5% (+5.4% for 8-PSK at sigma_x = 0.3, 15 dB).  The default 5%
    floor does not absorb that bias: such a point passes only while its
    CI is wide, so its verdict depends on the seed.
    Adaptive: the empirical throughput/2 must match the spectral
    efficiency within ``tolerance`` relative, and the simulated BER may
    not exceed the target by more than its own CI half-width.  For
    aperture arrays the comparison doubles as a measurement of the
    lognormal aggregate approximation; the signed gaps are reported
    either way.  ``tolerance`` must be finite and positive.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
    budget = LinkBudget.from_db(snr_db)

    if isinstance(mode, ModOrder):
        analytic = ber_average(mode, params, budget)
        symbols = _fixed_point_size(analytic, mode.bits, tolerance)
        if symbols is None:
            return ValidationResult(
                status="inconclusive",
                details={
                    "reason": "required sample size exceeds the guard rail",
                    "analytic_ber": analytic,
                },
                report=None,
            )
        config = SimConfig(
            blocks=symbols,
            symbols_per_block=1,
            seed=seed,
            mode=mode,
            channel=params,
            budget=budget,
        )
        report = run(config, workers=workers)
        ci_ref = 1.96 * math.sqrt(analytic * (1.0 - analytic) / report.bits_sent)
        gap = report.ber_point - analytic
        ok = abs(gap) <= max(3.0 * ci_ref, tolerance * analytic)
        return ValidationResult(
            status="pass" if ok else "fail",
            details={
                "analytic_ber": analytic,
                "simulated_ber": report.ber_point,
                "signed_gap": gap,
                "ci95_reference": ci_ref,
                "pass_band": max(3.0 * ci_ref, tolerance * analytic),
            },
            report=report,
        )

    # Adaptive mode.
    if mode.budget.avg_snr != budget.avg_snr:
        raise ValueError("adaptive scheme was computed for a different SNR point")
    eff = spectral_efficiency(mode, params)
    analytic_ber = average_ber_adaptive(mode, params)
    mean_bits = 2.0 * eff
    if mean_bits <= 0.0 or analytic_ber is None:
        return ValidationResult(
            status="inconclusive",
            details={"reason": "outage-only operating point", "spectral_eff": eff},
            report=None,
        )
    max_bits = mode.orders[-1].bits
    symbols = 9.0 * max_bits / (tolerance ** 2 * mean_bits)  # throughput CI
    # An analytic BER that underflows to 0 would need an unbounded run.
    errors_bound = TARGET_ERRORS / (analytic_ber * mean_bits) if analytic_ber > 0.0 else math.inf
    symbols = max(symbols, errors_bound, 10 ** 6)
    if symbols > MAX_TOTAL_SYMBOLS:
        return ValidationResult(
            status="inconclusive",
            details={"reason": "required sample size exceeds the guard rail"},
            report=None,
        )
    config = SimConfig(
        blocks=math.ceil(symbols),
        symbols_per_block=1,
        seed=seed,
        mode=mode,
        channel=params,
        budget=budget,
    )
    report = run(config, workers=workers)
    sim_eff = 0.5 * report.throughput_bits_per_symbol
    eff_gap = sim_eff - eff
    ber_excess = report.ber_point - mode.target_ber
    ok_eff = abs(eff_gap) <= tolerance * eff
    ok_ber = report.ber_point <= mode.target_ber + report.ber_ci95
    return ValidationResult(
        status="pass" if (ok_eff and ok_ber) else "fail",
        details={
            "analytic_spectral_eff": eff,
            "simulated_spectral_eff": sim_eff,
            "spectral_eff_signed_gap": eff_gap,
            "analytic_ber": analytic_ber,
            "simulated_ber": report.ber_point,
            "target_ber": mode.target_ber,
            "ber_excess_over_target": ber_excess,
            "aggregate_law_is_approximation": params.n_paths > 1,
        },
        report=report,
    )
