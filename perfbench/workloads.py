"""Benchmark workloads: operation plans generated from a seed, and the
checks that judge every operation's output.

All workloads are closed loop with one caller: the next operation starts
when the previous one returns.  Each workload names the host-speed
loop (hostspeed.py) whose character matches its own.  Each workload runs in rounds; a round
holds every operation type of the workload exactly once, in an order
drawn from the seed, so every run sees the same mix of operations.

* ``analytic_figures``: the README's five figure commands through the
  in-process CLI.  Loads numerics, link, adaptation and cli, never the
  simulator.
* ``mc_oracle_k1``: ``simulator.run`` at one symbol per block with one
  worker, on the operating points of acceptance criteria 5 and 6 and of
  ``fso-adapt validate``.  Every symbol costs a fading draw.
* ``mc_block_fading``: ``simulator.run`` at 250 symbols per block with
  two workers; every operation spans several chunks, so the thread pool
  is used and fading draws are rare.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
from fso_adapt import cli, simulator
from fso_adapt._tables import POPCOUNT, TAB_IM, TAB_OFFSET, TAB_RE
from fso_adapt.adaptation import (
    AdaptiveScheme,
    average_ber_adaptive,
    compute_boundaries,
    region_probabilities,
    spectral_efficiency,
)
from fso_adapt.link import LinkBudget, ModOrder, ber_average, ber_conditional
from fso_adapt.numerics import DEFAULT_HERMITE_ORDER, SQRT2, SQRT_PI, gauss_hermite
from fso_adapt.turbulence import MimoConfig, TurbulenceParams

REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "analytic_figures.json"

# The README's figure commands, in canonical order.  The first one is
# the warm-up operation of every set-up.
FIGURES: dict[str, list[str]] = {
    "fig3_spectral": ["spectral", "--sigma-x", "0.5", "--po", "1e-3", "--n", "5", "--snr", "0:30:0.5"],
    "fig5_ber": ["ber", "--sigma-x", "0.3", "--po", "1e-2", "--n", "5", "--snr", "0:30:0.5"],
    "thresholds": ["thresholds", "--sigma-x", "0.3", "--po", "1e-3", "--n", "5", "--snr", "0:30:1"],
    "capacity": ["capacity", "--sigma-x", "0.3", "--snr", "10:30:1"],
    "fig7_spectral_2x2": [
        "spectral", "--sigma-x", "0.3", "--po", "1e-3", "--n", "5", "--mimo", "2x2", "--snr", "0:30:0.5",
    ],
}

# Analytic rows must match the reference within these tolerances: the
# relative one is the capacity numeric-vs-closed pin of the tests, the
# absolute one the pin on the first threshold.  Later commits may change
# last-ulp bits (vectorised sweeps, another erfc), never more than this.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Statistical pass bands are widened to this many standard deviations
# plus a few bit errors for the small-count regime, so that a correct
# program fails with negligible probability on any seed.
SIGMAS = 6.0
SLACK_ERRORS = 5.0

# Relative spectral-efficiency tolerance: criterion 6 for a single path,
# the `validate` default for arrays, whose analytic law is the
# moment-matched approximation.
EFF_TOL_SINGLE = 0.02
EFF_TOL_ARRAY = 0.05
# Band for fixed orders above BPSK, which must absorb the bias of the
# nearest-neighbour BER approximation (+5.6% for 8-PSK at sigma_x=0.3,
# 15 dB, measured over 1e7 symbols).  `validate_point` sizes such a run so
# that one 95% CI half-width is tolerance * analytic and accepts three,
# so at its own sample size its band is 3 * 0.05 * analytic.
FIXED_BAND = 3 * 0.05

TARGET_BER = 1e-3
N_ORDERS = 5


@dataclass(frozen=True)
class Op:
    """One operation: a figure command or one simulated point."""

    label: str
    snr_points: int
    symbols: int = 0
    argv: tuple[str, ...] = ()
    config: simulator.SimConfig | None = None


def _within(value: float, reference: float) -> bool:
    if math.isnan(reference):
        return math.isnan(value)
    return abs(value - reference) <= max(REL_TOL * abs(reference), ABS_TOL)


def parse_csv(data: bytes) -> tuple[list[str], list[list[float]]]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


class AnalyticFigures:
    name = "analytic_figures"
    calibration = staticmethod(hostspeed.interpreter)

    def __init__(self, seed: int, workdir: Path) -> None:
        self._rng = random.Random(seed)
        self._reference = json.loads(REFERENCE_FILE.read_text())
        self._first_output: dict[str, bytes] = {}
        self._ops = {
            label: Op(
                label=label,
                snr_points=len(self._reference[label]["rows"]),
                argv=tuple(argv) + ("--out", str(workdir / f"{label}.csv")),
            )
            for label, argv in FIGURES.items()
        }

    def warmup(self) -> Op:
        return self._ops[next(iter(FIGURES))]

    def round(self, index: int) -> list[Op]:
        ops = list(self._ops.values())
        self._rng.shuffle(ops)
        return ops

    def execute(self, op: Op) -> tuple[float, tuple[int, bytes]]:
        start = perf_counter()
        code = cli.main(list(op.argv))
        elapsed = perf_counter() - start
        return elapsed, (code, Path(op.argv[-1]).read_bytes())

    def check(self, op: Op, output: tuple[int, bytes]) -> list[str]:
        code, data = output
        if code != 0:
            return [f"{op.label}: exit code {code}"]
        problems = []
        first = self._first_output.setdefault(op.label, data)
        if data != first:
            problems.append(f"{op.label}: output bytes differ from the first run")
        reference = self._reference[op.label]
        columns, rows = parse_csv(data)
        if columns != reference["columns"] or len(rows) != len(reference["rows"]):
            return problems + [f"{op.label}: table shape differs from the reference"]
        for row, ref_row in zip(rows, reference["rows"]):
            bad = [c for c, v, r in zip(columns, row, ref_row) if not _within(v, r)]
            if bad:
                problems.append(f"{op.label}: snr {row[0]} outside tolerance in {bad}")
        if "ber_adaptive" in columns:
            ber = columns.index("ber_adaptive")
            target = columns.index("p_o_reference")
            over = [row[0] for row in rows if not row[ber] <= row[target]]
            if over:
                problems.append(f"{op.label}: adaptive BER above P_o at snr {over}")
        return problems

    @staticmethod
    def bytes_out(output: tuple[int, bytes]) -> int:
        return len(output[1])


@dataclass(frozen=True)
class Point:
    """A simulated operating point and the analytic values that judge it."""

    label: str
    snr_db: float
    channel: object
    mode: object  # ModOrder or AdaptiveScheme
    symbols: int
    expected: dict


def _ber_second_moment(order: ModOrder, channel, budget: LinkBudget) -> float:
    # E[p(I)^2] of the conditional BER over the fading law, with the
    # Gauss-Hermite rule that ber_average uses for E[p(I)].
    rule = gauss_hermite(DEFAULT_HERMITE_ORDER)
    intensity = np.exp(channel.log_mean + channel.log_std * SQRT2 * rule.nodes)
    p = ber_conditional(order, intensity, budget)
    return float(np.dot(rule.weights, p * p) / SQRT_PI)


def make_point(label: str, snr_db: float, channel, mode, symbols: int) -> Point:
    budget = LinkBudget.from_db(snr_db)
    if mode == "adaptive":
        scheme = compute_boundaries(N_ORDERS, TARGET_BER, budget)
        _, probs = region_probabilities(scheme, channel)
        bits = scheme.bits_per_order
        mean_bits = sum(a * k for a, k in zip(probs, bits))
        expected = {
            "spectral_eff": spectral_efficiency(scheme, channel),
            "ber": average_ber_adaptive(scheme, channel),
            "bits_var": sum(a * k * k for a, k in zip(probs, bits)) - mean_bits ** 2,
            "eff_tol": EFF_TOL_ARRAY if channel.n_paths > 1 else EFF_TOL_SINGLE,
        }
        return Point(label, snr_db, channel, scheme, symbols, expected)
    order = ModOrder(mode)
    ber = ber_average(order, channel, budget)
    expected = {"ber": ber, "p_var": max(_ber_second_moment(order, channel, budget) - ber * ber, 0.0)}
    return Point(label, snr_db, channel, order, symbols, expected)


def check_report(point: Point, report: simulator.SimReport) -> list[str]:
    """Judge one report with the `validate_point` and criteria 5-6 bands,
    each widened by a bound on the estimator's standard deviation that
    holds for any block length."""
    k = report.symbols_per_block
    blocks = report.blocks
    bits = report.bits_sent
    exp = point.expected
    if isinstance(point.mode, AdaptiveScheme):
        problems = []
        eff = exp["spectral_eff"]
        sim_eff = 0.5 * report.throughput_bits_per_symbol
        eff_band = max(exp["eff_tol"] * eff, SIGMAS * 0.5 * math.sqrt(exp["bits_var"] / blocks))
        if not abs(sim_eff - eff) <= eff_band:
            problems.append(f"{point.label}: spectral efficiency {sim_eff} vs {eff} (band {eff_band})")
        # Bit errors have variance at most b_max (k P_o + 1) E[errors]
        # while the conditional BER stays below P_o in every region.
        b_max = point.mode.orders[-1].bits
        target = point.mode.target_ber
        sd = math.sqrt(b_max * (k * target + 1.0) * target * bits)
        excess = max(report.ber_ci95, (SIGMAS * sd + SLACK_ERRORS) / bits)
        if not report.ber_point <= target + excess:
            problems.append(f"{point.label}: BER {report.ber_point} above {target} + {excess}")
        return problems
    analytic = exp["ber"]
    ci_ref = 1.96 * math.sqrt(analytic * (1.0 - analytic) / bits)
    # Variance of the BER estimate over `blocks` fading blocks of k symbols.
    sd = math.sqrt((exp["p_var"] + analytic / k) / blocks)
    band = max(3.0 * ci_ref, SIGMAS * sd + SLACK_ERRORS / bits)
    if point.mode.m > 2:
        band = max(band, FIXED_BAND * analytic)
    if not abs(report.ber_point - analytic) <= band:
        return [f"{point.label}: BER {report.ber_point} vs analytic {analytic} (band {band})"]
    return []


class MonteCarlo:
    """A Monte Carlo workload over a fixed list of operating points.

    Even rounds draw a fresh simulation seed per point; each odd round
    repeats the previous round's (config, seed) pairs in another order
    and requires equal reports.
    """

    name = ""
    symbols_per_block = 1
    workers = 1
    calibration = staticmethod(hostspeed.memory)

    def __init__(self, seed: int, workdir: Path) -> None:
        self._rng = random.Random(seed)
        self.points = self.operating_points()
        self._last: list[Op] = []
        self._reports: dict[tuple[str, int], simulator.SimReport] = {}
        self._warmup = self._op(self.points[0], self._rng.randrange(2 ** 32))

    def operating_points(self) -> list[Point]:
        raise NotImplementedError

    def _op(self, point: Point, sim_seed: int) -> Op:
        blocks = point.symbols // self.symbols_per_block
        config = simulator.SimConfig(
            blocks=blocks,
            symbols_per_block=self.symbols_per_block,
            seed=sim_seed,
            mode=point.mode,
            channel=point.channel,
            budget=LinkBudget.from_db(point.snr_db),
        )
        return Op(point.label, 1, config.total_symbols, config=config)

    def warmup(self) -> Op:
        return self._warmup

    def round(self, index: int) -> list[Op]:
        if index % 2 == 0:
            ops = [self._op(p, self._rng.randrange(2 ** 32)) for p in self.points]
        else:
            ops = list(self._last)
        self._rng.shuffle(ops)
        self._last = ops
        return ops

    def execute(self, op: Op) -> tuple[float, simulator.SimReport]:
        start = perf_counter()
        report = simulator.run(op.config, workers=self.workers)
        elapsed = perf_counter() - start
        return elapsed, report

    def check(self, op: Op, report: simulator.SimReport) -> list[str]:
        point = next(p for p in self.points if p.label == op.label)
        problems = check_report(point, report)
        first = self._reports.setdefault((op.label, op.config.seed), report)
        if report != first:
            problems.append(f"{op.label}: repeated (config, seed) gave a different report")
        return problems

    @staticmethod
    def bytes_out(output) -> int:
        return 0


# Symbol counts are set so that every operation of a workload takes about
# the same time with the numpy kernel, which keeps the per-operation time
# distribution unimodal and its median and tail steady.
K1_BPSK_SYMBOLS = 1 << 19


class OracleK1(MonteCarlo):
    name = "mc_oracle_k1"
    symbols_per_block = 1
    workers = 1

    def operating_points(self) -> list[Point]:
        points = []
        for sigma in (0.1, 0.3, 0.5):  # criterion 5
            for snr_db in (5.0, 10.0, 15.0, 20.0):
                points.append(
                    make_point(
                        f"bpsk_sigma{sigma}_{snr_db:g}dB", snr_db,
                        TurbulenceParams(sigma_x=sigma), 2, K1_BPSK_SYMBOLS,
                    )
                )
        siso = TurbulenceParams(sigma_x=0.3)
        for snr_db, symbols in ((10.0, 384_000), (15.0, 336_000), (20.0, 304_000)):  # criterion 6
            points.append(make_point(f"adaptive_sigma0.3_{snr_db:g}dB", snr_db, siso, "adaptive", symbols))
        # `fso-adapt validate`: a fixed order above BPSK and an aperture array.
        points.append(make_point("psk8_sigma0.3_15dB", 15.0, siso, 8, 368_000))
        points.append(
            make_point(
                "adaptive_mimo2x2_15dB", 15.0, MimoConfig(f_tx=2, l_rx=2, sigma_x=0.3),
                "adaptive", 288_000,
            )
        )
        return points


# Blocks per chunk at 250 symbols per block; operations are whole chunks,
# and an even count keeps both workers busy to the end.
K250_CHUNK_BLOCKS = simulator.CHUNK_SYMBOLS // 250


class BlockFading(MonteCarlo):
    name = "mc_block_fading"
    symbols_per_block = 250
    workers = 2

    def operating_points(self) -> list[Point]:
        siso = TurbulenceParams(sigma_x=0.3)
        chunk = K250_CHUNK_BLOCKS * 250
        points = [
            make_point(f"adaptive_sigma0.3_{snr_db:g}dB", snr_db, siso, "adaptive", chunks * chunk)
            for snr_db, chunks in ((10.0, 4), (15.0, 2), (20.0, 2))
        ]
        points.append(make_point("bpsk_sigma0.3_15dB", 15.0, siso, 2, 4 * chunk))
        points.append(make_point("bpsk_sigma0.5_20dB", 20.0, TurbulenceParams(sigma_x=0.5), 2, 4 * chunk))
        return points


WORKLOADS = {w.name: w for w in (AnalyticFigures, OracleK1, BlockFading)}


def kernel_parity(reference, candidate, seed: int) -> list[str]:
    """Compare two kernels' error counts on the same random batches, a
    BPSK batch and one mixing outage blocks with orders 2..32."""
    rng = np.random.default_rng(seed)
    k, blocks = 250, 1024
    problems = []
    for label, m_choices in (("bpsk", [2]), ("mixed 2..32", [0, 2, 4, 8, 16, 32])):
        amp = np.abs(rng.normal(2.0, 1.0, blocks)) + 0.05
        m = rng.choice(np.array(m_choices, dtype=np.int64), blocks)
        u = rng.random(blocks * k)
        noise = rng.standard_normal(2 * blocks * k)
        args = (amp, m, u, noise, k, TAB_RE, TAB_IM, TAB_OFFSET, POPCOUNT)
        expected, got = int(reference(*args)), int(candidate(*args))
        if expected != got:
            problems.append(f"kernel parity ({label}): {got} errors, reference {expected}")
    return problems
