"""Command-line front end: figure-data sweeps, one-off simulations and
the simulator-vs-analytics validation suite.

Output is CSV by default (one header row, fixed column order, floats at
17 significant digits) or JSON (the same rows wrapped in a metadata
envelope echoing the resolved parameters, tool version and seed).
Given identical parameters and seed the output bytes are identical
across runs.  Notes about a sweep (orders dropped, outage-only points)
go to stderr, one line per distinct note, and into the JSON metadata
under ``notes``; CSV output never carries them.

An optional config file (plain ``key=value`` lines, ``#`` comments)
supplies defaults; explicit command-line flags win.  The environment
variable ``FSO_ADAPT_OUTDIR`` prefixes relative output paths.

Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .adaptation import compute_boundaries, efficiency_sweep, scheme_grid, sweep
from .link import LinkBudget, ModOrder, ber_average, capacity_upper_closed, capacity_upper_numeric
from .simulator import SimConfig, run, validate_point
from .turbulence import MimoConfig, TurbulenceParams

USAGE_ERROR = 2

_SWEEP_DEFAULTS = {
    "snr": "0:30:0.5",
    "sigma_x": 0.3,
    "po": 1e-3,
    "n": 5,
    "mimo": None,
    "seed": 1234,
    "format": "csv",
    "out": None,
}


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class SweepSpec:
    """Resolved parameters of one sweep-style command."""

    command: str
    snr_start: float
    snr_stop: float
    snr_step: float
    sigma_x: float
    po: float
    n_orders: int
    mimo: tuple[int, int] | None
    seed: int
    out: str | None
    fmt: str

    @property
    def snr_grid(self) -> list[float]:
        count = int(math.floor((self.snr_stop - self.snr_start) / self.snr_step + 1e-9)) + 1
        return [self.snr_start + i * self.snr_step for i in range(count)]

    def channel(self) -> TurbulenceParams:
        return TurbulenceParams(self.sigma_x, *(self.mimo or ()))


def _parse_snr_range(text: str) -> tuple[float, float, float]:
    try:
        start, stop, step = (float(part) for part in text.split(":"))
    except ValueError:
        raise UsageError(f"bad --snr range {text!r}, expected start:stop:step")
    if step <= 0.0:
        raise UsageError("--snr step must be positive")
    if start > stop:
        raise UsageError("--snr start must not exceed stop")
    return start, stop, step


def _parse_mimo(text: str) -> tuple[int, int]:
    try:
        f_tx, l_rx = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise UsageError(f"bad --mimo value {text!r}, expected FxL (e.g. 2x2)")
    if f_tx < 1 or l_rx < 1:
        raise UsageError("--mimo aperture counts must be >= 1")
    return f_tx, l_rx


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().lower().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> dict:
    # defaults < config file < explicit flags
    resolved = dict(_SWEEP_DEFAULTS)
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
        unknown = set(file_values) - set(_SWEEP_DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(file_values)
    for key in _SWEEP_DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _build_spec(command: str, args: argparse.Namespace) -> SweepSpec:
    resolved = _resolve(args)
    start, stop, step = _parse_snr_range(str(resolved["snr"]))
    mimo = resolved["mimo"]
    if isinstance(mimo, str):
        mimo = _parse_mimo(mimo) if mimo.lower() not in ("", "none") else None
    fmt = str(resolved["format"]).lower()
    if fmt not in ("csv", "json"):
        raise UsageError(f"--format must be csv or json, got {fmt!r}")
    try:
        spec = SweepSpec(
            command=command,
            snr_start=start,
            snr_stop=stop,
            snr_step=step,
            sigma_x=float(resolved["sigma_x"]),
            po=float(resolved["po"]),
            n_orders=int(resolved["n"]),
            mimo=mimo,
            seed=int(resolved["seed"]),
            out=resolved["out"],
            fmt=fmt,
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad parameter value: {exc}")
    # capacity does not use the target BER.
    if command != "capacity" and not (0.0 < spec.po <= 0.5):
        raise UsageError(f"target_ber must lie in (0, 0.5], got {spec.po!r}")
    return spec


def _format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _output_path(out: str | None) -> Path | None:
    if out is None:
        return None
    path = Path(out)
    outdir = os.environ.get("FSO_ADAPT_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    return path


def _collect_notes(points) -> list[dict]:
    # Each distinct note once, in order of first appearance, with the
    # SNR points it applies to.
    where: dict[str, list[float]] = {}
    for point in points:
        for note in point.notes:
            where.setdefault(note, []).append(point.snr_db)
    return [{"note": note, "snr_db": snrs} for note, snrs in where.items()]


def _emit_table(
    spec_meta: dict,
    columns: list[str],
    rows: list[list],
    out: str | None,
    fmt: str,
    notes=(),
) -> None:
    """Write the table, and each of ``notes`` as one line to stderr."""
    for entry in notes:
        snrs = entry["snr_db"]
        if len(snrs) == 1:
            where = f"{snrs[0]:g} dB"
        else:
            where = f"{len(snrs)} points, {snrs[0]:g} to {snrs[-1]:g} dB"
        print(f"note: {entry['note']} ({where})", file=sys.stderr)
    path = _output_path(out)
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_format_value(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        envelope = {
            "meta": {"tool": "fso-adapt", "version": __version__, **spec_meta, "notes": list(notes)},
            "columns": columns,
            "rows": rows,
        }
        text = json.dumps(envelope, indent=2, sort_keys=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _spec_meta(spec: SweepSpec) -> dict:
    meta = {
        "command": spec.command,
        "snr_db": f"{spec.snr_start}:{spec.snr_stop}:{spec.snr_step}",
        "sigma_x": spec.sigma_x,
        "po": spec.po,
        "n_orders": spec.n_orders,
        "mimo": None if spec.mimo is None else f"{spec.mimo[0]}x{spec.mimo[1]}",
        "seed": spec.seed,
    }
    if spec.mimo is not None and spec.mimo != (1, 1):
        # No independent reference exists for the aggregate-law capacity
        # column; it extrapolates the single-path moment identity.
        meta["mimo_capacity_extrapolated"] = True
    return meta


def _bpsk_threshold_snr_db(spec: SweepSpec, channel) -> float:
    # Average SNR at which fixed BPSK's fading-averaged BER meets the
    # target; bisection over dB (BER is monotone decreasing in SNR).
    # Stops once the midpoint no longer lies strictly inside the bracket,
    # after which further steps would leave it unchanged.
    lo, hi = -30.0, 90.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if ber_average(2, channel, LinkBudget.from_db(mid)) > spec.po:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _capacity(bound, channel, budget: LinkBudget) -> float:
    # Grids routinely start below the bound's 10 dB trust level; the
    # README documents that, so the per-row warning is not repeated here.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "capacity upper bound is a high-SNR approximation")
        return bound(channel, budget, bandwidth=1.0)


def cmd_spectral(spec: SweepSpec) -> int:
    channel = spec.channel()
    points = efficiency_sweep(spec.n_orders, spec.po, channel, spec.snr_grid)
    bpsk_at = _bpsk_threshold_snr_db(spec, channel)
    columns = ["snr_db", "s_adaptive", "s_capacity_upper", "s_bpsk_nonadaptive", "outage_prob"]
    rows = []
    for point in points:
        cap = _capacity(capacity_upper_closed, channel, LinkBudget.from_db(point.snr_db))
        rows.append(
            [
                point.snr_db,
                point.spectral_eff,
                cap,
                0.5 if point.snr_db >= bpsk_at else 0.0,
                point.outage_prob,
            ]
        )
    meta = _spec_meta(spec)
    meta["bpsk_ber_meets_target_at_db"] = bpsk_at
    _emit_table(meta, columns, rows, spec.out, spec.fmt, _collect_notes(points))
    return 0


def cmd_ber(spec: SweepSpec) -> int:
    channel = spec.channel()
    points = sweep(spec.n_orders, spec.po, channel, spec.snr_grid)
    orders = [2 ** j for j in range(1, spec.n_orders + 1)]
    columns = ["snr_db", "ber_adaptive"] + [f"ber_fixed_{m}" for m in orders] + ["p_o_reference"]
    avg_snr = np.array([LinkBudget.from_db(point.snr_db).avg_snr for point in points])
    fixed = [ber_average(m, channel, avg_snr).tolist() for m in orders]
    rows = [
        [point.snr_db, point.avg_ber] + [column[i] for column in fixed] + [spec.po]
        for i, point in enumerate(points)
    ]
    _emit_table(_spec_meta(spec), columns, rows, spec.out, spec.fmt, _collect_notes(points))
    return 0


def cmd_thresholds(spec: SweepSpec) -> int:
    columns = ["snr_db"] + [f"i_{j}" for j in range(1, spec.n_orders + 1)]
    grid = scheme_grid(spec.n_orders, spec.po, spec.snr_grid)
    error = next((e for e in grid.errors if e is not None), None)
    if error is not None:
        raise ValueError(error)
    rows = [[snr_db] + raw for snr_db, raw in zip(grid.snr_db, grid.thresholds_by_order.tolist())]
    notes = [{"note": note, "snr_db": list(grid.snr_db)} for note in grid.notes]
    _emit_table(_spec_meta(spec), columns, rows, spec.out, spec.fmt, notes)
    return 0


def cmd_capacity(spec: SweepSpec) -> int:
    channel = spec.channel()
    columns = ["snr_db", "c_upper_closed", "c_upper_numeric"]
    rows = []
    for snr_db in spec.snr_grid:
        budget = LinkBudget.from_db(snr_db)
        rows.append(
            [
                snr_db,
                _capacity(capacity_upper_closed, channel, budget),
                _capacity(capacity_upper_numeric, channel, budget),
            ]
        )
    _emit_table(_spec_meta(spec), columns, rows, spec.out, spec.fmt)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.snr_db is None:
        raise UsageError("simulate requires --snr-db")
    symbols = int(float(args.symbols))
    if symbols < 1:
        raise UsageError("--symbols must be >= 1")
    block = int(args.block_size)
    blocks = max(1, math.ceil(symbols / block))
    budget = LinkBudget.from_db(args.snr_db)
    channel = TurbulenceParams(args.sigma_x, *(_parse_mimo(args.mimo) if args.mimo else ()))
    if args.mode == "adaptive":
        mode = compute_boundaries(args.n, args.po, budget)
    else:
        mode = ModOrder(args.m)
    config = SimConfig(
        blocks=blocks,
        symbols_per_block=block,
        seed=args.seed,
        mode=mode,
        channel=channel,
        budget=budget,
    )
    report = run(config, workers=args.workers)
    payload = {"snr_db": args.snr_db, "mode": args.mode, **asdict(report)}
    payload["per_region_histogram"] = list(report.per_region_histogram)
    for key, value in payload.items():
        print(f"{key} = {_format_value(value)}")
    path = _output_path(args.out)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": {"tool": "fso-adapt", "version": __version__}, "report": payload}, indent=2) + "\n")
    return 0


def _default_validation_grid(tolerance: float, seed: int, workers: int):
    # (label, params, mode builder) triplets; kept quick but covering
    # fixed/adaptive, weak/strong turbulence and one aperture array.
    grid = []
    siso_03 = TurbulenceParams(sigma_x=0.3)
    siso_05 = TurbulenceParams(sigma_x=0.5)
    nofade = TurbulenceParams(sigma_x=1e-6)
    mimo22 = MimoConfig(f_tx=2, l_rx=2, sigma_x=0.3)
    grid.append(("bpsk_no_fading_4.3dB", 4.32, nofade, ModOrder(2)))
    grid.append(("bpsk_sigma0.3_10dB", 10.0, siso_03, ModOrder(2)))
    grid.append(("bpsk_sigma0.5_5dB", 5.0, siso_05, ModOrder(2)))
    grid.append(("psk8_sigma0.3_15dB", 15.0, siso_03, ModOrder(8)))
    grid.append(("adaptive_sigma0.3_15dB", 15.0, siso_03, "adaptive"))
    grid.append(("adaptive_mimo2x2_15dB", 15.0, mimo22, "adaptive"))
    results = []
    for label, snr_db, params, mode in grid:
        if mode == "adaptive":
            mode = compute_boundaries(5, 1e-3, LinkBudget.from_db(snr_db))
        results.append(
            (
                label,
                validate_point(
                    snr_db, params, mode, tolerance, seed=seed, workers=workers
                ),
            )
        )
    return results


def cmd_validate(args: argparse.Namespace) -> int:
    if args.tolerance is None or args.tolerance <= 0.0:
        raise UsageError(f"--tolerance must be a positive number, got {args.tolerance!r}")
    if args.grid != "default":
        raise UsageError(f"unknown validation grid {args.grid!r} (only 'default' is defined)")
    results = _default_validation_grid(args.tolerance, args.seed, args.workers)
    failures = 0
    payload = []
    for label, result in results:
        line = f"[{result.status.upper():12s}] {label}"
        if "signed_gap" in result.details:
            line += f"  gap={result.details['signed_gap']:+.3e}"
        if "spectral_eff_signed_gap" in result.details:
            line += f"  eff_gap={result.details['spectral_eff_signed_gap']:+.3e}"
        print(line)
        payload.append({"point": label, "status": result.status, "details": result.details})
        if result.status == "fail":
            failures += 1
    print(f"validate: {len(results) - failures}/{len(results)} points passed")
    path = _output_path(args.out)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "meta": {
                        "tool": "fso-adapt",
                        "version": __version__,
                        "tolerance": args.tolerance,
                        "seed": args.seed,
                    },
                    "results": payload,
                },
                indent=2,
            )
            + "\n"
        )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fso-adapt",
        description="Adaptive subcarrier-PSK optical link analysis over lognormal turbulence",
    )
    parser.add_argument("--version", action="version", version=f"fso-adapt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key=value config file; flags override it")
    shared.add_argument("--sigma-x", dest="sigma_x", type=float, help="log-amplitude std dev")
    shared.add_argument("--po", type=float, help="target bit error rate")
    shared.add_argument("--n", type=int, help="number of modulation orders (2^1..2^N)")
    shared.add_argument("--snr", help="SNR grid in dB as start:stop:step")
    shared.add_argument("--mimo", help="aperture array as FxL (e.g. 2x2)")
    shared.add_argument("--seed", type=int, help="seed echoed into outputs")
    shared.add_argument("--out", help="output path (default: stdout)")
    shared.add_argument("--format", choices=("csv", "json"), help="output format")

    for name, help_text in (
        ("spectral", "spectral efficiency sweep (adaptive, capacity bound, BPSK step)"),
        ("ber", "average BER sweep (adaptive and every fixed order)"),
        ("thresholds", "adaptation region boundaries per SNR point"),
        ("capacity", "capacity upper bound sweep (closed form and numeric)"),
    ):
        sub.add_parser(name, parents=[shared], help=help_text)

    sim = sub.add_parser("simulate", help="run the Monte Carlo link simulator at one point")
    sim.add_argument("--mode", choices=("adaptive", "fixed"), default="adaptive")
    sim.add_argument("--m", type=int, default=2, help="constellation size in fixed mode")
    sim.add_argument("--sigma-x", dest="sigma_x", type=float, default=0.3)
    sim.add_argument("--po", type=float, default=1e-3)
    sim.add_argument("--n", type=int, default=5)
    sim.add_argument("--mimo", help="aperture array as FxL")
    sim.add_argument("--snr-db", dest="snr_db", type=float, required=True)
    sim.add_argument("--symbols", default="1e6", help="total symbol count (accepts 1e7 style)")
    sim.add_argument("--block-size", dest="block_size", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=1234)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--out", help="also write a JSON report here")

    val = sub.add_parser("validate", help="simulator-vs-analytics validation suite")
    val.add_argument("--grid", default="default")
    val.add_argument("--tolerance", type=float, default=0.05)
    val.add_argument("--seed", type=int, default=2024)
    val.add_argument("--workers", type=int, default=1)
    val.add_argument("--out", help="also write a JSON report here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("spectral", "ber", "thresholds", "capacity"):
            spec = _build_spec(args.command, args)
            handler = {
                "spectral": cmd_spectral,
                "ber": cmd_ber,
                "thresholds": cmd_thresholds,
                "capacity": cmd_capacity,
            }[args.command]
            return handler(spec)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "validate":
            return cmd_validate(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
