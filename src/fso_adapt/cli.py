"""Command-line front end: figure-data sweeps, one-off simulations and
the simulator-vs-analytics validation suite.

Each subcommand's parser carries its handler.  A sweep handler returns
its table and ``_run_sweep`` writes it: CSV by default (one header row,
fixed column order, floats at 17 significant digits) or JSON (the same
rows wrapped in a metadata envelope echoing the resolved parameters,
tool version and seed).  ``simulate`` and ``validate`` print their
report and, given ``--out``, also write it in the same envelope.
Given identical parameters and seed the output bytes are identical
across runs.  Notes about a sweep (orders dropped, outage-only points)
go to stderr, one line per distinct note, and into the JSON metadata
under ``notes``; CSV output never carries them.

An optional config file (plain ``key=value`` lines, ``#`` comments)
of a sweep command is read as that command's flags, given before the
command-line ones, so explicit flags win.  The environment variable
``FSO_ADAPT_OUTDIR`` prefixes relative output paths.

Exit codes: 0 success, 1 validation failure, 2 usage error (a
malformed input).  An error that argparse detects, such as a value of
the wrong type on the command line or in a config file, prints a usage
line and an ``error:`` line on stderr; any other usage error prints one
``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .adaptation import compute_boundaries, efficiency_sweep, scheme_grid, sweep
from .link import (
    LinkBudget,
    ModOrder,
    ber_average,
    capacity_upper_closed,
    capacity_upper_numeric,
    linear_snr,
)
from .numerics import inverse_q
from .simulator import SimConfig, run, validate_point
from .turbulence import TurbulenceParams

USAGE_ERROR = 2

# Largest number of points in an --snr range.  Memory and time grow
# with the grid (``ber`` peaks near 110 MB at this limit), and a range
# counted in billions would otherwise run out of memory instead of being
# refused.
MAX_SNR_POINTS = 10_000

# Range in dB of average SNR that the BPSK crossing is bisected over.
_BPSK_SEARCH_DB = (-30.0, 90.0)
# Distance in inverse_q(BER) beyond which one evaluation decides the
# BPSK bisection at every point on its side of the crossing: the BER
# falls monotonically with SNR, and its rounding noise (about 1e-14
# relative) moves inverse_q(BER) by less than 1e-12.
_BPSK_Q_MARGIN = 1e-11

# (label, SNR in dB, law, fixed order or None for the adaptive scheme):
# quick, but covering fixed and adaptive, weak and strong turbulence and
# one aperture array.
_VALIDATION_GRID = (
    ("bpsk_no_fading_4.3dB", 4.32, TurbulenceParams(1e-6), ModOrder(2)),
    ("bpsk_sigma0.3_10dB", 10.0, TurbulenceParams(0.3), ModOrder(2)),
    ("bpsk_sigma0.5_5dB", 5.0, TurbulenceParams(0.5), ModOrder(2)),
    ("psk8_sigma0.3_15dB", 15.0, TurbulenceParams(0.3), ModOrder(8)),
    ("adaptive_sigma0.3_15dB", 15.0, TurbulenceParams(0.3), None),
    ("adaptive_mimo2x2_15dB", 15.0, TurbulenceParams(0.3, 2, 2), None),
)


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
        count = _snr_point_count(self.snr_start, self.snr_stop, self.snr_step)
        return [self.snr_start + i * self.snr_step for i in range(count)]

    def channel(self) -> TurbulenceParams:
        return TurbulenceParams(self.sigma_x, *(self.mimo or ()))


def _snr_point_count(start: float, stop: float, step: float) -> int | float:
    # Points start + i * step up to stop, forgiving rounding in the
    # quotient; inf when the quotient overflows.
    quotient = (stop - start) / step + 1e-9
    return math.floor(quotient) + 1 if quotient < math.inf else math.inf


def _parse_snr_range(text: str) -> tuple[float, float, float]:
    try:
        start, stop, step = (float(part) for part in text.split(":"))
    except ValueError:
        raise UsageError(f"bad --snr range {text!r}, expected start:stop:step")
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError(f"--snr start, stop and step must be finite, got {text!r}")
    if step <= 0.0:
        raise UsageError("--snr step must be positive")
    if start > stop:
        raise UsageError("--snr start must not exceed stop")
    if _snr_point_count(start, stop, step) > MAX_SNR_POINTS:
        raise UsageError(f"--snr range {text!r} has too many points (the limit is {MAX_SNR_POINTS})")
    return start, stop, step


def _mimo(text: str | None) -> tuple[int, int] | None:
    # An aperture array FxL; no value, "" and "none" mean a single path.
    if text is None or text.lower() in ("", "none"):
        return None
    try:
        f_tx, l_rx = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise UsageError(f"bad --mimo value {text!r}, expected FxL (e.g. 2x2)")
    if f_tx < 1 or l_rx < 1:
        raise UsageError("--mimo aperture counts must be >= 1")
    return f_tx, l_rx


def _load_config_file(path: str, keys: set[str]) -> list[str]:
    """The ``key=value`` lines of a config file as ``--key=value`` flags.

    Keys are case-insensitive, with ``-`` and ``_`` alike, and must be
    in ``keys``; checking them here keeps argparse from taking a key
    that merely abbreviates a flag.  The ``=`` form keeps a value such
    as ``-10:30:1`` from being read as an option.
    """
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
    unknown = set(values) - keys
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]


def _build_spec(args: argparse.Namespace) -> SweepSpec:
    start, stop, step = _parse_snr_range(args.snr)
    return SweepSpec(
        args.command, start, stop, step, args.sigma_x, args.po, args.n,
        _mimo(args.mimo), args.seed, args.out, args.format,
    )


def _format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _envelope(meta: dict, **body) -> str:
    meta = {"tool": "fso-adapt", "version": __version__, **meta}
    return json.dumps({"meta": meta, **body}, indent=2) + "\n"


def _write(out: str, text: str) -> None:
    # A relative path lies under FSO_ADAPT_OUTDIR when that is set.
    path = Path(out)
    outdir = os.environ.get("FSO_ADAPT_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
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


def _bpsk_threshold_snr_db(po: float, channel) -> float:
    """Average SNR in dB at which fixed BPSK's fading-averaged BER meets po.

    The result is that of bisecting the search range on ``BER > po``
    until the midpoint no longer lies strictly inside the bracket.  Most
    of that bisection's midpoints are far from the crossing, so secant
    steps on inverse_q(BER) locate the crossing first, and an evaluation
    on each side of it, clear by the margin, decides every midpoint
    beyond.  The bisection is then replayed, evaluating only the
    midpoints between those two points.
    """
    lo, hi = _BPSK_SEARCH_DB
    q_po = inverse_q(po)
    # BER > po at and below `over`; BER < po at and above `under`.
    over, under = -math.inf, math.inf

    def excess(snr_db: float) -> float:
        # inverse_q(BER) - inverse_q(po), increasing in SNR; +inf once
        # the BER underflows to 0.
        nonlocal over, under
        ber = ber_average(2, channel, LinkBudget.from_db(snr_db))
        h = inverse_q(ber) - q_po if ber > 0.0 else math.inf
        if h < -_BPSK_Q_MARGIN:
            over = max(over, snr_db)
        elif h > _BPSK_Q_MARGIN:
            under = min(under, snr_db)
        return h

    # Secant steps from the bisection's first two midpoints.  Once a step
    # is below 1e-6 dB its end point is taken as the crossing, without
    # evaluating it, and is bracketed by two points about twice the
    # margin from it.  Any failure leaves a wider bracket, never a
    # different result.
    x0 = 0.5 * (lo + hi)
    h0 = excess(x0)
    x1 = 0.5 * (lo + x0) if h0 > 0.0 else 0.5 * (x0 + hi)
    h1 = excess(x1)
    for _ in range(20):
        if math.isinf(h0):
            x0, h0, x1, h1 = x1, h1, x0, h0
        if math.isinf(h1):
            # The BER underflowed there: step halfway back.
            x1 = 0.5 * (x0 + x1)
            h1 = excess(x1)
            continue
        if h0 == h1:
            break
        slope = (h1 - h0) / (x1 - x0)
        x2 = min(max(x1 - h1 / slope, lo), hi)
        if abs(x2 - x1) < 1e-6:
            offset = 2.0 * _BPSK_Q_MARGIN / abs(slope)
            for edge in (x2 - offset, x2 + offset):
                edge = min(max(edge, lo), hi)
                if over < edge < under:
                    excess(edge)
            break
        x0, h0, x1, h1 = x1, h1, x2, excess(x2)

    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if mid <= over or (mid < under and ber_average(2, channel, LinkBudget.from_db(mid)) > po):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _capacity(bound, channel, avg_snr) -> list[float]:
    # Grids routinely start below the bound's 10 dB trust level; the
    # README documents that, so the warning is not shown here.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "capacity upper bound is a high-SNR approximation")
        return bound(channel, avg_snr, bandwidth=1.0).tolist()


def cmd_spectral(spec: SweepSpec):
    channel = spec.channel()
    table = efficiency_sweep(spec.n_orders, spec.po, channel, spec.snr_grid)
    bpsk_at = _bpsk_threshold_snr_db(spec.po, channel)
    capacity = _capacity(capacity_upper_closed, channel, table.avg_snr)
    bpsk = [0.5 if snr_db >= bpsk_at else 0.0 for snr_db in table.snr_db]
    columns = ["snr_db", "s_adaptive", "s_capacity_upper", "s_bpsk_nonadaptive", "outage_prob"]
    eff, outage = table.spectral_eff.tolist(), table.outage_prob.tolist()
    rows = [list(row) for row in zip(table.snr_db, eff, capacity, bpsk, outage)]
    return columns, rows, table.notes, {"bpsk_ber_meets_target_at_db": bpsk_at}


def cmd_ber(spec: SweepSpec):
    channel = spec.channel()
    table = sweep(spec.n_orders, spec.po, channel, spec.snr_grid)
    orders = [2 ** j for j in range(1, spec.n_orders + 1)]
    columns = ["snr_db", "ber_adaptive"] + [f"ber_fixed_{m}" for m in orders] + ["p_o_reference"]
    fixed = [ber_average(m, channel, table.avg_snr).tolist() for m in orders]
    rows = [list(row) + [spec.po] for row in zip(table.snr_db, table.avg_ber.tolist(), *fixed)]
    return columns, rows, table.notes, {}


def cmd_thresholds(spec: SweepSpec):
    columns = ["snr_db"] + [f"i_{j}" for j in range(1, spec.n_orders + 1)]
    grid = scheme_grid(spec.n_orders, spec.po, spec.snr_grid)
    rows = [[snr_db] + raw for snr_db, raw in zip(grid.snr_db, grid.thresholds_by_order.tolist())]
    return columns, rows, [(note, grid.snr_db) for note in grid.notes], {}


def cmd_capacity(spec: SweepSpec):
    channel = spec.channel()
    columns = ["snr_db", "c_upper_closed", "c_upper_numeric"]
    grid = spec.snr_grid
    avg_snr = linear_snr(grid)
    closed = _capacity(capacity_upper_closed, channel, avg_snr)
    numeric = _capacity(capacity_upper_numeric, channel, avg_snr)
    rows = [list(row) for row in zip(grid, closed, numeric)]
    return columns, rows, [], {}


def _run_sweep(table, args: argparse.Namespace) -> int:
    """Write the (columns, rows, notes, extra meta) that ``table`` returns,
    and each (note, SNR points) pair of notes as one line to stderr."""
    spec = _build_spec(args)
    columns, rows, notes, meta = table(spec)
    for note, snrs in notes:
        if len(snrs) == 1:
            where = f"{snrs[0]:g} dB"
        else:
            where = f"{len(snrs)} points, {snrs[0]:g} to {snrs[-1]:g} dB"
        print(f"note: {note} ({where})", file=sys.stderr)
    if spec.fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_format_value(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        notes = [{"note": note, "snr_db": snrs} for note, snrs in notes]
        text = _envelope({**_spec_meta(spec), **meta, "notes": notes}, columns=columns, rows=rows)
    if spec.out is None:
        sys.stdout.write(text)
    else:
        _write(spec.out, text)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    symbols = float(args.symbols)
    if not math.isfinite(symbols):
        raise UsageError(f"--symbols must be finite, got {args.symbols!r}")
    symbols = int(symbols)
    if symbols < 1:
        raise UsageError("--symbols must be >= 1")
    block = args.block_size
    if block < 1:
        raise UsageError(f"--block-size must be >= 1, got {block}")
    blocks = math.ceil(symbols / block)
    budget = LinkBudget.from_db(args.snr_db)
    channel = TurbulenceParams(args.sigma_x, *(_mimo(args.mimo) or ()))
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
    if args.out is not None:
        _write(args.out, _envelope({}, report=payload))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    if not 0.0 < args.tolerance < math.inf:
        raise UsageError(f"--tolerance must be a positive number, got {args.tolerance!r}")
    if args.grid != "default":
        raise UsageError(f"unknown validation grid {args.grid!r} (only 'default' is defined)")
    payload = []
    for label, snr_db, law, order in _VALIDATION_GRID:
        mode = order or compute_boundaries(5, 1e-3, LinkBudget.from_db(snr_db))
        result = validate_point(snr_db, law, mode, args.tolerance, seed=args.seed, workers=args.workers)
        line = f"[{result.status.upper():12s}] {label}"
        if "signed_gap" in result.details:
            line += f"  gap={result.details['signed_gap']:+.3e}"
        if "spectral_eff_signed_gap" in result.details:
            line += f"  eff_gap={result.details['spectral_eff_signed_gap']:+.3e}"
        print(line)
        payload.append({"point": label, "status": result.status, "details": result.details})
    failures = sum(entry["status"] == "fail" for entry in payload)
    print(f"validate: {len(payload) - failures}/{len(payload)} points passed")
    if args.out is not None:
        _write(args.out, _envelope({"tolerance": args.tolerance, "seed": args.seed}, results=payload))
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing never changes it, and --config
    # values are parsed as flags, not set as parser defaults.
    parser = argparse.ArgumentParser(
        prog="fso-adapt",
        description="Adaptive subcarrier-PSK optical link analysis over lognormal turbulence",
    )
    parser.add_argument("--version", action="version", version=f"fso-adapt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--sigma-x", type=float, default=0.3, help="log-amplitude std dev")
    model.add_argument("--po", type=float, default=1e-3, help="target bit error rate")
    model.add_argument("--n", type=int, default=5, help="number of modulation orders (2^1..2^N)")
    model.add_argument("--mimo", help="aperture array as FxL (e.g. 2x2), or none")
    model.add_argument("--seed", type=int, default=1234, help="random seed, echoed into outputs")
    model.add_argument("--out", help="output path (sweeps: instead of stdout; simulate: a JSON report)")

    sweeps = argparse.ArgumentParser(add_help=False, parents=[model])
    sweeps.add_argument("--config", help="key=value config file; flags override it")
    sweeps.add_argument("--snr", default="0:30:0.5", help="SNR grid in dB as start:stop:step")
    sweeps.add_argument("--format", type=str.lower, choices=("csv", "json"), default="csv",
                        help="output format")
    for name, table, help_text in (
        ("spectral", cmd_spectral, "spectral efficiency sweep (adaptive, capacity bound, BPSK step)"),
        ("ber", cmd_ber, "average BER sweep (adaptive and every fixed order)"),
        ("thresholds", cmd_thresholds, "adaptation region boundaries per SNR point"),
        ("capacity", cmd_capacity, "capacity upper bound sweep (closed form and numeric)"),
    ):
        cmd = sub.add_parser(name, parents=[sweeps], help=help_text)
        cmd.set_defaults(handler=functools.partial(_run_sweep, table))

    sim = sub.add_parser("simulate", parents=[model], help="run the Monte Carlo link simulator at one point")
    sim.set_defaults(handler=cmd_simulate)
    sim.add_argument("--mode", choices=("adaptive", "fixed"), default="adaptive")
    sim.add_argument("--m", type=int, default=2, help="constellation size in fixed mode")
    sim.add_argument("--snr-db", dest="snr_db", type=float, required=True)
    sim.add_argument("--symbols", default="1e6", help="total symbol count (accepts 1e7 style)")
    sim.add_argument("--block-size", dest="block_size", type=int, default=1000)
    sim.add_argument("--workers", type=int, default=1)

    val = sub.add_parser("validate", help="simulator-vs-analytics validation suite")
    val.set_defaults(handler=cmd_validate)
    val.add_argument("--grid", default="default")
    val.add_argument("--tolerance", type=float, default=0.05)
    val.add_argument("--seed", type=int, default=2024)
    val.add_argument("--workers", type=int, default=1)
    val.add_argument("--out", help="also write a JSON report here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # Any flag of the command but --config itself may come from
            # the file.  Its flags go right after the command: argparse
            # keeps the last value given, so explicit flags win.
            keys = set(vars(args)) - {"command", "handler", "config"}
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _load_config_file(args.config, keys) + argv[at:])
        return args.handler(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
