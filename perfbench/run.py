#!/usr/bin/env python3
"""fso-adapt benchmark: runs one workload, prints every metric with its
unit, and checks every output.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc_oracle_k1 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; the throughput is counted
per calibration unit of a fixed loop timed before every operation (see
hostspeed.py), so that the host's speed drift cancels.  ``--trace 1`` runs the
same operations twice, untraced and then traced, and reports per-layer
metrics from spans recorded around the calls into each module, together
with the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name every metric with its unit and
record the provenance of the result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("analytic_figures", "mc_oracle_k1", "mc_block_fading")
SETUP_PROBES = 5
SETTLE_S = 0.5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120
TAIL_EXCESS = 10  # samples that must lie beyond the reported tail percentile
# Rounds replayed with tracing on; bounds the spans kept in memory (about
# 15k per analytic round).
TRACE_ROUNDS = 10


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def build() -> dict:
    """Build the optional compiled kernel in place, as an editable install
    would.  A failed build leaves the numpy kernel active; the log says why."""
    if not (ROOT / "setup.py").is_file():
        return {"status": "no setup.py"}
    start = time.perf_counter()
    with open(OUT / "build.log", "w") as log:
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=800,
        )
    return {"status": f"exit {proc.returncode}", "seconds": time.perf_counter() - start}


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported the
    package, generated the inputs and run one warm-up operation."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def import_profile() -> dict[str, float]:
    """Import times from ``python -X importtime`` in a fresh interpreter:
    fso_adapt is the package's cumulative time, numpy and scipy the self
    time of all of their modules."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fso_adapt"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    times = {"fso_adapt": 0.0, "scipy": 0.0, "numpy": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # header line
        name = name.strip()
        package = name.split(".")[0]
        if name == "fso_adapt":
            times["fso_adapt"] = int(cumulative_us) / 1e6
        elif package in ("scipy", "numpy"):
            times[package] += int(self_us) / 1e6
    return times


def provenance(seed: int) -> dict:
    import fso_adapt
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if shutil.which("git"):
        # The ceiling keeps git from finding a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": fso_adapt.KERNEL_BACKEND,
        "git_commit": commit,
        "seed": seed,
    }


class Run:
    """Operations of one workload, timed and checked."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.records: list[tuple] = []  # (op, seconds, output)
        self.calibration: list[float] = []  # seconds of the workload's host-speed loop just before each op
        self.problems: list[str] = []
        self.failed = 0

    def one(self, op) -> None:
        self.calibration.append(hostspeed.timed(self.workload.calibration))
        try:
            elapsed, output = self.workload.execute(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.records.append((op, None, None))
            self._fail([f"{op.label}: {type(exc).__name__}: {exc}"])
            return
        self.records.append((op, elapsed, output))
        self._fail(self.workload.check(op, output))

    def _fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def rounds_for(self, seconds: float, pause=None) -> list[list]:
        """Run whole rounds until `seconds` of measuring have passed and
        return their ops.  `pause(measured_seconds)` runs after each round;
        its time is not counted."""
        rounds = []
        paused = 0.0
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start - paused < seconds:
            ops = self.workload.round(len(rounds))
            for op in ops:
                self.one(op)
            rounds.append(ops)
            if pause is not None:
                pause_start = time.perf_counter()
                pause(pause_start - start - paused)
                paused += time.perf_counter() - pause_start
        return rounds

    def replay(self, rounds: list[list]) -> None:
        for ops in rounds:
            for op in ops:
                self.one(op)

    def timings(self) -> list[float]:
        return [t for _, t, _ in self.records if t is not None]

    def calibrated(self) -> list[tuple]:
        """(op, time in calibration units) for every completed operation:
        its seconds over the mean seconds of the calibration loop runs
        just before and just after it (the next operation's).  The host's
        speed changes within a second, so a wider window of calibration
        times tracks it worse, and a single run is noisier."""
        cal = self.calibration
        after = cal[1:] + cal[-1:]
        return [
            (op, t / (0.5 * (before + next_)))
            for (op, t, _), before, next_ in zip(self.records, cal, after)
            if t is not None
        ]


def end_to_end(run: Run) -> tuple[dict, dict]:
    times = sorted(run.timings())
    busy = sum(times)
    done = [(op, out) for op, t, out in run.records if t is not None]
    points = sum(op.snr_points for op, _ in done)
    cal_times = sorted(t for _, t in run.calibrated())
    tail_index = max(len(times) - TAIL_EXCESS - 1, 0)
    metrics = {
        "op_cal_tail": (cal_times[tail_index], "cal"),
        "snr_points_per_cal": (points / sum(cal_times), "1/cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "op_s_tail": times[tail_index],
        "snr_points_per_s": points / busy,
        "host.cal_s": statistics.median(run.calibration),
        "op_s_p50": statistics.median(times),
        "op_s_tail_percentile": 100.0 * (tail_index + 1) / len(times),
        "samples": len(times),
        "msym_per_s": sum(op.symbols for op, _ in done) / busy / 1e6,
        "cli_bytes_out": sum(run.workload.bytes_out(out) for _, out in done) / len(done),
        "op_s": [[op.label, t, cal] for (op, t, _), cal in zip(run.records, run.calibration)],
        "op_s_p50_by_label": {
            label: statistics.median(t for op, t, _ in run.records if op.label == label and t is not None)
            for label in sorted({op.label for op, _ in done})
        },
    }
    return metrics, info


def probe(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS as CLASSES

    workdir = OUT / f"probe-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = CLASSES[args.workload](args.seed, workdir)
        workload.execute(workload.warmup())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fso_adapt" / "__init__.py").is_file():
        print(f"error: no fso_adapt package under {SRC}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.probe:
        return probe(args)

    build_info = build()
    if args.trace:
        profiles = [import_profile() for _ in range(IMPORT_PROBES)]

    from fso_adapt import _psk_kernel_py, adaptation, cli, link, simulator
    from tracer import Tracer, summarize
    from workloads import WORKLOADS as CLASSES
    from workloads import kernel_parity

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = CLASSES[args.workload](args.seed, workdir)
        setup_problems = workload.check(workload.warmup(), workload.execute(workload.warmup())[1])
        try:
            from fso_adapt import _psk_kernel
        except ImportError:
            parity = "skipped: compiled kernel not importable"
        else:
            found = kernel_parity(_psk_kernel_py.count_bit_errors, _psk_kernel.count_bit_errors, args.seed)
            setup_problems += found
            parity = "failed" if found else "passed"

        if not args.trace:
            # Set-up probes are spread over the measuring window, between
            # rounds, so that their median sees the same machine states as
            # the operations do.
            # A probe leaves this process idle and its caches cold, which
            # slows the next operations; untimed warm-up operations for
            # SETTLE_S absorb that.
            setup_times = []

            def probe_when_due(measured: float) -> None:
                due = len(setup_times) * args.seconds / SETUP_PROBES
                if len(setup_times) < SETUP_PROBES and measured >= due:
                    setup_times.append(setup_probe(args.workload, args.seed))
                    settle_end = time.perf_counter() + SETTLE_S
                    while time.perf_counter() < settle_end:
                        workload.execute(workload.warmup())

            run = Run(workload)
            run.rounds_for(args.seconds, pause=probe_when_due)
            while len(setup_times) < SETUP_PROBES:
                setup_times.append(setup_probe(args.workload, args.seed))
            metrics, info = end_to_end(run)
            metrics = {"setup_s": (statistics.median(setup_times), "s"), **metrics}
            info["setup_s_samples"] = setup_times
            runs = [run]
        else:
            untraced = Run(workload)
            rounds = untraced.rounds_for(args.seconds / 2.0)
            traced = Run(workload)
            tracer = Tracer()
            modules = {"cli": cli, "adaptation": adaptation, "link": link, "simulator": simulator}
            # The replay's checks hold every traced output to the untraced
            # output of the same input: figures must repeat byte for byte,
            # and a repeated (config, seed) must give an equal report.
            with tracer.installed(modules):
                traced.replay(rounds[:TRACE_ROUNDS])
            tracer.write(OUT / f"trace_{args.workload}.tsv")
            metrics = summarize(tracer, len(traced.records))
            _, info = end_to_end(untraced)
            metrics["op_s_p50"] = (info["op_s_p50"], "s")
            metrics["op_s_tail"] = (info["op_s_tail"], "s")
            metrics["snr_points_per_s"] = (info["snr_points_per_s"], "1/s")
            metrics["msym_per_s"] = (info["msym_per_s"], "Msym/s")
            metrics["host.cal_s"] = (info["host.cal_s"], "s")
            metrics["cli.bytes_out"] = (info["cli_bytes_out"], "B/op")
            same_ops = untraced.records[: len(traced.records)]
            overhead = sum(traced.timings()) / sum(t for _, t, _ in same_ops if t is not None) - 1.0
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
            for name in ("fso_adapt", "scipy", "numpy"):
                value = statistics.median(p[name] for p in profiles)
                metrics[f"import.{name}_s"] = (value, "s")
            runs = [untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r.records) for r in runs)
    failed = sum(r.failed for r in runs)
    problems = setup_problems + [p for r in runs for p in r.problems]
    info.update({"parity": parity, "build": build_info})
    prov = provenance(args.seed)
    result = {
        "correct": failed == 0 and not setup_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as handle:
        json.dump({"provenance": prov, "info": info, "problems": problems, **result}, handle, indent=1)

    print(f"# provenance {json.dumps(prov)}")
    print(f"# {args.workload} trace={args.trace}: {attempted} operations, {failed} failed, parity {parity}")
    for problem in problems[:20]:
        print(f"# problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'failed_fraction':40s} {failed / attempted:14.6g} ratio")
    if not args.trace:
        for name, unit in (
            ("op_s_p50", "s"), ("op_s_tail", "s"), ("snr_points_per_s", "1/s"),
            ("msym_per_s", "Msym/s"), ("host.cal_s", "s"),
        ):
            print(f"{name:40s} {info[name]:14.6g} {unit}")
        print(f"# op_cal_tail and op_s_tail are p{info['op_s_tail_percentile']:.2f} of {info['samples']} samples")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
