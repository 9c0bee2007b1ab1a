"""Tests of the benchmark itself.

Run from the repository root:
    python3 -m pytest perfbench/tests -q
"""

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from fso_adapt import _psk_kernel_py, adaptation, cli, link, simulator  # noqa: E402

import run as bench  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, AnalyticFigures, BlockFading, OracleK1, kernel_parity  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
MODULES = {"cli": cli, "adaptation": adaptation, "link": link, "simulator": simulator}


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def outputs(run):
    return [(op.label, out) for op, _, out in run.records]


def test_metric_names_are_well_formed(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))
    assert set(bench.WORKLOADS) == set(WORKLOADS) == {w["name"] for w in spec["workloads"]}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_exactly_the_declared_metrics(spec, trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "analytic_figures",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for line_name in declared:
        assert any(line.startswith(line_name + " ") for line in proc.stdout.splitlines())


def test_wrong_error_count_drives_failed_fraction_above_zero(tmp_path):
    workload = OracleK1(seed=5, workdir=tmp_path)
    ops = workload.round(0)[:4]
    good = bench.Run(workload)
    good.replay([ops])
    assert good.failed == 0, good.problems

    original = simulator.active_kernel

    @functools.wraps(original)
    def miscounting(*args):
        return original(*args) + 1000

    simulator.active_kernel = miscounting
    try:
        broken = bench.Run(OracleK1(seed=5, workdir=tmp_path))
        broken.replay([ops])
    finally:
        simulator.active_kernel = original
    assert broken.failed / len(broken.records) > 0


def test_calibration_cancels_a_host_slowdown(tmp_path):
    # The same operations on a host at full and at half speed.  Each
    # operation is divided by the mean of the loop times around it.
    workload = AnalyticFigures(seed=1, workdir=tmp_path)
    op = workload.warmup()
    fast, slow = bench.Run(workload), bench.Run(workload)
    fast.records = [(op, t, None) for t in (0.1, 0.3, 0.2, 0.4)]
    fast.calibration = [0.001, 0.002, 0.001, 0.002]
    slow.records = [(op, 2 * t, None) for _, t, _ in fast.records]
    slow.calibration = [2 * c for c in fast.calibration]
    expected = [0.1 / 0.0015, 0.3 / 0.0015, 0.2 / 0.0015, 0.4 / 0.002]
    assert [t for _, t in fast.calibrated()] == pytest.approx(expected)
    assert [t for _, t in slow.calibrated()] == pytest.approx(expected)


def test_seed_changes_monte_carlo_inputs(tmp_path):
    def inputs(workload_class, seed):
        return [(op.label, op.config.seed) for op in workload_class(seed, tmp_path).round(0)]

    for workload_class in (OracleK1, BlockFading):
        assert inputs(workload_class, 1) == inputs(workload_class, 1)
        assert inputs(workload_class, 1) != inputs(workload_class, 2)
        assert {s for _, s in inputs(workload_class, 1)}.isdisjoint(
            {s for _, s in inputs(workload_class, 2)}
        )


def test_odd_rounds_repeat_the_previous_inputs(tmp_path):
    workload = OracleK1(seed=9, workdir=tmp_path)

    def inputs(ops):
        return {(op.label, op.config.seed) for op in ops}

    first, second, third = (inputs(workload.round(r)) for r in range(3))
    assert first == second
    assert first.isdisjoint(third)


@pytest.mark.parametrize("workload_class", [AnalyticFigures, OracleK1, BlockFading])
def test_traced_run_gives_the_untraced_outputs(tmp_path, workload_class):
    workload = workload_class(seed=7, workdir=tmp_path)
    ops = workload.round(0)[:3]
    untraced = bench.Run(workload)
    untraced.replay([ops])
    tracer = Tracer()
    bindings = {name: vars(module).copy() for name, module in MODULES.items()}
    traced = bench.Run(workload)
    with tracer.installed(MODULES):
        traced.replay([ops])
    assert {name: vars(module) for name, module in MODULES.items()} == bindings
    assert untraced.failed == traced.failed == 0, untraced.problems + traced.problems
    assert outputs(traced) == outputs(untraced)
    assert tracer.spans
    metrics = summarize(tracer, len(ops))
    if workload_class is AnalyticFigures:
        assert metrics["cli.self_s"][0] > 0 and metrics["psk_kernel.s"][0] == 0
    else:
        assert metrics["psk_kernel.symbols"][0] == sum(op.symbols for op in ops) / len(ops)


def test_self_time_subtracts_children_once_across_threads():
    # A run span [0, 10] with two overlapping chunk spans on two threads,
    # each holding a kernel span.
    spans = [
        (1, 0, "simulator.run", 1, 0.0, 10.0),
        (2, 1, "simulator.chunk", 2, 1.0, 7.0),
        (3, 1, "simulator.chunk", 3, 2.0, 9.0),
        (4, 2, "psk_kernel.count_bit_errors", 2, 2.0, 6.0),
        (5, 3, "psk_kernel.count_bit_errors", 3, 3.0, 4.0),
    ]
    selfs = self_times(spans)
    assert selfs["simulator"] == pytest.approx(2.0 + 2.0 + 6.0)
    assert selfs["psk_kernel"] == pytest.approx(5.0)


def test_kernel_parity_detects_a_disagreeing_kernel():
    reference = _psk_kernel_py.count_bit_errors
    assert kernel_parity(reference, reference, seed=1) == []

    def off_by_one(*args):
        return reference(*args) + 1

    assert len(kernel_parity(reference, off_by_one, seed=1)) == 2
