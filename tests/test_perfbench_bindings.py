"""The benchmark harness in perfbench/ wraps and imports names of this
package; these checks keep them resolvable without running it."""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HARNESS_MODULES = ("hostspeed", "tracer", "workloads")


@pytest.fixture
def harness(monkeypatch):
    # The harness's modules import each other by their plain names.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    yield importlib.import_module
    for name in HARNESS_MODULES:
        sys.modules.pop(name, None)


def test_tracer_sites_resolve(harness):
    for module_name, attr, _, _ in harness("tracer").SITES:
        module = importlib.import_module(f"fso_adapt.{module_name}")
        assert callable(getattr(module, attr, None)), f"fso_adapt.{module_name}.{attr}"


def test_workloads_import(harness):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(harness("workloads").WORKLOADS) == {workload["name"] for workload in declared}


def test_analytic_figures_pass_the_harness_check(harness, tmp_path):
    # The harness's own check: rows within 1e-9 of the committed
    # reference, adaptive BER <= P_o, and the same bytes on a repeat (the
    # warm-up operation runs again in the round).
    workload = harness("workloads").AnalyticFigures(seed=1, workdir=tmp_path)
    ops = [workload.warmup(), *workload.round(0)]
    assert sorted(op.label for op in ops[1:]) == sorted(harness("workloads").FIGURES)
    for op in ops:
        _, output = workload.execute(op)
        assert workload.check(op, output) == [], op.label
