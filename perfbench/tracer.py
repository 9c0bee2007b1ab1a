"""Spans recorded from outside the program.

Each traced function is wrapped where its caller looks it up: modules
bind these names by from-import, so the wrapper replaces the caller's
binding (for example ``simulator.draw_fading``), and the kernel wrapper
replaces ``simulator.active_kernel``, which the simulator reads on every
chunk.  Spans stay in memory with a per-thread parent stack; a span that
starts on a worker thread with an empty stack takes the caller thread's
innermost open span as its parent.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


def _kernel_counts(amp, m_blocks, u, noise, k, *tables):
    # Noise normals that reach a decision: both components for M >= 4,
    # the in-phase one for BPSK, none in outage blocks.
    useful = k * (2 * int(np.count_nonzero(m_blocks >= 4)) + int(np.count_nonzero(m_blocks == 2)))
    arrays = (amp, m_blocks, u, noise) + tables
    return {
        "symbols": u.size,
        "uniforms": u.size,
        "normals": noise.size,
        "useful_normals": useful,
        "bytes_in": sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)),
    }


def _fading_counts(params, rng, count):
    return {"paths": count * params.n_paths}


def _sweep_counts(n_orders, target_ber, params, snr_db_grid):
    return {"points": len(snr_db_grid)}


# (module holding the caller's binding, attribute, span name, counter)
SITES = (
    ("cli", "main", "cli.main", None),
    ("cli", "sweep", "adaptation.sweep", _sweep_counts),
    ("cli", "compute_boundaries", "adaptation.compute_boundaries", None),
    ("cli", "ber_average", "link.ber_average", None),
    ("cli", "capacity_upper_closed", "link.capacity_upper_closed", None),
    ("cli", "capacity_upper_numeric", "link.capacity_upper_numeric", None),
    ("adaptation", "compute_boundaries", "adaptation.compute_boundaries", None),
    ("adaptation", "average_ber_adaptive", "adaptation.average_ber_adaptive", None),
    ("adaptation", "ber_conditional", "link.ber_conditional", None),
    ("adaptation", "integrate_truncated_normal", "numerics.integrate_truncated_normal", None),
    ("adaptation", "inverse_q", "numerics.inverse_q", None),
    ("adaptation", "q_function_array", "numerics.q_function_array", None),
    ("link", "integrate_truncated_normal", "numerics.integrate_truncated_normal", None),
    ("link", "q_function_array", "numerics.q_function_array", None),
    ("simulator", "run", "simulator.run", None),
    ("simulator", "_run_chunk", "simulator.chunk", None),
    ("simulator", "draw_fading", "turbulence.draw_fading", _fading_counts),
    ("simulator", "active_kernel", "psk_kernel.count_bit_errors", _kernel_counts),
)

# Modules whose spans have children; for turbulence and psk_kernel, self
# time equals the time of their single traced function.
SELF_TIME_MODULES = ("numerics", "link", "adaptation", "simulator", "cli")


class Tracer:
    """Records (id, parent, name, thread, start, end) spans and per-span
    counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self.counts: Counter = Counter()
        self._counts_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._caller_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            origin = stack or self._caller_stack
            parent = origin[-1] if origin else 0
            span_id = next(self._ids)
            if counter is not None:
                counts = counter(*args, **kwargs)
                with self._counts_lock:
                    for key, value in counts.items():
                        self.counts[f"{name}:{key}"] += value
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, threading.get_ident(), start, end))

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Replace every site's binding with a wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, span_name, counter in SITES:
                module = modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line, times relative to the first."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            handle.write("id\tparent\tname\tthread\tstart_s\tend_s\n")
            for span_id, parent, name, thread, start, end in self.spans:
                handle.write(
                    f"{span_id}\t{parent}\t{name}\t{thread}\t{start - origin:.9f}\t{end - origin:.9f}\n"
                )


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    # Length of the union of intervals, clipped to [lo, hi].
    total = 0.0
    cur_lo = cur_hi = lo
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if a > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    return total + (cur_hi - cur_lo)


def self_times(spans) -> dict[str, float]:
    """Seconds per module: each span's duration minus the part of it that
    its child spans cover, summed over the module's spans.  Children on
    several worker threads count once where they overlap, and their own
    self time is added, so the result is busy time summed over threads."""
    children = defaultdict(list)
    for span_id, parent, _, _, start, end in spans:
        children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for span_id, _, name, _, start, end in spans:
        covered = _covered(children.get(span_id, []), start, end)
        totals[name.split(".")[0]] += (end - start) - covered
    return totals


def summarize(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per operation, from one traced phase of `ops`
    operations."""
    calls: Counter = Counter()
    seconds: Counter = Counter()
    for _, _, name, _, start, end in tracer.spans:
        calls[name] += 1
        seconds[name] += end - start
    counts = tracer.counts
    selfs = self_times(tracer.spans)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    kernel = "psk_kernel.count_bit_errors"
    fading = "turbulence.draw_fading"
    symbols = counts[f"{kernel}:symbols"]
    paths = counts[f"{fading}:paths"]
    metrics = {
        "psk_kernel.s": (seconds[kernel] / ops, "s/op"),
        "psk_kernel.symbols": (symbols / ops, "count/op"),
        "psk_kernel.ns_per_symbol": (ratio(1e9 * seconds[kernel], symbols), "ns"),
        "psk_kernel.bytes_in": (counts[f"{kernel}:bytes_in"] / ops, "B/op"),
        "simulator.run_s": (seconds["simulator.run"] / ops, "s/op"),
        "simulator.chunks": (calls["simulator.chunk"] / ops, "count/op"),
        "simulator.normals_per_symbol": (
            ratio(counts[f"{kernel}:normals"] + paths, symbols), "count",
        ),
        "simulator.uniforms_per_symbol": (ratio(counts[f"{kernel}:uniforms"], symbols), "count"),
        "simulator.useful_noise_fraction": (
            ratio(counts[f"{kernel}:useful_normals"], counts[f"{kernel}:normals"]), "ratio",
        ),
        "simulator.concurrency": (
            ratio(seconds["simulator.chunk"], seconds["simulator.run"]), "ratio",
        ),
        "turbulence.draw_fading.s": (seconds[fading] / ops, "s/op"),
        "turbulence.paths_drawn": (paths / ops, "count/op"),
        "turbulence.ns_per_path": (ratio(1e9 * seconds[fading], paths), "ns"),
        "adaptation.us_per_point": (
            ratio(1e6 * seconds["adaptation.sweep"], counts["adaptation.sweep:points"]), "us",
        ),
        "link.capacity.calls": (
            (calls["link.capacity_upper_closed"] + calls["link.capacity_upper_numeric"]) / ops,
            "count/op",
        ),
        "link.capacity.s": (
            (seconds["link.capacity_upper_closed"] + seconds["link.capacity_upper_numeric"]) / ops,
            "s/op",
        ),
        "trace.spans_per_op": (len(tracer.spans) / ops, "count/op"),
    }
    for name in (
        "adaptation.sweep",
        "adaptation.compute_boundaries",
        "adaptation.average_ber_adaptive",
        "link.ber_average",
        "numerics.integrate_truncated_normal",
        "numerics.q_function_array",
        "numerics.inverse_q",
    ):
        metrics[f"{name}.calls"] = (calls[name] / ops, "count/op")
        metrics[f"{name}.s"] = (seconds[name] / ops, "s/op")
    for module in SELF_TIME_MODULES:
        metrics[f"{module}.self_s"] = (selfs[module] / ops, "s/op")
    return metrics
