#!/usr/bin/env python3
"""Benchmark the compiled demodulation kernel against the numpy
fallback, on raw kernel calls and on full simulator runs.

Usage:
    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --symbols 4e6 --repeat 5 --csv out.csv
"""

import argparse
import csv
import math
import sys
import time

import numpy as np

from fso_adapt import _psk_kernel_py, simulator
from fso_adapt._tables import POPCOUNT, TAB_IM, TAB_OFFSET, TAB_RE
from fso_adapt.adaptation import compute_boundaries
from fso_adapt.link import LinkBudget, ModOrder
from fso_adapt.simulator import SimConfig, run
from fso_adapt.turbulence import TurbulenceParams

try:
    from fso_adapt import _psk_kernel as _compiled
except ImportError:
    _compiled = None


def time_call(fn, repeat):
    best = math.inf
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_raw(symbols, repeat):
    rows = []
    for label, m_choices in (("bpsk", [2]), ("mixed 2..32", [0, 2, 4, 8, 16, 32])):
        k = 250
        nb = symbols // k
        rng = np.random.default_rng(1)
        amp = np.abs(rng.normal(2.0, 1.0, nb)) + 0.05
        m = rng.choice(np.array(m_choices, dtype=np.int64), nb)
        u = rng.random(nb * k)
        noise = rng.standard_normal(2 * nb * k)
        args = (amp, m, u, noise, k, TAB_RE, TAB_IM, TAB_OFFSET, POPCOUNT)
        t_py, e_py = time_call(lambda: _psk_kernel_py.count_bit_errors(*args), repeat)
        row = {"case": f"kernel {label}", "numpy_s": t_py, "numpy_msym_s": symbols / t_py / 1e6}
        if _compiled is not None:
            t_c, e_c = time_call(lambda: _compiled.count_bit_errors(*args), repeat)
            assert e_py == e_c, "backends disagree"
            row.update(
                {
                    "compiled_s": t_c,
                    "compiled_msym_s": symbols / t_c / 1e6,
                    "speedup": t_py / t_c,
                }
            )
        rows.append(row)
    return rows


def bench_end_to_end(symbols, repeat):
    budget = LinkBudget.from_db(15.0)
    params = TurbulenceParams(sigma_x=0.3)
    # k=250 is the block-fading regime; k=1 (a fresh fading draw per
    # symbol) is the regime of `validate` and acceptance criteria 5-6.
    cases = {
        f"run {label} k={k}": SimConfig(
            blocks=symbols // k, symbols_per_block=k, seed=3,
            mode=mode, channel=params, budget=budget,
        )
        for k in (250, 1)
        for label, mode in (
            ("fixed bpsk", ModOrder(2)),
            ("adaptive n=5", compute_boundaries(5, 1e-3, budget)),
        )
    }
    rows = []
    original = simulator.active_kernel
    try:
        for label, config in cases.items():
            simulator.active_kernel = _psk_kernel_py.count_bit_errors
            t_py, r_py = time_call(lambda: run(config), repeat)
            row = {"case": label, "numpy_s": t_py, "numpy_msym_s": symbols / t_py / 1e6}
            if _compiled is not None:
                simulator.active_kernel = _compiled.count_bit_errors
                t_c, r_c = time_call(lambda: run(config), repeat)
                assert r_py.bit_errors == r_c.bit_errors, "backends disagree"
                row.update(
                    {
                        "compiled_s": t_c,
                        "compiled_msym_s": symbols / t_c / 1e6,
                        "speedup": t_py / t_c,
                    }
                )
            rows.append(row)
    finally:
        simulator.active_kernel = original
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--symbols", default="2e6", help="symbols per case")
    parser.add_argument("--repeat", type=int, default=3, help="take the best of N runs")
    parser.add_argument("--csv", help="also write results as CSV")
    args = parser.parse_args(argv)
    symbols = int(float(args.symbols))

    if _compiled is None:
        print("compiled kernel not available; timing the numpy fallback only", file=sys.stderr)

    rows = bench_raw(symbols, args.repeat) + bench_end_to_end(symbols, args.repeat)
    header = ["case", "numpy_s", "numpy_msym_s", "compiled_s", "compiled_msym_s", "speedup"]
    print(f"{'case':22s} {'numpy':>12s} {'compiled':>12s} {'speedup':>8s}   (Msym/s)")
    for row in rows:
        numpy_part = f"{row['numpy_msym_s']:9.2f}"
        if "compiled_msym_s" in row:
            print(
                f"{row['case']:22s} {numpy_part:>12s} {row['compiled_msym_s']:12.2f} "
                f"{row['speedup']:7.1f}x"
            )
        else:
            print(f"{row['case']:22s} {numpy_part:>12s} {'-':>12s} {'-':>8s}")
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
