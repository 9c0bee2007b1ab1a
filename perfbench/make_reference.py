#!/usr/bin/env python3
"""Regenerate reference/analytic_figures.json from the current tree.

The analytic_figures workload compares every output row against this
file within the tolerances in workloads.py.  Regenerate it only when the
model itself is meant to change, never to make a failing check pass.

Usage (from the repository root):
    python3 perfbench/make_reference.py
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fso_adapt import cli  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import FIGURES, REFERENCE_FILE, parse_csv  # noqa: E402


def main() -> int:
    reference = {}
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for label, argv in FIGURES.items():
            out = Path(tmp) / f"{label}.csv"
            if cli.main(argv + ["--out", str(out)]) != 0:
                raise SystemExit(f"{label}: command failed")
            columns, rows = parse_csv(out.read_bytes())
            reference[label] = {"argv": argv, "columns": columns, "rows": rows}
    # One table row per line; json writes floats in round-trip precision.
    tables = []
    for label, table in reference.items():
        rows = ",\n".join(f"   {json.dumps(row)}" for row in table["rows"])
        tables.append(
            f' "{label}": {{\n  "argv": {json.dumps(table["argv"])},\n'
            f'  "columns": {json.dumps(table["columns"])},\n  "rows": [\n{rows}\n  ]\n }}'
        )
    REFERENCE_FILE.write_text("{\n" + ",\n".join(tables) + "\n}\n")
    print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
