"""Regenerate the reference trajectories of the simulate workloads.

Usage (from the repository root, at the commit whose outputs are the
reference):
    python3 perfbench/make_reference.py [workload ...]

Runs every input variant of each simulate workload once through the same
child process the benchmark uses and keeps REF_ROWS evenly spaced rows of
``trajectory.csv`` in ``perfbench/reference/<workload>.json``.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, run_child
from workloads import (
    REF_ROWS, REFERENCE_DIR, VARIANTS, WORKLOADS, read_trajectory, reference_rows,
)


def make(name: str) -> None:
    workload = WORKLOADS[name]
    variants = {}
    work = OUT / f"reference-{name}"
    for variant in range(VARIANTS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config = work / "input.ini"
        config.write_text(workload.ini(variant), encoding="utf-8")
        rec, crash = run_child({
            "argv": workload.argv(config, work / "out", variant),
            "run_id": 0, "spans": None,
        })
        if rec is None or rec["exit_code"] != 0:
            raise SystemExit(f"{name} variant {variant} failed: {crash or rec['exit_code']}")
        summary = json.loads((work / "out" / "summary.json").read_text())
        if summary["violations"]:
            raise SystemExit(f"{name} variant {variant}: {summary['violations']}")
        header, table = read_trajectory(work / "out" / "trajectory.csv")
        idx = reference_rows(table)
        variants[str(variant)] = {
            "phi0": workload.phi0(variant),
            "header": header,
            "n_rows": len(table),
            "row_index": idx.tolist(),
            "rows": [[float(f"{x:.12g}") for x in row] for row in table[idx]],
        }
        print(f"{name} variant {variant}: {len(table)} rows, kept {len(idx)}")
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    payload = {"workload": name, "rows_kept": REF_ROWS, "variants": variants}
    (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or [w.name for w in WORKLOADS.values() if w.simulate]:
        make(name)
