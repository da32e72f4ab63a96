"""Run the benchmark on several seeds and report each metric's quartile spread.

Usage (from the repository root):
    python3 perfbench/spread.py [--seeds 1-10] [--seconds N] [workload ...]

For every workload and end-to-end metric it prints the median of the per-seed
values and the distance between their first and third quartiles as a share
of that median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from BENCHMARK.json.  The per-seed results go to
``perfbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            ok &= result["correct"]
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            summary[metric] = {"median": med, "iqr_frac": (q3 - q1) / med, "bound": bound}
            print(f"{name:14s} {metric:18s} median {med:.6g}  spread {(q3 - q1) / med:.4f}"
                  f"  bound {bound}")
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / f"spread-{name}.json").write_text(
            json.dumps({"workload": name, "seconds": args.seconds, "summary": summary,
                        "runs": runs}, indent=1) + "\n"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
