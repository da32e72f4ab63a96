"""thermoch benchmark: run one workload for a fixed time and report its metrics.

Usage (from the repository root):
    python3 perfbench/run.py --workload square_semi --seed 0 --seconds 55 --trace 0

Closed loop: one repetition at a time, each a fresh child process that calls
``thermoch.io_cli.main`` in-process on a generated INI file.  The first
WARMUP_REPS repetitions are checked but not timed; then repetitions start
until the next one would overrun ``--seconds`` (at least MIN_REPS timed).
Every repetition's outputs are checked.  With ``--trace 0`` the end-to-end
metrics are the medians over the timed repetitions; with ``--trace 1`` timed
repetitions alternate untraced and traced, and the per-layer metrics come
from the traced ones.  The last line printed is one JSON object; a results
file with the environment and every repetition goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, check_outputs

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"

# One BLAS thread: the steadiest figures on a shared 2-core host, and never
# more threads than cores.
BLAS_THREADS = 1
MIN_REPS = 3
# Untimed repetitions at the start of a run: they bring the program's files
# and the numpy libraries into the page cache before the clock counts.
WARMUP_REPS = 1
CHILD_TIMEOUT_S = 150



def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def environment(seed: int) -> dict:
    src = sorted((ROOT / "src" / "thermoch").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_requested": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_child(spec: dict) -> tuple[dict | None, str]:
    """Run one repetition; return (record, "") or (None, reason it crashed)."""
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"child process exceeded {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"child process exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), ""


def percentile_ms(samples, q):
    return float(np.percentile(np.asarray(samples), q)) * 1e3 if samples else None


def end_to_end(reps: list[dict]) -> dict:
    rates = [r["items"] / r["phase_s"] for r in reps if r["phase_s"]]
    return {
        "wall_s": _median(r["wall_s"] for r in reps),
        "setup_s": _median(r["setup_s"] for r in reps),
        "throughput_per_s": _median(rates),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(traced: list[dict], untraced: list[dict], workload) -> dict:
    """Per-layer metrics of each traced repetition, then medians over them.

    Returns the metrics reported on every workload and the function-level
    details that apply to this workload only.
    """
    rows, details = [], []
    for rep in traced:
        t = rep["trace"]
        fn = t["functions"]
        under = t["under"]
        steps = rep["items"] if workload.simulate else 0
        solves = rep["items"] if not workload.simulate else 0

        def get(name, key):
            return fn.get(name, {}).get(key, 0)

        def per(count, n):
            return count / n if n else 0.0

        def module_self(module):
            return sum(v["self_s"] for k, v in fn.items() if k.startswith(module + "."))

        step_calls = get("galerkin.step", "calls")
        if workload.simulate:
            solver = get("galerkin.step", "self_s")
            diagnostics = ["galerkin.compute_record"] + [k for k in fn if k.startswith("analysis.")]
            commands = ["io_cli.run_simulate"]
        else:
            solver = get("elliptic.solve_elliptic", "self_s")
            diagnostics = ["elliptic.check_L6_bound"]
            commands = ["io_cli.run_verify", "io_cli.elliptic_suite"]
        writers = [k for k in fn if k.startswith("io_cli.write_")]
        # Function-level times named as in the layer map; each is reported
        # only on the workloads that call the function.
        details.append({
            f"{name}.{key}": get(name, key)
            for name, key in (
                ("galerkin.step", "self_s"),
                ("galerkin.compute_record", "total_s"),
                ("galerkin.compute_record", "self_s"),
                ("elliptic.solve_elliptic", "self_s"),
                ("io_cli.elliptic_suite", "self_s"),
            )
            if name in fn
        })
        if any(k.startswith("analysis.") for k in fn):
            details[-1]["analysis.self_s"] = module_self("analysis")
        rows.append({
            "potentials.resolvent.self_s": get("potentials.resolvent", "self_s"),
            "potentials.resolvent.calls_per_step": per(get("potentials.resolvent", "calls"), steps),
            "potentials.resolvent.points": t["counters"].get("potentials.resolvent.points", 0),
            "spectral.to_coeffs.calls_per_step": per(get("spectral.to_coeffs", "calls"), steps),
            "spectral.to_field.calls_per_step": per(get("spectral.to_field", "calls"), steps),
            "spectral.transform.self_s": get("spectral.to_coeffs", "self_s") + get("spectral.to_field", "self_s"),
            "spectral.build_basis.self_s": get("spectral.build_basis", "self_s"),
            "solver.self_s": solver,
            "galerkin.step.calls": step_calls,
            "galerkin.step.failed": get("galerkin.step", "failed"),
            "galerkin.step.accept_ratio": per(steps, step_calls) if step_calls else 1.0,
            "galerkin.residual_evals_per_step": per(
                under.get("galerkin.nonlinear_coeffs@galerkin.step", 0), steps),
            "elliptic.solve_elliptic.calls": get("elliptic.solve_elliptic", "calls"),
            "elliptic.solve_elliptic.failed": get("elliptic.solve_elliptic", "failed"),
            "elliptic.newton_iters_per_solve": per(
                under.get("potentials.yosida_derivative@elliptic.solve_elliptic", 0), solves),
            "diagnostics.total_s": sum(get(k, "total_s") for k in diagnostics),
            "diagnostics.self_s": sum(get(k, "self_s") for k in diagnostics),
            "io_cli.parse_config.total_s": get("io_cli.parse_config", "total_s"),
            "io_cli.validate_config.total_s": get("io_cli.validate_config", "total_s"),
            "io_cli.write.total_s": sum(get(k, "total_s") for k in writers),
            "io_cli.write.bytes": t["counters"].get("io_cli.write.bytes", 0),
            "io_cli.command.self_s": sum(get(k, "self_s") for k in commands),
            **{f"{m}.self_s": module_self(m) for m in ("potentials", "spectral", "galerkin", "io_cli")},
        })
    metrics = {k: _median(row[k] for row in rows) for k in rows[0]}
    traced_wall = _median(r["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = traced_wall / _median(r["wall_s"] for r in untraced) - 1.0
    return metrics, {k: _median(d[k] for d in details) for k in details[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thermoch" / "io_cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("error: run from the repository root (src/thermoch and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "input.ini"
    config.write_text(workload.ini(args.seed), encoding="utf-8")
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    if args.trace:
        spans_path.unlink(missing_ok=True)

    reps: list[dict] = []
    failures: list[str] = []
    durations: list[float] = []
    min_reps = 2 * MIN_REPS - 2 if args.trace else MIN_REPS
    start = time.perf_counter()
    try:
        while True:
            i = len(reps)
            warmup = i < WARMUP_REPS
            traced = bool(args.trace) and not warmup and (i - WARMUP_REPS) % 2 == 1
            outdir = work / f"rep{i}"
            t0 = time.perf_counter()
            rec, crash = run_child({
                "argv": workload.argv(config, outdir, args.seed),
                "run_id": i,
                "spans": str(spans_path) if traced else None,
            })
            durations.append(time.perf_counter() - t0)
            if rec is None:
                rec = {"crashed": True, "problems": [crash]}
            else:
                rec["problems"] = check_outputs(workload, args.seed, outdir, rec["exit_code"])
            rec["traced"] = traced
            rec["warmup"] = warmup
            failures.extend(f"rep {i}: {p}" for p in rec["problems"])
            shutil.rmtree(outdir, ignore_errors=True)
            reps.append(rec)
            elapsed = time.perf_counter() - start
            timed = len(reps) - WARMUP_REPS
            if timed >= min_reps and elapsed + statistics.median(durations) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in reps if r["problems"])
    measured = [r for r in reps if not r.get("crashed") and not r["warmup"]]
    untraced = [r for r in measured if not r["traced"]]
    if not untraced or (args.trace and len(untraced) == len(measured)):
        print(f"error: no repetition could be measured: {failures[:3]}", file=sys.stderr)
        return 1
    e2e = end_to_end(untraced)
    samples = [x for r in untraced for x in r["item_s"]]
    extra = {
        "fail_frac": failed / len(reps),
        "item": workload.unit(),
        "items_per_rep": _median(r["items"] for r in untraced),
        "item_ms_p50": percentile_ms(samples, 50),
        "item_ms_p90": percentile_ms(samples, 90) if len(samples) >= 100 else None,
        "item_samples": len(samples),
        "blas_threads_used": sorted({r["blas_threads"] for r in measured}, key=str),
    }
    if args.trace:
        metrics, detail = per_layer([r for r in measured if r["traced"]], untraced, workload)
    else:
        metrics, detail = e2e, {}
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics) or any(v is None for v in metrics.values()):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json lists {sorted(units)}",
              file=sys.stderr)
        return 1

    env = environment(args.seed)
    env["child_python"] = measured[0]["python"]
    env["child_numpy"] = measured[0]["numpy"]
    results = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "attempted": len(reps),
        "failed": failed,
        "failures": failures,
        "end_to_end": e2e,
        "extra": extra,
        "metrics": metrics,
        "layer_detail": detail,
        "repetitions": [{k: v for k, v in r.items() if k != "item_s"} for r in reps],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")

    print(f"{workload.name} seed {args.seed} trace {args.trace}: {len(reps)} repetitions, "
          f"{failed} failed, fail_frac {extra['fail_frac']:.3g}, "
          f"BLAS threads {extra['blas_threads_used']}")
    for p in failures:
        print(f"  check failed: {p}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    for name, value in detail.items():
        print(f"  {name:40s} {value:.6g} s (this workload only)")
    if extra["item_samples"]:
        p90 = extra["item_ms_p90"]
        print(f"  per {extra['item']}: p50 {extra['item_ms_p50']:.6g} ms"
              + (f", p90 {p90:.6g} ms" if p90 is not None else ", p90 not reported (<100)")
              + f" ({extra['item_samples']} samples)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
