"""One repetition of a workload, in its own process.

Usage (from the repository root):
    python3 perfbench/child.py '<json spec>'

The spec holds ``argv`` for ``thermoch.io_cli.main``, ``run_id`` and
``spans`` (a path to append spans to, or null for an untraced run).  The
program is imported from ``src/`` of the working directory and nowhere else.
The last line printed is one JSON record with the timings of this repetition.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (imported before the timed region)

import thermoch  # noqa: E402
from thermoch import elliptic, galerkin, io_cli  # noqa: E402


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def main(spec: dict) -> dict:
    if Path(thermoch.__file__).resolve().parent != (ROOT / "src" / "thermoch").resolve():
        raise SystemExit(f"thermoch imported from {thermoch.__file__}, not from ./src")

    tracer = None
    if spec["spans"]:
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()

    clock = time.perf_counter
    marks: dict[str, float] = {}
    level_times: list[float] = []
    solves = [0]

    # Timing hooks, identical in traced and untraced runs: one call each,
    # except the observer, which appends one timestamp per recorded level.
    project = galerkin.project_initial_data
    simulate = galerkin.simulate
    suite = io_cli.elliptic_suite
    solve = elliptic.solve_elliptic

    def timed_project(*args, **kwargs):
        state = project(*args, **kwargs)
        marks["ready"] = clock()
        return state

    def observed_simulate(*args, observers=(), **kwargs):
        def stamp(state, record):
            level_times.append(clock())

        return simulate(*args, observers=(*observers, stamp), **kwargs)

    def timed_suite(*args, **kwargs):
        marks["ready"] = clock()
        try:
            return suite(*args, **kwargs)
        finally:
            marks["solved"] = clock()

    def counted_solve(*args, **kwargs):
        solves[0] += 1
        return solve(*args, **kwargs)

    galerkin.project_initial_data = timed_project
    galerkin.simulate = observed_simulate
    io_cli.elliptic_suite = timed_suite
    elliptic.solve_elliptic = counted_solve

    t0 = clock()
    exit_code = io_cli.main(spec["argv"])
    t1 = clock()

    record = {
        "exit_code": exit_code,
        "wall_s": t1 - t0,
        "setup_s": marks["ready"] - t0 if "ready" in marks else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if spec["argv"][0] == "simulate":
        intervals = np.diff(level_times)
        record["items"] = int(intervals.size)
        record["phase_s"] = float(level_times[-1] - level_times[0]) if intervals.size else None
        record["item_s"] = intervals.tolist()
    else:
        record["items"] = solves[0]
        record["phase_s"] = marks["solved"] - marks["ready"] if "solved" in marks else None
        record["item_s"] = []
    if tracer is not None:
        record["trace"] = tracer.summary()
        tracer.write(Path(spec["spans"]))
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
