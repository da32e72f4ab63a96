"""Span tracer that wraps the public functions of thermoch's modules.

Wrapping replaces module attributes, so calls that go through a module
(``spectral.to_coeffs``) or through a module global (``step`` inside
``galerkin``) are traced, as are names other thermoch modules imported with
``from ... import``.  Methods and private helpers are not wrapped; their time
counts as self time of the nearest traced caller.

Spans are kept in memory as [name, start, end, parent, failed, context] and
written out once the traced command has finished, one JSON line per run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("potentials", "spectral", "galerkin", "elliptic", "analysis", "io_cli")

# Spans under one of these are attributed to it as their context, so that
# counts such as "yosida_derivative calls under step" can be formed.
CONTEXTS = ("galerkin.step", "elliptic.solve_elliptic")


def _resolvent_points(args, kwargs, result):
    r = args[2] if len(args) > 2 else kwargs["r"]
    return int(np.size(r))


def _bytes_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.stat(path).st_size


# name -> (counter name, function of (args, kwargs, result) giving the increment)
COUNTERS = {
    "potentials.resolvent": ("potentials.resolvent.points", _resolvent_points),
    "io_cli.write_trajectory_csv": ("io_cli.write.bytes", _bytes_written),
    "io_cli.write_table_csv": ("io_cli.write.bytes", _bytes_written),
    "io_cli.write_summary_json": ("io_cli.write.bytes", _bytes_written),
}


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        is_context = name in CONTEXTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            context = name if is_context else (spans[parent][5] if parent >= 0 else None)
            rec = [name, clock(), 0.0, parent, False, context]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "thermoch") -> None:
        """Wrap every public function of MODULES and rebind all their aliases."""
        mods = {m: sys.modules[f"{package}.{m}"] for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        # Rebind every alias, including names imported into other modules.
        for mod in [sys.modules[package], *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])

    def summary(self) -> dict:
        """Per-function calls, failures, total and self seconds, plus context counts."""
        n = len(self.spans)
        covered = [0.0] * n
        for name, start, end, parent, failed, context in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        funcs: dict[str, dict] = {}
        by_context: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, failed, context) in enumerate(self.spans):
            f = funcs.setdefault(name, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
            f["calls"] += 1
            f["failed"] += int(failed)
            f["total_s"] += end - start
            f["self_s"] += (end - start) - covered[i]
            if context is not None and context != name:
                by_context[f"{name}@{context}"] += 1
        return {
            "functions": funcs,
            "under": dict(by_context),
            "counters": dict(self.counters),
            "n_spans": n,
        }

    def write(self, path: Path) -> None:
        """Append this run's spans as one JSON line.

        ``spans`` rows are [name index, start, end, parent index], with times
        in seconds from the first span, rounded to 0.1 microsecond.
        """
        names: dict[str, int] = {}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [names.setdefault(name, len(names)), round(start - t0, 7), round(end - t0, 7), parent]
            for name, start, end, parent, _, _ in self.spans
        ]
        failed = [i for i, rec in enumerate(self.spans) if rec[4]]
        with open(path, "a", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "names": list(names), "spans": rows,
                       "failed": failed, "counters": dict(self.counters)},
                      fh, separators=(",", ":"))
            fh.write("\n")
