"""Workload definitions: seeded INI inputs and the output check of every run.

Each simulate workload keeps a reference trajectory for every input it can
generate.  A seed selects one of ``VARIANTS`` input variants (seed modulo
``VARIANTS``); variant 0 is the documented default input, the others scale the
``phi0`` cosine amplitudes by factors drawn in [0.75, 1.25].  Scaling keeps the
sign pattern and the modes, so the work per step stays the same from seed to
seed while the initial state changes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

VARIANTS = 8

# Trajectory tolerance: |x - ref| <= TRAJ_RTOL * max|ref column| + TRAJ_ATOL.
# Roundoff-level perturbations (a different BLAS summation order, a 1e-13
# relative change of phi0) move the trajectories by at most ~1e-11 of the
# column scale; a 1 % change of dt or a swapped scheme moves them by more than
# 1e-4.  1e-8 sits well between the two and also admits Newton iterations
# that stop anywhere inside the program's 1e-10 residual tolerance.
TRAJ_RTOL = 1e-8
TRAJ_ATOL = 1e-12
# The discrete mean law is an exact recursion; even 1000 steps of O(0.1)
# values accumulate a few hundred ulps at most.
MEAN_LAW_TOL = 1e-12
# verify elliptic accepts a stagnated residual up to 1e-10 (1 + ||h||); the
# suite's right-hand sides have ||h|| well below 9.
ELLIPTIC_RESIDUAL_TOL = 1e-9
# Rows of each trajectory kept in the reference, evenly spaced from first to last.
REF_ROWS = 21

_PHYSICS = """\
[physics]
gamma = 1.0
a = 0.0
b = 1.0
kappa1 = 1.0
kappa2 = 1.0
lambda = 2.0
"""

_SIMULATE_TEMPLATE = """\
[domain]
dim = {dim}
lengths = {lengths}
grid = {grid}
n_modes = {n_modes}

{physics}
[potential]
kind = regular
eps = 0.1

[data]
phi0 = {phi0}
w0 = 0.0
w1 = 0.0
f = 0.2 ; 0.5: -0.2
g = 0.0

[time]
t_final = {t_final}
dt = 0.001
scheme = {scheme}
"""

_ELLIPTIC_INI = """\
[domain]
dim = 2
lengths = 1.0, 1.0
grid = 64
n_modes = 512

[potential]
kind = logarithmic
c1 = 2.0
eps = 0.05

[experiment]
trials = 5
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "verify elliptic"
    dim: int = 1
    grid: int = 0
    n_modes: int = 0
    phi0_constant: float = 0.0
    phi0_terms: tuple = ()
    t_final: float = 0.0
    scheme: str = ""

    @property
    def simulate(self) -> bool:
        return self.command == "simulate"

    def phi0(self, variant: int) -> str:
        scale = np.ones(len(self.phi0_terms))
        if variant:
            scale = np.random.default_rng([variant, 0x7E4]).uniform(0.75, 1.25, scale.size)
        parts = [repr(self.phi0_constant)]
        for (mode, amp), s in zip(self.phi0_terms, scale):
            parts.append(f"{float(amp * s)!r}*cos({','.join(map(str, mode))})")
        return " + ".join(parts)

    def ini(self, seed: int) -> str:
        if not self.simulate:
            return _ELLIPTIC_INI
        return _SIMULATE_TEMPLATE.format(
            dim=self.dim,
            lengths=", ".join(["1.0"] * self.dim),
            grid=self.grid,
            n_modes=self.n_modes,
            physics=_PHYSICS,
            phi0=self.phi0(seed % VARIANTS),
            t_final=self.t_final,
            scheme=self.scheme,
        )

    def argv(self, config: Path, outdir: Path, seed: int) -> list[str]:
        args = self.command.split() + [str(config), "--output-dir", str(outdir), "--quiet"]
        return args + ([] if self.simulate else ["--seed", str(seed % 2**64)])

    def unit(self) -> str:
        """What one throughput item is: a time level or an elliptic solve."""
        return "time level" if self.simulate else "elliptic solve"


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "square_semi", "simulate",
            dim=2, grid=128, n_modes=1024, phi0_constant=0.1,
            phi0_terms=(((1, 0), 0.2), ((1, 1), 0.1)), t_final=0.02, scheme="semi_implicit",
        ),
        Workload("elliptic_2d", "verify elliptic"),
    )
}


# ---------------------------------------------------------------------------
# output check


def read_trajectory(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def reference_rows(table: np.ndarray) -> np.ndarray:
    return np.unique(np.linspace(0, len(table) - 1, REF_ROWS).round().astype(int))


def load_reference(workload: Workload, seed: int) -> dict:
    data = json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())
    return data["variants"][str(seed % VARIANTS)]


def check_outputs(workload: Workload, seed: int, outdir: Path, exit_code: int) -> list[str]:
    """Return the reasons a run fails its output check (empty when it passes)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        summary = json.loads((outdir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    problems = [f"violation: {v}" for v in summary.get("violations", [])]
    if not workload.simulate:
        residual = summary["metrics"]["residual"]
        if not residual <= ELLIPTIC_RESIDUAL_TOL:
            problems.append(f"elliptic residual {residual} > {ELLIPTIC_RESIDUAL_TOL}")
        return problems

    mean_err = summary["mean_law"]["max_error_discrete"]
    if not mean_err <= MEAN_LAW_TOL:
        problems.append(f"discrete mean-law error {mean_err} > {MEAN_LAW_TOL}")
    try:
        header, table = read_trajectory(outdir / "trajectory.csv")
    except (OSError, ValueError, IndexError) as exc:
        return problems + [f"trajectory.csv unreadable: {exc}"]
    ref = load_reference(workload, seed)
    if header != ref["header"] or len(table) != ref["n_rows"]:
        return problems + [
            f"trajectory shape {len(table)}x{header} != reference {ref['n_rows']}x{ref['header']}"
        ]
    expected = np.array(ref["rows"], dtype=float)
    got = table[ref["row_index"]]
    scale = np.abs(expected).max(axis=0)
    excess = np.abs(got - expected) - (TRAJ_RTOL * scale + TRAJ_ATOL)
    if not np.all(excess <= 0.0):
        col = int(np.nanargmax(np.where(np.isnan(excess), np.inf, excess).max(axis=0)))
        problems.append(f"trajectory column {header[col]} differs from the reference")
    return problems
