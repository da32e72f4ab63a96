"""Executable diagnostics: mean law, energy balance, a-priori monitors,
continuous-dependence and convergence experiments.

Time-integral norms are trapezoid sums over the recorded step grid and
max-in-time norms are maxima over records, consistent with the first-order
accuracy of the stepping schemes.  The studies difference matched levels of
their runs (``galerkin.Run``), block by block (``Run.blocks``) on one time
grid and level by level across grids: they keep norms, not coefficients.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from . import galerkin, spectral
from .errors import require
from .galerkin import ProblemData, SourceTerm, Trajectory
from .spectral import SpectralBasis

# The study kinds and the default schedule of each.
SCHEDULES = {"modes": (4.0, 8.0, 16.0, 32.0), "eps": (0.2, 0.1, 0.05, 0.025), "dt": (1e-2, 5e-3, 2.5e-3)}
_MEAN_TOL = 1e-9  # rounding slack of the (4.31) mean band, relative to its edges above 1


def _trapz(values: np.ndarray, times: np.ndarray) -> float:
    return float(np.trapezoid(values, times))


def mean_law_check(trajectory: Trajectory, data: ProblemData) -> dict[str, float]:
    """Replay the implicit-Euler mean recursion and the exponential solution:
    the simulated mean's largest errors against each, ``max_error_discrete``
    and ``max_error_continuum``.

    The discrete comparison replays the scheme's own scalar reduction over the
    steps the run took (``trajectory.steps``, each under its step's source mean,
    taken once per schedule segment) and reads 0.0 on the six ``simulate``
    goldens; the continuum comparison against the exact variation-of-constants
    formula carries the scheme's O(dt) error.  ValueError if the steps miss a level.
    """
    gamma, t = data.params.gamma, trajectory.t
    means = trajectory.record["mean_phi"]
    f_means = data.f.means()[data.segments(t[:-1])[0]]
    mean, err_d = float(means[0]), 0.0
    for hs, f_mean, cur in zip(trajectory.steps, f_means.tolist(), means[1:].tolist(), strict=True):
        for h in hs:
            mean = (mean + h * f_mean) / (1.0 + gamma * h)
        err_d = max(err_d, abs(cur - mean))
    err_c = float(np.abs(means - trajectory.record["mean_phi_exact"]).max())
    return {"max_error_discrete": err_d, "max_error_continuum": err_c}


def energy_identity_residual(trajectory: Trajectory) -> float:
    """|E(T) - E(0) + int (dissipation - source power)| on the record grid."""
    rec = trajectory.record
    integrand = rec["dissipation_mu"] + rec["dissipation_w"] - rec["source_power"]
    return abs(float(rec["energy"][-1] - rec["energy"][0]) + _trapz(integrand, rec["t"]))


def apriori_monitor(trajectory: Trajectory, data: ProblemData) -> tuple[list[str], dict[str, float]]:
    """Scan a trajectory for non-finite monitors and mean-band violations,
    and collect the realized norm inventory of the boundedness estimates:
    returns (violations, realized)."""
    band = galerkin.compatibility_quantities(data)
    band_lo = band["-rho - (mean phi0)^-"]
    band_hi = band["rho + (mean phi0)^+"]
    rec, t = trajectory.record, trajectory.t
    names = [k for k in rec if k not in ("t", "mean_phi_exact")]
    values = np.column_stack([rec[k] for k in names])
    mean = rec["mean_phi"]
    slack = _MEAN_TOL * max(1.0, abs(band_lo), abs(band_hi))
    outside = ~((band_lo - slack <= mean) & (mean <= band_hi + slack))
    violations = [
        f"non-finite {names[j]} = {values[k, j]} at t = {t[k]}" if j < len(names) else
        f"(4.31) mean band violated at t = {t[k]}: {mean[k]:.12g} "
        f"outside [{band_lo:.12g}, {band_hi:.12g}]"
        for k, j in np.argwhere(np.column_stack((~np.isfinite(values), outside))).tolist()
    ]
    w_l2, w_grad = trajectory.w_sums.T
    realized = {
        "phi_Linf_dual": float(rec["phi_dual"].max()),
        "phi_L2_H1": math.sqrt(_trapz(rec["phi_H1"] ** 2, t)),
        "mu_L2_H1": math.sqrt(_trapz(rec["mu_H1"] ** 2, t)),
        "beta_L1_Q": _trapz(rec["xi_L1"], t),
        "beta_L2_L6": math.sqrt(_trapz(rec["xi_L6"] ** 2, t)),
        "w_H1_L2": math.sqrt(_trapz(w_l2 + rec["dtw_L2"] ** 2, t)),
        "w_Linf_H1": math.sqrt(float((w_l2 + w_grad).max())),
    }
    return violations, realized


def _differences(s1: SourceTerm, s2: SourceTerm, seg1: np.ndarray, seg2: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct grid values of s1 - s2 where their segments are seg1 and seg2, and which of them holds at each."""
    n2 = len(s2.fields)
    codes, which = np.unique(seg1 * n2 + seg2, return_inverse=True)
    return [s1.fields[c // n2].values - s2.fields[c % n2].values for c in codes.tolist()], which


def dependence_experiment(
    data1: ProblemData,
    f2: SourceTerm,
    g2: SourceTerm,
    basis: SpectralBasis,
    dt: float,
    scheme: str = galerkin.SEMI_IMPLICIT,
) -> dict:
    """Run ``data1`` and the same problem with the sources ``f2`` and ``g2``,
    and measure the difference against the change of the sources: the
    realized difference norms ``lhs`` (with ``lhs_components``) and source
    norms ``rhs_components``, their ratio ``empirical_K2`` (None when the
    source norms are 0, as for equal sources or t_final = 0), and each run's
    time integral of ||yosida(phi)||_1, ``xi_L1_runs``.

    The sources are piecewise constant in time, so their differences take
    one value per pair of schedule segments: the f norms are taken once per
    pair, and the trapezoid convolution of the g difference is a combination
    of those values whose L2 norms come from their Gram matrix.
    """
    data2 = dataclasses.replace(data1, f=f2, g=g2)
    runs = [galerkin.Run(d, basis, dt, scheme) for d in (data1, data2)]
    domain, lam, times = basis.domain, basis.eigenvalues, np.array(runs[0].times)
    parts = [(*spectral.row_squares(d, lam), spectral.norm_Hm1_rows(d[:, 0], basis))  # of the phi, w and v differences
             for d in (b1[:, :3] - b2[:, :3] for b1, b2 in zip(*(run.blocks() for run in runs)))]
    (phi_l2, w_l2, v_l2), (phi_grad, w_grad, _), phi_dual = (np.concatenate(c).T for c in zip(*parts))
    lhs_components = {
        "phi_Linf_dual": float(phi_dual.max()),
        "phi_L2_H1": math.sqrt(_trapz(phi_l2 + phi_grad, times)),
        "w_H1_L2": math.sqrt(_trapz(w_l2 + v_l2, times)),
        "w_Linf_H1": math.sqrt(float((w_l2 + w_grad).max())),
    }
    lhs = sum(lhs_components.values())

    (f1, g1), (f2, g2) = data1.segments(times), data2.segments(times)
    f_diffs, f_which = _differences(data1.f, data2.f, f1, f2)
    f_dual = spectral.norm_Hm1_rows(np.array([spectral.to_coeffs(d, basis) for d in f_diffs]), basis)[f_which]
    f_l1 = np.array([spectral.norm_Lp(d, domain, 1) for d in f_diffs])[f_which]

    # conv(t_k) = sum_j c_kj g_j over the distinct differences g_j, with c the
    # cumulative trapezoid weights; |conv|^2 = w c^T (G G^T) c.
    g_diffs, g_which = _differences(data1.g, data2.g, g1, g2)
    g, onehot = np.array(g_diffs), np.eye(len(g_diffs))[g_which]
    steps = 0.5 * np.diff(times)[:, None] * (onehot[:-1] + onehot[1:])
    weights = np.cumsum(np.vstack((np.zeros(len(g)), steps)), axis=0)
    conv_sq = domain.cell_weight * np.einsum("kj,jl,kl->k", weights, g @ g.T, weights)

    f_l2_dual = math.sqrt(_trapz(f_dual**2, times))
    f_l1_q = _trapz(f_l1, times)
    rhs_components = {
        "f_L2_dual_plus_L1": f_l2_dual + f_l1_q,
        "f_L1_sqrt": math.sqrt(f_l1_q),
        "conv_g_L2": math.sqrt(_trapz(np.maximum(conv_sq, 0.0), times)),
    }
    rhs_total = sum(rhs_components.values())
    k2 = lhs / rhs_total if rhs_total > 0.0 else None

    return {
        "lhs": lhs,
        "rhs_components": rhs_components,
        "empirical_K2": k2,
        "lhs_components": lhs_components,
        "xi_L1_runs": [_trapz(run.trajectory().record["xi_L1"], times) for run in runs],
    }


def convergence_study(
    kind: str,
    schedule: Sequence[float],
    data: ProblemData,
    basis: SpectralBasis,
    dt: float,
    scheme: str = galerkin.SEMI_IMPLICIT,
) -> list[dict[str, float]]:
    """Refinement sweeps in basis size, regularization, or time step.

    * modes: schedule of basis sizes, last entry is the reference; reports
      max-in-time dual-norm errors of the zero-padded coarse solutions.
    * eps: schedule of regularization parameters; reports successive
      dual-norm differences and each member's realized graph norms.
    * dt: decreasing steps, each a whole multiple of the next, so levels match within
      ``galerkin.TIME_SLACK``; reports successive differences on the coarser grid and the slopes.
    """
    pairs = list(zip(schedule, schedule[1:]))
    require(
        (kind in SCHEDULES, f"(2.11) unknown study kind {kind!r}; expected one of {tuple(SCHEDULES)}"),
        (len(schedule) >= 2, f"(2.11) a schedule needs at least two entries, got {list(schedule)}"),
        (all(b < a for a, b in pairs) or all(b > a for a, b in pairs),
         f"(2.11) schedule must be strictly monotone, got {list(schedule)}"),
    )

    rows: list[dict[str, float]] = []
    if kind == "modes":
        require(
            (all(float(n).is_integer() for n in schedule),
             f"(2.11) a modes schedule must hold integers, got {list(schedule)}"),
            (all(a < b for a, b in pairs),
             f"(2.11) a modes schedule must increase to its last entry, the reference; got {list(schedule)}"),
        )
        sizes = [int(n) for n in schedule]
        bases = [spectral.build_basis(basis.domain, n) for n in sizes]
        runs, ref = [galerkin.Run(data, b, dt, scheme) for b in bases], bases[-1]
        parts = [[spectral.norm_Hm1_rows(np.pad(c[:, 0], [(0, 0), (0, ref.n - b.n)]) - fine[:, 0], ref).max()
                  for c, b in zip(coarse, bases)]  # each zero-padded coarse phi less the reference phi
                 for *coarse, fine in zip(*(run.blocks() for run in runs))]
        return [{"n": n, "error_Linf_dual": float(e)} for n, e in zip(sizes, np.max(parts, axis=0))]

    if kind == "eps":
        members = [dataclasses.replace(data, eps=float(eps)) for eps in schedule]  # checked before any run
        runs = [galerkin.Run(d, basis, dt, scheme) for d in members]
        parts = [[spectral.norm_Hm1_rows(a[:, 0] - b[:, 0], basis).max() for a, b in zip(blocks, blocks[1:])]
                 for blocks in zip(*(run.blocks() for run in runs))]
        for d, run in zip(members, runs):
            realized = apriori_monitor(run.trajectory(), d)[1]
            rows.append({"eps": d.eps, "beta_L1_Q": realized["beta_L1_Q"], "beta_L2_L6": realized["beta_L2_L6"]})
        for row, diff in zip(rows, np.max(parts, axis=0)):
            row["diff_Linf_dual"] = float(diff)
        return rows

    # Compare on the coarser grid, matching each of its records to the record of the next run
    # at its time within the level times' own slack; checked before any run starts.
    runs = [galerkin.Run(data, basis, float(dt_k), scheme) for dt_k in schedule]  # each checks its step
    dts, grids = [run.dt for run in runs], [np.array(run.times) for run in runs]
    tol = galerkin.TIME_SLACK * max(1.0, data.t_final)
    matches = [np.searchsorted(t_b, t_a - tol) for t_a, t_b in zip(grids, grids[1:])]
    require((
        all(np.abs(t_b[idx] - t_a).max() <= tol for t_a, t_b, idx in zip(grids, grids[1:], matches)),
        f"(2.11) the time grids of dt schedule {list(schedule)} do not nest: each dt must be a whole multiple of the next",
    ))
    # Run i + 1 advances to the level matched to each level of run i, so every run runs once.
    diffs = [0.0] * len(matches)

    def levels(i):  # run i's phi, level by level, each later run advanced with it
        finer, j = (levels(i + 1) if i < len(matches) else None), -1
        for k, level in runs[i]:
            if finer is not None:
                while j < matches[i][k]:
                    j, phi = next(finer)
                diffs[i] = max(diffs[i], float(spectral.norm_Hm1_rows(level[None, 0] - phi, basis)[0]))
            yield k, level[0]

    for _ in levels(0):
        pass
    for i, dt_k in enumerate(dts):
        row: dict[str, float] = {"dt": dt_k}
        if i < len(diffs):
            row["diff_to_next"] = diffs[i]
        if i + 1 < len(diffs) and diffs[i + 1] > 0.0:
            row["slope"] = math.log(diffs[i] / diffs[i + 1]) / math.log(dts[i] / dts[i + 1])
        rows.append(row)
    return rows
