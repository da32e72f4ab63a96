"""Executable diagnostics: mean law, energy balance, a-priori monitors,
continuous-dependence and convergence experiments.

Time-integral norms are trapezoid sums over the recorded step grid and
max-in-time norms are maxima over records, consistent with the first-order
accuracy of the stepping schemes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import galerkin, spectral
from .errors import require
from .galerkin import DiagnosticsRecord, GalerkinState, ProblemData
from .spectral import Coeffs, Field, SpectralBasis

Trajectory = list[tuple[GalerkinState, DiagnosticsRecord]]

MODE_COUNT = "modes"
EPSILON = "eps"
TIME_STEP = "dt"
STUDY_KINDS = (MODE_COUNT, EPSILON, TIME_STEP)


def _times(trajectory: Trajectory) -> np.ndarray:
    return np.array([rec.t for _, rec in trajectory])


def _trapz(values, times) -> float:
    return float(np.trapezoid(np.asarray(values, dtype=float), np.asarray(times, dtype=float)))


@dataclass(frozen=True)
class MeanLawReport:
    """Scheme-consistency and continuum errors of the simulated mean."""

    max_error_discrete: float
    max_error_continuum: float


def mean_law_check(trajectory: Trajectory, data: ProblemData) -> MeanLawReport:
    """Replay the implicit-Euler mean recursion and the exponential solution.

    The discrete comparison reproduces the scheme's own scalar reduction and
    must agree to roundoff; the continuum comparison against the exact
    variation-of-constants formula carries the scheme's O(dt) error.
    """
    gamma = data.params.gamma
    records = [rec for _, rec in trajectory]
    mean = records[0].mean_phi
    err_d = 0.0
    err_c = abs(records[0].mean_phi - records[0].mean_phi_exact)
    for prev, cur in zip(records, records[1:]):
        h = cur.t - prev.t
        f_mean = spectral.field_mean(data.f.at(prev.t))
        mean = (mean + h * f_mean) / (1.0 + gamma * h)
        err_d = max(err_d, abs(cur.mean_phi - mean))
        err_c = max(err_c, abs(cur.mean_phi - cur.mean_phi_exact))
    return MeanLawReport(max_error_discrete=err_d, max_error_continuum=err_c)


def energy_identity_residual(trajectory: Trajectory, data: ProblemData) -> float:
    """|E(T) - E(0) + int (dissipation - source power)| on the record grid."""
    records = [rec for _, rec in trajectory]
    if len(records) < 2:
        return 0.0
    times = _times(trajectory)
    integrand = [rec.dissipation_mu + rec.dissipation_w - rec.source_power for rec in records]
    return abs(records[-1].energy - records[0].energy + _trapz(integrand, times))


@dataclass(frozen=True)
class AprioriReport:
    violations: list[str]
    realized: dict[str, float]


def apriori_monitor(trajectory: Trajectory, data: ProblemData, mean_tol: float = 1e-9) -> AprioriReport:
    """Scan a trajectory for non-finite monitors and mean-band violations,
    and collect the realized norm inventory of the boundedness estimates."""
    violations: list[str] = []
    band = galerkin.compatibility_quantities(data)
    band_lo = band["-rho - (mean phi0)^-"]
    band_hi = band["rho + (mean phi0)^+"]
    times = _times(trajectory)

    for _, rec in trajectory:
        scalars = {
            "mean_phi": rec.mean_phi,
            "energy": rec.energy,
            "dissipation_mu": rec.dissipation_mu,
            "dissipation_w": rec.dissipation_w,
            "source_power": rec.source_power,
            **rec.norms,
        }
        for name, value in scalars.items():
            if not math.isfinite(value):
                violations.append(f"non-finite {name} = {value} at t = {rec.t}")
        if not band_lo - mean_tol <= rec.mean_phi <= band_hi + mean_tol:
            violations.append(
                f"(4.31) mean band violated at t = {rec.t}: {rec.mean_phi:.12g} "
                f"outside [{band_lo:.12g}, {band_hi:.12g}]"
            )

    w_l2 = [spectral.norm_L2(st.w) for st, _ in trajectory]
    w_h1 = [spectral.norm_H1(st.w) for st, _ in trajectory]
    recs = [rec for _, rec in trajectory]
    realized = {
        "phi_Linf_dual": max(r.norms["phi_dual"] for r in recs),
        "phi_L2_H1": math.sqrt(_trapz([r.norms["phi_H1"] ** 2 for r in recs], times)),
        "mu_L2_H1": math.sqrt(_trapz([r.norms["mu_H1"] ** 2 for r in recs], times)),
        "beta_L1_Q": _trapz([r.norms["xi_L1"] for r in recs], times),
        "beta_L2_L6": math.sqrt(_trapz([r.norms["xi_L6"] ** 2 for r in recs], times)),
        "w_H1_L2": math.sqrt(
            _trapz([wl**2 + r.norms["dtw_L2"] ** 2 for wl, r in zip(w_l2, recs)], times)
        ),
        "w_Linf_H1": max(w_h1),
    }
    return AprioriReport(violations=violations, realized=realized)


@dataclass(frozen=True)
class DependenceReport:
    """Realized two-run difference norms in the continuous-dependence shape."""

    lhs: float
    rhs_components: dict[str, float]
    empirical_K2: float
    lhs_components: dict[str, float]
    xi_L1_runs: tuple[float, float]


def _check_shared_data(data1: ProblemData, data2: ProblemData) -> None:
    same = (
        data1.params == data2.params
        and data1.potential is data2.potential
        and data1.eps == data2.eps
        and data1.t_final == data2.t_final
        and np.array_equal(data1.phi0.values, data2.phi0.values)
        and np.array_equal(data1.w0.values, data2.w0.values)
        and np.array_equal(data1.w1.values, data2.w1.values)
    )
    if not same:
        raise ValueError(
            "dependence experiment requires shared initial data, constants, "
            "potential and regularization; only f and g may differ"
        )


def dependence_experiment(
    data1: ProblemData,
    data2: ProblemData,
    basis: SpectralBasis,
    dt: float,
    scheme: str = galerkin.SEMI_IMPLICIT,
) -> DependenceReport:
    """Run both problems and measure the difference against the data change."""
    _check_shared_data(data1, data2)
    traj1 = galerkin.simulate(data1, basis, dt, scheme)
    traj2 = galerkin.simulate(data2, basis, dt, scheme)
    times = _times(traj1)
    domain = basis.domain

    phi_dual, phi_h1 = [], []
    w_l2, dv_l2, w_h1 = [], [], []
    f_dual, f_l1 = [], []
    g_fields = []
    for (s1, _), (s2, _) in zip(traj1, traj2):
        dphi = s1.phi - s2.phi
        dw = s1.w - s2.w
        dv = s1.v - s2.v
        phi_dual.append(spectral.norm_Hm1(dphi))
        phi_h1.append(spectral.norm_H1(dphi))
        w_l2.append(spectral.norm_L2(dw))
        dv_l2.append(spectral.norm_L2(dv))
        w_h1.append(spectral.norm_H1(dw))
        t = s1.t
        fd = Field(data1.f.at(t).values - data2.f.at(t).values, domain)
        f_dual.append(spectral.norm_Hm1(spectral.to_coeffs(fd, basis)))
        f_l1.append(spectral.norm_Lp(fd, 1))
        g_fields.append(data1.g.at(t).values - data2.g.at(t).values)

    lhs_components = {
        "phi_Linf_dual": max(phi_dual),
        "phi_L2_H1": math.sqrt(_trapz([x**2 for x in phi_h1], times)),
        "w_H1_L2": math.sqrt(_trapz([a**2 + b**2 for a, b in zip(w_l2, dv_l2)], times)),
        "w_Linf_H1": max(w_h1),
    }
    lhs = sum(lhs_components.values())

    conv = np.zeros(domain.n_grid)
    conv_norms = [0.0]
    for k in range(1, len(times)):
        h = times[k] - times[k - 1]
        conv = conv + 0.5 * h * (g_fields[k - 1] + g_fields[k])
        conv_norms.append(spectral.norm_Lp(Field(conv, domain), 2))

    f_l2_dual = math.sqrt(_trapz([x**2 for x in f_dual], times))
    f_l1_q = _trapz(f_l1, times)
    rhs_components = {
        "f_L2_dual_plus_L1": f_l2_dual + f_l1_q,
        "f_L1_sqrt": math.sqrt(f_l1_q),
        "conv_g_L2": math.sqrt(_trapz([x**2 for x in conv_norms], times)),
    }
    rhs_total = sum(rhs_components.values())
    k2 = lhs / rhs_total if rhs_total > 0.0 else float("nan")

    xi1 = apriori_monitor(traj1, data1).realized["beta_L1_Q"]
    xi2 = apriori_monitor(traj2, data2).realized["beta_L1_Q"]
    return DependenceReport(
        lhs=lhs,
        rhs_components=rhs_components,
        empirical_K2=k2,
        lhs_components=lhs_components,
        xi_L1_runs=(xi1, xi2),
    )


def _phi_history(trajectory: Trajectory) -> list[Coeffs]:
    return [st.phi for st, _ in trajectory]


def _max_dual_diff(hist_a: Sequence[Coeffs], hist_b: Sequence[Coeffs]) -> float:
    return max(spectral.norm_Hm1(a - b) for a, b in zip(hist_a, hist_b))


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
    * dt: schedule of decreasing steps; reports successive differences on the
      coarser time grid and the dyadic slopes.
    """
    if kind not in STUDY_KINDS:
        raise ValueError(f"unknown study kind {kind!r}; expected one of {STUDY_KINDS}")
    pairs = list(zip(schedule, schedule[1:]))
    require((
        all(b < a for a, b in pairs) or all(b > a for a, b in pairs),
        f"(2.11) schedule must be strictly monotone, got {list(schedule)}",
    ))

    rows: list[dict[str, float]] = []
    if kind == MODE_COUNT:
        require((
            all(float(n).is_integer() for n in schedule),
            f"(2.11) a modes schedule must hold integers, got {list(schedule)}",
        ))
        sizes = [int(n) for n in schedule]
        require((
            sizes == sorted(sizes),
            f"(2.11) a modes schedule must increase to its last entry, the reference; got {sizes}",
        ))
        bases = [spectral.build_basis(basis.domain, n) for n in sizes]
        hists = [_phi_history(galerkin.simulate(data, b, dt, scheme)) for b in bases]
        ref_basis, ref_hist = bases[-1], hists[-1]
        for n, b, hist in zip(sizes[:-1], bases[:-1], hists[:-1]):
            padded = [spectral.embed(c, ref_basis) for c in hist]
            rows.append({"n": n, "error_Linf_dual": _max_dual_diff(padded, ref_hist)})
        return rows

    if kind == EPSILON:
        runs = []
        for eps in schedule:
            d = dataclasses.replace(data, eps=float(eps))
            traj = galerkin.simulate(d, basis, dt, scheme)
            realized = apriori_monitor(traj, d).realized
            runs.append((float(eps), _phi_history(traj), realized))
        for i, (eps, hist, realized) in enumerate(runs):
            row = {
                "eps": eps,
                "beta_L1_Q": realized["beta_L1_Q"],
                "beta_L2_L6": realized["beta_L2_L6"],
            }
            if i + 1 < len(runs):
                row["diff_Linf_dual"] = _max_dual_diff(hist, runs[i + 1][1])
            rows.append(row)
        return rows

    # Compare on the coarser grid, matching each of its records to the
    # nearest record of the next run; checked before anything runs.
    for dt_k in schedule:
        galerkin.check_step(float(dt_k), scheme)
    grids = [np.array(galerkin.record_times(float(dt_k), data.t_final)) for dt_k in schedule]
    matches = []
    for t_a, t_b in zip(grids, grids[1:]):
        idx = [int(np.argmin(np.abs(t_b - t))) for t in t_a]
        require((
            max(abs(t_b[j] - t) for j, t in zip(idx, t_a)) <= 1e-9 * max(1.0, data.t_final),
            f"(2.11) the time grids of dt schedule {list(schedule)} do not nest; "
            "use a dyadic schedule",
        ))
        matches.append(idx)
    runs = []
    for dt_k in schedule:
        traj = galerkin.simulate(data, basis, float(dt_k), scheme)
        runs.append((float(dt_k), _phi_history(traj)))
    diffs = [
        _max_dual_diff(hist_a, [hist_b[j] for j in idx])
        for (_, hist_a), (_, hist_b), idx in zip(runs, runs[1:], matches)
    ]
    for i, (dt_k, _) in enumerate(runs):
        row: dict[str, float] = {"dt": dt_k}
        if i < len(diffs):
            row["diff_to_next"] = diffs[i]
        if i + 1 < len(diffs) and diffs[i + 1] > 0.0:
            row["slope"] = math.log(diffs[i] / diffs[i + 1]) / math.log(
                runs[i][0] / runs[i + 1][0]
            )
        rows.append(row)
    return rows
