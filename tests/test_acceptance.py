"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; no value is tuned at runtime.  Runtime budgets
are asserted against wall-clock measurements of the work itself.
"""

import dataclasses
import json
import math
import random
import time

import numpy as np
import pytest

from conftest import constant_source, make_problem_data, mean_value, simulate_levels
from thermoch import analysis as an
from thermoch import galerkin as gk
from thermoch import io_cli as io
from thermoch import potentials as pot
from thermoch import spectral as sp
from thermoch.errors import MeanDomainError

REG = pot.regular_potential()
LOG = pot.logarithmic_potential(2.0)
OBS = pot.double_obstacle_potential(1.0)
KINDS = {"regular": REG, "logarithmic": LOG, "double_obstacle": OBS}


def report(number: int, ok: bool, budget_s: float, elapsed: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({elapsed:.2f}s / budget {budget_s:.0f}s) {detail}")
    assert ok, detail
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds budget {budget_s}s"


def test_criterion_1_yosida_suite():
    started = time.perf_counter()
    eps_values = [0.5, 0.1, 0.02]
    all_violations = []
    metrics = {}
    for kind, spec in KINDS.items():
        rng = random.Random(1)
        violations, m = io.potentials_suite(spec, eps_values, 10_000, rng)
        all_violations += [f"{kind}: {v}" for v in violations]
        metrics[kind] = max(v for k, v in m.items() if k != "interior_bound_C0")
    elapsed = time.perf_counter() - started
    detail = f"worst defect {max(metrics.values()):.2e}; {all_violations or 'no violations'}"
    report(1, not all_violations, 5.0, elapsed, detail)


def test_criterion_2_inverse_laplacian_suite():
    started = time.perf_counter()
    cases = [((1.0,), 16, 8), ((1.0,), 64, 32), ((1.0,), 256, 128), ((1.0, 1.0), 16, 64)]
    all_violations = []
    for lengths, grid, n in cases:
        basis = sp.build_basis(sp.BoxDomain(lengths, grid), n)
        rng = random.Random(n)
        violations, _ = io.spectral_suite(basis, rng)
        all_violations += [f"n={n} dim={len(lengths)}: {v}" for v in violations]
        with pytest.raises(MeanDomainError):
            sp.solve_poisson(np.ones(basis.n), basis)
    elapsed = time.perf_counter() - started
    report(2, not all_violations, 5.0, elapsed, str(all_violations or "identities at 1e-12"))


def test_criterion_3_mean_value_law():
    started = time.perf_counter()
    domain = sp.BoxDomain((1.0,), 32)
    basis = sp.build_basis(domain, 8)
    data = make_problem_data(domain, REG, gamma=1.0, phi0=sp.constant_field(0.5, domain))

    # discrete closed form reproduced to roundoff, continuum error first order
    continuum = []
    discrete = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        trajectory = gk.simulate(data, basis, dt)
        rep = an.mean_law_check(trajectory, data)
        discrete.append(rep["max_error_discrete"])
        continuum.append(rep["max_error_continuum"])
        assert trajectory.record["mean_phi_exact"] == pytest.approx(0.5 * np.exp(-trajectory.t), abs=1e-10)
    slopes = [math.log2(a / b) for a, b in zip(continuum, continuum[1:])]
    ok = max(discrete) <= 1e-12 and all(abs(s - 1.0) <= 0.2 for s in slopes)

    # randomized sweep: the admissible band is never violated beyond 1e-9
    rng = np.random.default_rng(42)
    worst_violation = 0.0
    for run in range(20):
        gamma = float(rng.uniform(0.5, 2.0))
        phi0_bar = float(rng.uniform(-0.6, 0.6))
        f1, f2 = (float(x) for x in rng.uniform(-1.2, 1.2, 2))
        src = gk.SourceTerm(
            times=(0.0, 0.5),
            fields=(sp.constant_field(f1, domain), sp.constant_field(f2, domain)),
        )
        sweep_data = make_problem_data(
            domain, REG, gamma=gamma, f=src,
            phi0=sp.constant_field(phi0_bar, domain), t_final=1.0,
        )
        scheme = gk.SCHEMES[run % 2]
        trajectory = gk.simulate(sweep_data, basis, 0.01, scheme)
        band = gk.compatibility_quantities(sweep_data)
        lo, hi = band["-rho - (mean phi0)^-"], band["rho + (mean phi0)^+"]
        mean = trajectory.record["mean_phi"]
        worst_violation = max(worst_violation, (lo - mean).max(), (mean - hi).max())
    ok = ok and worst_violation <= 1e-9
    elapsed = time.perf_counter() - started
    report(
        3, ok, 60.0, elapsed,
        f"discrete {max(discrete):.1e}, slopes {[f'{s:.2f}' for s in slopes]}, "
        f"band excess {worst_violation:.1e}",
    )


def test_criterion_4_homogeneous_benchmark():
    started = time.perf_counter()
    domain = sp.BoxDomain((1.0,), 32)
    basis = sp.build_basis(domain, 16)
    data = make_problem_data(
        domain, REG, gamma=1.0, lam=2.0,
        phi0=sp.constant_field(0.3, domain), t_final=1.0,
    )
    c_exact = 0.3 * math.exp(-1.0)
    v_exact = 0.6 * (1.0 - math.exp(-1.0))
    ok = True
    worst = 0.0
    for dt in (1e-2, 5e-3, 2.5e-3):
        end_state = simulate_levels(data, basis, dt)[1][-1]
        c_err = abs(mean_value(end_state.phi, basis) - c_exact)
        v_err = abs(mean_value(end_state.v, basis) - v_exact)
        worst = max(worst, max(c_err, v_err) / dt)
        ok = ok and c_err <= 3.0 * dt and v_err <= 3.0 * dt
    elapsed = time.perf_counter() - started
    report(4, ok, 30.0, elapsed, f"max error {worst:.3f} dt (allowed 3 dt)")


def test_criterion_5_energy_identity():
    started = time.perf_counter()
    domain = sp.BoxDomain((1.0,), 64)
    basis = sp.build_basis(domain, 32)
    data = make_problem_data(
        domain, REG, eps=0.1, a=0.0,
        phi0=sp.cosine_sum_field(domain, 0.0, [((1,), 0.1), ((2,), 0.05)]),
        t_final=0.5,
    )
    residuals = [
        an.energy_identity_residual(gk.simulate(data, basis, dt))
        for dt in (2e-3, 1e-3, 5e-4)
    ]
    ratios = [a / b for a, b in zip(residuals, residuals[1:])]
    ok = all(1.6 <= r <= 2.6 for r in ratios)

    trajectory = gk.simulate(data, basis, 1e-3, scheme=gk.BACKWARD_EULER)
    max_increase = np.diff(trajectory.record["energy"]).max()
    ok = ok and max_increase <= 1e-8
    elapsed = time.perf_counter() - started
    report(
        5, ok, 120.0, elapsed,
        f"residual ratios {[f'{r:.2f}' for r in ratios]}, "
        f"max energy increase {max_increase:.1e}",
    )


def test_criterion_6_continuous_dependence():
    started = time.perf_counter()
    domain = sp.BoxDomain((1.0,), 64)
    basis = sp.build_basis(domain, 16)
    base = make_problem_data(
        domain, REG, eps=0.1,
        phi0=sp.cosine_sum_field(domain, 0.1, [((1,), 0.2)]), t_final=0.5,
    )
    identical = an.dependence_experiment(base, base.f, base.g, basis, 2e-3)
    ok = identical["lhs"] <= 1e-12

    k2s, lhss = [], []
    for delta in (1e-1, 1e-2, 1e-3):
        perturbed = dataclasses.replace(
            base, f=constant_source(sp.constant_field(delta, domain))
        )
        rep = an.dependence_experiment(base, perturbed.f, perturbed.g, basis, 2e-3)
        k2s.append(rep["empirical_K2"])
        lhss.append(rep["lhs"])
    ok = ok and max(k2s) / min(k2s) <= 10.0
    ok = ok and lhss[0] > lhss[1] > lhss[2] > 0.0
    elapsed = time.perf_counter() - started
    report(
        6, ok, 120.0, elapsed,
        f"identical lhs {identical['lhs']:.1e}, K2 spread {max(k2s) / min(k2s):.2f}, "
        f"lhs {[f'{x:.2e}' for x in lhss]}",
    )


def test_criterion_7_eps_sweep():
    started = time.perf_counter()
    domain = sp.BoxDomain((1.0,), 64)
    basis = sp.build_basis(domain, 16)
    schedule = [0.2, 0.1, 0.05, 0.025]
    ok = True
    details = []
    for kind in ("regular", "logarithmic"):
        data = make_problem_data(
            domain, KINDS[kind], eps=0.1,
            phi0=sp.cosine_sum_field(domain, 0.0, [((1,), 0.2)]), t_final=0.25,
        )
        rows = an.convergence_study("eps", schedule, data, basis, 1e-3)
        diffs = [row["diff_Linf_dual"] for row in rows if "diff_Linf_dual" in row]
        ok = ok and all(a > b for a, b in zip(diffs, diffs[1:]))
        for key in ("beta_L1_Q", "beta_L2_L6"):
            values = [row[key] for row in rows]
            spread = max(values) / max(min(values), 1e-300)
            ok = ok and spread <= 10.0
            details.append(f"{kind}:{key} x{spread:.2f}")
    elapsed = time.perf_counter() - started
    report(7, ok, 180.0, elapsed, "; ".join(details))


def test_criterion_8_elliptic_bound():
    started = time.perf_counter()
    basis = sp.build_basis(sp.BoxDomain((1.0,), 64), 16)
    all_violations = []
    worst = {}
    for kind, eps in (("regular", 0.2), ("logarithmic", 0.1), ("double_obstacle", 0.5)):
        rng = random.Random(8)
        violations, metrics = io.elliptic_suite(basis, KINDS[kind], eps, rng, trials=20)
        all_violations += [f"{kind}: {v}" for v in violations]
        worst[kind] = metrics
    ok = not all_violations
    ok = ok and all(m["const_gap"] <= 1e-12 for m in worst.values())
    ok = ok and all(m["start_gap"] <= 1e-8 for m in worst.values())
    const_gaps = ["{:.1e}".format(m["const_gap"]) for m in worst.values()]
    start_gaps = ["{:.1e}".format(m["start_gap"]) for m in worst.values()]
    elapsed = time.perf_counter() - started
    report(8, ok, 30.0, elapsed, f"const gaps {const_gaps}, start gaps {start_gaps}")


def test_criterion_9_determinism_and_validation(tmp_path):
    started = time.perf_counter()
    base = """
[domain]
grid = 32
n_modes = 8
[potential]
kind = {kind}
{extra}
[data]
phi0 = {phi0}
f = {f}
[time]
t_final = 0.2
dt = 0.01
"""
    good = tmp_path / "good.ini"
    good.write_text(base.format(kind="regular", extra="", phi0="0.1 + 0.2*cos(1)", f="0.0"))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    ok = io.main(["simulate", str(good), "--output-dir", str(out1), "--quiet"]) == 0
    ok = ok and io.main(["simulate", str(good), "--output-dir", str(out2), "--quiet"]) == 0
    ok = ok and (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1.pop("wall_time_s"), s2.pop("wall_time_s")
    ok = ok and s1 == s2

    invalid = [
        ({"kind": "regular", "extra": "", "phi0": "0.1", "f": "0.0"}, "(2.5)", "gamma = 0"),
        ({"kind": "logarithmic", "extra": "c1 = 2.0", "phi0": "1.2", "f": "0.0"}, "(2.14)", None),
        ({"kind": "logarithmic", "extra": "c1 = 2.0", "phi0": "0.1", "f": "5.0"}, "(2.14)", None),
    ]
    for i, (fields, tag, inject) in enumerate(invalid):
        text = base.format(**fields)
        if inject:
            text += f"[physics]\n{inject}\n"
        bad = tmp_path / f"bad{i}.ini"
        bad.write_text(text)
        code = io.main(["simulate", str(bad), "--quiet"])
        ok = ok and code == 2
        try:
            io.parse_config(bad)
            ok = False
        except Exception as exc:
            lines = str(exc).splitlines()
            ok = ok and all(line.count(tag) == 1 for line in lines)
    elapsed = time.perf_counter() - started
    report(9, ok, 5.0, elapsed, "byte-identical artifacts; three tagged rejections")
