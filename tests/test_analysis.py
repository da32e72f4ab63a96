import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_source, make_problem_data, norm_H1, norm_Hm1, pow_norm_Lp, simulate_levels
from thermoch import analysis as an
from thermoch import galerkin as gk
from thermoch import io_cli as io
from thermoch import potentials as pot
from thermoch import spectral as sp
from thermoch.errors import ConfigurationError

REG = pot.regular_potential()
LOG = pot.logarithmic_potential(2.0)


@dataclass(frozen=True)
class HomogeneousBenchmark:
    """Closed-form spatially constant solution with f = g = 0.

    The order parameter decays as c(t) = c0 exp(-gamma t); the temperature
    component integrates v' = -lam c' to v(t) = w1 + lam (c0 - c(t)); the
    displacement is its time primitive starting at w0.
    """

    c0: float
    w0: float
    w1: float
    gamma: float
    lam: float

    def c(self, t):
        return self.c0 * np.exp(-self.gamma * np.asarray(t, dtype=float))

    def v(self, t):
        return self.w1 + self.lam * (self.c0 - self.c(t))

    def w(self, t):
        t = np.asarray(t, dtype=float)
        return (
            self.w0
            + (self.w1 + self.lam * self.c0) * t
            - (self.lam * self.c0 / self.gamma) * (1.0 - np.exp(-self.gamma * t))
        )


class TestMeanLaw:
    def test_homogeneous_decay(self, unit_domain, unit_basis):
        data = make_problem_data(
            unit_domain, REG, gamma=1.0,
            phi0=sp.constant_field(0.5, unit_domain), t_final=1.0,
        )
        trajectory = gk.simulate(data, unit_basis, 0.01)
        report = an.mean_law_check(trajectory, data)
        assert report["max_error_discrete"] <= 1e-12
        # the recorded reference reproduces 0.5 exp(-t) exactly
        assert trajectory.record["mean_phi_exact"] == pytest.approx(0.5 * np.exp(-trajectory.t), abs=1e-10)

    def test_forced_steady_state(self, unit_domain, unit_basis):
        data = make_problem_data(
            unit_domain, REG, gamma=2.0,
            f=constant_source(sp.constant_field(1.0, unit_domain)),
            t_final=4.0,
        )
        trajectory = gk.simulate(data, unit_basis, 0.02)
        means = trajectory.record["mean_phi"]
        assert means[-1] == pytest.approx(0.5, abs=1e-3)
        assert np.diff(means).min() >= -1e-14  # monotone rise
        assert max(means) <= data.f.sup_norm() / data.params.gamma + 1e-12  # rho

    def test_scheme_error_first_order(self, unit_domain, unit_basis):
        data = make_problem_data(
            unit_domain, REG, gamma=1.0,
            phi0=sp.constant_field(0.5, unit_domain), t_final=1.0,
        )
        errors = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            trajectory = gk.simulate(data, unit_basis, dt)
            errors.append(an.mean_law_check(trajectory, data)["max_error_continuum"])
        slopes = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        for slope in slopes:
            assert slope == pytest.approx(1.0, abs=0.2)

    def test_per_segment_source_means_replay_the_per_level_recursion(self, unit_domain, unit_basis):
        # the source mean taken once per segment gives the floats of taking it
        # at every level, for a schedule switching between levels
        f = gk.SourceTerm(
            times=(0.0, 0.033, 0.07),
            fields=(sp.cosine_sum_field(unit_domain, 0.3, [((1,), 0.1)]),
                    sp.constant_field(-0.7, unit_domain), sp.constant_field(0.45, unit_domain)),
        )
        data = make_problem_data(
            unit_domain, REG, gamma=1.3, f=f,
            phi0=sp.cosine_sum_field(unit_domain, 0.2, [((1,), 0.2)]), t_final=0.1,
        )
        trajectory = gk.simulate(data, unit_basis, 0.01)
        t, means = trajectory.t.tolist(), trajectory.record["mean_phi"].tolist()
        mean, err_d = means[0], 0.0
        for k in range(1, len(t)):
            h = min(0.01, 0.1 - t[k - 1])  # the run's own step
            mean = (mean + h * float(f.fields[data.segments(t[k - 1])[0]].values.mean())) / (1.0 + 1.3 * h)
            err_d = max(err_d, abs(means[k] - mean))
        err_c = max(abs(m - e) for m, e in zip(means, trajectory.record["mean_phi_exact"].tolist()))
        report = an.mean_law_check(trajectory, data)
        assert (report["max_error_discrete"], report["max_error_continuum"]) == (err_d, err_c)

    def test_non_dyadic_steps_replay_the_run_own_sizes(self, tmp_path):
        # dt = 0.003 on a 2.5-long interval: the recorded times' differences are not
        # the run's steps min(dt, t_final - t), and the check replays the run's steps
        demo = (Path(__file__).resolve().parents[1] / "configs" / "demo.ini").read_text()
        for line, edited in (("lengths = 1.0", "lengths = 2.5"), ("grid = 64", "grid = 48"),
                             ("n_modes = 32", "n_modes = 16"), ("dt = 0.001", "dt = 0.003"),
                             ("f = 0.2 ; 0.5: -0.2", "f = 0.3 ; 0.37: -0.2")):
            demo = demo.replace(line, edited)
        (tmp_path / "case.ini").write_text(demo)
        cfg = io.parse_config(tmp_path / "case.ini")
        data, gamma = cfg.data, cfg.data.params.gamma
        trajectory = gk.simulate(data, cfg.basis, 0.003)
        f_means = [float(f.values.mean()) for f in data.f.fields]
        t, means = trajectory.t.tolist(), trajectory.record["mean_phi"].tolist()
        mean, err_d = means[0], 0.0
        for k in range(1, len(t)):
            h = min(0.003, 1.0 - t[k - 1])
            mean = (mean + h * f_means[t[k - 1] >= 0.37]) / (1.0 + gamma * h)
            err_d = max(err_d, abs(means[k] - mean))
        assert an.mean_law_check(trajectory, data)["max_error_discrete"] == err_d

    def test_steps_that_miss_a_level_raise(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, t_final=0.05)
        trajectory = gk.simulate(data, unit_basis, 0.01)
        short = dataclasses.replace(trajectory, steps=trajectory.steps[:-1])
        with pytest.raises(ValueError):
            an.mean_law_check(short, data)

    def test_source_switch_lands_on_the_level_at_it(self):
        # configs/demo.ini with f switching from 0.2 to -0.2 at t = 0.33, at dt = 0.03:
        # level 11 sits at 11 dt = 0.32999999999999996, an ulp below the switch, and
        # the step from it takes the new value, in the scheme and in the exact mean
        cfg = io.parse_config(Path(__file__).resolve().parents[1] / "configs" / "demo.ini")
        data = dataclasses.replace(cfg.data, f=gk.SourceTerm((0.0, 0.33), cfg.data.f.fields))
        gamma, h = data.params.gamma, 0.03
        trajectory = gk.simulate(data, cfg.basis, h)
        rec = trajectory.record
        t, means, exact = rec["t"], rec["mean_phi"], rec["mean_phi_exact"]
        assert 0.33 - 1e-14 < t[11] < 0.33
        assert means[12] == pytest.approx((means[11] - 0.2 * h) / (1.0 + gamma * h), rel=1e-13)
        m0, decay = means[0], lambda s: math.exp(-gamma * s)
        at_switch = m0 * decay(0.33) + 0.2 / gamma * (1.0 - decay(0.33))
        expected = at_switch * decay(t[12] - 0.33) - 0.2 / gamma * (1.0 - decay(t[12] - 0.33))
        assert exact[12] == pytest.approx(expected, rel=1e-12)
        rebuilt = gk.Trajectory(rec, np.zeros((len(t), 2)), trajectory.steps)
        assert an.mean_law_check(rebuilt, data)["max_error_discrete"] <= 1e-13

    @given(m=st.integers(2, 2000), data=st.data())
    @settings(deadline=None)
    def test_a_switch_on_the_grid_holds_from_its_level(self, m, data):
        # with dt = 1/m and a switch at j/m, the segment lookup that the steps,
        # the record and the checks share gives the new field from level j on
        j, domain = data.draw(st.integers(1, m - 1)), sp.BoxDomain((1.0,), 8)
        f = gk.SourceTerm((0.0, j / m), (sp.constant_field(0.2, domain), sp.constant_field(-0.2, domain)))
        problem = make_problem_data(domain, REG, f=f, t_final=1.0)
        times = np.array(gk.record_times(1.0 / m, 1.0))
        assert problem.segments(times)[0].tolist() == [int(k >= j) for k in range(m + 1)]


class TestBenchmark:
    def test_reference_values(self):
        bench = HomogeneousBenchmark(0.3, 0.0, 0.0, 1.0, 2.0)
        assert bench.c(1.0) == pytest.approx(0.1103638, abs=1e-7)
        assert bench.v(1.0) == pytest.approx(0.3792724, abs=1e-7)

    def test_zero_latent_heat_decouples(self):
        bench = HomogeneousBenchmark(0.3, 0.1, 0.7, 1.0, 0.0)
        for t in (0.0, 0.5, 2.0):
            assert bench.v(t) == 0.7

    def test_initial_values(self):
        bench = HomogeneousBenchmark(0.3, 0.4, 0.5, 1.2, 2.0)
        assert (bench.c(0.0), bench.v(0.0), bench.w(0.0)) == (0.3, 0.5, 0.4)

    def test_w_is_primitive_of_v(self):
        bench = HomogeneousBenchmark(0.4, -0.2, 0.3, 1.7, 1.1)
        ts = np.linspace(0.0, 1.0, 2001)
        quad = -0.2 + np.concatenate([[0.0], np.cumsum(
            0.5 * np.diff(ts) * (bench.v(ts[:-1]) + bench.v(ts[1:]))
        )])
        assert np.abs(bench.w(ts) - quad).max() <= 1e-6


class TestEnergyResidual:
    def test_rest_state_zero(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, t_final=0.2)
        trajectory = gk.simulate(data, unit_basis, 0.01)
        assert an.energy_identity_residual(trajectory) <= 1e-13

    def test_mean_free_benchmark_energy_constant(self, unit_domain, unit_basis):
        # c0 = 0 with constant thermal state: all balance terms vanish
        data = make_problem_data(
            unit_domain, REG, w1=sp.constant_field(0.3, unit_domain), t_final=0.5,
        )
        trajectory = gk.simulate(data, unit_basis, 0.01, scheme=gk.BACKWARD_EULER)
        energies = trajectory.record["energy"]
        assert energies.max() - energies.min() <= 1e-12
        assert np.diff(energies).max() <= 1e-12
        assert an.energy_identity_residual(trajectory) <= 1e-10

    def test_identity_holds_on_moving_benchmark(self, unit_domain, unit_basis):
        # with a decaying constant state the energy moves (the mass source
        # injects energy) yet the balance identity itself must still close
        data = make_problem_data(
            unit_domain, REG, phi0=sp.constant_field(0.3, unit_domain), t_final=0.5,
        )
        residuals = [
            an.energy_identity_residual(gk.simulate(data, unit_basis, dt))
            for dt in (1e-2, 5e-3)
        ]
        assert residuals[0] > residuals[1]
        assert 1.6 <= residuals[0] / residuals[1] <= 2.6

    def test_residual_halves_with_dt(self, unit_domain):
        basis = sp.build_basis(unit_domain, 16)
        data = make_problem_data(
            unit_domain, REG,
            phi0=sp.cosine_sum_field(unit_domain, 0.0, [((1,), 0.1)]),
            t_final=0.25,
        )
        residuals = [
            an.energy_identity_residual(gk.simulate(data, basis, dt))
            for dt in (2e-3, 1e-3)
        ]
        assert 1.6 <= residuals[0] / residuals[1] <= 2.6


class TestAprioriMonitor:
    def test_clean_run(self, unit_domain, unit_basis):
        data = make_problem_data(
            unit_domain, REG,
            phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.2)]),
            t_final=0.2,
        )
        trajectory = gk.simulate(data, unit_basis, 0.01)
        violations, realized = an.apriori_monitor(trajectory, data)
        assert violations == []
        assert all(math.isfinite(v) for v in realized.values())

    def test_corrupted_trajectory_flagged(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, t_final=0.05)
        trajectory = gk.simulate(data, unit_basis, 0.01)
        record = {k: v.copy() for k, v in trajectory.record.items()}
        record["mean_phi"][2] = 5.0
        record["mu_H1"][2] = float("nan")
        violations = an.apriori_monitor(dataclasses.replace(trajectory, record=record), data)[0]
        assert violations == [
            "non-finite mu_H1 = nan at t = 0.02",
            "(4.31) mean band violated at t = 0.02: 5 outside [0, 0]",
        ]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_w_norms_match_spectral_norms(self, dim):
        domain = sp.BoxDomain((1.0,) * dim, 16)
        basis = sp.build_basis(domain, 8)
        data = make_problem_data(
            domain, REG, g=constant_source(sp.cosine_sum_field(domain, 0.2, [((1,) * dim, 0.3)])),
            phi0=sp.cosine_sum_field(domain, 0.1, [((1,) * dim, 0.2)]),
            w0=sp.cosine_sum_field(domain, 0.1, [((0,) * (dim - 1) + (2,), 0.3)]), t_final=0.1,
        )
        trajectory, states = simulate_levels(data, basis, 0.01)
        realized = an.apriori_monitor(trajectory, data)[1]
        w_l2 = np.array([np.linalg.norm(s.w) ** 2 + np.linalg.norm(s.v) ** 2 for s in states])
        assert realized["w_H1_L2"] == pytest.approx(
            math.sqrt(np.trapezoid(w_l2, trajectory.t)), rel=1e-14, abs=0.0)
        assert realized["w_Linf_H1"] == pytest.approx(max(norm_H1(s.w, basis) for s in states), rel=1e-14, abs=0.0)

    def test_eps_sweep_uniformity(self, unit_domain, unit_basis):
        data = make_problem_data(
            unit_domain, REG,
            phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.2)]),
            t_final=0.2,
        )
        values = []
        for eps in (0.2, 0.1, 0.05):
            d = dataclasses.replace(data, eps=eps)
            trajectory = gk.simulate(d, unit_basis, 2e-3)
            values.append(an.apriori_monitor(trajectory, d)[1]["beta_L1_Q"])
        for a, b in zip(values, values[1:]):
            assert max(a, b) / min(a, b) <= 10.0


class TestDependence:
    def make_pair(self, domain, delta_f=0.0, delta_g=0.0):
        phi0 = sp.cosine_sum_field(domain, 0.1, [((1,), 0.2)])
        base = make_problem_data(domain, REG, phi0=phi0, t_final=0.25)
        f2 = constant_source(sp.constant_field(delta_f, domain))
        g2 = gk.SourceTerm(
            times=(0.0,),
            fields=(sp.cosine_sum_field(domain, 0.0, [((1,), delta_g)]),),
        )
        other = dataclasses.replace(base, f=f2, g=g2)
        return base, other

    def test_identical_inputs_zero(self, unit_domain, unit_basis):
        base, _ = self.make_pair(unit_domain)
        report = an.dependence_experiment(base, base.f, base.g, unit_basis, 2e-3)
        assert report["lhs"] <= 1e-12
        assert report["empirical_K2"] is None  # no ratio without a source change

    def test_f_family_bounded_ratio(self, unit_domain, unit_basis):
        base, _ = self.make_pair(unit_domain)
        k2s, lhss = [], []
        for delta in (1e-1, 1e-2, 1e-3):
            _, other = self.make_pair(unit_domain, delta_f=delta)
            report = an.dependence_experiment(base, other.f, other.g, unit_basis, 2e-3)
            k2s.append(report["empirical_K2"])
            lhss.append(report["lhs"])
        assert max(k2s) / min(k2s) <= 10.0
        assert lhss[0] > lhss[1] > lhss[2] > 0.0

    def test_g_pulse_continuity(self, unit_domain, unit_basis):
        base, _ = self.make_pair(unit_domain)
        lhss = []
        for delta in (1e-1, 1e-3):
            _, other = self.make_pair(unit_domain, delta_g=delta)
            lhss.append(an.dependence_experiment(base, other.f, other.g, unit_basis, 2e-3)["lhs"])
        assert lhss[0] > lhss[1] > 0.0
        assert lhss[1] <= lhss[0] * 1e-1

    def test_source_terms_match_per_level_oracle(self, unit_domain, unit_basis):
        # schedules switching at different times in the two runs: the terms
        # taken per pair of segments equal the per-level grid sums of the
        # convolution and of the f differences
        def schedule(times, values, ripple):
            return gk.SourceTerm(times, tuple(
                sp.cosine_sum_field(unit_domain, c, [((1,), ripple)]) for c in values))

        base, _ = self.make_pair(unit_domain)
        base = dataclasses.replace(base, f=schedule((0.0, 0.1), (0.2, -0.1), 0.05),
                                   g=schedule((0.0, 0.07, 0.15), (0.3, -0.2, 0.1), 0.2))
        other = dataclasses.replace(base, f=schedule((0.0, 0.13), (0.1, 0.25), 0.0),
                                    g=schedule((0.0, 0.1), (-0.1, 0.2), -0.1))
        report = an.dependence_experiment(base, other.f, other.g, unit_basis, 0.01)
        t = gk.record_times(0.01, 0.25)

        def at(src, s):
            # the field at the level's intended time, a multiple of 0.01 that the
            # k dt of record_times can miss by an ulp
            return src.fields[np.searchsorted(src.times, round(s, 9), side="right") - 1].values

        diff = [(at(base.f, s) - at(other.f, s), at(base.g, s) - at(other.g, s)) for s in t]
        f_dual = [norm_Hm1(sp.to_coeffs(fd, unit_basis), unit_basis) for fd, _ in diff]
        f_l1 = np.trapezoid([sp.norm_Lp(fd, unit_domain, 1) for fd, _ in diff], t)
        conv, conv_sq = np.zeros(unit_domain.n_grid), [0.0]
        for k in range(1, len(t)):
            conv = conv + 0.5 * (t[k] - t[k - 1]) * (diff[k - 1][1] + diff[k][1])
            conv_sq.append(pow_norm_Lp(sp.Field(conv, unit_domain), 2) ** 2)
        expected = {
            "f_L2_dual_plus_L1": math.sqrt(np.trapezoid(np.square(f_dual), t)) + f_l1,
            "f_L1_sqrt": math.sqrt(f_l1),
            "conv_g_L2": math.sqrt(np.trapezoid(conv_sq, t)),
        }
        assert report["rhs_components"] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert expected["conv_g_L2"] > 0.0


class TestConvergenceStudy:
    def test_constant_data_modes_at_noise_floor(self, unit_domain, unit_basis):
        data = make_problem_data(
            unit_domain, REG, phi0=sp.constant_field(0.3, unit_domain), t_final=0.1,
        )
        rows = an.convergence_study("modes", [4, 8, 16], data, unit_basis, 1e-2)
        assert all(row["error_Linf_dual"] <= 1e-12 for row in rows)

    def test_eps_cauchy_differences_decrease(self, unit_domain, unit_basis):
        data = make_problem_data(
            unit_domain, REG,
            phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.2)]),
            t_final=0.2,
        )
        rows = an.convergence_study("eps", [0.2, 0.1, 0.05, 0.025], data, unit_basis, 2e-3)
        diffs = [row["diff_Linf_dual"] for row in rows if "diff_Linf_dual" in row]
        assert len(diffs) == 3
        assert diffs[0] > diffs[1] > diffs[2]

    def test_dt_grids_that_do_not_nest_rejected_before_any_run(self, unit_domain, unit_basis, monkeypatch):
        data = make_problem_data(unit_domain, REG, t_final=0.1)

        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the schedule was checked")

        monkeypatch.setattr(gk, "project_initial_data", no_run)
        with pytest.raises(ConfigurationError, match=r"\(2\.11\) .* do not nest"):
            an.convergence_study("dt", [1e-2, 3e-3], data, unit_basis, 1e-2)

    def test_increasing_dt_schedule_names_the_multiple_rule(self, unit_domain, unit_basis, monkeypatch):
        # dyadic, but increasing: no dt is a whole multiple of the next
        data = make_problem_data(unit_domain, REG, t_final=0.1)
        monkeypatch.setattr(gk, "project_initial_data", lambda *args: pytest.fail("a run started"))
        with pytest.raises(ConfigurationError, match="do not nest: each dt must be a whole multiple of the next"):
            an.convergence_study("dt", [0.0025, 0.005, 0.01], data, unit_basis, 1e-2)

    def test_dt_slopes_reported(self, unit_domain, unit_basis):
        data = make_problem_data(
            unit_domain, REG,
            phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.1)]),
            t_final=0.2,
        )
        rows = an.convergence_study("dt", [1e-2, 5e-3, 2.5e-3], data, unit_basis, 1e-2)
        assert "slope" in rows[0]
        assert rows[0]["diff_to_next"] > rows[1]["diff_to_next"]

    def test_dt_diff_is_the_max_over_matched_levels(self, unit_domain, unit_basis):
        # A ratio-4 schedule whose last coarse step is truncated (0.1 -> 0.105):
        # diff_to_next is the largest dual norm of a coarse phi less the fine phi
        # at its time, oracle from the phi columns two simulate calls keep.
        data = make_problem_data(
            unit_domain, REG, phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.2)]), t_final=0.105,
        )
        rows = an.convergence_study("dt", [0.01, 0.0025], data, unit_basis, 0.01)
        columns = []
        for dt in (0.01, 0.0025):
            kept = []
            t = gk.simulate(data, unit_basis, dt, observers=[lambda k, level: kept.append(level[0].copy())]).t
            columns.append((t, np.array(kept)))
        (t_c, coarse), (t_f, fine) = columns
        assert len(t_c) == 12 and t_c[-1] - t_c[-2] == pytest.approx(0.005)
        matched = np.abs(t_f[None, :] - t_c[:, None]).argmin(axis=1)
        assert np.abs(t_f[matched] - t_c).max() <= 1e-12
        assert rows[0]["diff_to_next"] == sp.norm_Hm1_rows(coarse - fine[matched], unit_basis).max()
        assert rows[0]["diff_to_next"] > 0.0 and "diff_to_next" not in rows[1]

    def test_modes_error_is_the_max_over_levels_of_the_padded_difference(self, unit_domain):
        # 71 levels, so the runs cross a 64-level block: error_Linf_dual is the
        # largest dual norm of a coarse phi, zero-padded, less the reference phi,
        # oracle from the phi columns three simulate calls keep.
        data = make_problem_data(
            unit_domain, REG, phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.2), ((6,), 0.05)]), t_final=0.7,
        )
        sizes = [4, 8, 16]
        bases = [sp.build_basis(unit_domain, n) for n in sizes]
        rows = an.convergence_study("modes", sizes, data, bases[-1], 0.01)
        kept = {n: [] for n in sizes}
        for n, basis in zip(sizes, bases):
            gk.simulate(data, basis, 0.01, observers=[lambda k, level, n=n: kept[n].append(level[0].copy())])
        ref = np.array(kept[16])
        assert len(ref) == 71 and [row["n"] for row in rows] == [4, 8]
        for row, n in zip(rows, sizes):
            padded = np.hstack((np.array(kept[n]), np.zeros((len(ref), 16 - n))))
            assert row["error_Linf_dual"] == sp.norm_Hm1_rows(padded - ref, bases[-1]).max()
        assert rows[0]["error_Linf_dual"] > rows[1]["error_Linf_dual"] > 0.0

    def test_fractional_modes_schedule_rejected_before_any_run(self, unit_domain, unit_basis, monkeypatch):
        data = make_problem_data(unit_domain, REG, t_final=0.1)

        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the schedule was checked")

        monkeypatch.setattr(gk, "project_initial_data", no_run)
        with pytest.raises(ConfigurationError, match=r"\(2\.11\) a modes schedule must hold integers"):
            an.convergence_study("modes", [4.7, 8.0], data, unit_basis, 1e-2)

    def test_non_monotone_schedule_rejected(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, t_final=0.1)
        with pytest.raises(ConfigurationError, match=r"\(2\.11\) schedule must be strictly monotone"):
            an.convergence_study("eps", [0.2, 0.2, 0.1], data, unit_basis, 1e-2)
        with pytest.raises(ConfigurationError, match=r"\(2\.11\) unknown study kind 'volume'"):
            an.convergence_study("volume", [1.0, 2.0], data, unit_basis, 1e-2)
