import collections
import math

import numpy as np
import pytest

from conftest import make_problem_data
from thermoch import galerkin as gk
from thermoch import potentials as pot
from thermoch import spectral as sp
from thermoch.errors import CompatibilityError, ConfigurationError, RunFailure, StepFailure

REG = pot.regular_potential()
LOG = pot.logarithmic_potential(2.0)
OBS = pot.double_obstacle_potential(1.0)


def evaluate(state, data):
    basis = state.phi.basis
    return gk.evaluate(state, data, (data.f.project(basis), data.g.project(basis)))


class TestParams:
    def test_positivity_enforced_with_tag(self):
        with pytest.raises(ConfigurationError, match=r"\(2\.5\)"):
            gk.PhysicalParams(0.0, 0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="kappa2"):
            gk.PhysicalParams(1.0, 0.0, 1.0, 1.0, -2.0, 1.0)

    def test_any_a_accepted(self):
        gk.PhysicalParams(1.0, -3.0, 1.0, 1.0, 1.0, 1.0)


class TestSourceTerm:
    def test_piecewise_lookup(self, unit_domain):
        src = gk.SourceTerm(
            times=(0.0, 0.5),
            fields=(sp.constant_field(1.0, unit_domain), sp.constant_field(2.0, unit_domain)),
        )
        assert src.at(0.0).values[0] == 1.0
        assert src.at(0.499).values[0] == 1.0
        assert src.at(0.5).values[0] == 2.0
        assert src.at(9.0).values[0] == 2.0
        assert src.sup_norm() == 2.0

    def test_segment_validation(self, unit_domain):
        f = sp.constant_field(0.0, unit_domain)
        with pytest.raises(ValueError):
            gk.SourceTerm(times=(0.1,), fields=(f,))
        with pytest.raises(ValueError):
            gk.SourceTerm(times=(0.0, 0.0), fields=(f, f))


class TestCompatibility:
    def test_rho(self, unit_domain):
        data = make_problem_data(
            unit_domain, REG, gamma=2.0,
            f=gk.constant_source(sp.constant_field(-3.0, unit_domain)),
        )
        assert gk.rho(data) == pytest.approx(1.5)

    def test_band_quantities(self, unit_domain):
        data = make_problem_data(
            unit_domain, REG, gamma=2.0,
            f=gk.constant_source(sp.constant_field(1.0, unit_domain)),
            phi0=sp.constant_field(-0.25, unit_domain),
        )
        q = gk.compatibility_quantities(data)
        assert q["-rho - (mean phi0)^-"] == pytest.approx(-0.75)
        assert q["rho + (mean phi0)^+"] == pytest.approx(0.5)

    def test_logarithmic_initial_range_rejected(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, LOG, phi0=sp.constant_field(1.0, unit_domain))
        with pytest.raises(CompatibilityError, match=r"\(2\.14\).*max phi0"):
            gk.project_initial_data(data, unit_basis)

    def test_source_band_rejected(self, unit_domain, unit_basis):
        data = make_problem_data(
            unit_domain, LOG,
            f=gk.constant_source(sp.constant_field(5.0, unit_domain)),
        )
        with pytest.raises(CompatibilityError, match=r"\(2\.14\)"):
            gk.project_initial_data(data, unit_basis)


class TestProjection:
    def test_constant_initial_datum(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, phi0=sp.constant_field(0.3, unit_domain))
        state = gk.project_initial_data(data, unit_basis)
        assert state.t == 0.0
        assert state.phi.values[0] == pytest.approx(0.3, abs=1e-14)
        assert np.abs(state.phi.values[1:]).max() <= 1e-14

    def test_high_modes_dropped_norm_decreases(self, unit_domain, unit_basis):
        phi0 = sp.cosine_sum_field(unit_domain, 0.1, [((2,), 0.3), ((25,), 0.2)])
        data = make_problem_data(unit_domain, REG, phi0=phi0)
        state = gk.project_initial_data(data, unit_basis)
        assert sp.norm_L2(state.phi) <= sp.norm_Lp(phi0, 2) + 1e-12
        # the resolved content is kept exactly
        assert state.phi.values[2] == pytest.approx(0.3 / math.sqrt(2.0), abs=1e-12)


class TestMuReconstruction:
    def test_constant_rest_state(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, a=0.1, b=1.0)
        state = gk.GalerkinState(
            t=0.0,
            phi=sp.zero_coeffs(unit_basis),
            w=sp.zero_coeffs(unit_basis),
            v=sp.to_coeffs(sp.constant_field(0.2, unit_domain), unit_basis),
        )
        rec = evaluate(state, data)
        assert sp.mean_value(rec.mu) == pytest.approx(-0.1, abs=1e-14)
        assert np.abs(rec.mu.values[1:]).max() <= 1e-13

    def test_linearization_slope(self, unit_domain, unit_basis):
        # mu_2 / phi_2 tends to lambda_2 + yosida'(0) + pi'(0) as phi_2 -> 0
        data = make_problem_data(unit_domain, REG, eps=0.2)
        lam2 = unit_basis.eigenvalues[1]
        expected = lam2 + pot.yosida_derivative(REG, 0.2, 0.0) + (-1.0)
        slopes = []
        for amp in (1e-3, 1e-5):
            vals = np.zeros(unit_basis.n)
            vals[1] = amp
            state = gk.GalerkinState(
                t=0.0, phi=sp.Coeffs(vals, unit_basis),
                w=sp.zero_coeffs(unit_basis), v=sp.zero_coeffs(unit_basis),
            )
            slopes.append(evaluate(state, data).mu.values[1] / amp)
        assert slopes[1] == pytest.approx(expected, rel=1e-6)
        assert abs(slopes[1] - expected) <= abs(slopes[0] - expected) + 1e-12

    def test_obstacle_interior_selection_vanishes(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, OBS, eps=0.5)
        state = gk.GalerkinState(
            t=0.0,
            phi=sp.to_coeffs(sp.constant_field(0.5, unit_domain), unit_basis),
            w=sp.zero_coeffs(unit_basis),
            v=sp.zero_coeffs(unit_basis),
        )
        rec = evaluate(state, data)
        assert np.all(rec.xi.values == 0.0)

    def test_xi_matches_pointwise_regularization(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, eps=0.3)
        rng = np.random.default_rng(2)
        state = gk.GalerkinState(
            t=0.0, phi=sp.Coeffs(0.1 * rng.standard_normal(unit_basis.n), unit_basis),
            w=sp.zero_coeffs(unit_basis), v=sp.zero_coeffs(unit_basis),
        )
        rec = evaluate(state, data)
        grid = sp.to_field(state.phi).values
        assert np.array_equal(rec.xi.values, pot.yosida(REG, 0.3, grid))


class TestRhs:
    def test_rest_state_is_stationary(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, a=0.0)
        state = gk.GalerkinState(
            t=0.0, phi=sp.zero_coeffs(unit_basis),
            w=sp.zero_coeffs(unit_basis), v=sp.zero_coeffs(unit_basis),
        )
        dphi, dw, dv = gk.rhs(evaluate(state, data), data)
        for c in (dphi, dw, dv):
            assert np.abs(c.values).max() <= 1e-14

    def test_constant_state_reduction(self, unit_domain, unit_basis):
        f_bar, g_bar, c0, gamma, lam = 0.7, -0.3, 0.2, 1.5, 2.0
        data = make_problem_data(
            unit_domain, REG, gamma=gamma, lam=lam,
            f=gk.constant_source(sp.constant_field(f_bar, unit_domain)),
            g=gk.constant_source(sp.constant_field(g_bar, unit_domain)),
        )
        state = gk.GalerkinState(
            t=0.0,
            phi=sp.to_coeffs(sp.constant_field(c0, unit_domain), unit_basis),
            w=sp.to_coeffs(sp.constant_field(0.4, unit_domain), unit_basis),
            v=sp.to_coeffs(sp.constant_field(0.1, unit_domain), unit_basis),
        )
        dphi, dw, dv = gk.rhs(evaluate(state, data), data)
        assert sp.mean_value(dphi) == pytest.approx(f_bar - gamma * c0, abs=1e-12)
        assert sp.mean_value(dw) == pytest.approx(0.1, abs=1e-14)
        assert sp.mean_value(dv) == pytest.approx(
            g_bar - lam * (f_bar - gamma * c0), abs=1e-12
        )

    def test_second_mode_diagonal_action(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, gamma=1.0)
        vals = np.zeros(unit_basis.n)
        vals[1] = 0.05
        state = gk.GalerkinState(
            t=0.0, phi=sp.Coeffs(vals, unit_basis),
            w=sp.zero_coeffs(unit_basis), v=sp.zero_coeffs(unit_basis),
        )
        ev = evaluate(state, data)
        dphi, _, _ = gk.rhs(ev, data)
        lam2 = unit_basis.eigenvalues[1]
        assert dphi.values[1] == pytest.approx(
            -lam2 * ev.mu.values[1] - 1.0 * vals[1], rel=1e-12
        )


class TestStep:
    @pytest.mark.parametrize("scheme", gk.SCHEMES)
    def test_zero_state_unchanged(self, unit_domain, unit_basis, scheme):
        data = make_problem_data(unit_domain, REG, a=0.0)
        state = gk.GalerkinState(
            t=0.0, phi=sp.zero_coeffs(unit_basis),
            w=sp.zero_coeffs(unit_basis), v=sp.zero_coeffs(unit_basis),
        )
        out = gk.step(evaluate(state, data), data, 0.01, scheme)
        assert out.t == pytest.approx(0.01)
        for c in (out.phi, out.w, out.v):
            assert np.abs(c.values).max() <= 1e-13

    @pytest.mark.parametrize("scheme", gk.SCHEMES)
    def test_mean_recursion_exact(self, unit_domain, unit_basis, scheme):
        f_bar, gamma, dt = 0.4, 1.3, 0.02
        data = make_problem_data(
            unit_domain, REG, gamma=gamma,
            f=gk.constant_source(sp.constant_field(f_bar, unit_domain)),
            phi0=sp.cosine_sum_field(unit_domain, 0.2, [((1,), 0.1)]),
        )
        state = gk.project_initial_data(data, unit_basis)
        mean = sp.mean_value(state.phi)
        for _ in range(5):
            state = gk.step(evaluate(state, data), data, dt, scheme)
            mean = (mean + dt * f_bar) / (1.0 + gamma * dt)
            assert sp.mean_value(state.phi) == pytest.approx(mean, abs=1e-13)

    def test_invalid_arguments(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG)
        state = gk.project_initial_data(data, unit_basis)
        with pytest.raises(ValueError):
            gk.step(evaluate(state, data), data, -0.1)
        with pytest.raises(ValueError):
            gk.step(evaluate(state, data), data, 0.1, "leapfrog")

    @pytest.mark.parametrize("scheme", gk.SCHEMES)
    def test_consistent_with_rhs_vector_field(self, unit_domain, unit_basis, scheme):
        # one implicit step agrees with the explicit Euler step built from
        # ``rhs`` to second order, so both paths encode the same system
        data = make_problem_data(
            unit_domain, REG, a=0.2, gamma=1.5, lam=2.0,
            f=gk.constant_source(sp.constant_field(0.3, unit_domain)),
            g=gk.constant_source(sp.constant_field(-0.1, unit_domain)),
            phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.2)]),
            w0=sp.cosine_sum_field(unit_domain, 0.0, [((2,), 0.1)]),
            w1=sp.constant_field(0.05, unit_domain),
        )
        state = gk.project_initial_data(data, unit_basis)
        dphi, dw, dv = gk.rhs(evaluate(state, data), data)
        gaps = []
        for dt in (1e-4, 5e-5):
            out = gk.step(evaluate(state, data), data, dt, scheme)
            gap = max(
                sp.norm_L2(out.phi - (state.phi + dt * dphi)),
                sp.norm_L2(out.w - (state.w + dt * dw)),
                sp.norm_L2(out.v - (state.v + dt * dv)),
            )
            gaps.append(gap)
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.3)

    def test_self_convergence_first_order(self, unit_domain):
        basis = sp.build_basis(unit_domain, 8)
        data = make_problem_data(
            unit_domain, REG,
            phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.2)]),
            t_final=0.25,
        )
        errors = []
        ref = gk.simulate(data, basis, 0.25 / 512)[-1][0]
        for dt in (0.25 / 16, 0.25 / 32):
            end = gk.simulate(data, basis, dt)[-1][0]
            errors.append(sp.norm_L2(end.phi - ref.phi))
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.35)

    @pytest.mark.parametrize("scheme", gk.SCHEMES)
    def test_schemes_agree_to_first_order(self, unit_domain, unit_basis, scheme):
        data = make_problem_data(
            unit_domain, REG,
            phi0=sp.cosine_sum_field(unit_domain, 0.0, [((1,), 0.2)]),
            t_final=0.1,
        )
        state = gk.project_initial_data(data, unit_basis)
        out = gk.step(evaluate(state, data), data, 1e-4, scheme)
        assert np.isfinite(out.phi.values).all()


class TestSimulate:
    def test_zero_final_time_single_record(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, t_final=0.0)
        trajectory = gk.simulate(data, unit_basis, 0.01)
        assert len(trajectory) == 1
        assert trajectory[0][1].t == 0.0

    def test_deterministic_repetition(self, unit_domain, unit_basis):
        data = make_problem_data(
            unit_domain, REG,
            phi0=sp.cosine_sum_field(unit_domain, 0.1, [((2,), 0.2)]),
            t_final=0.2,
        )
        t1 = gk.simulate(data, unit_basis, 1e-2)
        t2 = gk.simulate(data, unit_basis, 1e-2)
        for (s1, r1), (s2, r2) in zip(t1, t2):
            assert np.array_equal(s1.phi.values, s2.phi.values)
            assert np.array_equal(s1.w.values, s2.w.values)
            assert np.array_equal(s1.v.values, s2.v.values)
            assert r1.energy == r2.energy

    def test_truncated_last_step(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, t_final=0.05)
        trajectory = gk.simulate(data, unit_basis, 0.02)
        times = [rec.t for _, rec in trajectory]
        assert times[-1] == pytest.approx(0.05, abs=1e-12)
        assert len(times) == 4  # 0, 0.02, 0.04, 0.05

    def test_observers_called_per_record(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, t_final=0.03)
        seen = []
        gk.simulate(data, unit_basis, 0.01, observers=[lambda s, r: seen.append(r.t)])
        assert len(seen) == 4

    def test_step_failure_triggers_halving(self, unit_domain, unit_basis, monkeypatch):
        data = make_problem_data(unit_domain, REG, t_final=0.02)
        original = gk.step
        calls = []

        def flaky(ev, dat, dt, scheme=gk.SEMI_IMPLICIT):
            calls.append(dt)
            if dt > 0.015:
                raise StepFailure("forced")
            return original(ev, dat, dt, scheme)

        monkeypatch.setattr(gk, "step", flaky)
        trajectory = gk.simulate(data, unit_basis, 0.02)
        assert trajectory[-1][1].t == pytest.approx(0.02)
        assert min(calls) <= 0.01

    def test_persistent_failure_preserves_partial_trajectory(
        self, unit_domain, unit_basis, monkeypatch
    ):
        data = make_problem_data(unit_domain, REG, t_final=1.0)
        original = gk.step

        def failing(ev, dat, dt, scheme=gk.SEMI_IMPLICIT):
            if ev.state.t >= 0.02 - 1e-12:
                raise StepFailure("forced")
            return original(ev, dat, dt, scheme)

        monkeypatch.setattr(gk, "step", failing)
        with pytest.raises(RunFailure) as info:
            gk.simulate(data, unit_basis, 0.01)
        partial = info.value.trajectory
        assert len(partial) == 3  # records at t = 0, 0.01, 0.02
        assert partial[-1][1].t == pytest.approx(0.02)

    @pytest.mark.parametrize("scheme", gk.SCHEMES)
    def test_non_finite_step_is_a_typed_failure(self, unit_domain, unit_basis, scheme, monkeypatch):
        data = make_problem_data(unit_domain, REG, t_final=1.0)
        name = {gk.SEMI_IMPLICIT: "_semi_implicit_phi", gk.BACKWARD_EULER: "_backward_euler_phi"}[scheme]
        original = getattr(gk, name)

        def blow_up(ev, *args):
            phi = original(ev, *args)
            return np.full_like(phi, np.nan) if ev.state.t >= 0.02 - 1e-12 else phi

        monkeypatch.setattr(gk, name, blow_up)
        with pytest.raises(RunFailure) as info:
            gk.simulate(data, unit_basis, 0.01, scheme)
        partial = info.value.trajectory
        assert len(partial) == 3  # the blow-up bisects down to the floor, then aborts
        assert all(np.isfinite(state.phi.values).all() for state, _ in partial)


class TestSharedEvaluation:
    def test_one_resolvent_solve_and_transform_per_level(self, unit_domain, unit_basis, monkeypatch):
        f = gk.SourceTerm(
            times=(0.0, 0.045),
            fields=(
                sp.constant_field(0.2, unit_domain),
                sp.cosine_sum_field(unit_domain, -0.2, [((1,), 0.1)]),
            ),
        )
        g = gk.SourceTerm(
            times=(0.0, 0.025),
            fields=(sp.constant_field(0.1, unit_domain), sp.constant_field(-0.3, unit_domain)),
        )
        data = make_problem_data(
            unit_domain, REG, f=f, g=g,
            phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.2)]), t_final=0.1,
        )
        counts = collections.Counter()
        projected = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(pot, "resolvent")
        counted(sp, "to_field")
        to_coeffs = sp.to_coeffs

        def recording(field, basis):
            projected.append(field)
            return to_coeffs(field, basis)

        monkeypatch.setattr(sp, "to_coeffs", recording)
        n_steps = 10
        trajectory = gk.simulate(data, unit_basis, 0.01)
        assert len(trajectory) == n_steps + 1
        assert counts["resolvent"] == n_steps + 1
        assert counts["to_field"] == n_steps + 1
        for field in f.fields + g.fields:
            assert sum(x is field for x in projected) == 1

    @pytest.mark.parametrize("spec", [REG, LOG, OBS], ids=lambda spec: spec.kind)
    def test_shared_values_equal_pointwise_functions(self, unit_domain, unit_basis, spec):
        eps, a = 0.2, 0.1
        data = make_problem_data(unit_domain, spec, eps=eps, a=a)
        rng = np.random.default_rng(5)
        state = gk.GalerkinState(
            t=0.0, phi=sp.Coeffs(0.6 * rng.standard_normal(unit_basis.n), unit_basis),
            w=sp.zero_coeffs(unit_basis), v=sp.zero_coeffs(unit_basis),
        )
        grid = sp.to_field(state.phi).values
        assert np.abs(grid).max() > 1.0  # both sides of the obstacle and log edges
        ev = evaluate(state, data)
        reg = pot.regularize(spec, eps, grid)
        assert np.array_equal(ev.xi.values, pot.yosida(spec, eps, grid))
        assert np.array_equal(reg.value, pot.yosida(spec, eps, grid))
        assert np.array_equal(reg.primitive(), pot.yosida_primitive(spec, eps, grid))
        assert np.array_equal(reg.slope(), pot.yosida_derivative(spec, eps, grid))
        bulk = pot.yosida_primitive(spec, eps, grid) + spec.pi_hat(grid) + a * grid
        assert ev.bulk == float(unit_basis.quadrature_weight * bulk.sum())


class TestScalarReductions:
    def test_heat_source_drives_thermal_rate(self, unit_domain):
        # f = 0, g = g0: the constant reduction gives v = w1 + g0 t + lam (c0 - c)
        basis = sp.build_basis(unit_domain, 8)
        c0, g0, w1, lam = 0.3, 0.4, 0.1, 2.0
        data = make_problem_data(
            unit_domain, REG, lam=lam,
            g=gk.constant_source(sp.constant_field(g0, unit_domain)),
            phi0=sp.constant_field(c0, unit_domain),
            w1=sp.constant_field(w1, unit_domain),
            t_final=1.0,
        )
        errors = []
        for dt in (1e-2, 5e-3):
            state, _ = gk.simulate(data, basis, dt)[-1]
            c = c0 * math.exp(-1.0)
            v_exact = w1 + g0 + lam * (c0 - c)
            errors.append(abs(sp.mean_value(state.v) - v_exact))
        assert errors[0] <= 3e-1 * 1e-2  # first-order scheme error
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.2)

    @pytest.mark.parametrize("scheme", gk.SCHEMES)
    def test_singular_potentials_step_stably(self, unit_domain, scheme):
        basis = sp.build_basis(unit_domain, 8)
        cases = [
            (OBS, 0.05, sp.cosine_sum_field(unit_domain, 0.0, [((1,), 0.9)]), 0.5),
            (LOG, 0.10, sp.cosine_sum_field(unit_domain, 0.0, [((1,), 0.5)]), 0.0),
        ]
        for spec, eps, phi0, f_bar in cases:
            data = make_problem_data(
                unit_domain, spec, eps=eps,
                f=gk.constant_source(sp.constant_field(f_bar, unit_domain)),
                phi0=phi0, t_final=0.2,
            )
            trajectory = gk.simulate(data, basis, 2e-3, scheme)
            grid = sp.to_field(trajectory[-1][0].phi).values
            assert np.isfinite(grid).all()
            assert np.abs(grid).max() <= 1.5  # stays near the physical range


class TestSeparationDynamics:
    def _unstable_setup(self, spec, eps):
        domain = sp.BoxDomain((16.0,), 128)
        basis = sp.build_basis(domain, 48)
        terms = [((k,), 0.15 * math.cos(k * 1.7)) for k in range(1, 9)]
        data = make_problem_data(
            domain, spec, eps=eps, gamma=0.01, b=0.5, kappa2=0.5, lam=1.0,
            phi0=sp.cosine_sum_field(domain, 0.05, terms), t_final=40.0,
        )
        return basis, data

    def test_quartic_well_coarsening(self):
        # unstable mean state: amplitudes grow toward the wells and the
        # energy decays monotonically after the initial transient
        basis, data = self._unstable_setup(REG, 0.05)
        trajectory = gk.simulate(data, basis, 2e-2)
        energies = [rec.energy for _, rec in trajectory]
        assert all(b <= a + 1e-6 for a, b in zip(energies[5:], energies[6:]))
        assert energies[-1] < energies[0] - 1.0
        final = sp.to_field(trajectory[-1][0].phi).values
        assert 0.9 <= np.abs(final).max() <= 1.1
        import thermoch.analysis as an

        assert an.apriori_monitor(trajectory, data).violations == []

    def test_obstacle_excursion_scales_with_eps(self):
        # the regularized obstacle confines the state to [-1, 1] up to an
        # excursion of order eps * |pi| at the saturated plateaus
        basis, data = self._unstable_setup(OBS, 0.05)
        trajectory = gk.simulate(data, basis, 1e-2)
        final = sp.to_field(trajectory[-1][0].phi).values
        assert np.abs(final).max() <= 1.0 + 10.0 * 0.05
        assert np.abs(final).max() >= 0.9


class TestConcurrency:
    def test_parallel_runs_match_serial(self, unit_domain):
        import concurrent.futures

        basis = sp.build_basis(unit_domain, 8)

        def run(amplitude):
            data = make_problem_data(
                unit_domain, REG,
                phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), amplitude)]),
                t_final=0.1,
            )
            trajectory = gk.simulate(data, basis, 2e-3)
            return trajectory[-1][0].phi.values

        amplitudes = [0.05, 0.1, 0.15, 0.2]
        serial = [run(a) for a in amplitudes]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(run, amplitudes))
        for s, p in zip(serial, parallel):
            assert np.array_equal(s, p)


class TestTwoDimensional:
    def test_rectangle_run_is_clean(self):
        domain = sp.BoxDomain((1.0, 1.0), 16)
        basis = sp.build_basis(domain, 25)
        phi0 = sp.cosine_sum_field(domain, 0.2, [((1, 0), 0.1), ((1, 1), 0.05)])
        data = make_problem_data(domain, REG, phi0=phi0, t_final=0.1)
        trajectory = gk.simulate(data, basis, 2e-3)
        assert all(
            math.isfinite(v) for _, rec in trajectory for v in rec.norms.values()
        )
        import thermoch.analysis as an

        assert an.mean_law_check(trajectory, data).max_error_discrete <= 1e-12

    def test_constant_reduction_matches_interval_run(self):
        # spatially constant dynamics are dimension independent
        d1 = sp.BoxDomain((1.0,), 16)
        d2 = sp.BoxDomain((2.0, 0.5), 8)
        means = []
        for domain in (d1, d2):
            basis = sp.build_basis(domain, 4)
            data = make_problem_data(
                domain, REG, phi0=sp.constant_field(0.3, domain), t_final=0.2,
            )
            trajectory = gk.simulate(data, basis, 0.01)
            means.append([rec.mean_phi for _, rec in trajectory])
        assert np.allclose(means[0], means[1], atol=1e-13)


class TestEnergy:
    def test_recorded_energy_matches_independent_oracle(self, unit_domain, unit_basis):
        # re-derive E from the raw state, integrating the regularized graph
        # by Simpson quadrature instead of the envelope closed form
        data = make_problem_data(
            unit_domain, REG, a=0.3, eps=0.2,
            phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.3)]),
            w0=sp.cosine_sum_field(unit_domain, 0.0, [((2,), 0.2)]),
            w1=sp.constant_field(0.1, unit_domain),
            t_final=0.05,
        )

        def primitive_quadrature(r, n=400):
            s = np.linspace(0.0, r, 2 * n + 1)
            y = pot.yosida(REG, 0.2, s)
            h = r / (2 * n) if r != 0.0 else 0.0
            return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum())

        def oracle(state):
            p = data.params
            grid = sp.to_field(state.phi).values
            w_quad = state.phi.basis.quadrature_weight
            bulk = sum(
                w_quad * (primitive_quadrature(r) + 0.25 * (1 - 2 * r**2) + p.a * r)
                for r in grid
            )
            return (
                0.5 * sp.grad_norm(state.phi) ** 2
                + bulk
                + 0.5 * p.b / p.lambda_latent * sp.norm_L2(state.v) ** 2
                + 0.5 * p.b * p.kappa2 / p.lambda_latent * sp.grad_norm(state.w) ** 2
            )

        trajectory = gk.simulate(data, unit_basis, 0.01)
        for state, rec in trajectory[:3]:
            assert rec.energy == pytest.approx(oracle(state), abs=1e-8)

    def test_identity_along_exact_flow(self, unit_domain):
        # dE/dt + dissipation - source vanishes for the continuous-time system;
        # central finite differences of E along a fine trajectory converge to it
        basis = sp.build_basis(unit_domain, 8)
        data = make_problem_data(
            unit_domain, REG, a=0.2,
            f=gk.constant_source(sp.constant_field(0.1, unit_domain)),
            phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.15)]),
            t_final=0.02,
        )

        def residual_at_midpoint(dt):
            traj = gk.simulate(data, basis, dt)
            recs = [r for _, r in traj]
            k = len(recs) // 2
            dE = (recs[k + 1].energy - recs[k - 1].energy) / (recs[k + 1].t - recs[k - 1].t)
            mid = recs[k]
            return abs(dE + mid.dissipation_mu + mid.dissipation_w - mid.source_power)

        r_coarse = residual_at_midpoint(1e-3)
        r_fine = residual_at_midpoint(25e-5)
        assert r_fine < r_coarse
        assert r_fine / max(r_coarse, 1e-300) < 0.5

    def test_lyapunov_defect_first_order(self, unit_domain):
        # with f = g = 0 and a = 0 the energy plus the cumulative dissipation
        # integral is non-increasing up to a per-step defect of order dt
        basis = sp.build_basis(unit_domain, 32)
        data = make_problem_data(
            unit_domain, REG, eps=0.1,
            phi0=sp.cosine_sum_field(unit_domain, 0.0, [((1,), 0.1), ((2,), 0.05)]),
            t_final=0.5,
        )

        def max_defect(dt):
            trajectory = gk.simulate(data, basis, dt)
            acc, prev, g_prev, worst = 0.0, None, None, -np.inf
            for _, rec in trajectory:
                if prev is not None:
                    acc += 0.5 * (rec.t - prev.t) * (
                        prev.dissipation_mu + prev.dissipation_w
                        + rec.dissipation_mu + rec.dissipation_w
                    )
                g = rec.energy + acc
                if g_prev is not None:
                    worst = max(worst, g - g_prev)
                g_prev, prev = g, rec
            return worst

        coarse, fine = max_defect(2e-3), max_defect(1e-3)
        assert coarse <= 40.0 * 2e-3
        assert coarse / fine >= 1.5

    def test_mean_band_invariant_with_switching_source(self, unit_domain, unit_basis):
        src = gk.SourceTerm(
            times=(0.0, 0.5),
            fields=(sp.constant_field(0.8, unit_domain), sp.constant_field(-0.8, unit_domain)),
        )
        data = make_problem_data(
            unit_domain, REG, gamma=1.0, f=src,
            phi0=sp.constant_field(0.4, unit_domain), t_final=1.0,
        )
        trajectory = gk.simulate(data, unit_basis, 0.01)
        band = gk.compatibility_quantities(data)
        lo, hi = band["-rho - (mean phi0)^-"], band["rho + (mean phi0)^+"]
        for _, rec in trajectory:
            assert lo - 1e-12 <= rec.mean_phi <= hi + 1e-12
