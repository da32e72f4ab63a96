import collections
import math
import tracemalloc

import numpy as np
import pytest

import conftest
from conftest import (
    constant_source, evaluate, initial_state, make_problem_data, mean_value, pow_norm_Lp, rhs, simulate_levels,
    step_state, zero_state,
)
from thermoch import analysis as an
from thermoch import galerkin as gk
from thermoch import potentials as pot
from thermoch import spectral as sp
from thermoch.errors import ConfigurationError, RunFailure, StepFailure

REG = pot.regular_potential()
LOG = pot.logarithmic_potential(2.0)
OBS = pot.double_obstacle_potential(1.0)


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
        data = make_problem_data(unit_domain, REG, f=src)
        for t, value in ((0.0, 1.0), (0.499, 1.0), (0.5, 2.0), (9.0, 2.0)):
            assert src.fields[data.segments(t)[0]].values[0] == value
        assert src.sup_norm() == 2.0

    def test_segment_validation(self, unit_domain):
        f = sp.constant_field(0.0, unit_domain)
        with pytest.raises(ConfigurationError, match=r"^\(2\.11\) a source's first segment must start at 0"):
            gk.SourceTerm(times=(0.1,), fields=(f,))
        with pytest.raises(ConfigurationError, match=r"^\(2\.11\) a source's start times must be strictly increasing"):
            gk.SourceTerm(times=(0.0, 0.0), fields=(f, f))

    @pytest.mark.parametrize("times, n_fields", [
        ((0.0, math.nan), 2), ((0.0, 0.5, math.nan), 3), ((math.nan,), 1), ((), 0), ((0.0,), 2),
    ], ids=["nan-switch", "nan-last", "nan-start", "empty", "unpaired"])
    def test_every_schedule_fault_is_one_tagged_line(self, unit_domain, times, n_fields):
        # "strictly increasing" is stated as t0 < t1, so a NaN time breaks it.
        fields = (sp.constant_field(0.0, unit_domain),) * n_fields
        with pytest.raises(ConfigurationError) as info:
            gk.SourceTerm(times=times, fields=fields)
        assert all(line.startswith("(2.11) ") for line in str(info.value).splitlines())


class TestCompatibility:
    # rho = sup|f| / gamma: 1 / 2 for f = 1, and 3 / 2 for the negative source f = -3.
    @pytest.mark.parametrize("f, band", [(1.0, (-0.75, 0.5)), (-3.0, (-1.75, 1.5))], ids=["f=1", "f=-3"])
    def test_band_quantities(self, unit_domain, f, band):
        data = make_problem_data(
            unit_domain, REG, gamma=2.0,
            f=constant_source(sp.constant_field(f, unit_domain)),
            phi0=sp.constant_field(-0.25, unit_domain),
        )
        q = gk.compatibility_quantities(data)
        assert q["-rho - (mean phi0)^-"] == pytest.approx(band[0])
        assert q["rho + (mean phi0)^+"] == pytest.approx(band[1])

    def test_logarithmic_initial_range_rejected(self, unit_domain):
        with pytest.raises(ConfigurationError, match=r"\(2\.14\).*max phi0"):
            make_problem_data(unit_domain, LOG, phi0=sp.constant_field(1.0, unit_domain))

    def test_source_band_rejected(self, unit_domain):
        with pytest.raises(ConfigurationError, match=r"\(2\.14\)"):
            make_problem_data(unit_domain, LOG, f=constant_source(sp.constant_field(5.0, unit_domain)))


class TestProjection:
    def test_constant_initial_datum(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, phi0=sp.constant_field(0.3, unit_domain))
        phi, _, _ = gk.project_initial_data(data, unit_basis)
        assert phi[0] == pytest.approx(0.3, abs=1e-14)
        assert np.abs(phi[1:]).max() <= 1e-14

    def test_high_modes_dropped_norm_decreases(self, unit_domain, unit_basis):
        phi0 = sp.cosine_sum_field(unit_domain, 0.1, [((2,), 0.3), ((25,), 0.2)])
        data = make_problem_data(unit_domain, REG, phi0=phi0)
        phi, _, _ = gk.project_initial_data(data, unit_basis)
        assert np.linalg.norm(phi) <= pow_norm_Lp(phi0, 2) + 1e-12
        # the resolved content is kept exactly
        assert phi[2] == pytest.approx(0.3 / math.sqrt(2.0), abs=1e-12)

    def test_data_from_another_domain_rejected(self, unit_basis):
        # The same 64 samples on twice the length: projected onto the unit
        # basis they would take the wrong weight and eigenvalues.
        other = sp.BoxDomain((2.0,), 64)
        data = make_problem_data(other, REG, phi0=sp.constant_field(0.3, other))
        for run in (lambda: gk.project_initial_data(data, unit_basis),
                    lambda: data.f.project(unit_basis),
                    lambda: gk.simulate(data, unit_basis, 0.5)):
            with pytest.raises(ValueError, match="different domains"):
                run()


class TestMuReconstruction:
    def test_constant_rest_state(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, a=0.1, b=1.0)
        state = zero_state(unit_basis)._replace(v=sp.project(sp.constant_field(0.2, unit_domain), unit_basis))
        mu = evaluate(state, data)[1]
        assert mean_value(mu, unit_basis) == pytest.approx(-0.1, abs=1e-14)
        assert np.abs(mu[1:]).max() <= 1e-13

    def test_linearization_slope(self, unit_domain, unit_basis):
        # mu_2 / phi_2 tends to lambda_2 + yosida'(0) + pi'(0) as phi_2 -> 0
        data = make_problem_data(unit_domain, REG, eps=0.2)
        lam2 = unit_basis.eigenvalues[1]
        expected = lam2 + pot.regularize(REG, 0.2, 0.0).slope() + (-1.0)
        slopes = []
        for amp in (1e-3, 1e-5):
            vals = np.zeros(unit_basis.n)
            vals[1] = amp
            state = zero_state(unit_basis)._replace(phi=vals)
            slopes.append(evaluate(state, data)[1][1] / amp)
        assert slopes[1] == pytest.approx(expected, rel=1e-6)
        assert abs(slopes[1] - expected) <= abs(slopes[0] - expected) + 1e-12

    def test_obstacle_interior_selection_vanishes(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, OBS, eps=0.5)
        state = zero_state(unit_basis)._replace(phi=sp.project(sp.constant_field(0.5, unit_domain), unit_basis))
        xi = evaluate(state, data)[2]
        assert np.all(xi == 0.0)

    def test_xi_matches_pointwise_regularization(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, eps=0.3)
        rng = np.random.default_rng(2)
        state = zero_state(unit_basis)._replace(phi=0.1 * rng.standard_normal(unit_basis.n))
        xi = evaluate(state, data)[2]
        grid = sp.to_field(state.phi, unit_basis)
        assert np.array_equal(xi, pot.regularize(REG, 0.3, grid).value)


class TestRhs:
    def test_rest_state_is_stationary(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, a=0.0)
        dphi, dw, dv = rhs(zero_state(unit_basis), data)
        for c in (dphi, dw, dv):
            assert np.abs(c).max() <= 1e-14

    def test_constant_state_reduction(self, unit_domain, unit_basis):
        f_bar, g_bar, c0, gamma, lam = 0.7, -0.3, 0.2, 1.5, 2.0
        data = make_problem_data(
            unit_domain, REG, gamma=gamma, lam=lam,
            f=constant_source(sp.constant_field(f_bar, unit_domain)),
            g=constant_source(sp.constant_field(g_bar, unit_domain)),
        )
        state = conftest.State(0.0, *(sp.project(sp.constant_field(c, unit_domain), unit_basis) for c in (c0, 0.4, 0.1)),
                               unit_basis)
        dphi, dw, dv = rhs(state, data)
        assert mean_value(dphi, unit_basis) == pytest.approx(f_bar - gamma * c0, abs=1e-12)
        assert mean_value(dw, unit_basis) == pytest.approx(0.1, abs=1e-14)
        assert mean_value(dv, unit_basis) == pytest.approx(
            g_bar - lam * (f_bar - gamma * c0), abs=1e-12
        )

    def test_second_mode_diagonal_action(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, gamma=1.0)
        vals = np.zeros(unit_basis.n)
        vals[1] = 0.05
        state = zero_state(unit_basis)._replace(phi=vals)
        mu = evaluate(state, data)[1]
        dphi, _, _ = rhs(state, data)
        lam2 = unit_basis.eigenvalues[1]
        assert dphi[1] == pytest.approx(
            -lam2 * mu[1] - 1.0 * vals[1], rel=1e-12
        )


class TestStep:
    @pytest.mark.parametrize("scheme", gk.SCHEMES)
    def test_zero_state_unchanged(self, unit_domain, unit_basis, scheme):
        data = make_problem_data(unit_domain, REG, a=0.0)
        out, _ = step_state(zero_state(unit_basis), data, 0.01, scheme)
        assert out.t == pytest.approx(0.01)
        for c in (out.phi, out.w, out.v):
            assert np.abs(c).max() <= 1e-13

    @pytest.mark.parametrize("scheme", gk.SCHEMES)
    def test_mean_recursion_exact(self, unit_domain, unit_basis, scheme):
        f_bar, gamma, dt = 0.4, 1.3, 0.02
        data = make_problem_data(
            unit_domain, REG, gamma=gamma,
            f=constant_source(sp.constant_field(f_bar, unit_domain)),
            phi0=sp.cosine_sum_field(unit_domain, 0.2, [((1,), 0.1)]),
        )
        state = initial_state(data, unit_basis)
        mean = mean_value(state.phi, unit_basis)
        for _ in range(5):
            state, _ = step_state(state, data, dt, scheme)
            mean = (mean + dt * f_bar) / (1.0 + gamma * dt)
            assert mean_value(state.phi, unit_basis) == pytest.approx(mean, abs=1e-13)

    def test_invalid_arguments(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG)
        state = initial_state(data, unit_basis)
        with pytest.raises(ValueError):
            step_state(state, data, -0.1)
        with pytest.raises(ValueError):
            step_state(state, data, 0.1, "leapfrog")

    def test_unknown_scheme_raises_configuration_error(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG)
        with pytest.raises(ConfigurationError, match=r"^\(2\.11\) scheme must be one of .*, got 'leapfrog'$"):
            gk.step_operator(unit_basis, data.params, 0.01, "leapfrog")

    def test_simulate_rejects_unknown_scheme_before_level_0(self, unit_domain, unit_basis):
        # t_final = 0 records one level and takes no step
        data = make_problem_data(unit_domain, REG, t_final=0.0)
        with pytest.raises(ConfigurationError, match=r"^\(2\.11\) scheme must be one of .*, got 'nosuch'$"):
            gk.simulate(data, unit_basis, 0.1, "nosuch")

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_step_operator_rejects_non_positive_dt(self, unit_basis, dt):
        params = gk.PhysicalParams(1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match=rf"^\(2\.11\) dt must be positive, got {dt}$"):
            gk.step_operator(unit_basis, params, dt, gk.SEMI_IMPLICIT)

    def test_non_finite_step_operator_is_a_configuration_error(self, unit_domain, unit_basis):
        # dt^2 overflows; no numpy warning may escape (they are errors here)
        data = make_problem_data(unit_domain, REG, t_final=1e300)
        with pytest.raises(ConfigurationError, match=r"\(2\.11\) dt = 1e\+299 is too large"):
            gk.simulate(data, unit_basis, 1e299)
        with pytest.raises(ConfigurationError):
            gk.step_operator(unit_basis, data.params, 1e299, gk.SEMI_IMPLICIT)

    @pytest.mark.parametrize("scheme", gk.SCHEMES)
    def test_cached_operator_steps_bit_identical_to_fresh(self, unit_domain, unit_basis, scheme, monkeypatch):
        # 0.055 = 0.01 + 0.01 (the forced first step, bisected) + 0.02 + 0.015 (truncated)
        data = make_problem_data(
            unit_domain, LOG, a=0.1,
            f=constant_source(sp.constant_field(0.2, unit_domain)),
            g=constant_source(sp.constant_field(-0.1, unit_domain)),
            phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.3)]),
            w1=sp.constant_field(0.05, unit_domain), t_final=0.055,
        )
        original = gk.step
        operators = collections.defaultdict(set)

        def checked(phi, w, v, nl, f, g, dat, operator):
            dt = operator.dt
            if np.array_equal(phi, first_phi) and dt == 0.02:
                raise StepFailure("forced")
            operators[dt].add(id(operator))
            *cached, reg = original(phi, w, v, nl, f, g, dat, operator)
            fresh_op = gk.step_operator(unit_basis, dat.params, dt, operator.scheme)
            *fresh, fresh_reg = original(phi, w, v, nl, f, g, dat, fresh_op)
            for a, b in zip(cached, fresh):
                assert np.array_equal(a, b)
            assert (reg is None) == (fresh_reg is None)
            if reg is not None:
                assert np.array_equal(reg.value, fresh_reg.value)
            return *cached, reg

        first_phi = gk.project_initial_data(data, unit_basis)[0]

        monkeypatch.setattr(gk, "step", checked)
        trajectory = gk.simulate(data, unit_basis, 0.02, scheme)
        assert trajectory.t == pytest.approx([0.0, 0.02, 0.04, 0.055])
        assert sorted(operators) == pytest.approx([0.01, 0.015, 0.02])
        # one operator per step size: the two halves and both full steps share theirs
        assert all(len(ids) == 1 for ids in operators.values())

    @pytest.mark.parametrize("scheme", gk.SCHEMES)
    def test_consistent_with_rhs_vector_field(self, unit_domain, unit_basis, scheme):
        # one implicit step agrees with the explicit Euler step built from
        # ``rhs`` to second order, so both paths encode the same system
        data = make_problem_data(
            unit_domain, REG, a=0.2, gamma=1.5, lam=2.0,
            f=constant_source(sp.constant_field(0.3, unit_domain)),
            g=constant_source(sp.constant_field(-0.1, unit_domain)),
            phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.2)]),
            w0=sp.cosine_sum_field(unit_domain, 0.0, [((2,), 0.1)]),
            w1=sp.constant_field(0.05, unit_domain),
        )
        state = initial_state(data, unit_basis)
        dphi, dw, dv = rhs(state, data)
        gaps = []
        for dt in (1e-4, 5e-5):
            out, _ = step_state(state, data, dt, scheme)
            gap = max(
                np.linalg.norm(out.phi - (state.phi + dt * dphi)),
                np.linalg.norm(out.w - (state.w + dt * dw)),
                np.linalg.norm(out.v - (state.v + dt * dv)),
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
        ref = simulate_levels(data, basis, 0.25 / 512)[1][-1]
        for dt in (0.25 / 16, 0.25 / 32):
            end = simulate_levels(data, basis, dt)[1][-1]
            errors.append(np.linalg.norm(end.phi - ref.phi))
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.35)

    @pytest.mark.parametrize("scheme", gk.SCHEMES)
    def test_schemes_agree_to_first_order(self, unit_domain, unit_basis, scheme):
        data = make_problem_data(
            unit_domain, REG,
            phi0=sp.cosine_sum_field(unit_domain, 0.0, [((1,), 0.2)]),
            t_final=0.1,
        )
        out, _ = step_state(initial_state(data, unit_basis), data, 1e-4, scheme)
        assert np.isfinite(out.phi).all()


class TestSimulate:
    def test_zero_final_time_single_record(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, t_final=0.0)
        trajectory = gk.simulate(data, unit_basis, 0.01)
        assert len(trajectory) == 1
        assert trajectory.t.tolist() == [0.0]
        assert all(col.shape == (1,) for col in trajectory.record.values())
        assert trajectory.w_sums.shape == (1, 2)

    def test_deterministic_repetition(self, unit_domain, unit_basis):
        data = make_problem_data(
            unit_domain, REG,
            phi0=sp.cosine_sum_field(unit_domain, 0.1, [((2,), 0.2)]),
            t_final=0.2,
        )
        (t1, states1), (t2, states2) = (simulate_levels(data, unit_basis, 1e-2) for _ in range(2))
        for s1, s2 in zip(states1, states2, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(s1[1:4], s2[1:4]))
        assert np.array_equal(t1.record["energy"], t2.record["energy"])

    def test_truncated_last_step(self, unit_domain, unit_basis):
        data = make_problem_data(unit_domain, REG, t_final=0.05)
        trajectory = gk.simulate(data, unit_basis, 0.02)
        times = trajectory.t
        assert times[-1] == pytest.approx(0.05, abs=1e-12)
        assert len(times) == 4  # 0, 0.02, 0.04, 0.05

    def test_run_levels_fold_into_the_record(self, unit_domain, unit_basis):
        # a run yields each level once, in order, as its coefficients of phi,
        # w, v and mu, and its record is what compute_record makes of them
        data = make_problem_data(unit_domain, REG, t_final=0.035)
        sources = (data.f.project(unit_basis), data.g.project(unit_basis))
        for scheme in gk.SCHEMES:
            run = gk.Run(data, unit_basis, 0.01, scheme)
            seen = [(k, level.copy()) for k, level in run]
            trajectory = run.trajectory()
            assert [k for k, _ in seen] == list(range(len(trajectory)))
            assert trajectory.t.tolist() == gk.record_times(0.01, 0.035) == run.times
            coeffs = np.array([level for _, level in seen])
            assert coeffs.shape == (len(trajectory), 4, unit_basis.n)
            assert np.array_equal(coeffs[0, :3], gk.project_initial_data(data, unit_basis))
            evals = [gk.evaluate(phi, v, data, unit_basis) for phi, _, v, _ in coeffs]
            assert all(np.array_equal(level[3], ev[1]) for level, ev in zip(coeffs, evals))
            rec = trajectory.record
            scalars = np.array([rec["mean_phi_exact"], [ev[3] for ev in evals], rec["xi_L1"], rec["xi_L6"]])
            folded = gk.compute_record(trajectory.t, coeffs, scalars, data, unit_basis, sources)
            for name, col in trajectory.record.items():
                assert np.array_equal(col, folded.record[name]), name
            assert np.array_equal(trajectory.w_sums, folded.w_sums)

    @pytest.mark.parametrize("t_final,levels", [(0.0, 1), (0.63, 64), (0.64, 65), (1.28, 129)])
    def test_run_blocks_are_its_levels(self, unit_domain, unit_basis, t_final, levels):
        # blocks() yields each full block and, after the last level, the partial
        # one: together they are the levels that a second run yields one by one
        data = make_problem_data(
            unit_domain, REG, phi0=sp.cosine_sum_field(unit_domain, 0.1, [((2,), 0.2)]), t_final=t_final,
        )
        run, again = gk.Run(data, unit_basis, 0.01), gk.Run(data, unit_basis, 0.01)
        blocks = [block.copy() for block in run.blocks()]
        assert len(run.times) == levels
        assert len(blocks) == math.ceil(levels / gk.ROW_BLOCK)
        assert all(len(block) == gk.ROW_BLOCK for block in blocks[:-1])
        assert np.array_equal(np.concatenate(blocks), np.array([level.copy() for _, level in again]))
        trajectory, expected = run.trajectory(), again.trajectory()
        assert trajectory.record.keys() == expected.record.keys()
        for name, col in expected.record.items():
            assert np.array_equal(trajectory.record[name], col), name
        assert np.array_equal(trajectory.w_sums, expected.w_sums)

    def test_observers_called_per_record(self, unit_domain, unit_basis, monkeypatch):
        # The contract that timing harnesses wrap: each observer is called once
        # per level, in order, with the level index and the level's (4 x n)
        # row as two positional arguments, and the last block is folded
        # (compute_record) only after the last level's observers return; runs
        # of 5, 64 and 71 levels end in a partial, a full and a second block.
        events, fold = [], gk.compute_record

        def observer(*args, **kwargs):
            assert not kwargs and len(args) == 2
            k, level = args
            assert isinstance(level, np.ndarray) and level.shape == (4, unit_basis.n)
            events.append(("level", k))

        def logged(t, *args):
            events.append(("fold", len(t)))
            return fold(t, *args)

        monkeypatch.setattr(gk, "compute_record", logged)
        for t_final, levels in ((0.035, 5), (0.63, 64), (0.7, 71)):
            events.clear()
            data = make_problem_data(unit_domain, REG, t_final=t_final)
            assert len(gk.simulate(data, unit_basis, 0.01, observers=[observer])) == levels
            assert [k for kind, k in events if kind == "level"] == list(range(levels))
            assert [n for kind, n in events if kind == "fold"] == [64] * (levels // 64) + [levels % 64] * (levels % 64 > 0)
            assert events[-2:] == [("level", levels - 1), ("fold", levels % 64 or 64)]

    def test_step_failure_triggers_halving(self, unit_domain, unit_basis, monkeypatch):
        # Every step is bisected; (0.2 + 0.05) + 0.05 rounds to 0.3, not to the
        # recorded 0.2 + 0.1 = 0.30000000000000004: the levels take the record times.
        data = make_problem_data(unit_domain, REG, t_final=0.4)
        original = gk.step
        calls = []

        def flaky(*args):
            dt = args[7].dt
            calls.append(dt)
            if dt > 0.075:
                raise StepFailure("forced")
            return original(*args)

        monkeypatch.setattr(gk, "step", flaky)
        trajectory = gk.simulate(data, unit_basis, 0.1)
        times = gk.record_times(0.1, 0.4)
        assert len(trajectory) == len(times) == 5
        assert trajectory.t.tolist() == times
        assert all(col.shape[0] == 5 for col in trajectory.record.values())
        assert len(calls) == 12 and sum(dt <= 0.05 for dt in calls) == 8  # each step tried, then halved

    def test_persistent_failure_preserves_partial_trajectory(
        self, unit_domain, unit_basis, monkeypatch
    ):
        data = make_problem_data(unit_domain, REG, t_final=1.0)
        original = gk.step
        calls = []

        def failing(*args):
            calls.append(args[7].dt)
            if len(calls) > 2:  # every step from t = 0.02 on, and its bisections
                raise StepFailure("forced")
            return original(*args)

        monkeypatch.setattr(gk, "step", failing)
        with pytest.raises(RunFailure) as info:
            gk.simulate(data, unit_basis, 0.01)
        partial = info.value.trajectory
        assert len(partial) == 3  # records at t = 0, 0.01, 0.02
        assert partial.t[-1] == pytest.approx(0.02)
        assert all(col.shape[0] == 3 for col in partial.record.values())

    @pytest.mark.parametrize("scheme", gk.SCHEMES)
    def test_level_loop_constructs_no_wrappers(self, unit_domain, unit_basis, scheme, monkeypatch):
        # A Field is made where parsed data enters (here, the problem data)
        # and nowhere in the level loop: as many for 100 levels as for 10.
        made = []

        def counting(self, *args, _init=sp.Field.__init__, **kwargs):
            made[-1] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(sp.Field, "__init__", counting)
        for t_final in (0.1, 1.0):
            made.append(0)
            f = gk.SourceTerm((0.0, 0.05), (sp.constant_field(0.2, unit_domain), sp.constant_field(-0.2, unit_domain)))
            data = make_problem_data(
                unit_domain, LOG, f=f, phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.3)]), t_final=t_final,
            )
            assert len(gk.simulate(data, unit_basis, 0.01, scheme)) == round(100 * t_final) + 1
        assert made[0] == made[1] > 0

    @pytest.mark.parametrize("command, runs", [
        (lambda data, basis: gk.simulate(data, basis, 1e-3), 1),
        (lambda data, basis: an.dependence_experiment(data, constant_source(sp.constant_field(0.1, basis.domain)),
                                                      data.g, basis, 1e-3), 2),
        (lambda data, basis: an.convergence_study("eps", [0.1, 0.05], data, basis, 1e-3), 2),
    ], ids=["simulate", "depend", "converge_eps"])
    def test_peak_memory_does_not_grow_with_the_level_count(self, command, runs, monkeypatch):
        # 512 modes: a level's coefficients take 16 KB, so keeping them would
        # make 401 levels peak near 4x the peak of 101; a run keeps its record
        # (16 floats a level) and one block of 64 levels, and a study its
        # runs' blocks and the per-level norms of their differences.
        domain = sp.BoxDomain((1.0,), 1024)
        basis = sp.build_basis(domain, 512)
        peaks, steps, step = [], collections.Counter(), gk.step

        def counted(*args):
            steps["calls"] += 1
            return step(*args)

        monkeypatch.setattr(gk, "step", counted)
        f = gk.SourceTerm((0.0, 0.05), (sp.constant_field(0.2, domain), sp.constant_field(-0.2, domain)))
        for t_final in (0.1, 0.4):
            data = make_problem_data(
                domain, REG, f=f, phi0=sp.cosine_sum_field(domain, 0.1, [((1,), 0.2), ((3,), 0.05)]), t_final=t_final,
            )
            tracemalloc.start()
            try:
                command(data, basis)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert steps["calls"] == runs * (100 + 400)  # every run went to its last level
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("scheme", gk.SCHEMES)
    def test_non_finite_step_is_a_typed_failure(self, unit_domain, unit_basis, scheme, monkeypatch):
        data = make_problem_data(unit_domain, REG, t_final=1.0)
        name = {gk.SEMI_IMPLICIT: "_semi_implicit_phi", gk.BACKWARD_EULER: "_backward_euler_phi"}[scheme]
        original = getattr(gk, name)
        calls = []

        def blow_up(*args):
            out = original(*args)
            calls.append(None)
            if len(calls) <= 2:  # the steps to t = 0.01 and 0.02
                return out
            if scheme == gk.SEMI_IMPLICIT:
                return np.full_like(out, np.nan)
            return np.full_like(out[0], np.nan), out[1]

        monkeypatch.setattr(gk, name, blow_up)
        with pytest.raises(RunFailure) as info:
            gk.simulate(data, unit_basis, 0.01, scheme)
        partial = info.value.trajectory
        assert len(partial) == 3  # the blow-up bisects down to the floor, then aborts
        assert all(np.isfinite(col).all() and col.shape == (3,) for col in partial.record.values())
        assert partial.w_sums.shape == (3, 2) and np.isfinite(partial.w_sums).all()


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

        def recording(values, basis):
            projected.append(values)
            return to_coeffs(values, basis)

        monkeypatch.setattr(sp, "to_coeffs", recording)
        n_steps = 10
        trajectory = gk.simulate(data, unit_basis, 0.01)
        assert len(trajectory) == n_steps + 1
        assert counts["resolvent"] == n_steps + 1
        assert counts["to_field"] == n_steps + 1
        for field in f.fields + g.fields:
            assert sum(x is field.values for x in projected) == 1

    def test_backward_euler_record_reuses_the_last_newton_solve(self, unit_domain, unit_basis, monkeypatch):
        data = make_problem_data(
            unit_domain, LOG, phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.3)]), t_final=0.05,
        )
        solved_in_evaluate = []
        original = gk.evaluate

        def counted(phi, v, data, basis, reg=None):
            solved_in_evaluate.append(reg is None)
            return original(phi, v, data, basis, reg)

        monkeypatch.setattr(gk, "evaluate", counted)
        run = gk.Run(data, unit_basis, 0.01, gk.BACKWARD_EULER)
        levels = [level.copy() for _, level in run]
        trajectory = run.trajectory()
        monkeypatch.undo()
        assert solved_in_evaluate == [True] + [False] * 5  # only the initial state is solved again
        # a fresh solve at every level gives the same mu and the same record, bulk energy included
        rec, fresh = trajectory.record, [original(phi, v, data, unit_basis) for phi, _, v, _ in levels]
        assert all(np.array_equal(level[3], mu) for level, (_, mu, _, _) in zip(levels, fresh))
        scalars = np.array([rec["mean_phi_exact"], [bulk for *_, bulk in fresh],
                            *([sp.norm_Lp(xi, unit_domain, p) for _, _, xi, _ in fresh] for p in (1, 6))])
        refolded = gk.compute_record(trajectory.t, np.array(levels), scalars, data, unit_basis,
                                     (data.f.project(unit_basis), data.g.project(unit_basis))).record
        assert all(np.array_equal(col, refolded[name]) for name, col in rec.items())

    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_record_matches_spectral_oracle(self, dim):
        domain = sp.BoxDomain((1.3,) * dim, 32)
        basis = sp.build_basis(domain, 12)
        data = make_problem_data(
            domain, LOG, a=0.2, gamma=1.5, b=0.7, kappa1=1.2, kappa2=0.8, lam=1.7,
            f=constant_source(sp.cosine_sum_field(domain, 0.3, [((1,) * dim, 0.2)])),
            g=constant_source(sp.cosine_sum_field(domain, -0.2, [((0,) * (dim - 1) + (1,), 0.1)])),
        )
        rng = np.random.default_rng(dim)
        states = [
            conftest.State(0.1 * k, *(0.3 * rng.standard_normal(basis.n) for _ in range(3)), basis)
            for k in range(3)
        ]
        means = [0.25, -0.1, 0.4]
        traj = gk.compute_record(*conftest.stack_levels(states, data, means), data, basis,
                                 (data.f.project(basis), data.g.project(basis)))
        for k, (state, mean) in enumerate(zip(states, means)):
            oracle = conftest.spectral_record(state, data, mean)
            assert list(traj.record) == list(oracle)
            for key, value in oracle.items():
                assert traj.record[key][k] == pytest.approx(value, rel=1e-14, abs=0.0), key
            w_sums = (np.linalg.norm(state.w) ** 2, conftest.grad_norm(state.w, basis) ** 2)
            assert traj.w_sums[k] == pytest.approx(w_sums, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("dt, times", [(0.1, [0.0, 0.1, 0.2, 0.25]), (0.05, [0.0, 0.05, 0.1, 0.15, 0.2, 0.25])])
    def test_record_times_are_the_simulated_ones(self, unit_domain, unit_basis, dt, times):
        data = make_problem_data(unit_domain, REG, t_final=0.25)
        assert gk.record_times(dt, 0.25) == pytest.approx(times, abs=1e-15)
        assert gk.simulate(data, unit_basis, dt).t.tolist() == gk.record_times(dt, 0.25)

    @pytest.mark.parametrize("spec", [REG, LOG, OBS], ids=["regular", "logarithmic", "double_obstacle"])
    def test_shared_values_equal_pointwise_functions(self, unit_domain, unit_basis, spec):
        eps, a = 0.2, 0.1
        data = make_problem_data(unit_domain, spec, eps=eps, a=a)
        rng = np.random.default_rng(5)
        state = zero_state(unit_basis)._replace(phi=0.6 * rng.standard_normal(unit_basis.n))
        grid = sp.to_field(state.phi, unit_basis)
        assert np.abs(grid).max() > 1.0  # both sides of the obstacle and log edges
        ev_nl, _, xi, ev_bulk = evaluate(state, data)
        reg = pot.regularize(spec, eps, grid)
        assert np.array_equal(xi, reg.value)
        # pi(phi) = -L phi, pi_hat(phi) = pi_hat(0) - (L/2) phi^2 and a by Parseval.
        phi, root = state.phi, math.sqrt(unit_domain.measure)
        nl = sp.to_coeffs(xi, unit_basis) - spec.pi_lipschitz * phi
        nl[0] += a * root
        assert np.array_equal(ev_nl, nl)
        bulk = (
            unit_basis.domain.cell_weight * reg.primitive_sum()
            + spec.pi_hat_at_zero * unit_domain.measure
            - 0.5 * spec.pi_lipschitz * float(phi @ phi)
            + a * root * float(phi[0])
        )
        assert ev_bulk == bulk


class TestScalarReductions:
    def test_heat_source_drives_thermal_rate(self, unit_domain):
        # f = 0, g = g0: the constant reduction gives v = w1 + g0 t + lam (c0 - c)
        basis = sp.build_basis(unit_domain, 8)
        c0, g0, w1, lam = 0.3, 0.4, 0.1, 2.0
        data = make_problem_data(
            unit_domain, REG, lam=lam,
            g=constant_source(sp.constant_field(g0, unit_domain)),
            phi0=sp.constant_field(c0, unit_domain),
            w1=sp.constant_field(w1, unit_domain),
            t_final=1.0,
        )
        errors = []
        for dt in (1e-2, 5e-3):
            state = simulate_levels(data, basis, dt)[1][-1]
            c = c0 * math.exp(-1.0)
            v_exact = w1 + g0 + lam * (c0 - c)
            errors.append(abs(mean_value(state.v, basis) - v_exact))
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
                f=constant_source(sp.constant_field(f_bar, unit_domain)),
                phi0=phi0, t_final=0.2,
            )
            grid = sp.to_field(simulate_levels(data, basis, 2e-3, scheme)[1][-1].phi, basis)
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
        trajectory, states = simulate_levels(data, basis, 2e-2)
        energies = trajectory.record["energy"]
        assert np.diff(energies[5:]).max() <= 1e-6
        assert energies[-1] < energies[0] - 1.0
        final = sp.to_field(states[-1].phi, basis)
        assert 0.9 <= np.abs(final).max() <= 1.1
        import thermoch.analysis as an

        assert an.apriori_monitor(trajectory, data)[0] == []

    def test_obstacle_excursion_scales_with_eps(self):
        # the regularized obstacle confines the state to [-1, 1] up to an
        # excursion of order eps * |pi| at the saturated plateaus
        basis, data = self._unstable_setup(OBS, 0.05)
        final = sp.to_field(simulate_levels(data, basis, 1e-2)[1][-1].phi, basis)
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
            return simulate_levels(data, basis, 2e-3)[1][-1].phi

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
        assert all(np.isfinite(col).all() for col in trajectory.record.values())
        import thermoch.analysis as an

        assert an.mean_law_check(trajectory, data)["max_error_discrete"] <= 1e-12

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
            means.append(trajectory.record["mean_phi"])
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
            y = pot.regularize(REG, 0.2, s).value
            h = r / (2 * n) if r != 0.0 else 0.0
            return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum())

        def oracle(state):
            p = data.params
            grid = sp.to_field(state.phi, state.basis)
            w_quad = state.basis.domain.cell_weight
            bulk = sum(
                w_quad * (primitive_quadrature(r) + 0.25 * (1 - 2 * r**2) + p.a * r)
                for r in grid
            )
            return (
                0.5 * conftest.grad_norm(state.phi, state.basis) ** 2
                + bulk
                + 0.5 * p.b / p.lambda_latent * np.linalg.norm(state.v) ** 2
                + 0.5 * p.b * p.kappa2 / p.lambda_latent * conftest.grad_norm(state.w, state.basis) ** 2
            )

        trajectory, states = simulate_levels(data, unit_basis, 0.01)
        for k in range(3):
            assert trajectory.record["energy"][k] == pytest.approx(oracle(states[k]), abs=1e-8)

    def test_identity_along_exact_flow(self, unit_domain):
        # dE/dt + dissipation - source vanishes for the continuous-time system;
        # central finite differences of E along a fine trajectory converge to it
        basis = sp.build_basis(unit_domain, 8)
        data = make_problem_data(
            unit_domain, REG, a=0.2,
            f=constant_source(sp.constant_field(0.1, unit_domain)),
            phi0=sp.cosine_sum_field(unit_domain, 0.1, [((1,), 0.15)]),
            t_final=0.02,
        )

        def residual_at_midpoint(dt):
            rec = gk.simulate(data, basis, dt).record
            k = len(rec["t"]) // 2
            dE = (rec["energy"][k + 1] - rec["energy"][k - 1]) / (rec["t"][k + 1] - rec["t"][k - 1])
            return abs(dE + rec["dissipation_mu"][k] + rec["dissipation_w"][k] - rec["source_power"][k])

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
            rec = gk.simulate(data, basis, dt).record
            dissipation = rec["dissipation_mu"] + rec["dissipation_w"]
            acc = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(rec["t"]) * (dissipation[:-1] + dissipation[1:]))))
            return np.diff(rec["energy"] + acc).max()

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
        mean = trajectory.record["mean_phi"]
        assert (lo - 1e-12 <= mean).all() and (mean <= hi + 1e-12).all()
