from typing import NamedTuple

import numpy as np
import pytest

from conftest import grid_values, mean_value
from thermoch import elliptic as el
from thermoch import potentials as pot
from thermoch import spectral as sp
from thermoch.errors import NumericFailure

REG = pot.regular_potential()
LOG = pot.logarithmic_potential(2.0)
OBS = pot.double_obstacle_potential(1.0)


@pytest.fixture
def basis():
    return sp.build_basis(sp.BoxDomain((1.0,), 64), 16)


def count_merit_calls(monkeypatch):
    """Record the Regularization of every merit evaluation (each sums the primitive once)."""
    calls = []
    original = pot.Regularization.primitive_sum

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(pot.Regularization, "primitive_sum", counted)
    return calls


class SurrogateNorms(NamedTuple):
    h2_spectral: float
    laplacian_L6: float


def h2_surrogate(problem, sol):
    """Second-order norm surrogates available spectrally.

    ``laplacian_L6`` is computed from the equation itself (Laplace(u) =
    yosida(u) - h pointwise on the grid); ``h2_spectral`` is
    sqrt(sum (1 + lambda_j)^2 u_j^2).
    """
    lap = sol.reg.value - problem.h.values
    h2 = float(np.sqrt((((1.0 + problem.basis.eigenvalues) ** 2) * sol.u**2).sum()))
    return SurrogateNorms(h2_spectral=h2, laplacian_L6=sp.norm_Lp(lap, problem.basis.domain, 6))


class TestSolve:
    def test_merit_never_computed_without_halvings(self, basis, monkeypatch):
        calls = count_merit_calls(monkeypatch)
        h = sp.cosine_sum_field(basis.domain, 0.2, [((1,), 1.5), ((3,), -0.8)])
        sol = el.solve_elliptic(el.EllipticProblem(basis, LOG, 0.05, h))
        assert sol.counters.newton_iterations >= 3
        assert sol.counters.line_search_halvings == 0
        assert calls == []

    def test_merit_computed_at_most_once_per_iterate(self, basis, monkeypatch):
        # A random right-hand side of the kind ``verify elliptic`` draws; its
        # line searches halve more than once and accept on Armijo decrease.
        calls = count_merit_calls(monkeypatch)
        vals = np.zeros(basis.n)
        vals[:8] = np.random.default_rng(0).standard_normal(8)
        h = grid_values(vals, basis)
        sol = el.solve_elliptic(el.EllipticProblem(basis, REG, 0.1, h))
        assert sol.counters.line_search_halvings >= 2
        assert calls
        assert len({id(reg) for reg in calls}) == len(calls)

    def test_constant_obstacle_case(self, basis):
        # constant ansatz: (u - 1)/0.5 = 2 gives u = 2
        problem = el.EllipticProblem(basis, OBS, 0.5, sp.constant_field(2.0, basis.domain))
        sol = el.solve_elliptic(problem)
        assert mean_value(sol.u, basis) == pytest.approx(2.0, abs=1e-12)
        assert np.abs(sol.u[1:]).max() <= 1e-12
        assert sol.residual <= 1e-10 * 3.0

    @pytest.mark.parametrize("spec,eps", [(REG, 0.2), (OBS, 0.5)])
    def test_large_rhs_from_a_flat_start(self, basis, spec, eps):
        # The slope vanishes on the whole grid at u = 0 and ||h|| = 2e6 lies
        # above the shift ceiling; the capped shift still gives a first step.
        h = sp.constant_field(2e6, basis.domain)
        sol = el.solve_elliptic(el.EllipticProblem(basis, spec, eps, h))
        assert sol.residual <= 1e-10 * (1.0 + 2e6)
        assert np.abs(sol.u[1:]).max() <= 1e-6
        yosida = pot.regularize(spec, eps, mean_value(sol.u, basis)).value
        assert float(yosida) == pytest.approx(2e6, rel=1e-12)

    def test_zero_rhs(self, basis):
        problem = el.EllipticProblem(basis, REG, 0.3, sp.constant_field(0.0, basis.domain))
        u = el.solve_elliptic(problem).u
        assert np.abs(u).max() <= 1e-12

    def test_small_amplitude_linearization(self, basis):
        # u ~ delta/(lambda_2 + yosida'(0)) e_2 as delta -> 0
        lam2 = basis.eigenvalues[1]
        gain = 1.0 / (lam2 + pot.regularize(REG, 0.2, 0.0).slope())
        ratios = []
        for delta in (1e-2, 1e-4):
            vals = np.zeros(basis.n)
            vals[1] = delta
            problem = el.EllipticProblem(basis, REG, 0.2, grid_values(vals, basis))
            u = el.solve_elliptic(problem).u
            ratios.append(u[1] / (delta * gain))
        assert ratios[1] == pytest.approx(1.0, rel=1e-6)
        assert abs(ratios[1] - 1.0) <= abs(ratios[0] - 1.0) + 1e-12

    @pytest.mark.parametrize("spec,eps", [(REG, 0.2), (LOG, 0.1), (OBS, 0.5)])
    def test_two_starts_agree(self, basis, spec, eps):
        rng = np.random.default_rng(10)
        vals = np.zeros(basis.n)
        vals[:6] = 0.8 * rng.standard_normal(6)
        h = grid_values(vals, basis)
        problem = el.EllipticProblem(basis, spec, eps, h)
        u_zero = el.solve_elliptic(problem).u
        u_h = el.solve_elliptic(problem, start=sp.project(h, basis)).u
        assert np.linalg.norm(u_zero - u_h) <= 1e-8

    def test_data_from_another_domain_rejected(self, basis):
        h = sp.constant_field(2.0, sp.BoxDomain((2.0,), 64))
        with pytest.raises(ValueError, match="different domains"):
            el.solve_elliptic(el.EllipticProblem(basis, REG, 0.2, h))

    def test_comparison_principle_constants(self, basis):
        # scalar reduction: larger constant data gives the larger constant solution
        means = []
        for h_val in (0.5, 2.0):
            problem = el.EllipticProblem(basis, REG, 0.2, sp.constant_field(h_val, basis.domain))
            means.append(mean_value(el.solve_elliptic(problem).u, basis))
        assert means[0] < means[1]

    def test_no_descent_direction_raises_after_the_shift_retries(self, basis, monkeypatch):
        # A Krylov solver that returns the residual itself, an ascent direction:
        # the shift grows a hundredfold per retry up to its 1e6 ceiling, then the solve fails.
        shifts = []

        def ascent(basis_, a, s, b, rtol, pinned=0):
            shifts.append(float(a[0] - basis.eigenvalues[0]))
            return -b, 1, np.ones(b.size)

        monkeypatch.setattr(el.newton, "krylov_solve", ascent)
        h = sp.cosine_sum_field(basis.domain, 0.2, [((1,), 1.5)])
        with pytest.raises(NumericFailure, match="^could not produce a descent direction$"):
            el.solve_elliptic(el.EllipticProblem(basis, REG, 0.1, h))
        assert len(shifts) > 2
        assert all(new == pytest.approx(100.0 * old) for old, new in zip(shifts[1:], shifts[2:]))
        assert shifts[-1] <= 1e6 < 100.0 * shifts[-1]

    def test_nonfinite_rhs_rejected(self, basis):
        bad = np.full(basis.domain.n_grid, np.nan)
        with pytest.raises(ValueError):
            el.EllipticProblem(basis, REG, 0.2, sp.Field(bad, basis.domain))


class TestL6Bound:
    def test_constant_equality(self, basis):
        problem = el.EllipticProblem(basis, OBS, 0.5, sp.constant_field(2.0, basis.domain))
        sol = el.solve_elliptic(problem)
        lhs, rhs = el.check_L6_bound(problem, sol)
        assert lhs <= rhs * (1 + el.L6_SLACK)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert rhs == pytest.approx(2.0, abs=1e-12)  # 2 |Omega|^{1/6}, |Omega| = 1

    def test_zero_rhs_passes(self, basis):
        problem = el.EllipticProblem(basis, REG, 0.3, sp.constant_field(0.0, basis.domain))
        sol = el.solve_elliptic(problem)
        lhs, rhs = el.check_L6_bound(problem, sol)
        assert lhs <= rhs * (1 + el.L6_SLACK)
        assert lhs <= 1e-12 and rhs == 0.0

    @pytest.mark.parametrize("spec,eps", [(REG, 0.2), (LOG, 0.1), (OBS, 0.5)])
    def test_randomized_trials(self, basis, spec, eps):
        rng = np.random.default_rng(20)
        for _ in range(20):
            vals = np.zeros(basis.n)
            vals[:8] = rng.standard_normal(8)
            problem = el.EllipticProblem(basis, spec, eps, grid_values(vals, basis))
            sol = el.solve_elliptic(problem)
            lhs, rhs = el.check_L6_bound(problem, sol)
            assert lhs <= rhs * (1 + el.L6_SLACK), (lhs, rhs)


class TestSurrogates:
    def test_zero_case(self, basis):
        problem = el.EllipticProblem(basis, REG, 0.3, sp.constant_field(0.0, basis.domain))
        norms = h2_surrogate(problem, el.solve_elliptic(problem))
        assert norms.h2_spectral <= 1e-12
        assert norms.laplacian_L6 <= 1e-12

    def test_constant_case_laplacian_vanishes(self, basis):
        problem = el.EllipticProblem(basis, OBS, 0.5, sp.constant_field(2.0, basis.domain))
        norms = h2_surrogate(problem, el.solve_elliptic(problem))
        assert norms.laplacian_L6 <= 1e-12
        assert norms.h2_spectral == pytest.approx(2.0, abs=1e-10)

    def test_mode_scaling(self, basis):
        # ||Laplace u||_6 ~ lambda_2 |u_2| ||e_2||_6 for small amplitudes
        lam2 = basis.eigenvalues[1]
        e2_l6 = sp.norm_Lp(sp.to_field(np.eye(basis.n)[1], basis), basis.domain, 6)
        for delta, rel in ((1e-2, 0.1), (1e-4, 1e-3)):
            vals = np.zeros(basis.n)
            vals[1] = delta
            problem = el.EllipticProblem(basis, REG, 0.2, grid_values(vals, basis))
            sol = el.solve_elliptic(problem)
            norms = h2_surrogate(problem, sol)
            predicted = lam2 * abs(sol.u[1]) * e2_l6
            assert norms.laplacian_L6 == pytest.approx(predicted, rel=rel)
