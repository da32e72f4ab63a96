"""The matrix-free Newton-Krylov solvers against the dense-Jacobian oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_backward_euler_phi,
    dense_elliptic_solve,
    evaluate,
    grid_values,
    State,
    make_problem_data,
    reduced_jacobian,
    sources_at,
)
from thermoch import elliptic as el
from thermoch import galerkin as gk
from thermoch import newton
from thermoch import potentials as pot
from thermoch import spectral as sp

POTENTIALS = {
    "regular": pot.regular_potential(),
    "logarithmic": pot.logarithmic_potential(2.0),
    "double_obstacle": pot.double_obstacle_potential(1.0),
}
BASES = {
    1: sp.build_basis(sp.BoxDomain((1.0,), 32), 12),
    2: sp.build_basis(sp.BoxDomain((1.0, 1.5), 12), 20),
}


def _random_coeffs(basis, seed, amplitude, active=6):
    vals = np.zeros(basis.n)
    vals[:active] = amplitude * np.random.default_rng(seed).standard_normal(active)
    return vals


class TestMinres:
    def test_solves_system_where_cg_breaks_down(self):
        # b^T A b = 0, so the first conjugate-gradient step divides by zero.
        A = np.diag([1.0, -1.0])
        x, iterations = newton.minres(lambda v: A @ v, np.array([1.0, 1.0]), np.ones(2), 1e-14, 10)
        assert np.allclose(x, [1.0, -1.0], rtol=0.0, atol=1e-14)
        assert iterations <= 2

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        negative=st.integers(1, 15),
        cg_breakdown=st.booleans(),
    )
    def test_symmetric_indefinite_systems(self, n, seed, negative, cg_breakdown):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = rng.uniform(0.5, 2.0, n)
        eigs[: min(negative, n - 1)] *= -1.0
        A = (q * eigs) @ q.T
        m = rng.uniform(0.5, 2.0, n)
        if cg_breakdown:
            # z = M^-1 b mixes a negative and a positive eigenvector so that
            # z^T A z = 0: preconditioned CG's first step divides by zero.
            z = q[:, 0] / math.sqrt(-eigs[0]) + q[:, -1] / math.sqrt(eigs[-1])
            b = m * z
        else:
            b = rng.standard_normal(n)
        b_in, m_in = b.copy(), m.copy()
        x, iterations = newton.minres(lambda v: A @ v, b, m, 1e-12, 10 * n)
        # The in-place updates never write into the right-hand side or the preconditioner.
        assert b.tobytes() == b_in.tobytes() and m.tobytes() == m_in.tobytes()
        exact = np.linalg.solve(A, b)
        assert np.linalg.norm(x - exact) <= 1e-9 * np.linalg.norm(exact)
        assert 1 <= iterations <= 10 * n


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(POTENTIALS)),
    dim=st.sampled_from((1, 2)),
    eps=st.floats(0.05, 0.5),
    amplitude=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_elliptic_solve_matches_dense_oracle(kind, dim, eps, amplitude, seed):
    basis = BASES[dim]
    h = grid_values(_random_coeffs(basis, seed, amplitude), basis)
    problem = el.EllipticProblem(basis, POTENTIALS[kind], eps, h)
    sol = el.solve_elliptic(problem)
    gap = np.linalg.norm(sol.u - dense_elliptic_solve(problem))
    assert gap <= 1e-10  # coefficient 2-norm = L2 norm (Parseval)
    assert sol.counters.newton_iterations >= 1


def _step_inputs(basis, data, phi, dt, seed):
    """A random state with the given phi: its projected nonlinearity and the step's elimination constants."""
    rng = np.random.default_rng(seed)
    w, v = (0.1 * rng.standard_normal(basis.n) / (1.0 + basis.eigenvalues) for _ in range(2))
    state = State(0.0, phi, w, v, basis)
    op = gk.step_operator(basis, data.params, dt, gk.BACKWARD_EULER)
    base = gk._step_rhs(phi, w, v, *sources_at(state, data), data, op)[1]
    return evaluate(state, data)[0], op, base


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(POTENTIALS)),
    dim=st.sampled_from((1, 2)),
    dt=st.sampled_from((1e-3, 1e-2, 1e-1)),
    mean=st.floats(-0.5, 0.5),
    amplitude=st.floats(0.0, 0.4),
    seed=st.integers(0, 2**32 - 1),
)
def test_backward_euler_step_matches_dense_oracle(kind, dim, dt, mean, amplitude, seed):
    basis = BASES[dim]
    data = make_problem_data(basis.domain, POTENTIALS[kind])
    phi = _random_coeffs(basis, seed, amplitude)
    phi = phi + np.eye(basis.n)[0] * mean * math.sqrt(basis.domain.measure)
    nl, op, base = _step_inputs(basis, data, phi, dt, seed)
    p, _ = gk._backward_euler_phi(nl, data, op, base)
    p_ref = dense_backward_euler_phi(nl, data, op, base)
    assert np.linalg.norm(p - p_ref) <= gk._NEWTON_TOL * (1.0 + np.linalg.norm(base))
    assert p[0] == base[0] / op.diag[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_indefinite_backward_euler_step_matches_dense_oracle(seed):
    # lambda_2 = 1, dt = 1 and a strongly concave logarithmic potential:
    # dt |pi'| = 10 exceeds diag / lambda on the lowest modes.
    domain = sp.BoxDomain((math.pi,), 32)
    basis = sp.build_basis(domain, 12)
    data = make_problem_data(domain, pot.logarithmic_potential(5.0))
    phi = sp.project(sp.cosine_sum_field(domain, 0.1, [((1,), 0.3), ((2,), 0.1)]), basis)
    nl, op, base = _step_inputs(basis, data, phi, 1.0, seed)
    p, _ = gk._backward_euler_phi(nl, data, op, base)
    p_ref = dense_backward_euler_phi(nl, data, op, base)
    for coeffs in (phi, p_ref):
        reg = pot.regularize(data.potential, data.eps, sp.to_field(coeffs, basis))
        assert np.linalg.eigvalsh(reduced_jacobian(basis, data, 1.0, basis.eigenvalues, op.diag, reg)).min() < -1.0
    assert np.linalg.norm(p - p_ref) <= gk._NEWTON_TOL * (1.0 + np.linalg.norm(base))
