"""Nonlinear Neumann problem -Laplace(u) + yosida(u) = h solved spectrally.

The spectral residual R(u) = A u + P_n yosida(u) - P_n h is the gradient of
the strictly convex, coercive functional

    Phi(u) = 1/2 <A u, u> + int beta_hat_eps(u) - <h, u>,

so a damped Newton iteration with an Armijo line search on Phi converges
globally; a Tikhonov shift is added whenever the Jacobian is singular (e.g.
where the regularized graph is flat, as for obstacle-type potentials).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import potentials, spectral
from .errors import NumericFailure
from .potentials import PotentialSpec
from .spectral import Coeffs, Field, SpectralBasis

_TOL_FACTOR = 1e-13
_MAX_ITER = 80
_MAX_HALVINGS = 60
_L6_SLACK = 1e-6


@dataclass(frozen=True)
class EllipticProblem:
    basis: SpectralBasis
    potential: PotentialSpec
    eps: float
    h: Field

    def __post_init__(self):
        if not np.isfinite(self.h.values).all():
            raise ValueError("right-hand side contains non-finite samples")


def _evaluate(
    problem: EllipticProblem, h_c: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, float, potentials.Regularization]:
    """Residual R(u), objective Phi(u) and the regularized graph, from one resolvent solve."""
    basis = problem.basis
    grid = spectral.to_field(Coeffs(u, basis)).values
    reg = potentials.regularize(problem.potential, problem.eps, grid)
    nl = spectral.to_coeffs(Field(reg.value, basis.domain), basis).values
    objective = (
        0.5 * float((basis.eigenvalues * u**2).sum())
        + float(basis.quadrature_weight * reg.primitive().sum())
        - float(h_c @ u)
    )
    return basis.eigenvalues * u + nl - h_c, objective, reg


def solve_elliptic(
    problem: EllipticProblem, start: Optional[Coeffs] = None
) -> tuple[Coeffs, float]:
    """Solve the spectral problem; returns (u, final residual norm).

    The iteration drives ||R(u)|| to 1e-13 (1 + ||h||) and, when the
    stiffness-scaled roundoff floor sits above that, accepts a stagnated
    residual anywhere inside the contracted bound 1e-10 (1 + ||h||).
    Raises NumericFailure if the damped iteration stalls outside it.
    """
    basis = problem.basis
    h_c = spectral.to_coeffs(problem.h, basis).values
    h_norm = float(np.linalg.norm(h_c))
    target = _TOL_FACTOR * (1.0 + h_norm)
    contract = 1e-10 * (1.0 + h_norm)
    u = np.zeros(basis.n) if start is None else np.array(start.values, dtype=float)

    res, phi_val, reg = _evaluate(problem, h_c, u)
    prev_norm = np.inf
    for _ in range(_MAX_ITER):
        res_norm = float(np.linalg.norm(res))
        if res_norm <= target or (res_norm <= contract and res_norm > 0.5 * prev_norm):
            return Coeffs(u, basis), res_norm
        prev_norm = res_norm
        E = basis.eigenfunction_values
        jac = np.diag(basis.eigenvalues) + (E * (basis.quadrature_weight * reg.slope())) @ E.T
        shift = 0.0
        while True:
            try:
                direction = np.linalg.solve(jac + shift * np.eye(basis.n), -res)
            except np.linalg.LinAlgError:
                direction = None
            if direction is not None and float(direction @ res) < 0.0:
                break
            shift = max(shift * 100.0, 1e-10 * (1.0 + float(np.abs(jac).max())))
            if shift > 1e6:
                raise NumericFailure("could not produce a descent direction")
        # Accept on Armijo decrease of the convex objective (global phase) or
        # on plain residual decrease (local phase, where the objective is
        # flat to roundoff while the residual still contracts quadratically).
        descent = float(direction @ res)
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = u + alpha * direction
            trial_res, trial_val, trial_reg = _evaluate(problem, h_c, trial)
            armijo = trial_val <= phi_val + 1e-4 * alpha * descent
            if armijo or float(np.linalg.norm(trial_res)) < res_norm:
                u, res, phi_val, reg = trial, trial_res, trial_val, trial_reg
                break
            alpha *= 0.5
        else:
            if res_norm <= contract:
                return Coeffs(u, basis), res_norm
            raise NumericFailure("elliptic line search stalled")
    raise NumericFailure(f"elliptic Newton did not converge in {_MAX_ITER} iterations")


def check_L6_bound(problem: EllipticProblem, u: Coeffs) -> tuple[float, float, bool]:
    """Compare ||yosida(u)||_6 against ||h||_6 with a small discretization slack."""
    grid = spectral.to_field(u).values
    beta_vals = potentials.yosida(problem.potential, problem.eps, grid)
    lhs = spectral.norm_Lp(Field(beta_vals, problem.basis.domain), 6)
    rhs = spectral.norm_Lp(problem.h, 6)
    return lhs, rhs, lhs <= rhs * (1.0 + _L6_SLACK)


class SurrogateNorms(NamedTuple):
    h2_spectral: float
    laplacian_L6: float


def h2_surrogate(problem: EllipticProblem, u: Coeffs) -> SurrogateNorms:
    """Second-order norm surrogates available spectrally.

    ``laplacian_L6`` is computed from the equation itself (Laplace(u) =
    yosida(u) - h pointwise on the grid); ``h2_spectral`` is
    sqrt(sum (1 + lambda_j)^2 u_j^2).
    """
    grid = spectral.to_field(u).values
    beta_vals = potentials.yosida(problem.potential, problem.eps, grid)
    lap = Field(beta_vals - problem.h.values, problem.basis.domain)
    h2 = float(np.sqrt((((1.0 + problem.basis.eigenvalues) ** 2) * u.values**2).sum()))
    return SurrogateNorms(h2_spectral=h2, laplacian_L6=spectral.norm_Lp(lap, 6))
