"""Nonlinear Neumann problem -Laplace(u) + yosida(u) = h solved spectrally.

The spectral residual R(u) = A u + P_n yosida(u) - P_n h is the gradient of
the strictly convex, coercive functional

    Phi(u) = 1/2 <A u, u> + int beta_hat_eps(u) - <h, u>,

so a damped Newton iteration with an Armijo line search on Phi converges
globally.  It runs on the shared Newton-Krylov loop (``newton``): the
Jacobian A + P diag(slope) P^T is never formed, and each Newton system is
solved by MINRES preconditioned with diag(lambda_j + mean slope), the exact
inverse when the slope is constant.  The Jacobian is SPD unless the slope
vanishes on the whole grid (e.g. where the regularized graph is flat, as for
obstacle-type potentials); then a Tikhonov shift is added, sized like
Levenberg-Marquardt's as max(||R(u)||, 1e-10 times a bound on the
Jacobian's norm), capped at the 1e6 ceiling of the shift retries.  The
line search computes Phi only for a trial whose residual did not decrease.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import newton, potentials, spectral
from .errors import NumericFailure
from .potentials import PotentialSpec, Regularization
from .spectral import Field, SpectralBasis

_TOL_FACTOR = 1e-13
L6_SLACK = 1e-6  # relative slack of the 6-norm bound for discretization error


@dataclass(frozen=True)
class EllipticProblem:
    basis: SpectralBasis
    potential: PotentialSpec
    eps: float
    h: Field

    def __post_init__(self):
        if not np.isfinite(self.h.values).all():
            raise ValueError("right-hand side contains non-finite samples")


@dataclass(frozen=True)
class EllipticSolution:
    """The coefficients ``u`` of the solution with its residual norm, the
    regularized graph at u's grid values and the solver's work counts."""

    u: np.ndarray
    residual: float
    reg: Regularization
    counters: newton.Counters


def solve_elliptic(problem: EllipticProblem, start: Optional[np.ndarray] = None) -> EllipticSolution:
    """Solve the spectral problem from the coefficients ``start`` (default 0).

    The iteration drives ||R(u)|| to 1e-13 (1 + ||h||) and, when the
    stiffness-scaled roundoff floor sits above that, accepts a stagnated
    residual anywhere inside the contracted bound 1e-10 (1 + ||h||).
    Raises NumericFailure if the damped iteration stalls outside it.
    """
    basis = problem.basis
    lam = basis.eigenvalues
    h_c = spectral.project(problem.h, basis)
    h_norm = float(np.linalg.norm(h_c))

    def evaluate(u):
        """R(u) and the regularized graph from one resolvent solve; Phi(u) on demand."""
        reg = potentials.regularize(problem.potential, problem.eps, spectral.to_field(u, basis))
        nl = spectral.to_coeffs(reg.value, basis)

        @functools.cache
        def objective():
            return (
                0.5 * float((lam * u**2).sum())
                + basis.domain.cell_weight * reg.primitive_sum()
                - float(h_c @ u)
            )

        return newton.Iterate(u, lam * u + nl - h_c, objective, reg)

    def direction(it, rtol):
        slope = it.reg.slope()
        top = float(slope.max())  # lambda_max + max(slope) bounds the Jacobian's norm
        scale = 1e-10 * (1.0 + float(lam[-1]) + top)
        # Levenberg-Marquardt sizing: a shift of ||F|| keeps the step of the
        # otherwise singular mean mode at the length of the residual.  Capped
        # at the ceiling so that at least one solve is tried; with a flat slope
        # (max <= 0, as the slope is >= 0) the shifted matrix is SPD, so that
        # solve is a descent direction.
        shift = min(max(scale, float(np.linalg.norm(it.residual))), 1e6) if top <= 0.0 else 0.0
        krylov = 0
        while shift <= 1e6:
            step, k, weights = newton.krylov_solve(basis, lam + shift, slope, -it.residual, rtol)
            krylov += k
            if float(step @ it.residual) < 0.0:
                return step, krylov, weights
            shift = max(shift * 100.0, scale)
        raise NumericFailure("could not produce a descent direction")

    u = np.zeros(basis.n) if start is None else np.array(start, dtype=float)
    it, counters = newton.solve(
        evaluate, direction, u,
        _TOL_FACTOR * (1.0 + h_norm), 1e-10 * (1.0 + h_norm), NumericFailure,
    )
    residual = float(np.linalg.norm(it.residual))
    return EllipticSolution(it.x, residual, it.reg, counters)


def check_L6_bound(problem: EllipticProblem, sol: EllipticSolution) -> tuple[float, float]:
    """The two sides of ||yosida(u)||_6 <= ||h||_6, which holds up to ``L6_SLACK``."""
    domain = problem.basis.domain
    return spectral.norm_Lp(sol.reg.value, domain, 6), spectral.norm_Lp(problem.h.values, domain, 6)

