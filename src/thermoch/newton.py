"""Damped Newton-Krylov loop shared by the elliptic solver and the backward-Euler step.

Both nonlinear problems live on the coefficients of a spectral basis, and
both Newton matrices have the form diag(a) + P diag(s) P^T, where P^T maps
coefficients to grid values (``spectral.to_field``), P projects grid values
back with the quadrature weights (``spectral.to_coeffs``) and s is a slope
sampled on the grid.  The loop never forms that n x n matrix (Jacobian-free
Newton-Krylov; Knoll & Keyes, J. Comput. Phys. 193 (2004) 357-397): a
Jacobian-vector product is one ``to_field``, one pointwise product and one
``to_coeffs``.  Each Newton system is solved by MINRES (Paige & Saunders,
SIAM J. Numer. Anal. 12 (1975) 617-629), which is correct on symmetric
indefinite matrices, preconditioned by the positive diagonal
diag(a + max(mean(s), 0)), the exact inverse when s is a nonnegative
constant, and stopped at the Eisenstat-Walker forcing tolerance (choice 2,
SIAM J. Sci. Comput. 17 (1996) 16-32).  A backtracking line search damps
every step; it tests the weighted residual first and evaluates a problem's
merit (the elliptic energy) only for a trial that fails that test, at most
once per iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import spectral
from .errors import NumericFailure
from .potentials import Regularization
from .spectral import SpectralBasis

_MAX_ITER = 80
_MAX_HALVINGS = 60
# Cap of the forcing term.  A Krylov iteration (one transform pair) costs far
# less than a Newton iteration (a resolvent solve and a transform pair), so
# the linear solves are kept accurate enough for quadratic convergence.
_ETA_MAX = 0.1


@dataclass
class Counters:
    """Work done by Newton solves; deterministic for a given input."""

    newton_iterations: int = 0
    krylov_iterations: int = 0
    line_search_halvings: int = 0


class Iterate(NamedTuple):
    """A Newton iterate ``x``, its residual F(x) and the regularized graph at its grid values.

    ``merit`` computes an objective whose gradient is F, when the problem has
    one: a step that decreases it enough (Armijo) is accepted even if ||F||
    grows.  It is a memoized zero-argument callable, so each iterate's merit
    is computed at most once and only when the line search asks for it.
    """

    x: np.ndarray
    residual: np.ndarray
    merit: Optional[Callable[[], float]]
    reg: Regularization


def minres(
    apply: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    m: np.ndarray,
    rtol: float,
    maxiter: int,
) -> tuple[np.ndarray, int]:
    """Solve A x = b for symmetric A, preconditioned by the positive diagonal ``m``.

    Minimizes the M^-1-norm of the residual over the growing Krylov space
    from x = 0, so that norm never increases, also when A is indefinite.
    Stops when it falls to ``rtol`` times that of b, when the Krylov space
    stops growing, or after ``maxiter`` iterations.  Returns x and the
    iteration count.  The Lanczos vector (the new array ``apply`` returns),
    x and three rotating search directions are updated in place; b and m
    are only read.
    """
    x = np.zeros_like(b)
    y = b / m
    beta1 = math.sqrt(float(b @ y))
    if beta1 == 0.0:
        return x, 0
    r1 = r2 = b
    beta, oldb = beta1, 0.0
    cs, sn = -1.0, 0.0
    dbar = epsln = 0.0
    phibar = beta1
    w, w1, w2 = np.zeros((3, b.size))
    for k in range(1, maxiter + 1):
        # Lanczos step on the preconditioned operator.
        v = y / beta
        y = apply(v)
        if k > 1:
            y -= (beta / oldb) * r1
        alfa = float(v @ y)
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        y = r2 / m
        oldb, beta = beta, math.sqrt(float(r2 @ y))
        # Apply the previous rotation, then form the next one.
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = math.hypot(gbar, beta)
        if gamma == 0.0:
            return x, k
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        # w = (v - oldeps w1 - delta w2) / gamma, written over the oldest direction.
        w1, w2, w = w2, w, w1
        np.subtract(v, np.multiply(w1, oldeps, out=w), out=w)
        w -= delta * w2
        w /= gamma
        x += phi * w
        if phibar <= rtol * beta1 or beta == 0.0:
            return x, k
    return x, maxiter


def krylov_solve(
    basis: SpectralBasis,
    a: np.ndarray,
    s: np.ndarray,
    b: np.ndarray,
    rtol: float,
    pinned: int = 0,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Solve (diag(a) + P diag(s) P^T) d = b on the modes from ``pinned`` on, with d = 0 before.

    ``a`` and ``b`` cover the free modes, ``s`` the grid.  P diag(s) P^T v
    is applied matrix-free through the transforms; the preconditioner
    m = a + max(mean(s), 0) must be positive.  Returns d on every mode, the
    MINRES iteration count and m^(-1/2): the linear residual r is small in
    the norm ||m^(-1/2) r||.
    """
    full = np.zeros(basis.n)

    def apply(v):
        full[pinned:] = v
        return a * v + spectral.to_coeffs(s * spectral.to_field(full, basis), basis)[pinned:]

    m = a + max(float(s.sum()) / s.size, 0.0)  # the mean, with less dispatch than s.mean()
    x, iterations = minres(apply, b, m, rtol, basis.n)
    d = np.zeros(basis.n)
    d[pinned:] = x
    return d, iterations, 1.0 / np.sqrt(m)


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a real vector: what np.linalg.norm computes for it, with less dispatch."""
    return math.sqrt(x @ x)


def solve(
    evaluate: Callable[[np.ndarray], Iterate],
    direction: Callable[[Iterate, float], tuple[np.ndarray, int, np.ndarray]],
    x: np.ndarray,
    target: float,
    contract: float,
    failure: type[NumericFailure],
) -> tuple[Iterate, Counters]:
    """Damped inexact Newton from ``x`` until ||F|| <= ``target``.

    ``direction(it, rtol)`` returns an approximate Newton step at ``it``,
    its Krylov iteration count and weights W such that the step solves the
    Newton system to relative tolerance ``rtol`` in the norm ||W r||; the
    step is then a descent direction for ||W F||.  A step is accepted when
    ||W F|| decreases or, failing that, on Armijo decrease of the merit, when
    the problem has one (near the solution the merit is flat to roundoff
    while the residual still contracts); the merit is evaluated only for
    trials that fail the residual test.  When the residual is inside ``contract``
    (>= ``target``) and no longer halves, or the line search stalls there,
    the iterate is accepted as at its roundoff floor.  Raises ``failure`` on
    a non-finite step, a stalled line search outside ``contract`` or after
    _MAX_ITER iterations.
    """
    counters = Counters()
    it = evaluate(x)
    prev_norm = math.inf
    for _ in range(_MAX_ITER):
        res_norm = _norm(it.residual)
        if res_norm <= target or (res_norm <= contract and res_norm > 0.5 * prev_norm):
            return it, counters
        # Eisenstat-Walker choice 2 (gamma = 0.9, alpha = 2); their safeguard
        # max(eta, 0.9 eta_prev^2) only acts above 0.1, so the cap makes it moot.
        eta = min(_ETA_MAX, 0.9 * (res_norm / prev_norm) ** 2) if prev_norm < math.inf else _ETA_MAX
        prev_norm = res_norm
        step, krylov, weights = direction(it, eta)
        counters.newton_iterations += 1
        counters.krylov_iterations += krylov
        if not np.isfinite(step).all():
            raise failure("Newton-Krylov step is not finite")
        descent = float(step @ it.residual)
        weighted = _norm(weights * it.residual)
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = evaluate(it.x + alpha * step)
            # The residual test is cheap; the merit is computed only when it fails.
            if _norm(weights * trial.residual) < weighted or (
                it.merit is not None and trial.merit() <= it.merit() + 1e-4 * alpha * descent
            ):
                it = trial
                break
            alpha *= 0.5
            counters.line_search_halvings += 1
        else:
            if res_norm <= contract:
                return it, counters
            raise failure("Newton line search stalled")
    raise failure(f"Newton did not converge in {_MAX_ITER} iterations")
