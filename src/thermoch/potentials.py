"""Double-well potentials split into a convex part and a smooth perturbation.

A potential F = beta_hat + pi_hat consists of a convex, lower-semicontinuous
beta_hat >= 0 with beta_hat(0) = 0 (possibly +inf outside a domain interval)
and a smooth pi_hat whose derivative pi is Lipschitz.  The multivalued
monotone graph beta = d(beta_hat) is represented through its minimal section
beta_min_section, and regularized by the resolvent (I + eps*beta)^(-1) and
the induced Lipschitz approximation ``yosida``.

Three prototypes are provided, each with an exact resolvent kernel:

* regular:          beta_hat(r) = r^4/4,            pi_hat(r) = (1 - 2 r^2)/4;
                    the real root of the cubic y + eps*y^3 = r in closed form,
                    polished by one Newton step
* logarithmic:      beta_hat(r) = (1+r)ln(1+r) + (1-r)ln(1-r) on [-1, 1],
                    pi_hat(r) = -c1 r^2  (c1 > 1); Newton on the smooth
                    equation tanh(s) + 2 eps s = r, with J = tanh(s)
* double_obstacle:  beta_hat = indicator of [-1, 1], pi_hat(r) = -c2 r^2;
                    the projection onto [-1, 1]
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CompatibilityError, NumericFailure

# Edge offset keeping the entropy's logarithms finite at the ends of [-1, 1].
_EDGE = 1e-15

# tanh rounds to exactly 1.0 beyond s ~ 19.06; a root s >= _S_SAT saturates.
_S_SAT = 20.0
_SAT_GAP = math.exp(-2.0 * _S_SAT)
_MAX_SWEEPS = 50


@dataclass(frozen=True)
class PotentialSpec:
    """Decomposed double-well potential with its monotone convex part.

    All callables are vectorized over numpy arrays.  ``domain`` is the closed
    hull of D(beta); use +-inf for unbounded sides.  ``pi_prime`` is the
    derivative of ``pi``.  ``kind`` names one of the three prototypes, whose
    exact resolvent kernel and closed-form Yosida slope this module keeps;
    callers reach them through ``resolvent`` and ``Regularization.slope``.
    """

    kind: str
    beta_hat: Callable[[np.ndarray], np.ndarray]
    pi_hat: Callable[[np.ndarray], np.ndarray]
    pi: Callable[[np.ndarray], np.ndarray]
    pi_prime: Callable[[np.ndarray], np.ndarray]
    pi_lipschitz: float
    domain: tuple[float, float]
    beta_min_section: Callable[[np.ndarray], np.ndarray]

    def interior_contains(self, r: float) -> bool:
        return self.domain[0] < r < self.domain[1]


def _regular_resolvent(eps, r):
    # y + eps*y^3 = r: hyperbolic Cardano formula for a cubic with p > 0
    # (Press et al., Numerical Recipes, section 5.6), then one Newton step to
    # remove the few ulps that the sinh/asinh chain amplifies.
    q = np.sqrt(3.0 * eps)
    y = (2.0 / q) * np.sinh(np.arcsinh((1.5 * q) * r) / 3.0)
    yy = y * y
    return y - (y + eps * yy * y - r) / (1.0 + 3.0 * eps * yy)


def _regular_slope(eps, r, j):
    jj = j * j
    return 3.0 * jj / (1.0 + 3.0 * eps * jj)


def regular_potential() -> PotentialSpec:
    """Quartic double well, convex part r^4/4, perturbation slope -r."""
    return PotentialSpec(
        kind="regular",
        beta_hat=lambda r: 0.25 * np.square(np.square(np.asarray(r, dtype=float))),
        pi_hat=lambda r: 0.25 * (1.0 - 2.0 * np.asarray(r, dtype=float) ** 2),
        pi=lambda r: -np.asarray(r, dtype=float),
        pi_prime=lambda r: -np.ones_like(np.asarray(r, dtype=float)),
        pi_lipschitz=1.0,
        domain=(-np.inf, np.inf),
        beta_min_section=lambda r: np.square(r) * np.asarray(r, dtype=float),
    )


def _entropy(r):
    # (1+r)ln(1+r) + (1-r)ln(1-r), finite on [-1, 1] with 0*ln(0) = 0.
    r = np.asarray(r, dtype=float)
    inside = np.abs(r) <= 1.0
    rs = np.clip(r, -1.0 + _EDGE, 1.0 - _EDGE)
    val = (1.0 + rs) * np.log1p(rs) + (1.0 - rs) * np.log1p(-rs)
    val = np.where(np.abs(r) == 1.0, 2.0 * np.log(2.0), val)
    return np.where(inside, val, np.inf)


def _entropy_slope(r):
    # ln((1+r)/(1-r)) evaluated stably near the endpoints.
    r = np.asarray(r, dtype=float)
    return np.log1p(r) - np.log1p(-r)


def _logarithmic_resolvent(eps, r):
    """J = tanh(s), where s >= 0 solves tanh(s) + 2 eps s = |r| (sign restored).

    The equation is smooth with slope in [2 eps, 1 + 2 eps] and concave in
    s >= 0, so Newton started below the root increases monotonically to it.
    The start is the largest of three lower bounds: |r|/(1 + 2 eps) from
    tanh(s) <= s, (|r| - 1)/(2 eps) from tanh(s) <= 1, and
    -ln(1 - |r| + 2 eps S)/2 from tanh(s) <= 1 - exp(-2 s) with S = _S_SAT.
    When 1 - |r| + 2 eps S <= exp(-2 S) the root exceeds S, tanh of it
    rounds to 1 and J = +-1 is returned directly.  Sweeps stop once every
    residual is within 8 ulps of max(1, |r|), after one more Newton step.
    """
    a = np.abs(r)
    two_eps = 2.0 * eps
    gap = (1.0 - a) + two_eps * _S_SAT
    saturated = gap <= _SAT_GAP
    s = np.maximum(a / (1.0 + two_eps), -0.5 * np.log(np.maximum(gap, _SAT_GAP)))
    s = np.maximum(s, np.clip(a - 1.0, 0.0, two_eps * _S_SAT) / two_eps)
    # Saturated points sit at the trivial root s = 0 of a = 0 while sweeping.
    a = np.where(saturated, 0.0, a)
    s = np.where(saturated, 0.0, s)
    tol = 8.0 * np.finfo(float).eps * np.maximum(1.0, a)
    for _ in range(_MAX_SWEEPS):
        c = np.cosh(s)
        g = np.tanh(s) + two_eps * s - a
        s = s - g / (1.0 / (c * c) + two_eps)
        if np.all(np.abs(g) <= tol):
            break
    else:
        raise NumericFailure(
            f"logarithmic resolvent did not converge in {_MAX_SWEEPS} Newton sweeps (eps = {eps})"
        )
    return np.copysign(np.where(saturated, 1.0, np.tanh(s)), r)


def _logarithmic_slope(eps, r, j):
    # beta'(J) / (1 + eps beta'(J)) with beta'(J) = 2 / (1 - J^2), finite at J = +-1.
    return 2.0 / ((1.0 - j) * (1.0 + j) + 2.0 * eps)


def logarithmic_potential(c1: float) -> PotentialSpec:
    """Entropic double well on (-1, 1); requires c1 > 1 for nonconvexity."""
    if not c1 > 1.0:
        raise ValueError(f"logarithmic potential requires c1 > 1, got {c1}")
    return PotentialSpec(
        kind="logarithmic",
        beta_hat=_entropy,
        pi_hat=lambda r: -c1 * np.asarray(r, dtype=float) ** 2,
        pi=lambda r: -2.0 * c1 * np.asarray(r, dtype=float),
        pi_prime=lambda r: -2.0 * c1 * np.ones_like(np.asarray(r, dtype=float)),
        pi_lipschitz=2.0 * c1,
        domain=(-1.0, 1.0),
        beta_min_section=_entropy_slope,
    )


def _obstacle_slope(eps, r, j):
    # Piecewise exact: 0 inside [-1, 1], 1/eps outside.
    return np.where(np.abs(r) <= 1.0, 0.0, 1.0 / eps)


def double_obstacle_potential(c2: float) -> PotentialSpec:
    """Indicator of [-1, 1] plus the concave perturbation -c2 r^2."""
    if not c2 > 0.0:
        raise ValueError(f"double obstacle potential requires c2 > 0, got {c2}")
    return PotentialSpec(
        kind="double_obstacle",
        beta_hat=lambda r: np.where(np.abs(np.asarray(r, dtype=float)) <= 1.0, 0.0, np.inf),
        pi_hat=lambda r: -c2 * np.asarray(r, dtype=float) ** 2,
        pi=lambda r: -2.0 * c2 * np.asarray(r, dtype=float),
        pi_prime=lambda r: -2.0 * c2 * np.ones_like(np.asarray(r, dtype=float)),
        pi_lipschitz=2.0 * c2,
        domain=(-1.0, 1.0),
        beta_min_section=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
    )


# The exact resolvent kernel (eps, r) -> J and the Yosida slope (eps, r, J) of each kind.
_KERNELS = {
    "regular": _regular_resolvent,
    "logarithmic": _logarithmic_resolvent,
    "double_obstacle": lambda eps, r: np.clip(r, -1.0, 1.0),
}
_SLOPES = {
    "regular": _regular_slope,
    "logarithmic": _logarithmic_slope,
    "double_obstacle": _obstacle_slope,
}


def resolvent(spec: PotentialSpec, eps: float, r):
    """Solve y + eps*beta(y) = r for the unique y in the closure of D(beta).

    Runs the exact kernel of the potential (see the module docstring),
    accurate to a few ulps of max(1, |r|).  Vectorized over ``r``; a scalar
    r gives a float.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    r_arr = np.asarray(r, dtype=float)
    y = _KERNELS[spec.kind](eps, r_arr)
    return float(y) if r_arr.ndim == 0 else y


@dataclass(frozen=True)
class Regularization:
    """The Moreau-Yosida regularization of the graph at the float array ``r``.

    ``value`` = yosida(r) = (r - j) / eps, the primitive and the slope all
    follow from the one resolvent solve ``j = resolvent(r)``.
    """

    spec: PotentialSpec
    eps: float
    r: np.ndarray
    j: np.ndarray
    value: np.ndarray

    def primitive(self) -> np.ndarray:
        """beta_hat_eps(r) = beta_hat(J) + (r - J)^2 / (2 eps); 0 <= beta_hat_eps <= beta_hat."""
        return self.spec.beta_hat(self.j) + (self.r - self.j) ** 2 / (2.0 * self.eps)

    def slope(self) -> np.ndarray:
        """Derivative of ``value``, beta'(J) / (1 + eps*beta'(J)), used for Newton Jacobians.

        Closed form per potential, finite everywhere; the double obstacle case
        is piecewise exact: 0 inside [-1, 1], 1/eps outside.
        """
        return _SLOPES[self.spec.kind](self.eps, self.r, self.j)


def regularize(spec: PotentialSpec, eps: float, r) -> Regularization:
    """Solve the resolvent once at ``r``; vectorized over ``r``."""
    r_arr = np.asarray(r, dtype=float)
    j = resolvent(spec, eps, r_arr)
    return Regularization(spec, eps, r_arr, j, (r_arr - j) / eps)


def _match_scalar(r, out):
    return float(out) if np.ndim(r) == 0 else out


def yosida(spec: PotentialSpec, eps: float, r):
    """Lipschitz regularization (r - resolvent(r)) / eps of the graph."""
    return _match_scalar(r, regularize(spec, eps, r).value)


def yosida_primitive(spec: PotentialSpec, eps: float, r):
    """Regularized convex part beta_hat_eps; see ``Regularization.primitive``."""
    return _match_scalar(r, regularize(spec, eps, r).primitive())


def yosida_derivative(spec: PotentialSpec, eps: float, r):
    """Derivative of ``yosida`` at r; see ``Regularization.slope``."""
    return _match_scalar(r, regularize(spec, eps, r).slope())


@dataclass(frozen=True)
class InteriorBoundConstants:
    """Sampled constants for the interior lower bound of the regularized graph.

    Records the smallest C0 >= 0 such that, on every sampled (eps, r, r0) with
    r0 in [r_lo, r_hi], yosida(r)*(r - r0) >= delta0*|yosida(r)| - C0.
    This is a numeric estimate over the supplied grids, not a proof.
    """

    r_lo: float
    r_hi: float
    delta0: float
    C0: float


def interior_bound_constants(
    spec: PotentialSpec,
    r_lo: float,
    r_hi: float,
    delta0: float,
    eps_grid: Sequence[float],
    r_grid: Sequence[float],
) -> InteriorBoundConstants:
    """Estimate the offset constant of the interior inequality by a grid sweep.

    Requires r_lo - delta0 and r_hi + delta0 to lie in the interior of
    D(beta); raises CompatibilityError otherwise.  For each sampled r the
    expression delta0*|b| - b*(r - r0) is linear in r0, so only the endpoint
    values r0 in {r_lo, r_hi} are evaluated.
    """
    if delta0 <= 0.0:
        raise ValueError(f"delta0 must be positive, got {delta0}")
    if r_lo > r_hi:
        raise ValueError(f"empty admissible range: r_lo={r_lo} > r_hi={r_hi}")
    for endpoint in (r_lo - delta0, r_hi + delta0):
        if not spec.interior_contains(endpoint):
            raise CompatibilityError(
                f"(2.14) interior condition fails: {endpoint} is not interior to "
                f"D(beta) = ({spec.domain[0]}, {spec.domain[1]})"
            )
    r = np.asarray(list(r_grid), dtype=float)
    worst = 0.0
    for eps in eps_grid:
        b = yosida(spec, float(eps), r)
        for r0 in (r_lo, r_hi):
            gap = delta0 * np.abs(b) - b * (r - r0)
            worst = max(worst, float(gap.max(initial=0.0)))
    return InteriorBoundConstants(r_lo=r_lo, r_hi=r_hi, delta0=delta0, C0=worst)
