"""Double-well potentials split into a convex part and a smooth perturbation.

A potential F = beta_hat + pi_hat consists of a convex, lower-semicontinuous
beta_hat >= 0 with beta_hat(0) = 0 (possibly +inf outside a domain interval)
and a smooth pi_hat whose derivative pi is Lipschitz.  The multivalued
monotone graph beta = d(beta_hat) is represented through its minimal section
beta_min_section, and regularized by the resolvent (I + eps*beta)^(-1) and
the induced Lipschitz approximation ``yosida``.

Three prototypes are provided:

* regular:          beta_hat(r) = r^4/4,            pi_hat(r) = (1 - 2 r^2)/4
* logarithmic:      beta_hat(r) = (1+r)ln(1+r) + (1-r)ln(1-r) on [-1, 1],
                    pi_hat(r) = -c1 r^2  (c1 > 1)
* double_obstacle:  beta_hat = indicator of [-1, 1], pi_hat(r) = -c2 r^2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CompatibilityError, NumericFailure

# Edge offset keeping resolvent iterates strictly inside open domains such as
# (-1, 1), where the graph blows up at the boundary.
_EDGE = 1e-15

_MAX_ROOT_ITER = 100


@dataclass(frozen=True)
class PotentialSpec:
    """Decomposed double-well potential with its monotone convex part.

    All callables are vectorized over numpy arrays.  ``domain`` is the closed
    hull of D(beta); use +-inf for unbounded sides.  ``beta_prime`` and
    ``pi_prime`` are optional analytic derivatives used to build Jacobians;
    without them a central difference is substituted.
    """

    kind: str
    beta_hat: Callable[[np.ndarray], np.ndarray]
    pi_hat: Callable[[np.ndarray], np.ndarray]
    pi: Callable[[np.ndarray], np.ndarray]
    pi_lipschitz: float
    domain: tuple[float, float]
    beta_min_section: Callable[[np.ndarray], np.ndarray]
    beta_prime: Optional[Callable[[np.ndarray], np.ndarray]] = None
    pi_prime: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def interior_contains(self, r: float) -> bool:
        return self.domain[0] < r < self.domain[1]


def regular_potential() -> PotentialSpec:
    """Quartic double well, convex part r^4/4, perturbation slope -r."""
    return PotentialSpec(
        kind="regular",
        beta_hat=lambda r: 0.25 * np.asarray(r, dtype=float) ** 4,
        pi_hat=lambda r: 0.25 * (1.0 - 2.0 * np.asarray(r, dtype=float) ** 2),
        pi=lambda r: -np.asarray(r, dtype=float),
        pi_lipschitz=1.0,
        domain=(-np.inf, np.inf),
        beta_min_section=lambda r: np.asarray(r, dtype=float) ** 3,
        beta_prime=lambda r: 3.0 * np.asarray(r, dtype=float) ** 2,
        pi_prime=lambda r: -np.ones_like(np.asarray(r, dtype=float)),
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


def logarithmic_potential(c1: float) -> PotentialSpec:
    """Entropic double well on (-1, 1); requires c1 > 1 for nonconvexity."""
    if not c1 > 1.0:
        raise ValueError(f"logarithmic potential requires c1 > 1, got {c1}")
    return PotentialSpec(
        kind="logarithmic",
        beta_hat=_entropy,
        pi_hat=lambda r: -c1 * np.asarray(r, dtype=float) ** 2,
        pi=lambda r: -2.0 * c1 * np.asarray(r, dtype=float),
        pi_lipschitz=2.0 * c1,
        domain=(-1.0, 1.0),
        beta_min_section=_entropy_slope,
        beta_prime=lambda r: 2.0 / (1.0 - np.asarray(r, dtype=float) ** 2),
        pi_prime=lambda r: -2.0 * c1 * np.ones_like(np.asarray(r, dtype=float)),
    )


def double_obstacle_potential(c2: float) -> PotentialSpec:
    """Indicator of [-1, 1] plus the concave perturbation -c2 r^2."""
    if not c2 > 0.0:
        raise ValueError(f"double obstacle potential requires c2 > 0, got {c2}")
    return PotentialSpec(
        kind="double_obstacle",
        beta_hat=lambda r: np.where(np.abs(np.asarray(r, dtype=float)) <= 1.0, 0.0, np.inf),
        pi_hat=lambda r: -c2 * np.asarray(r, dtype=float) ** 2,
        pi=lambda r: -2.0 * c2 * np.asarray(r, dtype=float),
        pi_lipschitz=2.0 * c2,
        domain=(-1.0, 1.0),
        beta_min_section=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        pi_prime=lambda r: -2.0 * c2 * np.ones_like(np.asarray(r, dtype=float)),
    )


def custom_potential(
    beta_hat: Callable,
    beta_min_section: Callable,
    domain: tuple[float, float],
    pi_hat: Callable,
    pi: Callable,
    pi_lipschitz: float,
    beta_prime: Optional[Callable] = None,
    pi_prime: Optional[Callable] = None,
) -> PotentialSpec:
    """Wrap user-supplied callables; no derivative is inferred automatically."""
    return PotentialSpec(
        kind="custom",
        beta_hat=beta_hat,
        pi_hat=pi_hat,
        pi=pi,
        pi_lipschitz=float(pi_lipschitz),
        domain=(float(domain[0]), float(domain[1])),
        beta_min_section=beta_min_section,
        beta_prime=beta_prime,
        pi_prime=pi_prime,
    )


def _clip_interior(spec: PotentialSpec, y: np.ndarray) -> np.ndarray:
    lo, hi = spec.domain
    if np.isfinite(lo):
        y = np.maximum(y, lo + _EDGE)
    if np.isfinite(hi):
        y = np.minimum(y, hi - _EDGE)
    return y


def resolvent(spec: PotentialSpec, eps: float, r):
    """Solve y + eps*beta(y) = r for the unique y in the closure of D(beta).

    For the double obstacle graph this is the projection onto [-1, 1]; for
    the other kinds a safeguarded Newton iteration with a bisection fallback
    is run on the monotone scalar equation, bracketed by [min(0, r), max(0, r)]
    intersected with the (clipped) domain.  Vectorized over ``r``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_flat = np.atleast_1d(r_arr).astype(float)

    if spec.kind == "double_obstacle":
        y = np.clip(r_flat, -1.0, 1.0)
        return float(y[0]) if scalar else y.reshape(r_arr.shape)

    lo = _clip_interior(spec, np.minimum(r_flat, 0.0))
    hi = _clip_interior(spec, np.maximum(r_flat, 0.0))

    def g(y):
        return y + eps * spec.beta_min_section(y) - r_flat

    g_lo = g(lo)
    g_hi = g(hi)
    y = np.clip(r_flat, lo, hi)
    # Roots pinned to an endpoint when the equation has no sign change there
    # (graph absorbed by a vertical segment, or clipped singular edge).
    y = np.where(g_lo >= 0.0, lo, y)
    y = np.where(g_hi <= 0.0, hi, y)
    active = (g_lo < 0.0) & (g_hi > 0.0)

    gy = g(y)
    tol = 1e-13 * np.maximum(1.0, np.abs(r_flat))
    for _ in range(_MAX_ROOT_ITER):
        active &= np.abs(gy) > tol
        if not active.any():
            break
        neg = active & (gy < 0.0)
        pos = active & (gy > 0.0)
        lo = np.where(neg, y, lo)
        hi = np.where(pos, y, hi)
        if spec.beta_prime is not None:
            slope = 1.0 + eps * spec.beta_prime(y)
            with np.errstate(divide="ignore", invalid="ignore"):
                y_newton = y - gy / slope
            good = np.isfinite(y_newton) & (y_newton > lo) & (y_newton < hi)
        else:
            y_newton = y
            good = np.zeros_like(active)
        y_next = np.where(good, y_newton, 0.5 * (lo + hi))
        y = np.where(active, y_next, y)
        gy = np.where(active, g(y), gy)
        width_done = (hi - lo) <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(y))
        active &= ~width_done
    else:
        if active.any():
            raise NumericFailure(
                f"resolvent root-finder failed to converge for kind={spec.kind!r}"
            )

    return float(y[0]) if scalar else y.reshape(r_arr.shape)


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
        """Derivative of ``value``, used for Newton Jacobians.

        Equals beta'(J) / (1 + eps*beta'(J)) where the analytic beta' is
        available; a central difference of ``yosida`` otherwise.  The double
        obstacle case is piecewise exact: 0 inside [-1, 1], 1/eps outside.
        """
        spec, eps, r = self.spec, self.eps, self.r
        if spec.kind == "double_obstacle":
            return np.where(np.abs(r) <= 1.0, 0.0, 1.0 / eps)
        if spec.beta_prime is not None:
            bp = spec.beta_prime(self.j)
            with np.errstate(over="ignore", invalid="ignore"):
                return np.where(np.isfinite(bp), bp / (1.0 + eps * bp), 1.0 / eps)
        h = 1e-6 * np.maximum(1.0, np.abs(r))
        return (yosida(spec, eps, r + h) - yosida(spec, eps, r - h)) / (2.0 * h)


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


def sampled_spec_violations(spec: PotentialSpec, r_grid: Sequence[float], tol: float = 1e-9) -> list[str]:
    """Sampled structural checks of a potential decomposition.

    Checks midpoint convexity, sign, and normalization of beta_hat, the
    declared Lipschitz constant of pi, and the zero of the minimal section.
    Returns human-readable violation strings (empty when all pass).
    """
    violations: list[str] = []
    r = np.asarray(list(r_grid), dtype=float)
    lo, hi = spec.domain
    inside = (r > lo) & (r < hi)
    ri = r[inside]

    bh = spec.beta_hat(ri)
    if float(np.abs(spec.beta_hat(np.array(0.0)))) > tol:
        violations.append("beta_hat(0) != 0")
    if bh.size and float(bh.min()) < -tol:
        violations.append(f"beta_hat takes negative value {bh.min()}")
    if ri.size >= 2:
        a, b = np.meshgrid(ri, ri, indexing="ij")
        mid = spec.beta_hat(0.5 * (a + b))
        chord = 0.5 * (spec.beta_hat(a) + spec.beta_hat(b))
        gap = mid - chord
        if float(np.nanmax(gap)) > tol:
            violations.append(f"beta_hat midpoint convexity violated by {np.nanmax(gap)}")

    if r.size >= 2:
        pr = spec.pi(r)
        dp = np.abs(pr[:, None] - pr[None, :])
        dr = np.abs(r[:, None] - r[None, :])
        mask = dr > 0
        excess = dp[mask] - spec.pi_lipschitz * dr[mask]
        if float(excess.max(initial=-np.inf)) > tol:
            violations.append("pi violates the declared Lipschitz constant")

    if not spec.interior_contains(0.0) and not (lo <= 0.0 <= hi):
        violations.append("0 does not belong to D(beta)")
    elif float(np.abs(spec.beta_min_section(np.array(0.0)))) > tol:
        violations.append("beta_min_section(0) != 0")
    return violations
