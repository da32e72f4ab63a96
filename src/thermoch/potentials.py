"""Double-well potentials split into a convex part and a quadratic perturbation.

A potential F = beta_hat + pi_hat consists of a convex, lower-semicontinuous
beta_hat >= 0 with beta_hat(0) = 0 (possibly +inf outside a domain interval)
and a quadratic pi_hat(r) = pi_hat(0) - (L/2) r^2 whose derivative -L r is
Lipschitz; a potential keeps just those two constants.  The multivalued
monotone graph beta = d(beta_hat) is represented through its minimal section
beta_min_section, and regularized by the resolvent J = (I + eps*beta)^(-1) and
the induced Lipschitz approximation (r - J) / eps, both read from one
``regularize`` solve.

Three prototypes are provided, each with an exact resolvent kernel:

* regular:          beta_hat(r) = r^4/4,            pi_hat(r) = (1 - 2 r^2)/4;
                    the real root of the cubic y + eps*y^3 = r in closed form,
                    polished by one Newton step
* logarithmic:      beta_hat(r) = (1+r)ln(1+r) + (1-r)ln(1-r) on [-1, 1],
                    pi_hat(r) = -c1 r^2  (c1 > 1); Halley's method on the
                    smooth equation tanh(s) + 2 eps s = r, one tanh per
                    sweep, with J = tanh(s)
* double_obstacle:  beta_hat = indicator of [-1, 1], pi_hat(r) = -c2 r^2;
                    the projection onto [-1, 1]
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericFailure, require

# Edge offset keeping the entropy's logarithms finite at the ends of [-1, 1].
_EDGE = 1e-15

# tanh rounds to exactly 1.0 beyond s ~ 19.06; a root s >= _S_SAT saturates.
_S_SAT = 20.0
_SAT_GAP = math.exp(-2.0 * _S_SAT)
_MAX_SWEEPS = 50


@dataclass(frozen=True)
class PotentialSpec:
    """Decomposed double-well potential with its monotone convex part.

    The callables are vectorized over numpy arrays; pi_hat(r) =
    pi_hat_at_zero - (pi_lipschitz / 2) r^2.  ``domain`` is the closed hull
    of D(beta); use +-inf for unbounded sides.  ``kernel(eps, r)`` is the
    exact resolvent J and ``slope(eps, J, value)`` the closed-form Yosida slope;
    callers reach them through ``resolvent`` and ``Regularization.slope``.
    """

    beta_hat: Callable[[np.ndarray], np.ndarray]
    pi_lipschitz: float
    pi_hat_at_zero: float
    domain: tuple[float, float]
    beta_min_section: Callable[[np.ndarray], np.ndarray]
    kernel: Callable[[float, np.ndarray], np.ndarray]
    slope: Callable[[float, np.ndarray, np.ndarray], np.ndarray]


def _regular_resolvent(eps, r):
    # y + eps*y^3 = r: hyperbolic Cardano formula for a cubic with p > 0
    # (Press et al., Numerical Recipes, section 5.6), then one Newton step to
    # remove the few ulps that the sinh/asinh chain amplifies.
    q = np.sqrt(3.0 * eps)
    y = (2.0 / q) * np.sinh(np.arcsinh((1.5 * q) * r) / 3.0)
    yy = y * y
    return y - (y + eps * yy * y - r) / (1.0 + 3.0 * eps * yy)


def _regular_slope(eps, j, value):
    jj = j * j
    return 3.0 * jj / (1.0 + 3.0 * eps * jj)


def regular_potential() -> PotentialSpec:
    """Quartic double well, convex part r^4/4, perturbation slope -r."""
    return PotentialSpec(
        beta_hat=lambda r: 0.25 * np.square(np.square(np.asarray(r, dtype=float))),
        pi_lipschitz=1.0, pi_hat_at_zero=0.25,
        domain=(-np.inf, np.inf),
        beta_min_section=lambda r: np.square(r) * np.asarray(r, dtype=float),
        kernel=_regular_resolvent, slope=_regular_slope,
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
    """J = tanh(s), where s >= 0 solves g(s) = tanh(s) + 2 eps s - |r| = 0 (sign restored).

    g is increasing and concave on s >= 0: g' = sech^2(s) + 2 eps lies in
    [2 eps, 1 + 2 eps] and g'' = -2 tanh(s) sech^2(s) <= 0.  Each sweep
    evaluates one tanh, t = tanh(s), takes sech^2 = (1 - t)(1 + t) from it
    and makes a Halley step s -= g g' / (g'^2 - g g''/2), which converges
    cubically.  The start is the largest of three lower bounds: |r|/(1 + 2 eps)
    from tanh(s) <= s, (|r| - 1)/(2 eps) from tanh(s) <= 1, and
    -ln(1 - |r| + 2 eps S)/2 from tanh(s) <= 1 - exp(-2 s) with S = _S_SAT.
    The last two are positive only where 1 - |r| + 2 eps S <= max(1, 2 eps S).
    Below the root g g'' >= 0, so a Halley step is the Newton step stretched
    by 1/(1 - L), L = g g''/(2 g'^2); from these starts L stays below 1/2
    (a dense sweep of eps in [5e-324, 0.999] and |r| <= 1e3 finds at most
    0.49, and at most 4 sweeps).  When 1 - |r| + 2 eps S <= exp(-2 S) the
    root exceeds S, tanh of it rounds to 1 and J = +-1 is returned directly.
    Sweeps stop once every residual is within 8 ulps of max(1, |r|); J is
    that sweep's t, which lies within the same bound of tanh at the root.
    The sweeps write into preallocated buffers and keep the association of
    every expression, so J is the same bit for bit as with temporaries.
    """
    shape = r.shape
    r = r.reshape(-1)  # with a 0-d r the ufuncs would return scalars, which out= rejects
    a = np.abs(r)
    two_eps = 2.0 * eps
    cap = two_eps * _S_SAT
    gap = (1.0 - a) + cap
    s = np.maximum(
        np.maximum(a / (1.0 + two_eps), -0.5 * np.log(np.maximum(gap, _SAT_GAP))),
        np.clip(a - 1.0, 0.0, cap) / two_eps,
    )
    # Saturated points sit at the trivial root s = 0 of a = 0 while sweeping.
    saturated = gap <= _SAT_GAP
    a[saturated] = s[saturated] = 0.0
    tol = 8.0 * np.finfo(float).eps * np.maximum(1.0, a)
    t = np.empty_like(s)  # the result, apart from the work buffers so as not to keep them alive
    g, u, v = np.empty((3, s.size))
    converged = np.empty(s.shape, dtype=bool)
    for _ in range(_MAX_SWEEPS + 1):
        np.tanh(s, out=t)
        np.multiply(s, two_eps, out=g)
        g += t
        g -= a
        if np.less_equal(np.abs(g, out=u), tol, out=converged).all():
            break
        np.multiply(np.subtract(1.0, t, out=u), np.add(t, 1.0, out=v), out=u)  # sech^2
        np.add(u, two_eps, out=v)  # the slope g'
        t *= g  # (g t) sech^2 + g'^2
        t *= u
        t += np.multiply(v, v, out=u)
        g *= v
        g /= t
        s -= g
    else:
        raise NumericFailure(
            f"logarithmic resolvent did not converge in {_MAX_SWEEPS} Halley sweeps (eps = {eps})"
        )
    t[saturated] = 1.0
    return np.copysign(t, r, out=t).reshape(shape)


def _logarithmic_slope(eps, j, value):
    # beta'(J) / (1 + eps beta'(J)) with beta'(J) = 2 / (1 - J^2), finite at J = +-1.
    return 2.0 / ((1.0 - j) * (1.0 + j) + 2.0 * eps)


def logarithmic_potential(c1: float) -> PotentialSpec:
    """Entropic double well on (-1, 1); requires c1 > 1 for nonconvexity."""
    require((c1 > 1.0, f"(2.11) logarithmic potential requires c1 > 1, got {c1}"))
    return PotentialSpec(
        beta_hat=_entropy,
        pi_lipschitz=2.0 * c1, pi_hat_at_zero=0.0,
        domain=(-1.0, 1.0),
        beta_min_section=_entropy_slope,
        kernel=_logarithmic_resolvent, slope=_logarithmic_slope,
    )


def _obstacle_slope(eps, j, value):
    # Piecewise exact: 0 where J = r, i.e. inside [-1, 1], 1/eps outside.
    return np.where(value == 0.0, 0.0, 1.0 / eps)


def double_obstacle_potential(c2: float) -> PotentialSpec:
    """Indicator of [-1, 1] plus the concave perturbation -c2 r^2."""
    require((c2 > 0.0, f"(2.11) double obstacle potential requires c2 > 0, got {c2}"))
    return PotentialSpec(
        beta_hat=lambda r: np.where(np.abs(np.asarray(r, dtype=float)) <= 1.0, 0.0, np.inf),
        pi_lipschitz=2.0 * c2, pi_hat_at_zero=0.0,
        domain=(-1.0, 1.0),
        beta_min_section=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        kernel=lambda eps, r: np.clip(r, -1.0, 1.0), slope=_obstacle_slope,
    )


def eps_rule(eps: float) -> tuple[bool, str]:
    """The rule eps in (0, 1), as ``errors.require`` takes it; checked where eps enters, not per solve."""
    return 0.0 < eps < 1.0, f"(2.11) eps must lie in (0, 1), got {eps}"


def resolvent(spec: PotentialSpec, eps: float, r):
    """Solve y + eps*beta(y) = r for the unique y in the closure of D(beta).

    Runs the exact kernel of the potential (see the module docstring),
    accurate to a few ulps of max(1, |r|), for eps in (0, 1) (``eps_rule``).
    Vectorized over ``r``; a scalar r gives a float.
    """
    r_arr = np.asarray(r, dtype=float)
    y = spec.kernel(eps, r_arr)
    return float(y) if r_arr.ndim == 0 else y


@dataclass(frozen=True)
class Regularization:
    """The Moreau-Yosida regularization of the graph at a float array r, kept as
    the answer of the one solve ``j = resolvent(r)`` and ``value`` = yosida(r) =
    (r - j) / eps; the primitive and the slope follow from these two.
    """

    spec: PotentialSpec
    eps: float
    j: np.ndarray
    value: np.ndarray

    def primitive(self) -> np.ndarray:
        """beta_hat_eps(r) = beta_hat(J) + (eps / 2) value^2; 0 <= beta_hat_eps <= beta_hat."""
        return self.spec.beta_hat(self.j) + 0.5 * self.eps * self.value**2

    def primitive_sum(self) -> float:
        """Sum of ``primitive()`` over a 1-D grid, without its pointwise array.

        The same two terms as ``primitive()``, summed separately:
        sum beta_hat(J) + (eps / 2) sum value^2, both NumPy sums, which no
        thread count changes.
        """
        beta_hat_sum = float(self.spec.beta_hat(self.j).sum())
        return beta_hat_sum + 0.5 * self.eps * float(np.square(self.value).sum())

    def slope(self) -> np.ndarray:
        """Derivative of ``value``, beta'(J) / (1 + eps*beta'(J)), used for Newton Jacobians.

        Closed form per potential, finite everywhere; the double obstacle case
        is piecewise exact: 0 where value = 0 (J = r, i.e. inside [-1, 1]), 1/eps outside.
        """
        return self.spec.slope(self.eps, self.j, self.value)


def regularize(spec: PotentialSpec, eps: float, r) -> Regularization:
    """Solve the resolvent once at ``r``; vectorized over ``r``."""
    r_arr = np.asarray(r, dtype=float)
    j = resolvent(spec, eps, r_arr)
    return Regularization(spec, eps, j, (r_arr - j) / eps)

