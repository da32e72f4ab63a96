import numpy as np
import pytest

from thermoch import galerkin as gk
from thermoch import spectral as sp


@pytest.fixture
def unit_domain():
    return sp.BoxDomain((1.0,), 64)


@pytest.fixture
def unit_basis(unit_domain):
    return sp.build_basis(unit_domain, 16)


def make_problem_data(
    domain,
    potential,
    eps=0.1,
    gamma=1.0,
    a=0.0,
    b=1.0,
    kappa1=1.0,
    kappa2=1.0,
    lam=2.0,
    f=None,
    g=None,
    phi0=None,
    w0=None,
    w1=None,
    t_final=1.0,
):
    zero = gk.constant_source(sp.constant_field(0.0, domain))
    const = lambda v: sp.constant_field(v, domain)
    return gk.ProblemData(
        params=gk.PhysicalParams(gamma, a, b, kappa1, kappa2, lam),
        potential=potential,
        eps=eps,
        f=f if f is not None else zero,
        g=g if g is not None else zero,
        phi0=phi0 if phi0 is not None else const(0.0),
        w0=w0 if w0 is not None else const(0.0),
        w1=w1 if w1 is not None else const(0.0),
        t_final=t_final,
    )


def coeffs_allclose(a, b, tol=1e-12):
    return np.allclose(a.values, b.values, rtol=0.0, atol=tol)


def sampled_spec_violations(spec, r_grid, tol=1e-9):
    """Sampled structural checks of a potential decomposition.

    Checks midpoint convexity, sign, and normalization of beta_hat, the
    declared Lipschitz constant of pi, and the zero of the minimal section.
    Returns human-readable violation strings (empty when all pass).
    """
    violations = []
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
