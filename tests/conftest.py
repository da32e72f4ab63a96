import math
from collections import namedtuple

import numpy as np
import pytest

from thermoch import galerkin as gk
from thermoch import potentials as pot
from thermoch import spectral as sp
from thermoch.errors import NumericFailure, StepFailure


@pytest.fixture
def unit_domain():
    return sp.BoxDomain((1.0,), 64)


@pytest.fixture
def unit_basis(unit_domain):
    return sp.build_basis(unit_domain, 16)


# A time level: the coefficient arrays of phi, w and v at time t, on ``basis``.
State = namedtuple("State", "t phi w v basis")


def zero_state(basis):
    return State(0.0, np.zeros(basis.n), np.zeros(basis.n), np.zeros(basis.n), basis)


def initial_state(data, basis):
    """``galerkin.project_initial_data`` as the State at t = 0."""
    return State(0.0, *gk.project_initial_data(data, basis), basis)


def grid_values(c, basis):
    """The grid values of the coefficients c on ``basis``, as a Field."""
    return sp.Field(sp.to_field(c, basis), basis.domain)


def constant_source(f):
    return gk.SourceTerm(times=(0.0,), fields=(f,))


def grid_coords(domain):
    """Flattened coordinate arrays of the tensor grid (C order)."""
    meshes = np.meshgrid(*domain.grid_axes(), indexing="ij")
    return [mesh.ravel() for mesh in meshes]


def mesh_cosine_sum_field(domain, constant=0.0, terms=()):
    """Oracle for ``spectral.cosine_sum_field``: every term evaluated on the full tensor grid."""
    coords = grid_coords(domain)
    out = np.full(domain.n_grid, float(constant))
    for mode, amp in terms:
        term = np.full(domain.n_grid, float(amp))
        for k, x, L in zip(mode, coords, domain.lengths):
            term = term * np.cos(k * math.pi * x / L)
        out += term
    return sp.Field(out, domain)


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
    zero = constant_source(sp.constant_field(0.0, domain))
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


def pi(spec, r):
    """The perturbation's derivative pi(r) = -L r, pointwise."""
    return -spec.pi_lipschitz * np.asarray(r, dtype=float)


def pi_hat(spec, r):
    """The perturbation pi_hat(r) = pi_hat(0) - (L/2) r^2, pointwise."""
    return spec.pi_hat_at_zero - 0.5 * spec.pi_lipschitz * np.asarray(r, dtype=float) ** 2


def pointwise_bulk(reg, r, a, weight):
    """Oracle for the bulk of ``galerkin.evaluate``: the quadrature of the pointwise
    array beta_hat_eps(r) + pi_hat(r) + a r, and the quadrature of the moduli
    of its three terms (the scale of its rounding error).  ``reg`` is the
    regularization at the grid values r; the primitive is the other form of
    its identity, beta_hat(J) + (r - J)^2 / (2 eps), so the library's
    (eps / 2) value^2 form is checked against it."""
    primitive = reg.spec.beta_hat(reg.j) + (r - reg.j) ** 2 / (2.0 * reg.eps)
    terms = (primitive, pi_hat(reg.spec, r), a * r)
    return float(weight * sum(terms).sum()), float(weight * sum(np.abs(t) for t in terms).sum())


def pointwise_nonlinearity(reg, r, a, basis):
    """Oracle for the nl of ``galerkin.evaluate``: the projection of the pointwise
    array yosida(r) + pi(r) + a, and sqrt(|Omega|) times the largest sum of
    the moduli of its three terms, which bounds every coefficient (the scale
    of its rounding error).  ``reg`` is the regularization at the grid values r."""
    terms = (reg.value, pi(reg.spec, r), np.full_like(r, a))
    moduli = sum(np.abs(t) for t in terms)
    nl = sp.to_coeffs(sum(terms), basis)
    return nl, float(moduli.max()) * math.sqrt(basis.domain.measure)


def mean_value(c, basis):
    """The mean over the box of the element with coefficients c: c_1 / sqrt(|Omega|)."""
    return float(c[0]) / math.sqrt(basis.domain.measure)


def grad_norm(c, basis):
    """L2 norm of the gradient: sqrt(sum lambda_j c_j^2)."""
    return math.sqrt(float((basis.eigenvalues * c**2).sum()))


def norm_H1(c, basis):
    return math.sqrt(float(((1.0 + basis.eigenvalues) * c**2).sum()))


def norm_Hm1(c, basis):
    """The dual norm of the coefficients c, from ``spectral.norm_Hm1_rows``."""
    return float(sp.norm_Hm1_rows(c[None], basis)[0])


def evaluate(state, data):
    """``galerkin.evaluate`` of a State: (nl, mu, xi, bulk)."""
    return gk.evaluate(state.phi, state.v, data, state.basis)


def sources_at(state, data):
    """The projected f and g at the time of ``state``."""
    return tuple(s.project(state.basis)[i] for s, i in zip((data.f, data.g), data.segments(state.t)))


def step_state(state, data, dt, scheme=gk.SEMI_IMPLICIT):
    """One ``galerkin.step`` of a State: the new State and the step's regularized graph."""
    op = gk.step_operator(state.basis, data.params, dt, scheme)
    *new, reg = gk.step(state.phi, state.w, state.v, evaluate(state, data)[0],
                        *sources_at(state, data), data, op)
    return State(state.t + dt, *new, state.basis), reg


def rhs(state, data):
    """Oracle for the steps: the time derivatives (phi', w', v') at ``state``."""
    p, lam = data.params, state.basis.eigenvalues
    f, g = sources_at(state, data)
    dphi = f - lam * evaluate(state, data)[1] - p.gamma * state.phi
    dv = g - lam * (p.kappa1 * state.v + p.kappa2 * state.w) - p.lambda_latent * dphi
    return dphi, state.v, dv


def spectral_record(state, data, mean_exact):
    """Oracle for one level of ``galerkin.compute_record``: every term from
    per-level norms and inner products, the dual norm from its sum."""
    p, basis = data.params, state.basis
    lam = basis.eigenvalues
    _, mu, xi, bulk = evaluate(state, data)
    f, g = sources_at(state, data)
    return {
        "t": state.t,
        "mean_phi": mean_value(state.phi, basis),
        "mean_phi_exact": mean_exact,
        "energy": (
            0.5 * grad_norm(state.phi, basis) ** 2
            + bulk
            + 0.5 * p.b / p.lambda_latent * np.linalg.norm(state.v) ** 2
            + 0.5 * p.b * p.kappa2 / p.lambda_latent * grad_norm(state.w, basis) ** 2
        ),
        "dissipation_mu": grad_norm(mu, basis) ** 2,
        "dissipation_w": p.b * p.kappa1 / p.lambda_latent * grad_norm(state.v, basis) ** 2,
        "source_power": float((f - p.gamma * state.phi) @ mu)
        + (p.b / p.lambda_latent) * float(g @ state.v),
        "phi_H1": norm_H1(state.phi, basis),
        "phi_dual": math.sqrt(float((state.phi[1:] ** 2 / lam[1:]).sum())
                              + mean_value(state.phi, basis) ** 2),
        "dtw_L2": np.linalg.norm(state.v),
        "grad_w_L2": grad_norm(state.w, basis),
        "xi_L1": sp.norm_Lp(xi, basis.domain, 1),
        "xi_L6": sp.norm_Lp(xi, basis.domain, 6),
        "mu_H1": norm_H1(mu, basis),
    }


def simulate_levels(data, basis, dt, scheme=gk.SEMI_IMPLICIT):
    """The Trajectory of the ``galerkin.Run`` of ``data`` and each of its levels as a State."""
    run = gk.Run(data, basis, dt, scheme)
    rows = [level[:3].copy() for _, level in run]
    traj = run.trajectory()
    return traj, [State(float(t), *row, basis) for t, row in zip(traj.t, rows)]


def stack_levels(states, data, mean_exact):
    """The arguments of ``galerkin.compute_record`` for ``states`` but data and
    sources: their times, coefficients of phi, w, v and mu, and scalars."""
    basis = states[0].basis
    evs = [evaluate(s, data) for s in states]
    return (
        np.array([s.t for s in states]),
        np.array([(s.phi, s.w, s.v, ev[1]) for s, ev in zip(states, evs)]),
        np.array([mean_exact, [ev[3] for ev in evs],
                  *([sp.norm_Lp(ev[2], basis.domain, p) for ev in evs] for p in (1, 6))], dtype=float),
    )


def pow_norm_Lp(f, p):
    """Oracle for ``spectral.norm_Lp`` at finite p of the Field f: the quadrature of |values|^p, to the 1/p."""
    return float((f.domain.cell_weight * np.abs(f.values) ** p).sum() ** (1.0 / p))


def sampled_spec_violations(spec, r_grid, tol=1e-9):
    """Sampled structural checks of a potential decomposition.

    Checks midpoint convexity, sign, and normalization of beta_hat and the
    zero of the minimal section.
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

    if not lo <= 0.0 <= hi:
        violations.append("0 does not belong to D(beta)")
    elif float(np.abs(spec.beta_min_section(np.array(0.0)))) > tol:
        violations.append("beta_min_section(0) != 0")
    return violations


def reference_logarithmic_resolvent(eps, r):
    """The logarithmic kernel as written with a fresh temporary for every
    expression; ``potentials._logarithmic_resolvent`` must equal it bit for bit."""
    a = np.abs(r)
    two_eps = 2.0 * eps
    gap = (1.0 - a) + two_eps * pot._S_SAT
    saturated = gap <= pot._SAT_GAP
    s = np.maximum(a / (1.0 + two_eps), -0.5 * np.log(np.maximum(gap, pot._SAT_GAP)))
    s = np.maximum(s, np.clip(a - 1.0, 0.0, two_eps * pot._S_SAT) / two_eps)
    # Saturated points sit at the trivial root s = 0 of a = 0 while sweeping.
    a = np.where(saturated, 0.0, a)
    s = np.where(saturated, 0.0, s)
    tol = 8.0 * np.finfo(float).eps * np.maximum(1.0, a)
    for _ in range(pot._MAX_SWEEPS + 1):
        t = np.tanh(s)
        g = t + two_eps * s - a
        if np.all(np.abs(g) <= tol):
            break
        sech2 = (1.0 - t) * (1.0 + t)
        slope = sech2 + two_eps
        s = s - g * slope / (slope * slope + g * t * sech2)
    else:
        raise NumericFailure(
            f"logarithmic resolvent did not converge in {pot._MAX_SWEEPS} Halley sweeps (eps = {eps})"
        )
    return np.copysign(np.where(saturated, 1.0, t), r)


def dense_eigenfunctions(basis):
    """The n x N matrix E[j, i] = e_j(x_i), sampled from the closed-form eigenfunctions."""
    coords = grid_coords(basis.domain)
    E = np.ones((basis.n, basis.domain.n_grid))
    for j, mode in enumerate(basis.modes.T.tolist()):
        for k, x, L in zip(mode, coords, basis.domain.lengths):
            E[j] *= math.sqrt((2.0 if k else 1.0) / L) * np.cos(k * math.pi * x / L)
    return E


def dense_elliptic_solve(problem, start=None):
    """Oracle for ``elliptic.solve_elliptic``: the same damped Newton iteration
    with dense transforms, the dense Jacobian and LU solves; returns u's coefficients."""
    basis = problem.basis
    E, w, lam = dense_eigenfunctions(basis), basis.domain.cell_weight, basis.eigenvalues
    h_c = E @ (w * problem.h.values)
    h_norm = float(np.linalg.norm(h_c))
    target, contract = 1e-13 * (1.0 + h_norm), 1e-10 * (1.0 + h_norm)

    def evaluate(u):
        reg = pot.regularize(problem.potential, problem.eps, E.T @ u)
        objective = (
            0.5 * float((lam * u**2).sum()) + w * float(reg.primitive().sum()) - float(h_c @ u)
        )
        return lam * u + E @ (w * reg.value) - h_c, objective, reg

    u = np.zeros(basis.n) if start is None else np.array(start, dtype=float)
    res, val, reg = evaluate(u)
    prev_norm = np.inf
    for _ in range(80):
        res_norm = float(np.linalg.norm(res))
        if res_norm <= target or (res_norm <= contract and res_norm > 0.5 * prev_norm):
            return u
        prev_norm = res_norm
        jac = np.diag(lam) + (E * (w * reg.slope())) @ E.T
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
                raise NumericFailure("oracle: no descent direction")
        descent = float(direction @ res)
        alpha = 1.0
        for _ in range(60):
            trial = u + alpha * direction
            trial_res, trial_val, trial_reg = evaluate(trial)
            armijo = trial_val <= val + 1e-4 * alpha * descent
            if armijo or float(np.linalg.norm(trial_res)) < res_norm:
                u, res, val, reg = trial, trial_res, trial_val, trial_reg
                break
            alpha *= 0.5
        else:
            if res_norm <= contract:
                return u
            raise NumericFailure("oracle: line search stalled")
    raise NumericFailure("oracle: no convergence")


def reduced_jacobian(basis, data, dt, lam, diag, reg):
    """Dense backward-Euler Newton matrix at ``reg``, rows 2..n divided by lambda, mode 1 dropped:
    diag(diag / lam) + dt P diag(s - L) P^T, symmetric."""
    E, w = dense_eigenfunctions(basis)[1:], basis.domain.cell_weight
    slope = reg.slope() - data.potential.pi_lipschitz
    return np.diag(diag[1:] / lam[1:]) + dt * (E * (w * slope)) @ E.T


def dense_backward_euler_phi(nl, data, op, base):
    """Oracle for ``galerkin._backward_euler_phi``: damped Newton on
    R(p) = diag p + dt lam NL(p) - base with dense transforms, the dense
    Jacobian and LU solves, from the semi-implicit step."""
    basis, dt, diag = op.basis, op.dt, op.diag
    lam = basis.eigenvalues
    E, w = dense_eigenfunctions(basis), basis.domain.cell_weight

    def residual(p_vec):
        r = E.T @ p_vec
        reg = pot.regularize(data.potential, data.eps, r)
        nl = E @ (w * (reg.value + pi(data.potential, r) + data.params.a))
        return diag * p_vec + dt * lam * nl - base, reg

    p_vec = (base - dt * lam * nl) / diag
    r_vec, reg = residual(p_vec)
    target = gk._NEWTON_TOL * (1.0 + float(np.linalg.norm(base)))
    for _ in range(50):
        r_norm = float(np.linalg.norm(r_vec))
        if r_norm <= target:
            p_vec = p_vec.copy()
            p_vec[0] = base[0] / diag[0]
            return p_vec
        slope = reg.slope() - data.potential.pi_lipschitz
        jac = np.diag(diag) + dt * lam[:, None] * ((E * (w * slope)) @ E.T)
        delta = np.linalg.solve(jac, -r_vec)
        alpha = 1.0
        for _ in range(30):
            trial = p_vec + alpha * delta
            r_trial, reg_trial = residual(trial)
            if float(np.linalg.norm(r_trial)) < r_norm:
                p_vec, r_vec, reg = trial, r_trial, reg_trial
                break
            alpha *= 0.5
        else:
            raise StepFailure("oracle: line search stalled")
    raise StepFailure("oracle: no convergence")
