"""Reduced spectral ODE system for the coupled phase/thermal evolution.

State is the coefficient triple (phi, w, v) with v = dw/dt; the chemical
potential is reconstructed, never stored.  In coefficient space the system
reads

    phi' + A mu + gamma phi = f_hat,   mu = A phi + NL(phi) - b v,
    v'   + A (kappa1 v + kappa2 w) + lambda phi' = g_hat,   w' = v,

where A is the diagonal stiffness matrix and NL projects
yosida(phi) + pi(phi) + a onto the span.  Mode 1 carries the exact scalar
mean law  mean' + gamma mean = f_mean.  The nonlinearity, mu and the energy
of a state come from one resolvent solve (``evaluate``), which the step
leaving the state and its record share.

Two first-order schemes are provided: ``semi_implicit`` treats all linear
terms implicitly through an exact per-mode 3x3 elimination and freezes the
nonlinearity at the current state; ``backward_euler`` solves the coupled
nonlinear system with a damped Newton iteration.  Both reduce to the implicit
Euler recursion  mean+ = (mean + dt f_mean) / (1 + gamma dt)  for the mean.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import potentials, spectral
from .errors import CompatibilityError, ConfigurationError, RunFailure, StepFailure
from .potentials import PotentialSpec
from .spectral import Coeffs, Field, SpectralBasis

SEMI_IMPLICIT = "semi_implicit"
BACKWARD_EULER = "backward_euler"
SCHEMES = (SEMI_IMPLICIT, BACKWARD_EULER)

_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 50
_NEWTON_MAX_HALVINGS = 30
_DT_FLOOR_FACTOR = 1e-8


@dataclass(frozen=True)
class PhysicalParams:
    """Model constants; all but ``a`` must be positive."""

    gamma: float
    a: float
    b: float
    kappa1: float
    kappa2: float
    lambda_latent: float

    def __post_init__(self):
        for name in ("gamma", "b", "kappa1", "kappa2", "lambda_latent"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ConfigurationError(
                    f"(2.5) {name} must be a positive constant, got {value}"
                )


@dataclass(frozen=True)
class SourceTerm:
    """Piecewise-constant-in-time field: fields[i] holds on [times[i], times[i+1])."""

    times: tuple[float, ...]
    fields: tuple[Field, ...]

    def __post_init__(self):
        if len(self.times) != len(self.fields) or not self.times:
            raise ValueError("times and fields must be equally sized and nonempty")
        if self.times[0] != 0.0:
            raise ValueError(f"first segment must start at 0, got {self.times[0]}")
        if any(t1 <= t0 for t0, t1 in zip(self.times, self.times[1:])):
            raise ValueError("segment start times must be strictly increasing")

    def at(self, t: float) -> Field:
        idx = bisect.bisect_right(self.times, t) - 1
        return self.fields[max(idx, 0)]

    def sup_norm(self) -> float:
        return max(float(np.abs(f.values).max(initial=0.0)) for f in self.fields)

    def project(self, basis: SpectralBasis) -> SourceTerm:
        """The same schedule with each field replaced by its coefficients."""
        return SourceTerm(self.times, tuple(spectral.to_coeffs(f, basis) for f in self.fields))


def constant_source(f: Field) -> SourceTerm:
    return SourceTerm(times=(0.0,), fields=(f,))


@dataclass(frozen=True)
class ProblemData:
    """Complete problem description: constants, potential, sources, initial data."""

    params: PhysicalParams
    potential: PotentialSpec
    eps: float
    f: SourceTerm
    g: SourceTerm
    phi0: Field
    w0: Field
    w1: Field
    t_final: float

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ConfigurationError(f"(2.11) eps must lie in (0, 1), got {self.eps}")
        if self.t_final < 0.0:
            raise ConfigurationError(f"(2.11) t_final must be >= 0, got {self.t_final}")


def rho(data: ProblemData) -> float:
    """Source amplitude ratio sup|f| / gamma driving the admissible mean band."""
    return data.f.sup_norm() / data.params.gamma


def compatibility_quantities(data: ProblemData) -> dict[str, float]:
    """The four quantities that must lie in the interior of D(beta)."""
    phi0_mean = spectral.field_mean(data.phi0)
    r = rho(data)
    return {
        "min phi0": float(data.phi0.values.min()),
        "max phi0": float(data.phi0.values.max()),
        "-rho - (mean phi0)^-": -r - max(-phi0_mean, 0.0),
        "rho + (mean phi0)^+": r + max(phi0_mean, 0.0),
    }


def check_compatibility(data: ProblemData) -> None:
    """Raise CompatibilityError naming each quantity outside the interior of D(beta)."""
    lo, hi = data.potential.domain
    bad = [
        f"(2.14) compatibility: {name} = {value:.6g} not interior to "
        f"D(beta) = ({lo}, {hi})"
        for name, value in compatibility_quantities(data).items()
        if not data.potential.interior_contains(value)
    ]
    if bad:
        raise CompatibilityError("\n".join(bad))


@dataclass(frozen=True)
class GalerkinState:
    """Time plus coefficient triple; all vectors share one basis."""

    t: float
    phi: Coeffs
    w: Coeffs
    v: Coeffs


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-step monitors: mean law, energy balance terms, norm inventory.

    energy = 1/2 |grad phi|^2 + int (beta_hat_eps + pi_hat)(phi) + a int phi
    + b/(2 lambda) |v|^2 + b kappa2/(2 lambda) |grad w|^2; along the exact
    coefficient flow  d(energy)/dt + dissipation_mu + dissipation_w = source_power.
    """

    t: float
    mean_phi: float
    mean_phi_exact: float
    energy: float
    dissipation_mu: float
    dissipation_w: float
    source_power: float
    norms: dict[str, float]

    NORM_KEYS = ("phi_H1", "phi_dual", "dtw_L2", "grad_w_L2", "xi_L1", "xi_L6", "mu_H1")


def project_initial_data(data: ProblemData, basis: SpectralBasis) -> GalerkinState:
    """Orthogonally project the initial fields after the compatibility check."""
    check_compatibility(data)
    return GalerkinState(
        t=0.0,
        phi=spectral.to_coeffs(data.phi0, basis),
        w=spectral.to_coeffs(data.w0, basis),
        v=spectral.to_coeffs(data.w1, basis),
    )


@dataclass(frozen=True)
class Evaluation:
    """A state and what its step and record need, from one resolvent solve.

    ``f``, ``g``: projected sources at ``state.t``; ``nl``: projected
    yosida(phi) + pi(phi) + a; ``mu`` = A phi + nl - b v; ``xi``: yosida(phi)
    on the grid; ``bulk``: quadrature of beta_hat_eps(phi) + pi_hat(phi) + a phi.
    """

    state: GalerkinState
    f: Coeffs
    g: Coeffs
    nl: Coeffs
    mu: Coeffs
    xi: Field
    bulk: float


def _nonlinearity(phi: Coeffs, data: ProblemData) -> tuple[potentials.Regularization, Coeffs]:
    """The regularized graph at the grid values of phi and the projected NL(phi)."""
    grid = spectral.to_field(phi).values
    reg = potentials.regularize(data.potential, data.eps, grid)
    nl = reg.value + data.potential.pi(grid) + data.params.a
    return reg, spectral.to_coeffs(Field(nl, phi.basis.domain), phi.basis)


def evaluate(state: GalerkinState, data: ProblemData, sources: tuple[SourceTerm, SourceTerm]) -> Evaluation:
    """Evaluate ``state`` once; ``sources`` are f and g projected onto its basis."""
    p = data.params
    basis = state.phi.basis
    reg, nl = _nonlinearity(state.phi, data)
    bulk = reg.primitive() + data.potential.pi_hat(reg.r) + p.a * reg.r
    f, g = sources
    return Evaluation(
        state=state,
        f=f.at(state.t),
        g=g.at(state.t),
        nl=nl,
        mu=spectral.apply_stiffness(state.phi) + nl - p.b * state.v,
        xi=Field(reg.value, basis.domain),
        bulk=float(basis.quadrature_weight * bulk.sum()),
    )


def compute_record(ev: Evaluation, data: ProblemData, mean_exact: float) -> DiagnosticsRecord:
    p = data.params
    state = ev.state
    diss_mu = spectral.grad_norm(ev.mu) ** 2
    diss_w = p.b * p.kappa1 / p.lambda_latent * spectral.grad_norm(state.v) ** 2
    source = spectral.inner(ev.f - p.gamma * state.phi, ev.mu) + (
        p.b / p.lambda_latent
    ) * spectral.inner(ev.g, state.v)
    norms = {
        "phi_H1": spectral.norm_H1(state.phi),
        "phi_dual": spectral.norm_Hm1(state.phi),
        "dtw_L2": spectral.norm_L2(state.v),
        "grad_w_L2": spectral.grad_norm(state.w),
        "xi_L1": spectral.norm_Lp(ev.xi, 1),
        "xi_L6": spectral.norm_Lp(ev.xi, 6),
        "mu_H1": spectral.norm_H1(ev.mu),
    }
    return DiagnosticsRecord(
        t=state.t,
        mean_phi=spectral.mean_value(state.phi),
        mean_phi_exact=mean_exact,
        energy=(
            0.5 * spectral.grad_norm(state.phi) ** 2
            + ev.bulk
            + 0.5 * p.b / p.lambda_latent * norms["dtw_L2"] ** 2
            + 0.5 * p.b * p.kappa2 / p.lambda_latent * norms["grad_w_L2"] ** 2
        ),
        dissipation_mu=diss_mu,
        dissipation_w=diss_w,
        source_power=source,
        norms=norms,
    )


def rhs(ev: Evaluation, data: ProblemData) -> tuple[Coeffs, Coeffs, Coeffs]:
    """Time derivatives (phi', w', v') at the evaluated state."""
    p = data.params
    state = ev.state
    dphi = ev.f - spectral.apply_stiffness(ev.mu) - p.gamma * state.phi
    dw = state.v
    dv = (
        ev.g
        - spectral.apply_stiffness(p.kappa1 * state.v + p.kappa2 * state.w)
        - p.lambda_latent * dphi
    )
    return dphi, dw, dv


def _step_coefficients(ev: Evaluation, data: ProblemData, dt: float):
    """Per-mode elimination constants for the implicit linear block.

    Eliminating w+ = w + dt v+ and v+ = (c3 - lambda phi+)/d3 from the
    implicit system leaves  D phi+ + dt lam NL-term = base, with all returned
    arrays indexed by mode.
    """
    p = data.params
    state = ev.state
    lam = state.phi.basis.eigenvalues
    d3 = 1.0 + dt * p.kappa1 * lam + dt**2 * p.kappa2 * lam
    c3 = state.v.values + dt * ev.g.values + p.lambda_latent * state.phi.values - dt * p.kappa2 * lam * state.w.values
    diag = 1.0 + dt * p.gamma + dt * lam**2 + dt * lam * p.b * p.lambda_latent / d3
    base = state.phi.values + dt * ev.f.values + dt * lam * p.b * c3 / d3
    return lam, d3, c3, diag, base


def _finish_step(state, data, dt, phi_new, c3, d3):
    p = data.params
    basis = state.phi.basis
    v_new = (c3 - p.lambda_latent * phi_new) / d3
    w_new = state.w.values + dt * v_new
    return GalerkinState(
        t=state.t + dt,
        phi=Coeffs(phi_new, basis),
        w=Coeffs(w_new, basis),
        v=Coeffs(v_new, basis),
    )


def _semi_implicit_phi(ev, dt, lam, diag, base):
    return (base - dt * lam * ev.nl.values) / diag


def _backward_euler_phi(ev, data, dt, lam, diag, base):
    """Damped Newton on the reduced residual R(p) = diag p + dt lam NL(p) - base."""
    basis = ev.state.phi.basis
    w_quad = basis.quadrature_weight
    E = basis.eigenfunction_values

    def residual(p_vec):
        reg, nl = _nonlinearity(Coeffs(p_vec, basis), data)
        return diag * p_vec + dt * lam * nl.values - base, reg

    p_vec = _semi_implicit_phi(ev, dt, lam, diag, base)
    r_vec, reg = residual(p_vec)
    target = _NEWTON_TOL * (1.0 + float(np.linalg.norm(base)))
    for _ in range(_NEWTON_MAX_ITER):
        r_norm = float(np.linalg.norm(r_vec))
        if r_norm <= target:
            # Mode 1 is linear and decoupled; pin it to the closed form.
            p_vec = p_vec.copy()
            p_vec[0] = base[0] / diag[0]
            return p_vec
        slope = reg.slope() + data.potential.pi_prime(reg.r)
        jac_nl = (E * (w_quad * slope)) @ E.T
        jac = np.diag(diag) + dt * lam[:, None] * jac_nl
        try:
            delta = np.linalg.solve(jac, -r_vec)
        except np.linalg.LinAlgError as exc:
            raise StepFailure(f"Newton Jacobian singular at t = {ev.state.t}") from exc
        alpha = 1.0
        for _ in range(_NEWTON_MAX_HALVINGS):
            trial = p_vec + alpha * delta
            r_trial, reg_trial = residual(trial)
            if float(np.linalg.norm(r_trial)) < r_norm:
                p_vec, r_vec, reg = trial, r_trial, reg_trial
                break
            alpha *= 0.5
        else:
            raise StepFailure(f"Newton line search stalled at t = {ev.state.t}")
    raise StepFailure(f"Newton did not converge within {_NEWTON_MAX_ITER} iterations")


def step(ev: Evaluation, data: ProblemData, dt: float, scheme: str = SEMI_IMPLICIT) -> GalerkinState:
    """Advance the evaluated state one time step with the chosen first-order scheme.

    Raises StepFailure when the new phi is not finite, for either scheme.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    lam, d3, c3, diag, base = _step_coefficients(ev, data, dt)
    if scheme == SEMI_IMPLICIT:
        phi_new = _semi_implicit_phi(ev, dt, lam, diag, base)
    else:
        phi_new = _backward_euler_phi(ev, data, dt, lam, diag, base)
    if not np.isfinite(phi_new).all():
        raise StepFailure(f"non-finite phi after a {scheme} step of {dt} at t = {ev.state.t}")
    return _finish_step(ev.state, data, dt, phi_new, c3, d3)


def _advance(ev, data, sources, h, scheme, floor):
    """Cover [t, t+h], bisecting the interval on step failures."""
    try:
        return step(ev, data, h, scheme)
    except StepFailure:
        if h / 2.0 < floor:
            raise
        mid = _advance(ev, data, sources, h / 2.0, scheme, floor)
        return _advance(evaluate(mid, data, sources), data, sources, h / 2.0, scheme, floor)


def simulate(
    data: ProblemData,
    basis: SpectralBasis,
    dt: float,
    scheme: str = SEMI_IMPLICIT,
    observers: Sequence[Callable[[GalerkinState, DiagnosticsRecord], None]] = (),
) -> list[tuple[GalerkinState, DiagnosticsRecord]]:
    """Run from the projected initial data to t_final with fixed dt.

    The final step is truncated to land exactly on t_final.  A failing step is
    bisected down to 1e-8 * t_final before the run is abandoned; on abandon a
    RunFailure carrying the partial trajectory is raised.  Deterministic for a
    given configuration.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    gamma = data.params.gamma
    state = project_initial_data(data, basis)
    sources = (data.f.project(basis), data.g.project(basis))
    mean_exact = spectral.mean_value(state.phi)
    trajectory: list[tuple[GalerkinState, DiagnosticsRecord]] = []

    def emit(st, me):
        ev = evaluate(st, data, sources)
        record = compute_record(ev, data, me)
        trajectory.append((st, record))
        for obs in observers:
            obs(st, record)
        return ev

    ev = emit(state, mean_exact)
    floor = max(_DT_FLOOR_FACTOR * data.t_final, 1e-300)
    while state.t < data.t_final - 1e-12 * max(data.t_final, 1.0):
        h = min(dt, data.t_final - state.t)
        f_mean = spectral.field_mean(data.f.at(state.t))
        try:
            state = _advance(ev, data, sources, h, scheme, floor)
        except StepFailure as exc:
            raise RunFailure(
                f"step failed at t = {state.t} after dt halvings: {exc}", trajectory
            ) from exc
        decay = math.exp(-gamma * h)
        mean_exact = mean_exact * decay + (f_mean / gamma) * (1.0 - decay)
        ev = emit(state, mean_exact)
    return trajectory
