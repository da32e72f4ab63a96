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
leaving the state and its record share; pi(phi) = -L phi and a enter by
Parseval.  Coefficients are bare (n,) arrays beside their basis and grid
values bare (N,) arrays, from the projected initial data and sources
through ``evaluate``, ``step`` and the Newton closures.  A ``Run`` builds
one ``step_operator`` (constants and scheme, checked before level 0) per
step size and advances one level at a time into a block of ROW_BLOCK
levels, which ``compute_record`` folds into record columns: a run keeps its
record, not its coefficients.  The studies take its levels or its blocks.

Two first-order schemes are provided: ``semi_implicit`` treats all linear
terms implicitly through an exact per-mode 3x3 elimination and freezes the
nonlinearity at the current state; ``backward_euler`` solves the coupled
nonlinear system with the shared damped Newton-Krylov loop (``newton``),
started from the semi-implicit step, with matrix-free Jacobian products and
MINRES for the symmetric, possibly indefinite, reduced Newton systems.  Both
reduce to the implicit Euler recursion
mean+ = (mean + dt f_mean) / (1 + gamma dt)  for the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import newton, potentials, spectral
from .errors import RunFailure, StepFailure, require
from .potentials import PotentialSpec, Regularization
from .spectral import Field, SpectralBasis

SEMI_IMPLICIT = "semi_implicit"
BACKWARD_EULER = "backward_euler"
SCHEMES = (SEMI_IMPLICIT, BACKWARD_EULER)

_NEWTON_TOL = 1e-10
_DT_FLOOR_FACTOR = 1e-8
TIME_SLACK = 1e-12  # relative to max(t_final, 1): the rounding room of a level time k dt
ROW_BLOCK = 64  # levels per block of a Run, which it folds into its record a block at a time


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
        require(*(
            (value > 0.0, f"(2.5) {name} must be a positive constant, got {value}")
            for name, value in vars(self).items()
            if name != "a"
        ))


@dataclass(frozen=True)
class SourceTerm:
    """Piecewise-constant-in-time field: fields[i] holds on [times[i], times[i+1])."""

    times: tuple[float, ...]
    fields: tuple[Field, ...]

    def __post_init__(self):
        times, n = self.times, len(self.fields)
        require(
            (0 < len(times) == n, f"(2.11) a source needs one start time per field, got {len(times)} for {n}"),
            (times[:1] == (0.0,), f"(2.11) a source's first segment must start at 0, got start times {times}"),
            (all(t0 < t1 for t0, t1 in zip(times, times[1:])),
             f"(2.11) a source's start times must be strictly increasing, got {times}"),
        )

    def sup_norm(self) -> float:
        return max(float(np.abs(f.values).max(initial=0.0)) for f in self.fields)

    def means(self) -> np.ndarray:
        """The quadrature mean of each field, one per segment."""
        return np.array([float(f.values.mean()) for f in self.fields])

    def project(self, basis: SpectralBasis) -> np.ndarray:
        """The coefficients of each field on ``basis``, one row per segment."""
        return np.array([spectral.project(f, basis) for f in self.fields])


@dataclass(frozen=True)
class ProblemData:
    """Complete problem description: constants, potential, sources, initial data.

    Construction checks eps, t_final, sup|f|, sup|g| and that the initial data are finite,
    then that every ``compatibility_quantities`` value is interior to D(beta) (2.14); each
    failed check raises ConfigurationError."""

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
        require(
            potentials.eps_rule(self.eps),
            (self.t_final >= 0.0, f"(2.11) t_final must be >= 0, got {self.t_final}"),
            (math.isfinite(self.f.sup_norm()), "(2.13) source amplitude sup|f| must be finite"),
            (math.isfinite(self.g.sup_norm()), "(2.13) source amplitude sup|g| must be finite"),
            *((np.isfinite(x.values).all(), f"(2.14) initial datum {name} must be finite")
              for name, x in (("phi0", self.phi0), ("w0", self.w0), ("w1", self.w1))),
        )
        lo, hi = self.potential.domain
        require(*(
            (lo < value < hi, f"(2.14) compatibility: {name} = {value:.6g} not interior to D(beta) = ({lo}, {hi})")
            for name, value in compatibility_quantities(self).items()
        ))

    def segments(self, t):
        """The indices into ``fields`` of the segments of f and g that hold from the times ``t``
        on: how many later segments have started by t plus ``record_times``' slack, as its
        k dt can land an ulp below a switch (the first segment before 0)."""
        t = t + TIME_SLACK * max(self.t_final, 1.0)
        return np.searchsorted(self.f.times[1:], t, side="right"), np.searchsorted(self.g.times[1:], t, side="right")


def compatibility_quantities(data: ProblemData) -> dict[str, float]:
    """The four quantities that must lie in the interior of D(beta), with
    rho = sup|f| / gamma the source amplitude ratio driving the mean band."""
    phi0_mean = float(data.phi0.values.mean())
    r = data.f.sup_norm() / data.params.gamma
    return {
        "min phi0": float(data.phi0.values.min()),
        "max phi0": float(data.phi0.values.max()),
        "-rho - (mean phi0)^-": -r - max(-phi0_mean, 0.0),
        "rho + (mean phi0)^+": r + max(phi0_mean, 0.0),
    }


def project_initial_data(data: ProblemData, basis: SpectralBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coefficients (phi, w, v) of the initial fields, orthogonally projected."""
    return tuple(spectral.project(f, basis) for f in (data.phi0, data.w0, data.w1))


def _nonlinearity(
    phi: np.ndarray, data: ProblemData, basis: SpectralBasis, reg: Optional[Regularization] = None
) -> tuple[Regularization, np.ndarray]:
    """The regularized graph at the grid values of phi and the projected
    NL(phi) = P yosida(phi) - L phi + a sqrt(|Omega|) e_1 (pi(phi) = -L phi and
    a lie in the span).  ``reg``, when given, is that graph already solved.
    """
    if reg is None:
        reg = potentials.regularize(data.potential, data.eps, spectral.to_field(phi, basis))
    nl = spectral.to_coeffs(reg.value, basis)
    nl -= data.potential.pi_lipschitz * phi
    nl[0] += data.params.a * math.sqrt(basis.domain.measure)
    return reg, nl


def evaluate(
    phi: np.ndarray, v: np.ndarray, data: ProblemData, basis: SpectralBasis,
    reg: Optional[Regularization] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Evaluate the state with coefficients phi and v = w' once: returns
    (nl, mu, xi, bulk) from one resolvent solve.

    nl: projected yosida(phi) + pi(phi) + a; mu = A phi + nl - b v; xi:
    yosida(phi) on the grid; bulk: integral of beta_hat_eps(phi) + pi_hat(phi)
    + a phi.  ``reg`` is the regularized graph at the grid values of phi
    when the step that produced the state has already solved it (see ``step``).
    """
    p, spec, measure = data.params, data.potential, basis.domain.measure
    reg, nl = _nonlinearity(phi, data, basis, reg)
    # Parseval: int pi_hat(phi) = pi_hat(0) |Omega| - (L/2) |phi|^2, int a phi = a sqrt(|Omega|) phi_1.
    bulk = (basis.domain.cell_weight * reg.primitive_sum() + spec.pi_hat_at_zero * measure
            - 0.5 * spec.pi_lipschitz * float(phi @ phi) + p.a * math.sqrt(measure) * float(phi[0]))
    return nl, basis.eigenvalues * phi + nl - p.b * v, reg.value, bulk


@dataclass(frozen=True)
class Trajectory:
    """The record of a run: row k of every column is level k.

    ``record``: the columns ``compute_record`` makes, in CSV order; ``w_sums``:
    (levels x 2), the sums of w^2 and of lam w^2 over the modes of each level;
    ``steps``: for each level after the first, the sizes of the steps that reached it,
    one size unless its step was bisected.
    """

    record: dict[str, np.ndarray]
    w_sums: np.ndarray
    steps: tuple[tuple[float, ...], ...] = ()

    t = property(lambda self: self.record["t"])

    def __len__(self) -> int:
        return self.t.size


def compute_record(
    t: np.ndarray, coeffs: np.ndarray, scalars: np.ndarray, data: ProblemData, basis: SpectralBasis,
    sources: tuple[np.ndarray, np.ndarray],
) -> Trajectory:
    """The Trajectory of the levels at the times ``t``, whose coefficients of
    phi, w, v and mu are ``coeffs`` (levels x 4 x n) and whose exact mean, bulk
    energy and grid norms ||yosida(phi)||_1 and ||yosida(phi)||_6 (see
    ``evaluate``) are the rows of ``scalars`` (4 x levels); ``sources`` are
    ``data.f`` and ``data.g`` projected onto ``basis`` (``SourceTerm.project``).

    energy = 1/2 |grad phi|^2 + int (beta_hat_eps + pi_hat)(phi) + a int phi
    + b/(2 lambda) |v|^2 + b kappa2/(2 lambda) |grad w|^2; along the exact
    coefficient flow  d(energy)/dt + dissipation_mu + dissipation_w = source_power.
    The coefficient norms come from ``spectral.row_squares`` of ``coeffs``.
    """
    p = data.params
    phi, _, v, mu = coeffs.transpose(1, 0, 2)
    mean_exact, bulk, xi_L1, xi_L6 = scalars
    l2, grad = spectral.row_squares(coeffs, basis.eigenvalues)
    grad_phi, grad_w, grad_v, grad_mu = grad.T
    l2_phi, l2_w, l2_v, l2_mu = l2.T
    (f, g), (f_seg, g_seg) = sources, data.segments(t)
    return Trajectory({
        "t": t,
        "mean_phi": phi[:, 0] / math.sqrt(basis.domain.measure),
        "mean_phi_exact": mean_exact,
        "energy": (0.5 * grad_phi + bulk + 0.5 * p.b / p.lambda_latent * l2_v
                   + 0.5 * p.b * p.kappa2 / p.lambda_latent * grad_w),
        "dissipation_mu": grad_mu,
        "dissipation_w": p.b * p.kappa1 / p.lambda_latent * grad_v,
        "source_power": (np.vecdot(f[f_seg] - p.gamma * phi, mu)
                         + p.b / p.lambda_latent * np.vecdot(g[g_seg], v)),
        "phi_H1": np.sqrt(l2_phi + grad_phi),
        "phi_dual": spectral.norm_Hm1_rows(phi, basis),
        "dtw_L2": np.sqrt(l2_v),
        "grad_w_L2": np.sqrt(grad_w),
        "xi_L1": xi_L1,
        "xi_L6": xi_L6,
        "mu_H1": np.sqrt(l2_mu + grad_mu),
    }, np.column_stack((l2_w, grad_w)))


@dataclass(frozen=True)
class StepOperator:
    """A step of size dt with ``scheme`` on ``basis`` and its per-mode constants;
    eliminating w+ = w + dt v+ and v+ = (c3 - lambda phi+)/d3 leaves
    diag phi+ + dt lam NL-term = base, with
    c3 = v + dt g + lambda phi - dt kappa2 lam w,  base = phi + dt f + coupling c3."""

    basis: SpectralBasis
    dt: float
    scheme: str
    d3: np.ndarray
    diag: np.ndarray
    coupling: np.ndarray
    dt_kappa2_lam: np.ndarray
    dt_lam: np.ndarray


def dt_rule(dt: float) -> tuple[bool, str]:
    """The rule dt > 0, as ``errors.require`` takes it."""
    return dt > 0.0, f"(2.11) dt must be positive, got {dt}"


def scheme_rule(scheme: str) -> tuple[bool, str]:
    """The rule ``scheme`` one of SCHEMES, as ``errors.require`` takes it."""
    return scheme in SCHEMES, f"(2.11) scheme must be one of {SCHEMES}, got '{scheme}'"


def step_operator(basis: SpectralBasis, params: PhysicalParams, dt: float, scheme: str) -> StepOperator:
    """The step of size dt with ``scheme``; ConfigurationError unless the
    ``dt_rule`` and ``scheme_rule`` hold and all its constants are finite."""
    p, lam = params, basis.eigenvalues
    with np.errstate(all="ignore"):  # a huge dt overflows; reported below
        d3 = 1.0 + dt * p.kappa1 * lam + dt * dt * p.kappa2 * lam
        dt_lam = dt * lam
        diag = 1.0 + dt * p.gamma + dt * lam**2 + dt_lam * p.b * p.lambda_latent / d3
        parts = (d3, diag, dt_lam * p.b / d3, dt * p.kappa2 * lam, dt_lam)
    finite = all(np.isfinite(x).all() for x in parts)
    require(dt_rule(dt), scheme_rule(scheme), (finite, f"(2.11) dt = {dt} is too large: the step operator is not finite"))
    return StepOperator(basis, dt, scheme, *parts)


def _step_rhs(phi, w, v, f, g, data: ProblemData, op: StepOperator):
    """The vectors c3 and base of the eliminated system (see StepOperator)."""
    p, dt = data.params, op.dt
    c3 = v + dt * g + p.lambda_latent * phi - op.dt_kappa2_lam * w
    return c3, phi + dt * f + op.coupling * c3


def _semi_implicit_phi(nl, op, base):
    return (base - op.dt_lam * nl) / op.diag


def _backward_euler_phi(nl, data, op, base):
    """Damped Newton-Krylov on the reduced residual R(p) = diag p + dt lam NL(p) - base,
    from the semi-implicit step of the state whose nonlinearity is ``nl``.

    Mode 1 is linear and decoupled (lam_1 = 0): it keeps its closed form
    base_1 / diag_1 from the semi-implicit first iterate.  Dividing the other
    rows by lam gives the symmetric Newton matrix
    diag(diag / lam) + dt P diag(s - L) P^T, indefinite where dt L
    exceeds diag / lam (long domains, large dt), which MINRES handles.
    Returns the new phi and the regularized graph at its grid values.
    """
    basis, dt, diag = op.basis, op.dt, op.diag
    lam = basis.eigenvalues

    def evaluate(p_vec):
        reg, nl_p = _nonlinearity(p_vec, data, basis)
        return newton.Iterate(p_vec, diag * p_vec + op.dt_lam * nl_p - base, None, reg)

    def direction(it, rtol):
        s = dt * (it.reg.slope() - data.potential.pi_lipschitz)
        step, krylov, weights = newton.krylov_solve(
            basis, diag[1:] / lam[1:], s, -it.residual[1:] / lam[1:], rtol, pinned=1
        )
        # MINRES's norm on the rows divided by lam; no step changes mode 1's residual.
        return step, krylov, np.concatenate(([0.0], weights / lam[1:]))

    target = _NEWTON_TOL * (1.0 + float(np.linalg.norm(base)))
    p_vec = _semi_implicit_phi(nl, op, base)
    it = newton.solve(evaluate, direction, p_vec, target, target, StepFailure)[0]
    return it.x, it.reg


def step(
    phi: np.ndarray, w: np.ndarray, v: np.ndarray, nl: np.ndarray, f: np.ndarray, g: np.ndarray,
    data: ProblemData, op: StepOperator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Optional[Regularization]]:
    """Advance the state (phi, w, v) one step of size op.dt with op.scheme.

    ``nl`` is the state's projected nonlinearity (from ``evaluate``), f and g
    the projected sources over the step and ``op`` the ``step_operator``, which
    has checked the scheme.  Returns the new phi, w and v and, for
    ``backward_euler``, the regularized graph at the new phi, which the last
    Newton iterate solved and ``evaluate`` can reuse (None for
    ``semi_implicit``).  Raises StepFailure when the new phi is not finite.
    """
    c3, base = _step_rhs(phi, w, v, f, g, data, op)
    if op.scheme == SEMI_IMPLICIT:
        phi_new, reg = _semi_implicit_phi(nl, op, base), None
    else:
        phi_new, reg = _backward_euler_phi(nl, data, op, base)
    if not np.isfinite(phi_new).all():
        raise StepFailure(f"non-finite phi after a {op.scheme} step of {op.dt}")
    v_new = (c3 - data.params.lambda_latent * phi_new) / op.d3
    return phi_new, w + op.dt * v_new, v_new, reg


def record_times(dt: float, t_final: float) -> list[float]:
    """The times of a run's levels with step dt > 0: k dt (one rounding) at level k, and t_final
    at the last, its step cut to land there; MemoryError past 2**52 steps, which no array holds."""
    steps = math.ceil(min(max((t_final - TIME_SLACK * max(t_final, 1.0)) / dt, 0.0), 2.0**52))
    return (np.arange(steps) * dt).tolist() + [t_final]


class Run:
    """A run from the projected initial data to t_final with fixed dt, advanced
    one level at a time by iterating it (once).

    Each level k of the ``record_times`` is written into a row of a block
    and yielded as (k, level): its (4 x n) coefficients of phi, w, v and mu,
    which later levels overwrite.  ``compute_record`` folds the block once
    ROW_BLOCK levels wait for the next one, and in ``trajectory``; ``blocks``
    yields each block before it is folded; ``steps`` keeps the substep sizes of
    every step.  A failing step is bisected down to 1e-8 * t_final, its halves
    under the step's sources; then the run raises a RunFailure carrying the
    Trajectory of the levels before it.  Construction raises ConfigurationError for a dt <= 0,
    a scheme not among SCHEMES or a dt whose step operator is not finite.
    """

    def __init__(self, data: ProblemData, basis: SpectralBasis, dt: float, scheme: str = SEMI_IMPLICIT):
        self.data, self.basis, self.dt, self.scheme = data, basis, dt, scheme
        self.operators = {dt: step_operator(basis, data.params, dt, scheme)}  # by step size
        self.times = record_times(dt, data.t_final)
        self._block = np.empty((ROW_BLOCK, 4, basis.n))  # phi, w, v and mu
        self._pending, self.parts = [], []  # t, mean_exact, bulk, xi_L1 and xi_L6; the Trajectory of each fold
        self.steps = []  # the substep sizes of each step, one tuple per level after the first

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        data, basis, times = self.data, self.basis, self.times
        phi, w, v = project_initial_data(data, basis)
        self.sources = (data.f.project(basis), data.g.project(basis))
        segs = np.column_stack(data.segments(np.array(times[:-1])))  # f's and g's over each step
        gamma, f_means = data.params.gamma, data.f.means()
        mean_exact, reg = float(phi[0]) / math.sqrt(basis.domain.measure), None
        for k in range(len(times)):
            if k:
                t = times[k - 1]
                h, seg = min(self.dt, data.t_final - t), segs[k - 1]
                try:
                    phi, w, v, reg, hs = self._advance(phi, w, v, nl, h, seg)
                except StepFailure as exc:
                    raise RunFailure(f"step failed at t = {t} after dt halvings: {exc}", self.trajectory()) from exc
                self.steps.append(hs)
                decay = math.exp(-gamma * h)
                mean_exact = mean_exact * decay + (f_means[seg[0]] / gamma) * (1.0 - decay)
            nl, mu, xi, bulk = evaluate(phi, v, data, basis, reg)
            if len(self._pending) == ROW_BLOCK:
                self._fold()
            level = self._block[len(self._pending)]
            level[:] = phi, w, v, mu
            self._pending.append((times[k], mean_exact, bulk, spectral.norm_Lp(xi, basis.domain, 1),
                                  spectral.norm_Lp(xi, basis.domain, 6)))
            yield k, level

    def blocks(self) -> Iterator[np.ndarray]:
        """Iterate the run, yielding its (rows x 4 x n) block of levels each time
        ROW_BLOCK levels are written, and once more after the last level."""
        for k, _ in self:
            if len(self._pending) == ROW_BLOCK or k + 1 == len(self.times):
                yield self._block[:len(self._pending)]

    def _advance(self, phi, w, v, nl, h, seg):
        """Cover a step of size h, every substep under the source segments ``seg``, bisecting
        on step failures; returns what ``step`` returns and the sizes of the steps taken."""
        data, operators = self.data, self.operators
        if h not in operators:
            operators[h] = step_operator(self.basis, data.params, h, self.scheme)
        try:
            return (*step(phi, w, v, nl, self.sources[0][seg[0]], self.sources[1][seg[1]], data, operators[h]), (h,))
        except StepFailure:
            if h / 2.0 < max(_DT_FLOOR_FACTOR * data.t_final, 1e-300):
                raise
            phi, w, v, reg, first = self._advance(phi, w, v, nl, h / 2.0, seg)
            *state, second = self._advance(phi, w, v, _nonlinearity(phi, data, self.basis, reg)[1], h / 2.0, seg)
            return (*state, first + second)

    def _fold(self):
        """Fold the pending levels into ``parts``."""
        if self._pending:
            t, *scalars = np.array(self._pending).T
            self.parts.append(compute_record(t, self._block[:len(t)], scalars, self.data, self.basis, self.sources))
            self._pending.clear()

    def trajectory(self) -> Trajectory:
        """The Trajectory of the levels written so far."""
        self._fold()
        return Trajectory({name: np.concatenate([p.record[name] for p in self.parts]) for name in self.parts[0].record},
                          np.concatenate([p.w_sums for p in self.parts]), tuple(self.steps))


def simulate(
    data: ProblemData,
    basis: SpectralBasis,
    dt: float,
    scheme: str = SEMI_IMPLICIT,
    observers: Sequence[Callable[[int, np.ndarray], None]] = (),
) -> Trajectory:
    """The Trajectory of the ``Run`` of ``data``, calling each observer as
    ``observer(k, level)`` on each level it yields.  Deterministic for a given
    configuration, also across BLAS thread counts: no sum over the grid is a
    BLAS dot, which OpenBLAS splits across threads on long vectors."""
    run = Run(data, basis, dt, scheme)
    for k, level in run:
        for obs in observers:
            obs(k, level)
    return run.trajectory()
