"""Property tests: the resolvent against the bisection oracle, the summed
energy bulk and the projected nonlinearity against their pointwise oracles,
and the exact scalar mean recursion under random piecewise source schedules
and random patterns of failing steps."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluate, make_problem_data, pointwise_bulk, pointwise_nonlinearity, zero_state
from thermoch import analysis as an
from thermoch import galerkin as gk
from thermoch import io_cli
from thermoch import potentials as pot
from thermoch import spectral as sp
from thermoch.errors import StepFailure

SPECS = {
    "regular": pot.regular_potential(),
    "logarithmic": pot.logarithmic_potential(2.0),
    "double_obstacle": pot.double_obstacle_potential(1.0),
}

unit_interval = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# |r| up to 1e3, with the unit range drawn as often as the wide one.
points = st.lists(st.one_of(st.floats(-3.0, 3.0), st.floats(-1e3, 1e3)), min_size=1, max_size=40)
ULP = np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(SPECS)), eps=unit_interval, r=points)
def test_resolvent_matches_bisection_oracle(kind, eps, r):
    spec = SPECS[kind]
    r = np.array(r)
    j = pot.resolvent(spec, eps, r)
    assert not np.isnan(j).any()
    gap = np.abs(j - io_cli.bisection_resolvent(spec, eps, r))
    assert (gap <= 1e-14 * np.maximum(1.0, np.abs(r))).all()


# beta, beta' and the half-width of D(beta) of the two graphs with a smooth interior.
GRAPHS = {
    "regular": (lambda j: j * j * j, lambda j: 3.0 * j * j, np.inf),
    "logarithmic": (
        lambda j: np.log1p(j) - np.log1p(-j), lambda j: 2.0 / ((1.0 - j) * (1.0 + j)), 1.0
    ),
}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(GRAPHS)), eps=unit_interval, r=points)
def test_resolvent_residual_at_ulp_level(kind, eps, r):
    # A root rounded to the nearest float leaves the residual
    # |J + eps beta(J) - r| at a few ulp of max(1, |r|) + eps |beta'(J)|.
    beta, beta_prime, half_width = GRAPHS[kind]
    r = np.array(r)
    j = pot.resolvent(SPECS[kind], eps, r)
    inside = np.abs(j) < half_width  # J = +-1 is the saturated logarithmic root
    j, r = j[inside], r[inside]
    residual = np.abs(j + eps * beta(j) - r)
    assert (residual <= 8.0 * ULP * (np.maximum(1.0, np.abs(r)) + eps * beta_prime(j))).all()


@settings(max_examples=300, deadline=None)
@given(log_eps=st.floats(-12.0, math.log10(0.999)), r=points)
def test_logarithmic_kernel_converges_within_four_sweeps(log_eps, r):
    with mock.patch.object(pot, "_MAX_SWEEPS", 4):
        j = pot.resolvent(SPECS["logarithmic"], 10.0**log_eps, np.array(r))
    assert (np.abs(j) <= 1.0).all()


@st.composite
def small_bases(draw):
    # At most 256 grid points: a sum of n terms is then within (n - 1) ulps of
    # the sum of their moduli, ~2.8e-14 of it, so both bulk forms fit 1e-13.
    dim = draw(st.integers(1, 2))
    grid = draw(st.integers(4, 256 if dim == 1 else 16))
    lengths = tuple(draw(st.floats(0.1, 10.0)) for _ in range(dim))
    return sp.build_basis(sp.BoxDomain(lengths, grid), draw(st.integers(1, min(12, grid // 2 + 1))))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(SPECS)),
    # Lengths that make the quadrature weight no power of two, so the
    # projections round differently from the grid sums.
    basis=small_bases().filter(lambda b: math.frexp(b.domain.cell_weight)[0] != 0.5),
    log_eps=st.floats(-8.0, math.log10(0.999)),
    # Zero or of modulus at least 1e-100, where a times the quadrature weights is a normal float.
    a=st.one_of(st.just(0.0), st.floats(1e-100, 2.0), st.floats(-2.0, -1e-100)),
    # Zero or at least 1e-100, where the squares of the grid values are normal floats.
    amplitude=st.one_of(st.just(0.0), st.floats(1e-100, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_parseval_terms_match_pointwise_oracle(kind, basis, log_eps, a, amplitude, seed):
    # pi(phi) = -L phi, pi_hat(phi) and a enter NL and the summed bulk through
    # the coefficients of phi; the oracles evaluate them on the grid.
    eps = 10.0**log_eps
    data = make_problem_data(basis.domain, SPECS[kind], eps=eps, a=a)
    rng = np.random.default_rng(seed)
    state = zero_state(basis)._replace(phi=amplitude * rng.standard_normal(basis.n))
    ev_nl, _, _, ev_bulk = evaluate(state, data)
    r = sp.to_field(state.phi, basis)
    reg = pot.regularize(SPECS[kind], eps, r)
    nl, nl_scale = pointwise_nonlinearity(reg, r, a, basis)
    assert np.abs(ev_nl - nl).max() <= 1e-13 * nl_scale
    bulk, bulk_scale = pointwise_bulk(reg, r, a, basis.domain.cell_weight)
    assert abs(ev_bulk - bulk) <= 1e-13 * bulk_scale


@st.composite
def schedules(draw):
    n = draw(st.integers(1, 4))
    starts = sorted(draw(st.sets(st.floats(0.001, 0.2), min_size=n - 1, max_size=n - 1)))
    levels = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    ripples = draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))
    return [0.0, *starts], levels, ripples


@settings(max_examples=40, deadline=None)
@given(
    schedule=schedules(),
    gamma=st.floats(0.1, 3.0),
    dt=st.floats(0.01, 0.05),
    phi_mean=st.floats(-0.5, 0.5),
    scheme=st.sampled_from(gk.SCHEMES),
)
def test_mean_recursion_under_piecewise_sources(schedule, gamma, dt, phi_mean, scheme):
    domain = sp.BoxDomain((1.0,), 16)
    basis = sp.build_basis(domain, 4)
    times, levels, ripples = schedule
    f = gk.SourceTerm(
        times=tuple(times),
        fields=tuple(
            sp.cosine_sum_field(domain, c, [((1,), a)]) for c, a in zip(levels, ripples)
        ),
    )
    data = make_problem_data(
        domain, pot.regular_potential(), gamma=gamma, f=f,
        phi0=sp.cosine_sum_field(domain, phi_mean, [((1,), 0.2)]), t_final=0.2,
    )
    rec = gk.simulate(data, basis, dt, scheme).record
    t, means = rec["t"].tolist(), rec["mean_phi"].tolist()
    mean = means[0]
    for k in range(1, len(t)):
        h = t[k] - t[k - 1]
        mean = (mean + h * float(f.fields[data.segments(t[k - 1])[0]].values.mean())) / (1.0 + gamma * h)
        assert abs(means[k] - mean) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    failing=st.sets(st.integers(0, 15), max_size=6),
    switch=st.floats(0.0, 0.5, exclude_min=True),
    scheme=st.sampled_from(gk.SCHEMES),
)
def test_mean_law_replays_any_bisection(failing, switch, scheme):
    # The calls of ``step`` whose indices are drawn fail once each, so any step
    # or substep may be bisected, at any depth, with the switch of f anywhere;
    # each failure adds one substep, and the mean law replays them to roundoff.
    domain = sp.BoxDomain((1.0,), 16)
    f = gk.SourceTerm((0.0, switch), (sp.constant_field(0.5, domain), sp.constant_field(-0.5, domain)))
    data = make_problem_data(
        domain, pot.regular_potential(), f=f, phi0=sp.cosine_sum_field(domain, 0.1, [((1,), 0.2)]), t_final=0.4,
    )
    original, calls = gk.step, []

    def flaky(*args):
        calls.append(args[7].dt)
        if len(calls) - 1 in failing:
            raise StepFailure("forced")
        return original(*args)

    with mock.patch.object(gk, "step", flaky):
        trajectory = gk.simulate(data, sp.build_basis(domain, 4), 0.1, scheme)
    times = gk.record_times(0.1, 0.4)
    assert trajectory.t.tolist() == times
    failed = sum(i < len(calls) for i in failing)
    assert len(calls) == len(times) - 1 + 2 * failed
    assert sum(len(hs) - 1 for hs in trajectory.steps) == failed  # one tuple per step, bisected or not
    assert all(math.fsum(hs) == min(0.1, 0.4 - t) for hs, t in zip(trajectory.steps, times[:-1], strict=True))
    assert an.mean_law_check(trajectory, data)["max_error_discrete"] <= 1e-15
