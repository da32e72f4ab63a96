"""Property tests: the resolvent against the bisection oracle, and the exact
scalar mean recursion under random piecewise source schedules."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_problem_data
from thermoch import galerkin as gk
from thermoch import io_cli
from thermoch import potentials as pot
from thermoch import spectral as sp

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
    records = [rec for _, rec in gk.simulate(data, basis, dt, scheme)]
    mean = records[0].mean_phi
    for prev, cur in zip(records, records[1:]):
        h = cur.t - prev.t
        mean = (mean + h * sp.field_mean(f.at(prev.t))) / (1.0 + gamma * h)
        assert abs(cur.mean_phi - mean) <= 1e-13
