"""Property tests: the factored transforms, the separable cosine sums and the
L1 and L6 norms agree with their oracles."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mesh_cosine_sum_field, pow_norm_Lp
from test_config_properties import expressions
from test_spectral import oracle_gaps
from thermoch import spectral as sp


@st.composite
def bases(draw):
    dim = draw(st.integers(1, 2))
    lengths = tuple(draw(st.floats(0.1, 10.0)) for _ in range(dim))
    grid = draw(st.integers(4, 40))
    n = draw(st.integers(1, (grid // 2 + 1) ** dim))
    return sp.build_basis(sp.BoxDomain(lengths, grid), n)


@settings(max_examples=60, deadline=None)
@given(basis=bases(), seed=st.integers(0, 2**32 - 1))
# One mode on 39 points: the weight 1/39 is no power of two, and the only
# coefficient, a mean of 39 normal samples, cancels to 7.8e-5.
@example(basis=sp.build_basis(sp.BoxDomain((1.0,), 39), 1), seed=1)
def test_factored_transforms_match_dense_oracle(basis, seed):
    assert max(oracle_gaps(basis, np.random.default_rng(seed))) <= 1e-13


@settings(max_examples=100, deadline=None)
@given(case=expressions())
def test_separable_cosine_sum_matches_mesh_oracle(case):
    domain, constant, terms = case
    fast = sp.cosine_sum_field(domain, constant, terms).values
    assert np.array_equal(fast, mesh_cosine_sum_field(domain, constant, terms).values)


@st.composite
def small_fields(draw):
    # Zero or |x| in [1e-30, 1e3], where |x|^6 is a normal float, over a drawn
    # range of magnitudes; at most 256 grid points, so either summation order
    # is within (n - 1) ulps of the exact sum.
    dim = draw(st.integers(1, 2))
    grid = draw(st.integers(4, 256 if dim == 1 else 16))
    domain = sp.BoxDomain(tuple(draw(st.floats(0.1, 10.0)) for _ in range(dim)), grid)
    lo = draw(st.floats(-30.0, 3.0))
    hi = draw(st.floats(lo, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = domain.n_grid
    values = rng.choice([-1.0, 0.0, 1.0], size=n, p=[0.45, 0.1, 0.45]) * 10.0 ** rng.uniform(lo, hi, n)
    return sp.Field(values, domain)


@settings(max_examples=200, deadline=None)
@given(f=small_fields(), p=st.sampled_from([1, 6]))
def test_L1_and_L6_norms_match_pow_oracle(f, p):
    oracle = pow_norm_Lp(f, p)
    assert abs(sp.norm_Lp(f.values, f.domain, p) - oracle) <= 1e-13 * oracle
