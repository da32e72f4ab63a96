"""Property tests: the factored transforms and the separable cosine sums agree with their oracles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mesh_cosine_sum_field
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
def test_factored_transforms_match_dense_oracle(basis, seed):
    assert max(oracle_gaps(basis, np.random.default_rng(seed))) <= 1e-13


@settings(max_examples=100, deadline=None)
@given(case=expressions())
def test_separable_cosine_sum_matches_mesh_oracle(case):
    domain, constant, terms = case
    fast = sp.cosine_sum_field(domain, constant, terms).values
    assert np.array_equal(fast, mesh_cosine_sum_field(domain, constant, terms).values)
