import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import dense_eigenfunctions, grad_norm, grid_values, mean_value, norm_H1, norm_Hm1
from thermoch import io_cli as io
from thermoch import spectral as sp
from thermoch.errors import ConfigurationError, MeanDomainError

PI2 = math.pi**2


def random_band_limited(basis, rng, zero_mean=False):
    vals = rng.standard_normal(basis.n)
    if zero_mean:
        vals[0] = 0.0
    return vals


class TestBoxDomain:
    def test_measure_and_weight(self):
        domain = sp.BoxDomain((2.0, 0.5), 8)
        assert domain.measure == pytest.approx(1.0)
        assert domain.n_grid == 64
        assert domain.cell_weight == pytest.approx(1.0 / 64)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sp.BoxDomain((), 8)
        with pytest.raises(ConfigurationError):
            sp.BoxDomain((1.0, 1.0, 1.0), 8)
        with pytest.raises(ConfigurationError):
            sp.BoxDomain((-1.0,), 8)
        with pytest.raises(ConfigurationError):
            sp.BoxDomain((1.0,), 3)

    def test_midpoint_nodes(self):
        domain = sp.BoxDomain((2.0,), 4)
        assert np.allclose(domain.grid_axes()[0], [0.25, 0.75, 1.25, 1.75])

    def test_field_needs_one_sample_per_grid_point(self):
        domain = sp.BoxDomain((1.0,), 4)
        with pytest.raises(ValueError, match="field has 5 samples, grid has 4"):
            sp.Field(np.zeros(5), domain)


class TestBasis:
    def test_interval_eigenvalues(self):
        basis = sp.build_basis(sp.BoxDomain((1.0,), 16), 2)
        assert basis.eigenvalues[0] == 0.0
        assert basis.eigenvalues[1] == pytest.approx(PI2, abs=1e-12)

    def test_constant_eigenfunction(self):
        basis = sp.build_basis(sp.BoxDomain((1.0,), 16), 1)
        assert np.allclose(sp.to_field(np.array([1.0]), basis), 1.0, atol=1e-15)
        assert basis.eigenvalues[0] == 0.0

    def test_square_tie_breaking(self):
        basis = sp.build_basis(sp.BoxDomain((1.0, 1.0), 8), 3)
        assert basis.modes.T.tolist() == [[0, 0], [0, 1], [1, 0]]
        assert np.allclose(basis.eigenvalues, [0.0, PI2, PI2], atol=1e-12)

    def test_scaled_interval(self):
        L = 2.5
        basis = sp.build_basis(sp.BoxDomain((L,), 16), 3)
        assert basis.eigenvalues[1] == pytest.approx((math.pi / L) ** 2, rel=1e-14)
        assert basis.eigenvalues[2] == pytest.approx((2 * math.pi / L) ** 2, rel=1e-14)

    def test_capacity_error(self):
        with pytest.raises(ConfigurationError):
            sp.build_basis(sp.BoxDomain((1.0,), 8), 6)  # cap is 8//2 + 1 = 5 modes

    @pytest.mark.parametrize(
        "lengths, grid, n",
        [
            ((1.0,), 64, 33),
            ((1.0, 1.0), 64, 512),
            ((1.0, 1.0), 128, 1024),
            ((2.0, 0.7), 33, 200),
            ((3.0, 1.0), 128, 4225),
            ((1.0, 2.0), 32, 289),
            ((2.0, 2.0), 16, 81),
        ],
    )
    def test_order_matches_key_sort(self, lengths, grid, n):
        # Oracle: sort every candidate mode by the key (eigenvalue, mode).
        def eig(mode):
            return sum((k * math.pi / L) ** 2 for k, L in zip(mode, lengths))

        cap = grid // 2
        candidates = sorted(itertools.product(range(cap + 1), repeat=len(lengths)),
                            key=lambda mode: (eig(mode), mode))
        basis = sp.build_basis(sp.BoxDomain(lengths, grid), n)
        assert basis.modes.T.tolist() == [list(mode) for mode in candidates[:n]]
        assert np.array_equal(basis.eigenvalues, [eig(mode) for mode in candidates[:n]])

    @pytest.mark.parametrize("lengths", [(1.0,), (2.0, 1.0), (1.0, 1.0)], ids=["1d", "rect-2:1", "square"])
    def test_bases_on_one_domain_are_nested(self, lengths):
        # converge modes zero-pads a coarse basis's coefficients into the reference
        # basis: every m-mode basis is the first m modes and eigenvalues of a larger one,
        # also where a cut falls inside a tie such as (1, 0), (0, 1) on the square.
        domain = sp.BoxDomain(lengths, 16)
        big = sp.build_basis(domain, 9 ** domain.dim)
        if domain.dim == 2:
            assert len(set(big.eigenvalues.tolist())) < big.n  # the sort meets ties
        for m in range(1, big.n + 1):
            small = sp.build_basis(domain, m)
            assert np.array_equal(small.modes, big.modes[:, :m])
            assert np.array_equal(small.eigenvalues, big.eigenvalues[:m])

    @pytest.mark.parametrize(
        "domain,n",
        [(sp.BoxDomain((1.0,), 32), 16), (sp.BoxDomain((1.0, 2.0), 16), 25),
         (sp.BoxDomain((1.0, 1.0), 64), 512), (sp.BoxDomain((2.0, 0.5), 33), 17**2)],
        ids=["domain0", "domain1", "domain2", "domain3"],
    )
    def test_orthonormality(self, domain, n):
        basis = sp.build_basis(domain, n)
        E, w = dense_eigenfunctions(basis), basis.domain.cell_weight
        dense = (E * w) @ E.T
        gram = sp.gram_matrix(basis)
        assert np.abs(gram - dense).max() <= 1e-14
        assert np.abs(gram - np.eye(n)).max() <= 1e-10


class TestTransforms:
    def test_unresolved_mode_killed(self):
        domain = sp.BoxDomain((1.0,), 64)
        basis = sp.build_basis(domain, 4)
        big = sp.build_basis(domain, 6)
        E = dense_eigenfunctions(big)
        coeffs = sp.to_coeffs(E[0] + E[5], basis)
        assert np.allclose(coeffs, [1, 0, 0, 0], atol=1e-12)

    def test_constant_field(self, unit_basis):
        c = sp.project(sp.constant_field(0.7, unit_basis.domain), unit_basis)
        expected = np.zeros(unit_basis.n)
        expected[0] = 0.7  # 0.7 * sqrt(|Omega| = 1)
        assert np.allclose(c, expected, atol=1e-14)

    def test_round_trip(self, unit_basis):
        rng = np.random.default_rng(3)
        c = random_band_limited(unit_basis, rng)
        back = sp.to_coeffs(sp.to_field(c, unit_basis), unit_basis)
        assert np.abs(back - c).max() <= 1e-12

    def test_round_trip_2d(self):
        basis = sp.build_basis(sp.BoxDomain((1.0, 1.5), 16), 20)
        rng = np.random.default_rng(4)
        c = random_band_limited(basis, rng)
        back = sp.to_coeffs(sp.to_field(c, basis), basis)
        assert np.abs(back - c).max() <= 1e-12

    @pytest.mark.parametrize("lengths, grid, n", [((1.0,), 64, 16), ((1.0, 1.5), 16, 40)])
    def test_transforms_leave_inputs_unchanged(self, lengths, grid, n):
        # Callers keep the arrays they pass, e.g. the regularized graph that
        # check_L6_bound reads after the Newton loop has transformed it.
        basis = sp.build_basis(sp.BoxDomain(lengths, grid), n)
        rng = np.random.default_rng(n)
        c = rng.standard_normal(n)
        f = rng.standard_normal(basis.domain.n_grid)
        c_in, f_in = c.copy(), f.copy()
        sp.to_field(c, basis)
        sp.to_coeffs(f, basis)
        assert c.tobytes() == c_in.tobytes() and f.tobytes() == f_in.tobytes()

    def test_domain_mismatch(self, unit_basis):
        # A field of the same 64 samples on a box of another length would be
        # projected with the wrong weight and eigenvalues: project rejects it.
        other = sp.constant_field(1.0, sp.BoxDomain((2.0,), 64))
        with pytest.raises(ValueError, match="different domains"):
            sp.project(other, unit_basis)
        # The bare-array transform rejects samples of another grid size.
        for domain in (sp.BoxDomain((1.0,), 32), sp.BoxDomain((1.0, 1.0), 16)):
            basis = sp.build_basis(domain, 4)
            for other in (sp.BoxDomain((1.0,), 64), sp.BoxDomain((1.0, 1.0), 8)):
                with pytest.raises(ValueError):
                    sp.to_coeffs(np.ones(other.n_grid), basis)


def oracle_gaps(basis, rng):
    """Relative inf-norm gaps of the factored transforms to the dense oracle.

    The projection's gap is taken per coefficient against the scale of its
    rounding error, the sum of the moduli of its summands sum_i |w f_i e_j(x_i)|
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., section
    4.2): the coefficient itself can cancel to far below that scale.
    """
    E, w = dense_eigenfunctions(basis), basis.domain.cell_weight
    f = rng.standard_normal(basis.domain.n_grid)
    c = rng.standard_normal(basis.n)

    def gap(fast, dense):
        return float(np.abs(fast - dense).max() / np.abs(dense).max())

    return (
        float((np.abs(sp.to_coeffs(f, basis) - E @ (w * f)) / (np.abs(E) @ np.abs(w * f))).max()),
        gap(sp.to_field(c, basis), c @ E),
        gap(sp.to_coeffs(sp.to_field(c, basis), basis), c),
    )


class TestFactoredTransforms:
    @pytest.mark.parametrize(
        "lengths,grid,n",
        [
            ((1.0,), 64, 16),
            ((2.5,), 33, 1),
            ((2.5,), 33, 17),  # odd grid, full capacity 33 // 2 + 1
            ((1.0, 1.0), 16, 40),
            ((1.0, 1.5), 8, 1),
            ((2.0, 0.5), 33, 17**2),  # non-square, odd grid, full capacity
            ((1.0, 1.0), 64, 512),
            ((1.0,), 128, 65),  # 1-D, full capacity
            ((3.0, 1.0), 24, 30),  # anisotropic: 10 wavenumbers on x, 4 on y
        ],
    )
    def test_match_dense_oracle(self, lengths, grid, n):
        basis = sp.build_basis(sp.BoxDomain(lengths, grid), n)
        assert max(oracle_gaps(basis, np.random.default_rng(grid + n))) <= 1e-13

    def test_axis_factors_cover_used_wavenumbers_only(self):
        basis = sp.build_basis(sp.BoxDomain((1.0, 1.0), 16), 5)
        assert basis.modes.T.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1], [0, 2]]
        assert [C.shape for C in basis.axis_factors] == [(2, 16), (3, 16)]
        assert list(basis.mode_index) == [0, 1, 3, 4, 2]

    @pytest.mark.parametrize(
        "argv,scheme,kind",
        [
            (["simulate"], "semi_implicit", "regular"),
            (["simulate"], "backward_euler", "regular"),
            (["verify", "elliptic"], "semi_implicit", "logarithmic\nc1 = 2.0"),
            (["verify", "spectral"], "semi_implicit", "regular"),
            (["verify", "potentials"], "semi_implicit", "logarithmic\nc1 = 2.0"),
            (["converge", "modes"], "semi_implicit", "regular"),
            (["depend"], "semi_implicit", "regular"),
        ],
        ids=["simulate-semi_implicit", "simulate-backward_euler", "verify-elliptic",
             "verify-spectral", "verify-potentials", "converge-modes", "depend"],
    )
    def test_command_never_builds_dense_matrix(self, tmp_path, argv, scheme, kind):
        # 200 modes on a 64 x 64 grid: an n x N float matrix takes 6.5 MB, and
        # nothing else a command allocates comes near half of that.
        n, grid = 200, 64
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            f"[domain]\ndim = 2\nlengths = 1.0, 1.0\ngrid = {grid}\nn_modes = {n}\n"
            f"[potential]\nkind = {kind}\neps = 0.1\n"
            "[data]\nphi0 = 0.1 + 0.2*cos(1,1)\n"
            f"[time]\nt_final = 0.03\ndt = 0.01\nscheme = {scheme}\n"
            "[experiment]\ntrials = 2\nsamples = 2000\n",
            encoding="utf-8",
        )
        configs = [str(cfg)] * (2 if argv == ["depend"] else 1)
        tracemalloc.start()
        try:
            code = io.main([*argv, *configs, "--output-dir", str(tmp_path / "out"), "--quiet"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 0.5 * 8 * n * grid**2


class TestConstantData:
    # A constant datum is one number: a read-only stride-0 view that projects to the
    # bytes of its filled grid. A square samples its one axis factor once.
    DOMAINS = [sp.BoxDomain((2.0,), 64), sp.BoxDomain((1.0, 1.0), 32)]

    @pytest.mark.parametrize("domain", DOMAINS, ids=["1d", "2d"])
    def test_constant_is_a_read_only_view_that_projects_as_filled(self, domain):
        basis = sp.build_basis(domain, 12)
        filled = sp.project(sp.Field(np.full(domain.n_grid, 0.3), domain), basis)
        for f in (sp.constant_field(0.3, domain), sp.cosine_sum_field(domain, 0.3)):
            assert f.values.strides == (0,) and not f.values.flags.writeable
            with pytest.raises(ValueError):
                f.values[0] = 1.0
            assert sp.project(f, basis).tobytes() == filled.tobytes()

    @pytest.mark.parametrize("domain", DOMAINS, ids=["1d", "2d"])
    def test_cosine_sum_adds_terms_to_the_constant_in_order(self, domain):
        terms = [((1,) * domain.dim, 0.2), ((2,) + (0,) * (domain.dim - 1), -0.7)]
        expected = np.full(domain.n_grid, 0.1)
        for mode, amp in terms:
            cosines = [np.cos(k * math.pi * x / L) for k, x, L in zip(mode, domain.grid_axes(), domain.lengths)]
            cosines[0] = amp * cosines[0]
            expected = expected + functools.reduce(np.multiply.outer, cosines).ravel()
        assert sp.cosine_sum_field(domain, 0.1, terms).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("domain", DOMAINS, ids=["1d", "2d"])
    def test_to_coeffs_of_strided_samples_equals_their_contiguous_copy(self, domain):
        basis = sp.build_basis(domain, 20)
        samples = np.random.default_rng(3).standard_normal(2 * domain.n_grid)
        for values in (np.broadcast_to(-1.25, (domain.n_grid,)), samples[::2]):
            contiguous = np.ascontiguousarray(values)
            assert values.strides != contiguous.strides
            assert sp.to_coeffs(values, basis).tobytes() == sp.to_coeffs(contiguous, basis).tobytes()

    def test_square_shares_its_axis_factor(self):
        basis = sp.build_basis(sp.BoxDomain((1.0, 1.0), 128), 1024)
        assert basis.axis_factors[0] is basis.axis_factors[1]

    @pytest.mark.parametrize(
        "lengths,grid,n", [((2.0, 1.0), 32, 200), ((1.0, 1.0), 16, 2)], ids=["rectangle", "square-cut-tie"],
    )
    def test_unequal_axes_sample_their_own_factors(self, lengths, grid, n):
        domain = sp.BoxDomain(lengths, grid)
        basis = sp.build_basis(domain, n)
        C0, C1 = basis.axis_factors
        assert C0 is not C1
        for C, k, x, L in zip(basis.axis_factors, basis.modes.max(axis=1), domain.grid_axes(), lengths):
            assert C.tobytes() == sp._axis_eigenfunctions(int(k), x, L).tobytes()


class TestMeanValue:
    # The mean over the box is c_1 / sqrt(|Omega|), as simulate and the record
    # take it: checked against the grid mean of the element's values.
    def test_constant(self, unit_basis):
        c = sp.project(sp.constant_field(0.42, unit_basis.domain), unit_basis)
        assert mean_value(c, unit_basis) == pytest.approx(0.42, abs=1e-14)

    def test_pure_mode_zero_mean(self, unit_basis):
        vals = np.zeros(unit_basis.n)
        vals[3] = 2.0
        assert mean_value(vals, unit_basis) == 0.0
        assert grid_values(vals, unit_basis).values.mean() == pytest.approx(0.0, abs=1e-15)

    def test_rescaling_with_measure(self):
        basis = sp.build_basis(sp.BoxDomain((4.0,), 16), 2)
        vals = np.zeros(2)
        vals[0] = 2.0
        assert mean_value(vals, basis) == pytest.approx(1.0, abs=1e-14)
        assert grid_values(vals, basis).values.mean() == pytest.approx(1.0, abs=1e-14)


class TestPoissonInverse:
    def test_second_mode(self):
        basis = sp.build_basis(sp.BoxDomain((1.0,), 32), 4)
        vals = np.zeros(4)
        vals[1] = 1.0
        u = sp.solve_poisson(vals, basis)
        assert u[1] == pytest.approx(1.0 / PI2, rel=1e-14)
        assert u[0] == 0.0

    def test_zero(self, unit_basis):
        u = sp.solve_poisson(np.zeros(unit_basis.n), unit_basis)
        assert np.all(u == 0.0)

    def test_constant_rejected(self, unit_basis):
        c = sp.project(sp.constant_field(1.0, unit_basis.domain), unit_basis)
        with pytest.raises(MeanDomainError, match="mean = 1.000e"):
            sp.solve_poisson(c, unit_basis)

    @pytest.mark.parametrize("n,grid,dim", [(8, 16, 1), (32, 64, 1), (64, 16, 2)])
    def test_identities(self, n, grid, dim):
        domain = sp.BoxDomain((1.0,) * dim, grid)
        basis = sp.build_basis(domain, n)
        rng = np.random.default_rng(n)
        for _ in range(5):
            psi = random_band_limited(basis, rng, zero_mean=True)
            zeta = random_band_limited(basis, rng, zero_mean=True)
            n_psi, n_zeta = sp.solve_poisson(psi, basis), sp.solve_poisson(zeta, basis)
            assert abs(psi @ n_zeta - zeta @ n_psi) <= 1e-12 * (np.linalg.norm(psi) * np.linalg.norm(zeta) + 1)
            assert abs(psi @ n_psi - norm_Hm1(psi, basis) ** 2) <= 1e-12

    def test_weak_form(self):
        # int grad(N psi) . grad v equals the pairing <psi, v> for all v
        basis = sp.build_basis(sp.BoxDomain((1.0,), 32), 8)
        rng = np.random.default_rng(11)
        psi = random_band_limited(basis, rng, zero_mean=True)
        u = sp.solve_poisson(psi, basis)
        for _ in range(4):
            v = random_band_limited(basis, rng)
            lhs = float((basis.eigenvalues * u * v).sum())
            assert lhs == pytest.approx(psi @ v, abs=1e-12)


class TestNorms:
    def test_unit_second_mode(self):
        basis = sp.build_basis(sp.BoxDomain((1.0,), 32), 4)
        vals = np.zeros(4)
        vals[1] = 1.0
        assert np.linalg.norm(vals) == 1.0
        assert norm_H1(vals, basis) == pytest.approx(math.sqrt(1.0 + PI2), rel=1e-14)
        assert norm_Hm1(vals, basis) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_constant_all_equal(self, unit_basis):
        c = sp.project(sp.constant_field(1.0, unit_basis.domain), unit_basis)
        for norm in (np.linalg.norm(c), norm_H1(c, unit_basis), norm_Hm1(c, unit_basis)):
            assert norm == pytest.approx(1.0, abs=1e-14)

    def test_lp_constant_unit_measure(self, unit_domain):
        assert sp.norm_Lp(sp.constant_field(2.0, unit_domain).values, unit_domain, 6) == pytest.approx(2.0)

    def test_lp_constant_scaling(self):
        domain = sp.BoxDomain((8.0,), 32)
        f = sp.constant_field(2.0, domain).values
        assert sp.norm_Lp(f, domain, 6) == pytest.approx(2.0 * 8.0 ** (1 / 6), rel=1e-14)

    def test_lp_against_closed_form_integral(self, unit_domain):
        # int_0^1 cos^6(pi x) dx = 5/16; the midpoint sum of |cos(pi x)| on M
        # nodes symmetric about 1/2 is 1 / (M sin(pi / 2M)) (it tends to 2 / pi)
        f = sp.cosine_sum_field(unit_domain, 0.0, [((1,), 1.0)]).values
        assert sp.norm_Lp(f, unit_domain, 6) == pytest.approx((5.0 / 16.0) ** (1 / 6), abs=1e-8)
        m = unit_domain.grid_points_per_axis
        assert sp.norm_Lp(f, unit_domain, 1) == pytest.approx(1.0 / (m * math.sin(math.pi / (2 * m))), abs=1e-12)

    def test_lp_huge_finite_samples_do_not_overflow(self):
        # (1e100)^6 overflows a double; such samples are scaled by max |x| first
        domain = sp.BoxDomain((8.0,), 32)
        values = np.full(domain.n_grid, 1e100)
        assert sp.norm_Lp(values, domain, 6) == pytest.approx(1e100 * domain.measure ** (1 / 6), rel=1e-15)
        x = np.random.default_rng(0).standard_normal(domain.n_grid)
        assert sp.norm_Lp(1e100 * x, domain, 6) == pytest.approx(1e100 * sp.norm_Lp(x, domain, 6), rel=1e-15)
        assert sp.norm_Lp(np.r_[values[1:], np.inf], domain, 6) == np.inf

    def test_lp_requires_p_at_least_one(self, unit_domain):
        # p = 1 and p = 6 are the norms the diagnostics take; every other p raises
        for p in (0.5, 2, np.inf):
            with pytest.raises(ValueError):
                sp.norm_Lp(np.ones(unit_domain.n_grid), unit_domain, p)


class TestPathIdentity:
    def test_telescoping_exact_for_discrete_paths(self, unit_basis):
        rng = np.random.default_rng(6)
        path = [random_band_limited(unit_basis, rng, zero_mean=True) for _ in range(12)]
        acc = 0.0
        for a, b in zip(path, path[1:]):
            acc += (b - a) @ sp.solve_poisson(0.5 * (a + b), unit_basis)
        expected = 0.5 * (norm_Hm1(path[-1], unit_basis) ** 2 - norm_Hm1(path[0], unit_basis) ** 2)
        assert abs(acc - expected) <= 1e-12

    def test_sampled_derivative_quadrature_second_order(self):
        # cumulative trapezoid of <v'(t), N v(t)> for a smooth path
        basis = sp.build_basis(sp.BoxDomain((1.0,), 32), 4)

        def path(t):
            return np.array([0.0, math.sin(t), math.cos(2 * t), 0.3 * t])

        def dpath(t):
            return np.array([0.0, math.cos(t), -2 * math.sin(2 * t), 0.3])

        def residual(dt):
            ts = np.arange(0.0, 1.0 + dt / 2, dt)
            samples = [dpath(t) @ sp.solve_poisson(path(t), basis) for t in ts]
            integral = np.trapezoid(samples, ts)
            exact = 0.5 * (norm_Hm1(path(ts[-1]), basis) ** 2 - norm_Hm1(path(0.0), basis) ** 2)
            return abs(integral - exact)

        r1, r2 = residual(0.01), residual(0.005)
        assert r1 / r2 == pytest.approx(4.0, rel=0.3)


class TestInequalities:
    def test_poincare_zero_mean(self, unit_basis):
        rng = np.random.default_rng(12)
        lam2 = unit_basis.eigenvalues[1]
        for _ in range(20):
            v = random_band_limited(unit_basis, rng, zero_mean=True)
            assert np.linalg.norm(v) ** 2 <= grad_norm(v, unit_basis) ** 2 / lam2 + 1e-12

    def test_projection_non_expansive(self):
        domain = sp.BoxDomain((1.0,), 64)
        small = sp.build_basis(domain, 6)
        big = sp.build_basis(domain, 20)
        rng = np.random.default_rng(13)
        for _ in range(10):
            full = rng.standard_normal(20)
            projected = sp.project(grid_values(full, big), small)
            assert np.linalg.norm(projected) <= np.linalg.norm(full) + 1e-12
            assert grad_norm(projected, small) <= grad_norm(full, big) + 1e-12
            assert norm_H1(projected, small) <= norm_H1(full, big) + 1e-12
