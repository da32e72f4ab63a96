import itertools
import math

import numpy as np
import pytest

from thermoch import io_cli as io
from thermoch import spectral as sp
from thermoch.errors import ConfigurationError, MeanDomainError

PI2 = math.pi**2


def random_band_limited(basis, rng, zero_mean=False):
    vals = rng.standard_normal(basis.n)
    if zero_mean:
        vals[0] = 0.0
    return sp.Coeffs(vals, basis)


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


class TestBasis:
    def test_interval_eigenvalues(self):
        basis = sp.build_basis(sp.BoxDomain((1.0,), 16), 2)
        assert basis.eigenvalues[0] == 0.0
        assert basis.eigenvalues[1] == pytest.approx(PI2, abs=1e-12)

    def test_constant_eigenfunction(self):
        basis = sp.build_basis(sp.BoxDomain((1.0,), 16), 1)
        assert np.allclose(basis.eigenfunction_values[0], 1.0, atol=1e-15)
        assert basis.eigenvalues[0] == 0.0

    def test_square_tie_breaking(self):
        basis = sp.build_basis(sp.BoxDomain((1.0, 1.0), 8), 3)
        assert basis.modes == ((0, 0), (0, 1), (1, 0))
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
        assert basis.modes == tuple(candidates[:n])
        assert np.array_equal(basis.eigenvalues, [eig(mode) for mode in candidates[:n]])

    @pytest.mark.parametrize("domain", [sp.BoxDomain((1.0,), 32), sp.BoxDomain((1.0, 2.0), 16)])
    def test_orthonormality(self, domain):
        n = 16 if domain.dim == 1 else 25
        basis = sp.build_basis(domain, n)
        E, w = basis.eigenfunction_values, basis.quadrature_weight
        gram = (E * w) @ E.T
        assert np.abs(gram - np.eye(n)).max() <= 1e-10


class TestTransforms:
    def test_unresolved_mode_killed(self):
        domain = sp.BoxDomain((1.0,), 64)
        basis = sp.build_basis(domain, 4)
        big = sp.build_basis(domain, 6)
        field = sp.Field(big.eigenfunction_values[0] + big.eigenfunction_values[5], domain)
        coeffs = sp.to_coeffs(field, basis)
        assert np.allclose(coeffs.values, [1, 0, 0, 0], atol=1e-12)

    def test_constant_field(self, unit_basis):
        c = sp.to_coeffs(sp.constant_field(0.7, unit_basis.domain), unit_basis)
        expected = np.zeros(unit_basis.n)
        expected[0] = 0.7  # 0.7 * sqrt(|Omega| = 1)
        assert np.allclose(c.values, expected, atol=1e-14)

    def test_round_trip(self, unit_basis):
        rng = np.random.default_rng(3)
        c = random_band_limited(unit_basis, rng)
        back = sp.to_coeffs(sp.to_field(c), unit_basis)
        assert np.abs(back.values - c.values).max() <= 1e-12

    def test_round_trip_2d(self):
        basis = sp.build_basis(sp.BoxDomain((1.0, 1.5), 16), 20)
        rng = np.random.default_rng(4)
        c = random_band_limited(basis, rng)
        back = sp.to_coeffs(sp.to_field(c), basis)
        assert np.abs(back.values - c.values).max() <= 1e-12

    def test_domain_mismatch(self, unit_basis):
        other = sp.constant_field(1.0, sp.BoxDomain((2.0,), 64))
        with pytest.raises(ValueError):
            sp.to_coeffs(other, unit_basis)

    def test_embed(self):
        domain = sp.BoxDomain((1.0,), 64)
        small = sp.build_basis(domain, 4)
        big = sp.build_basis(domain, 9)
        c = sp.Coeffs([1.0, 2.0, 3.0, 4.0], small)
        e = sp.embed(c, big)
        assert np.allclose(e.values[:4], c.values) and np.allclose(e.values[4:], 0.0)

    def test_embed_requires_nested_bases(self):
        small = sp.build_basis(sp.BoxDomain((2.0,), 64), 4)
        big = sp.build_basis(sp.BoxDomain((1.0,), 64), 9)
        with pytest.raises(ValueError):
            sp.embed(sp.Coeffs([1.0, 0.0, 0.0, 0.0], small), big)


def oracle_gaps(basis, rng):
    """Relative inf-norm gaps of the factored transforms to the dense oracle."""
    E, w = basis.eigenfunction_values, basis.quadrature_weight
    f = sp.Field(rng.standard_normal(basis.domain.n_grid), basis.domain)
    c = sp.Coeffs(rng.standard_normal(basis.n), basis)

    def gap(fast, dense):
        return float(np.abs(fast - dense).max() / np.abs(dense).max())

    return (
        gap(sp.to_coeffs(f, basis).values, E @ (w * f.values)),
        gap(sp.to_field(c).values, c.values @ E),
        gap(sp.to_coeffs(sp.to_field(c), basis).values, c.values),
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
        ],
    )
    def test_match_dense_oracle(self, lengths, grid, n):
        basis = sp.build_basis(sp.BoxDomain(lengths, grid), n)
        assert max(oracle_gaps(basis, np.random.default_rng(grid + n))) <= 1e-13

    def test_axis_factors_cover_used_wavenumbers_only(self):
        basis = sp.build_basis(sp.BoxDomain((1.0, 1.0), 16), 5)
        assert basis.modes == ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2))
        assert [C.shape for C in basis.axis_factors] == [(2, 16), (3, 16)]
        assert list(basis.mode_index) == [0, 1, 3, 4, 2]

    def test_semi_implicit_run_never_builds_dense_matrix(self, tmp_path, monkeypatch):
        built = []
        build = sp.build_basis

        def recording_build(domain, n):
            built.append(build(domain, n))
            return built[-1]

        monkeypatch.setattr(sp, "build_basis", recording_build)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[domain]\ndim = 2\nlengths = 1.0, 1.0\ngrid = 16\nn_modes = 20\n"
            "[potential]\nkind = regular\neps = 0.1\n"
            "[data]\nphi0 = 0.1 + 0.2*cos(1,1)\n"
            "[time]\nt_final = 0.05\ndt = 0.01\nscheme = semi_implicit\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert io.main(["simulate", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        assert built and all("eigenfunction_values" not in b.__dict__ for b in built)


class TestMeanValue:
    def test_constant(self, unit_basis):
        c = sp.to_coeffs(sp.constant_field(0.42, unit_basis.domain), unit_basis)
        assert sp.mean_value(c) == pytest.approx(0.42, abs=1e-14)

    def test_pure_mode_zero_mean(self, unit_basis):
        vals = np.zeros(unit_basis.n)
        vals[3] = 2.0
        assert sp.mean_value(sp.Coeffs(vals, unit_basis)) == 0.0

    def test_rescaling_with_measure(self):
        basis = sp.build_basis(sp.BoxDomain((4.0,), 16), 2)
        vals = np.zeros(2)
        vals[0] = 2.0
        assert sp.mean_value(sp.Coeffs(vals, basis)) == pytest.approx(1.0, abs=1e-14)


class TestPoissonInverse:
    def test_second_mode(self):
        basis = sp.build_basis(sp.BoxDomain((1.0,), 32), 4)
        vals = np.zeros(4)
        vals[1] = 1.0
        u = sp.solve_poisson(sp.Coeffs(vals, basis))
        assert u.values[1] == pytest.approx(1.0 / PI2, rel=1e-14)
        assert u.values[0] == 0.0

    def test_zero(self, unit_basis):
        u = sp.solve_poisson(sp.zero_coeffs(unit_basis))
        assert np.all(u.values == 0.0)

    def test_constant_rejected(self, unit_basis):
        c = sp.to_coeffs(sp.constant_field(1.0, unit_basis.domain), unit_basis)
        with pytest.raises(MeanDomainError):
            sp.solve_poisson(c)

    @pytest.mark.parametrize("n,grid,dim", [(8, 16, 1), (32, 64, 1), (64, 16, 2)])
    def test_identities(self, n, grid, dim):
        domain = sp.BoxDomain((1.0,) * dim, grid)
        basis = sp.build_basis(domain, n)
        rng = np.random.default_rng(n)
        for _ in range(5):
            psi = random_band_limited(basis, rng, zero_mean=True)
            zeta = random_band_limited(basis, rng, zero_mean=True)
            n_psi, n_zeta = sp.solve_poisson(psi), sp.solve_poisson(zeta)
            assert abs(sp.inner(psi, n_zeta) - sp.inner(zeta, n_psi)) <= 1e-12 * (
                sp.norm_L2(psi) * sp.norm_L2(zeta) + 1
            )
            assert abs(sp.inner(psi, n_psi) - sp.norm_Hm1(psi) ** 2) <= 1e-12

    def test_weak_form(self):
        # int grad(N psi) . grad v equals the pairing <psi, v> for all v
        basis = sp.build_basis(sp.BoxDomain((1.0,), 32), 8)
        rng = np.random.default_rng(11)
        psi = random_band_limited(basis, rng, zero_mean=True)
        u = sp.solve_poisson(psi)
        for _ in range(4):
            v = random_band_limited(basis, rng)
            lhs = float((basis.eigenvalues * u.values * v.values).sum())
            assert lhs == pytest.approx(sp.inner(psi, v), abs=1e-12)


class TestNorms:
    def test_unit_second_mode(self):
        basis = sp.build_basis(sp.BoxDomain((1.0,), 32), 4)
        vals = np.zeros(4)
        vals[1] = 1.0
        c = sp.Coeffs(vals, basis)
        assert sp.norm_L2(c) == 1.0
        assert sp.norm_H1(c) == pytest.approx(math.sqrt(1.0 + PI2), rel=1e-14)
        assert sp.norm_Hm1(c) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_constant_all_equal(self, unit_basis):
        c = sp.to_coeffs(sp.constant_field(1.0, unit_basis.domain), unit_basis)
        for norm in (sp.norm_L2, sp.norm_H1, sp.norm_Hm1):
            assert norm(c) == pytest.approx(1.0, abs=1e-14)

    def test_lp_constant_unit_measure(self, unit_domain):
        assert sp.norm_Lp(sp.constant_field(2.0, unit_domain), 6) == pytest.approx(2.0)

    def test_lp_constant_scaling(self):
        domain = sp.BoxDomain((8.0,), 32)
        f = sp.constant_field(2.0, domain)
        assert sp.norm_Lp(f, 6) == pytest.approx(2.0 * 8.0 ** (1 / 6), rel=1e-14)
        assert sp.norm_Lp(f, np.inf) == 2.0

    def test_lp_against_closed_form_integral(self, unit_domain):
        # int_0^1 cos^6(pi x) dx = 5/16 and int_0^1 cos^2(pi x) dx = 1/2
        f = sp.cosine_sum_field(unit_domain, 0.0, [((1,), 1.0)])
        assert sp.norm_Lp(f, 6) == pytest.approx((5.0 / 16.0) ** (1 / 6), abs=1e-8)
        assert sp.norm_Lp(f, 2) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_lp_requires_p_at_least_one(self, unit_domain):
        with pytest.raises(ValueError):
            sp.norm_Lp(sp.constant_field(1.0, unit_domain), 0.5)


class TestStiffness:
    def test_constant_annihilated(self, unit_basis):
        c = sp.to_coeffs(sp.constant_field(3.0, unit_basis.domain), unit_basis)
        # roundoff dust on modes j >= 2 is amplified by lambda_max ~ 2e3
        scale = float(unit_basis.eigenvalues[-1]) * 3.0
        assert np.abs(sp.apply_stiffness(c).values).max() <= 1e-14 * scale

    def test_second_mode_scaled(self):
        basis = sp.build_basis(sp.BoxDomain((1.0,), 32), 4)
        vals = np.zeros(4)
        vals[1] = 1.0
        out = sp.apply_stiffness(sp.Coeffs(vals, basis))
        assert out.values[1] == pytest.approx(PI2, rel=1e-14)

    def test_linearity(self, unit_basis):
        rng = np.random.default_rng(5)
        u = random_band_limited(unit_basis, rng)
        v = random_band_limited(unit_basis, rng)
        left = sp.apply_stiffness(2.0 * u + (-3.0) * v)
        right = 2.0 * sp.apply_stiffness(u) + (-3.0) * sp.apply_stiffness(v)
        assert np.abs(left.values - right.values).max() <= 1e-14 * max(
            1.0, np.abs(right.values).max()
        )


class TestPathIdentity:
    def test_telescoping_exact_for_discrete_paths(self, unit_basis):
        rng = np.random.default_rng(6)
        path = [random_band_limited(unit_basis, rng, zero_mean=True) for _ in range(12)]
        acc = 0.0
        for a, b in zip(path, path[1:]):
            acc += sp.inner(b - a, sp.solve_poisson(0.5 * (a + b)))
        expected = 0.5 * (sp.norm_Hm1(path[-1]) ** 2 - sp.norm_Hm1(path[0]) ** 2)
        assert abs(acc - expected) <= 1e-12

    def test_sampled_derivative_quadrature_second_order(self):
        # cumulative trapezoid of <v'(t), N v(t)> for a smooth path
        basis = sp.build_basis(sp.BoxDomain((1.0,), 32), 4)

        def path(t):
            vals = np.array([0.0, math.sin(t), math.cos(2 * t), 0.3 * t])
            return sp.Coeffs(vals, basis)

        def dpath(t):
            vals = np.array([0.0, math.cos(t), -2 * math.sin(2 * t), 0.3])
            return sp.Coeffs(vals, basis)

        def residual(dt):
            ts = np.arange(0.0, 1.0 + dt / 2, dt)
            samples = [sp.inner(dpath(t), sp.solve_poisson(path(t))) for t in ts]
            integral = np.trapezoid(samples, ts)
            exact = 0.5 * (sp.norm_Hm1(path(ts[-1])) ** 2 - sp.norm_Hm1(path(0.0)) ** 2)
            return abs(integral - exact)

        r1, r2 = residual(0.01), residual(0.005)
        assert r1 / r2 == pytest.approx(4.0, rel=0.3)


class TestInequalities:
    def test_poincare_zero_mean(self, unit_basis):
        rng = np.random.default_rng(12)
        lam2 = unit_basis.eigenvalues[1]
        for _ in range(20):
            v = random_band_limited(unit_basis, rng, zero_mean=True)
            assert sp.norm_L2(v) ** 2 <= sp.grad_norm(v) ** 2 / lam2 + 1e-12

    def test_projection_non_expansive(self):
        domain = sp.BoxDomain((1.0,), 64)
        small = sp.build_basis(domain, 6)
        big = sp.build_basis(domain, 20)
        rng = np.random.default_rng(13)
        for _ in range(10):
            full = sp.Coeffs(rng.standard_normal(20), big)
            projected = sp.to_coeffs(sp.to_field(full), small)
            assert sp.norm_L2(projected) <= sp.norm_L2(full) + 1e-12
            assert sp.grad_norm(projected) <= sp.grad_norm(full) + 1e-12
            assert sp.norm_H1(projected) <= sp.norm_H1(full) + 1e-12
