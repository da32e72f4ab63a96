import dataclasses
import math

import numpy as np
import pytest

from conftest import sampled_spec_violations
from thermoch import potentials as pot
from thermoch.errors import CompatibilityError, NumericFailure
from thermoch.io_cli import bisection_resolvent

REG = pot.regular_potential()
LOG = pot.logarithmic_potential(2.0)
OBS = pot.double_obstacle_potential(1.0)
PROTOTYPES = [REG, LOG, OBS]


def simpson(fn, a, b, n=2000):
    """Composite Simpson quadrature (independent oracle for primitives)."""
    x = np.linspace(a, b, 2 * n + 1)
    y = fn(x)
    h = (b - a) / (2 * n)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum())


class TestResolvent:
    def test_double_obstacle_is_projection(self):
        assert pot.resolvent(OBS, 0.5, 2.0) == 1.0
        assert pot.resolvent(OBS, 0.5, -3.0) == -1.0
        assert pot.resolvent(OBS, 0.5, 0.7) == 0.7

    def test_regular_cubic_root(self):
        # oracle root of y + eps y^3 = 2 via bisection
        for eps in (0.5, 0.1, 0.999999):
            oracle = bisection_resolvent(REG, eps, 2.0)
            assert abs(pot.resolvent(REG, eps, 2.0) - oracle) <= 1e-10
        # near the upper end of the admissible range, y + y^3 = 2 has root 1
        assert abs(pot.resolvent(REG, 1.0 - 1e-13, 2.0) - 1.0) < 1e-9

    @pytest.mark.parametrize("spec", PROTOTYPES, ids=lambda s: s.kind)
    @pytest.mark.parametrize("eps", [0.9, 0.3, 0.05])
    def test_fixed_point_at_zero(self, spec, eps):
        assert pot.resolvent(spec, eps, 0.0) == 0.0

    @pytest.mark.parametrize("spec", PROTOTYPES, ids=lambda s: s.kind)
    def test_stays_in_domain_closure(self, spec):
        r = np.linspace(-6.0, 6.0, 201)
        for eps in (0.9, 0.1, 0.01):
            y = pot.resolvent(spec, eps, r)
            assert (y >= spec.domain[0]).all() and (y <= spec.domain[1]).all()

    def test_eps_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pot.resolvent(REG, 1.0, 2.0)
        with pytest.raises(ValueError):
            pot.resolvent(REG, 0.0, 2.0)

    def test_logarithmic_interior_root(self):
        y = pot.resolvent(LOG, 0.1, 0.9)
        assert -1.0 < y < 1.0
        assert abs(y + 0.1 * math.log((1 + y) / (1 - y)) - 0.9) < 1e-12

    @pytest.mark.parametrize("eps, r", [(5e-324, 2.0), (1e-20, 1.0), (0.05, 1e3)])
    def test_logarithmic_saturated_root_is_the_edge(self, eps, r):
        # tanh of the root rounds to 1: the kernel returns +-1, never NaN
        assert pot.resolvent(LOG, eps, np.array([r, -r])).tolist() == [1.0, -1.0]

    def test_logarithmic_slope_finite_at_the_edge(self):
        reg = pot.regularize(LOG, 1e-20, np.array([1.0, 0.5]))
        slope = reg.slope()
        assert reg.j[0] == 1.0
        assert slope[0] == 1e20
        assert slope[1] == pytest.approx(2.0 / 0.75)

    def test_logarithmic_sweep_cap_raises(self):
        with pytest.raises(NumericFailure):
            pot.resolvent(LOG, 0.1, np.array([0.5, np.nan]))


class TestYosida:
    def test_double_obstacle_value(self):
        assert pot.yosida(OBS, 0.5, 2.0) == pytest.approx(2.0, abs=1e-15)

    def test_regular_against_oracle(self):
        eps = 0.5
        oracle = (2.0 - bisection_resolvent(REG, eps, 2.0)) / eps
        assert abs(pot.yosida(REG, eps, 2.0) - oracle) <= 1e-10

    def test_logarithmic_zero_at_zero(self):
        assert pot.yosida(LOG, 0.1, 0.0) == 0.0

    @pytest.mark.parametrize("spec", PROTOTYPES, ids=lambda s: s.kind)
    def test_monotone_and_lipschitz(self, spec):
        rng = np.random.default_rng(7)
        r = np.sort(rng.uniform(-3.0, 3.0, 500))
        for eps in (0.8, 0.2, 0.05):
            y = pot.yosida(spec, eps, r)
            dy, dr = np.diff(y), np.diff(r)
            assert (dy >= -1e-10).all()
            assert (np.abs(dy) <= dr / eps + 1e-10).all()

    @pytest.mark.parametrize("spec", PROTOTYPES, ids=lambda s: s.kind)
    def test_dominated_by_minimal_section(self, spec):
        rng = np.random.default_rng(8)
        lo = max(spec.domain[0], -1.0) + 1e-6
        hi = min(spec.domain[1], 1.0) - 1e-6
        r = rng.uniform(lo, hi, 500)
        for eps in (0.8, 0.2, 0.05):
            assert (
                np.abs(pot.yosida(spec, eps, r)) <= np.abs(spec.beta_min_section(r)) + 1e-10
            ).all()


class TestYosidaPrimitive:
    def test_double_obstacle_value(self):
        # (2 - 1)^2 / (2 * 0.5); the indicator contributes nothing
        assert pot.yosida_primitive(OBS, 0.5, 2.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("spec", PROTOTYPES, ids=lambda s: s.kind)
    def test_zero_at_zero(self, spec):
        assert pot.yosida_primitive(spec, 0.3, 0.0) == 0.0

    def test_regular_envelope_closed_form_vs_quadrature(self):
        eps = 0.5
        j = pot.resolvent(REG, eps, 2.0)
        expected = 0.25 * j**4 + (2.0 - j) ** 2 / (2.0 * eps)
        value = pot.yosida_primitive(REG, eps, 2.0)
        assert value == pytest.approx(expected, abs=1e-12)
        quad = simpson(lambda s: pot.yosida(REG, eps, s), 0.0, 2.0)
        assert value == pytest.approx(quad, abs=1e-8)

    @pytest.mark.parametrize("spec", PROTOTYPES, ids=lambda s: s.kind)
    def test_sandwich(self, spec):
        rng = np.random.default_rng(9)
        r = rng.uniform(-2.5, 2.5, 400)
        for eps in (0.8, 0.2, 0.05):
            prim = pot.yosida_primitive(spec, eps, r)
            bh = spec.beta_hat(r)
            assert (prim >= -1e-12).all()
            finite = np.isfinite(bh)
            assert (prim[finite] <= bh[finite] + 1e-10).all()


class TestYosidaDerivative:
    def test_double_obstacle_piecewise(self):
        assert pot.yosida_derivative(OBS, 0.5, 0.3) == 0.0
        assert pot.yosida_derivative(OBS, 0.5, 1.5) == 2.0

    @pytest.mark.parametrize("spec", [REG, LOG], ids=lambda s: s.kind)
    def test_matches_finite_difference(self, spec):
        eps, h = 0.2, 1e-6
        for r in (-1.3, -0.4, 0.0, 0.6, 2.1):
            fd = (pot.yosida(spec, eps, r + h) - pot.yosida(spec, eps, r - h)) / (2 * h)
            assert pot.yosida_derivative(spec, eps, r) == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestInteriorBound:
    def test_double_obstacle_zero_constant(self):
        result = pot.interior_bound_constants(
            OBS, -0.5, 0.5, 0.4, eps_grid=[0.9, 0.5, 0.1, 0.01],
            r_grid=np.linspace(-4, 4, 4001),
        )
        assert result.C0 == 0.0

    def test_regular_matches_brute_force(self):
        eps_grid = [0.9, 0.5, 0.1]
        r_grid = np.linspace(-3, 3, 1201)
        result = pot.interior_bound_constants(REG, 0.0, 0.0, 0.5, eps_grid, r_grid)
        worst = 0.0
        for eps in eps_grid:
            for r in r_grid:
                b = pot.yosida(REG, eps, float(r))
                worst = max(worst, 0.5 * abs(b) - b * r)
        assert result.C0 >= 0.0
        assert result.C0 == pytest.approx(max(worst, 0.0), abs=1e-12)

    def test_logarithmic_interior_violation(self):
        with pytest.raises(CompatibilityError):
            pot.interior_bound_constants(
                LOG, -0.5, 0.5, 0.6, eps_grid=[0.5], r_grid=[0.0]
            )


class TestSpecs:
    def test_prototype_decompositions(self):
        r = np.linspace(-0.99, 0.99, 101)
        # F = beta_hat + pi_hat reproduces the quartic well
        f_reg = REG.beta_hat(r) + REG.pi_hat(r)
        assert np.allclose(f_reg, 0.25 * (r**2 - 1.0) ** 2, atol=1e-14)
        f_log = LOG.beta_hat(r) + LOG.pi_hat(r)
        expected = (1 + r) * np.log(1 + r) + (1 - r) * np.log(1 - r) - 2.0 * r**2
        assert np.allclose(f_log, expected, atol=1e-12)
        assert np.allclose(OBS.beta_hat(r) + OBS.pi_hat(r), -1.0 * r**2, atol=1e-14)

    @pytest.mark.parametrize("spec", PROTOTYPES, ids=lambda s: s.kind)
    def test_sampled_invariants_hold(self, spec):
        grid = np.linspace(-2.0, 2.0, 81)
        assert sampled_spec_violations(spec, grid) == []

    def test_broken_lipschitz_constant_detected(self):
        bad = dataclasses.replace(
            REG,
            pi_hat=lambda r: -2.0 * np.asarray(r, float) ** 2,
            pi=lambda r: -4.0 * np.asarray(r, float),
            pi_lipschitz=1.0,  # true constant is 4
        )
        assert sampled_spec_violations(bad, np.linspace(-1, 1, 21))

    def test_logarithmic_requires_c1_above_one(self):
        with pytest.raises(ValueError):
            pot.logarithmic_potential(1.0)
        with pytest.raises(ValueError):
            pot.double_obstacle_potential(0.0)
