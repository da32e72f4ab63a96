import dataclasses
import math
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import pi_hat, reference_logarithmic_resolvent, sampled_spec_violations
from thermoch import potentials as pot
from thermoch.errors import NumericFailure
from thermoch.io_cli import bisection_resolvent, main, potentials_suite, uniforms

REG = pot.regular_potential()
LOG = pot.logarithmic_potential(2.0)
OBS = pot.double_obstacle_potential(1.0)
PROTOTYPES = [REG, LOG, OBS]
KINDS = ["regular", "logarithmic", "double_obstacle"]  # test ids of PROTOTYPES


def simpson(fn, a, b, n=2000):
    """Composite Simpson quadrature (independent oracle for primitives)."""
    x = np.linspace(a, b, 2 * n + 1)
    y = fn(x)
    h = (b - a) / (2 * n)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum())


def dense_logarithmic_grid():
    """(eps, r) pairs over eps in [5e-324, 0.999] and |r| <= 1e3, dense near |r| = 1."""
    ulp = np.finfo(float).eps
    a = np.concatenate([
        np.linspace(0.0, 1e3, 2001), np.linspace(0.0, 3.0, 3001),
        1.0 - np.logspace(-17, 0, 500), 1.0 + np.logspace(-17, 3, 1000),
        np.nextafter(1.0, 0.0) - 0.5 * ulp * np.arange(40), 1.0 + ulp * np.arange(40),
    ])
    r = np.concatenate([a, -a])
    for eps in np.concatenate([[5e-324], np.logspace(-320, math.log10(0.999), 161)]):
        yield float(eps), r


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

    @pytest.mark.parametrize("spec", PROTOTYPES, ids=KINDS)
    @pytest.mark.parametrize("eps", [0.9, 0.3, 0.05])
    def test_fixed_point_at_zero(self, spec, eps):
        assert pot.resolvent(spec, eps, 0.0) == 0.0

    @pytest.mark.parametrize("spec", PROTOTYPES, ids=KINDS)
    def test_stays_in_domain_closure(self, spec):
        r = np.linspace(-6.0, 6.0, 201)
        for eps in (0.9, 0.1, 0.01):
            y = pot.resolvent(spec, eps, r)
            assert (y >= spec.domain[0]).all() and (y <= spec.domain[1]).all()

    def test_logarithmic_interior_root(self):
        y = pot.resolvent(LOG, 0.1, 0.9)
        assert -1.0 < y < 1.0
        assert abs(y + 0.1 * math.log((1 + y) / (1 - y)) - 0.9) < 1e-12

    @pytest.mark.parametrize("eps, r", [(5e-324, 2.0), (1e-20, 1.0), (0.05, 1e3)])
    def test_logarithmic_saturated_root_is_the_edge(self, eps, r):
        # tanh of the root rounds to 1: the kernel returns +-1, never NaN
        assert pot.resolvent(LOG, eps, np.array([r, -r])).tolist() == [1.0, -1.0]

    @pytest.mark.parametrize("eps", [5e-324, 1e-20, 1e-12])
    def test_bisection_oracle_resolves_roots_at_the_edge(self, eps):
        # Roots within 1e-15 of +-1, saturated ones included, agree to one ulp.
        r = np.array([1.0, 1.0 + 1e-13, 2.0, 1e3])
        r = np.concatenate([r, -r])
        gap = np.abs(pot.resolvent(LOG, eps, r) - bisection_resolvent(LOG, eps, r))
        assert (gap <= np.finfo(float).eps / 2).all()

    def test_logarithmic_slope_finite_at_the_edge(self):
        reg = pot.regularize(LOG, 1e-20, np.array([1.0, 0.5]))
        slope = reg.slope()
        assert reg.j[0] == 1.0
        assert slope[0] == 1e20
        assert slope[1] == pytest.approx(2.0 / 0.75)

    def test_logarithmic_kernel_sweep_bound_on_a_dense_grid(self, monkeypatch):
        # The sweep bound in the kernel's docstring: at most 4 Halley sweeps
        # over eps in [5e-324, 0.999] and |r| <= 1e3, including the slow
        # starts just outside |r| = 1 and the last ulps below saturation.
        monkeypatch.setattr(pot, "_MAX_SWEEPS", 4)
        for eps, r in dense_logarithmic_grid():
            j = pot.resolvent(LOG, eps, r)
            assert (np.abs(j) <= 1.0).all()

    def test_logarithmic_table_start_takes_one_sweep(self, monkeypatch):
        # One Halley sweep from the start table converges at every |r| <= top
        # of the dense grid, at eps = 0.05 and at every eps whose table passes
        # its build check; at eps = 1e-5 the table fails it and the kernel
        # keeps the bound start (the sweep bound test covers that path).
        assert pot._start_table(1e-5) is None
        r = next(dense_logarithmic_grid())[1]
        accepted = 0
        for eps, r in [(0.05, r), *dense_logarithmic_grid()]:
            table = pot._start_table(eps)  # built, from the bound start, before the cap drops
            assert table is not None or eps != 0.05
            if table is not None:
                accepted += 1
                with monkeypatch.context() as patch:
                    patch.setattr(pot, "_MAX_SWEEPS", 1)
                    assert (np.abs(pot.resolvent(LOG, eps, r[np.abs(r) <= table.top])) <= 1.0).all()
        assert accepted > 1

    def test_logarithmic_start_depends_on_eps_and_r_only(self):
        # The table is memoized per eps: neither the order of the calls nor a
        # cleared cache moves a bit of J.
        r = np.linspace(-3.0, 3.0, 2001)
        first, other = pot.resolvent(LOG, 0.05, r).tobytes(), pot.resolvent(LOG, 0.3, r).tobytes()
        assert pot.resolvent(LOG, 0.05, r).tobytes() == first
        pot._start_table.cache_clear()
        assert pot.resolvent(LOG, 0.3, r).tobytes() == other
        pot._start_table.cache_clear()
        assert pot.resolvent(LOG, 0.05, r).tobytes() == first

    def test_start_table_that_does_not_converge_names_eps(self, monkeypatch):
        pot._start_table.cache_clear()
        monkeypatch.setattr(pot, "_halley", lambda *args: None)
        try:
            with pytest.raises(NumericFailure, match=r"start table did not converge \(eps = 0\.05\)"):
                pot._start_table(0.05)
        finally:
            pot._start_table.cache_clear()

    def test_elliptic_2d_calls_converge_in_one_sweep(self, tmp_path, monkeypatch):
        # Every resolvent call of verify elliptic on the elliptic_2d input, seed 0,
        # converges in one Halley sweep from the kernel's start: the five whose
        # |r| passes the table's top too, where the bound start is already close
        # to the root or the point saturates.
        calls, start = [], pot._logarithmic_start

        def recording(eps, a):
            calls.append((eps, a.copy()))
            return start(eps, a)

        monkeypatch.setattr(pot, "_logarithmic_start", recording)
        config = Path(__file__).parent / "golden" / "elliptic_2d.ini"
        assert main(["verify", "elliptic", str(config), "--output-dir", str(tmp_path), "--quiet"]) == 0
        assert len(calls) == 62
        assert sum(a.max() > pot._start_table(eps).top for eps, a in calls) == 5
        for eps, a in calls:
            s, saturated = start(eps, a)
            if saturated is not None:
                a[saturated] = 0.0
            assert pot._halley(s, a, 2.0 * eps, 1) is not None

    def test_logarithmic_kernel_equals_reference_bit_for_bit(self):
        # The in-place sweeps keep every expression's association, so they
        # reproduce the kernel written with temporaries exactly, saturated
        # points (|r| = 1e3 at tiny eps) included.
        for eps, r in dense_logarithmic_grid():
            j = pot.resolvent(LOG, eps, r)
            assert j.tobytes() == reference_logarithmic_resolvent(eps, r).tobytes()

    @pytest.mark.parametrize("r", [0.3, -0.999, 1.0, -2.0, 1e3, -0.0, [[0.5, -1.5], [1e3, 0.0]]])
    @pytest.mark.parametrize("eps", [5e-324, 1e-3, 0.05, 0.9])
    def test_logarithmic_kernel_keeps_scalars_and_shapes(self, eps, r):
        expected = reference_logarithmic_resolvent(eps, np.asarray(r, dtype=float))
        j = pot.resolvent(LOG, eps, r)
        if np.ndim(r) == 0:
            assert isinstance(j, float) and np.float64(j).tobytes() == expected.tobytes()
        else:
            assert j.shape == expected.shape and j.tobytes() == expected.tobytes()

    def test_logarithmic_sweep_cap_raises(self):
        with pytest.raises(NumericFailure):
            pot.resolvent(LOG, 0.1, np.array([0.5, np.nan]))
        with pytest.raises(NumericFailure):
            pot.resolvent(LOG, 0.1, np.nan)


class TestYosida:
    def test_double_obstacle_value(self):
        assert pot.regularize(OBS, 0.5, 2.0).value == pytest.approx(2.0, abs=1e-15)

    def test_regular_against_oracle(self):
        eps = 0.5
        oracle = (2.0 - bisection_resolvent(REG, eps, 2.0)) / eps
        assert abs(pot.regularize(REG, eps, 2.0).value - oracle) <= 1e-10

    def test_logarithmic_zero_at_zero(self):
        assert pot.regularize(LOG, 0.1, 0.0).value == 0.0

    @pytest.mark.parametrize("spec", PROTOTYPES, ids=KINDS)
    def test_monotone_and_lipschitz(self, spec):
        rng = np.random.default_rng(7)
        r = np.sort(rng.uniform(-3.0, 3.0, 500))
        for eps in (0.8, 0.2, 0.05):
            y = pot.regularize(spec, eps, r).value
            dy, dr = np.diff(y), np.diff(r)
            assert (dy >= -1e-10).all()
            assert (np.abs(dy) <= dr / eps + 1e-10).all()

    @pytest.mark.parametrize("spec", PROTOTYPES, ids=KINDS)
    def test_dominated_by_minimal_section(self, spec):
        rng = np.random.default_rng(8)
        lo = max(spec.domain[0], -1.0) + 1e-6
        hi = min(spec.domain[1], 1.0) - 1e-6
        r = rng.uniform(lo, hi, 500)
        for eps in (0.8, 0.2, 0.05):
            assert (
                np.abs(pot.regularize(spec, eps, r).value) <= np.abs(spec.beta_min_section(r)) + 1e-10
            ).all()


class TestYosidaPrimitive:
    def test_double_obstacle_value(self):
        # (2 - 1)^2 / (2 * 0.5); the indicator contributes nothing
        assert pot.regularize(OBS, 0.5, 2.0).primitive() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("spec", PROTOTYPES, ids=KINDS)
    def test_zero_at_zero(self, spec):
        assert pot.regularize(spec, 0.3, 0.0).primitive() == 0.0

    def test_regular_envelope_closed_form_vs_quadrature(self):
        eps = 0.5
        j = pot.resolvent(REG, eps, 2.0)
        expected = 0.25 * j**4 + (2.0 - j) ** 2 / (2.0 * eps)
        value = pot.regularize(REG, eps, 2.0).primitive()
        assert value == pytest.approx(expected, abs=1e-12)
        quad = simpson(lambda s: pot.regularize(REG, eps, s).value, 0.0, 2.0)
        assert value == pytest.approx(quad, abs=1e-8)

    @pytest.mark.parametrize("spec", PROTOTYPES, ids=KINDS)
    def test_sandwich(self, spec):
        rng = np.random.default_rng(9)
        r = rng.uniform(-2.5, 2.5, 400)
        for eps in (0.8, 0.2, 0.05):
            prim = pot.regularize(spec, eps, r).primitive()
            bh = spec.beta_hat(r)
            assert (prim >= -1e-12).all()
            finite = np.isfinite(bh)
            assert (prim[finite] <= bh[finite] + 1e-10).all()

    def test_quadratic_term_where_value_squared_overflows(self):
        # At eps = 1e-300 a saturated point has value = 1e300, whose square overflows;
        # the term is then (eps / 2 value) value, and where nothing overflows it keeps
        # the bytes of (eps / 2) value^2.
        r = np.array([-2.0, 0.5, 2.0])
        reg = pot.regularize(LOG, 1e-300, r)
        quadratic = (0.5 * 1e-300 * reg.value) * reg.value
        assert np.isfinite(quadratic).all() and quadratic.max() > 1e299
        assert reg.primitive().tobytes() == (LOG.beta_hat(reg.j) + quadratic).tobytes()
        assert reg.primitive_sum() == float(LOG.beta_hat(reg.j).sum()) + float(quadratic.sum())
        reg = pot.regularize(LOG, 0.05, r)
        assert reg.primitive().tobytes() == (LOG.beta_hat(reg.j) + 0.5 * 0.05 * reg.value**2).tobytes()
        assert reg.primitive_sum() == float(LOG.beta_hat(reg.j).sum()) + 0.5 * 0.05 * float(np.square(reg.value).sum())


class TestYosidaDerivative:
    def test_double_obstacle_piecewise(self):
        assert pot.regularize(OBS, 0.5, 0.3).slope() == 0.0
        assert pot.regularize(OBS, 0.5, 1.5).slope() == 2.0
        # The kink: J = r (slope 0) up to |r| = 1 inclusive, and 1/eps one ulp beyond it.
        edge, beyond = 1.0, np.nextafter(1.0, 2.0)
        for r, expected in ((edge, 0.0), (-edge, 0.0), (beyond, 2.0), (-beyond, 2.0)):
            assert pot.regularize(OBS, 0.5, r).slope() == expected
        mixed = pot.regularize(OBS, 0.5, np.array([edge, beyond, -edge, -beyond])).slope()
        assert mixed.tolist() == [0.0, 2.0, 0.0, 2.0]

    @pytest.mark.parametrize("spec", [REG, LOG], ids=KINDS[:2])
    def test_matches_finite_difference(self, spec):
        eps, h = 0.2, 1e-6
        for r in (-1.3, -0.4, 0.0, 0.6, 2.1):
            fd = (pot.regularize(spec, eps, r + h).value - pot.regularize(spec, eps, r - h).value) / (2 * h)
            assert pot.regularize(spec, eps, r).slope() == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestInteriorBound:
    """``interior_bound_C0`` of ``potentials_suite``: the least C0 >= 0 with b r >= |b| / 4 - C0."""

    def test_regular_matches_brute_force(self):
        eps_values, n = [0.9, 0.5, 0.1], 1200
        _, metrics = potentials_suite(REG, eps_values, n, random.Random(3))
        # The suite's samples: n uniforms on [-3, 3) and r = 0.
        samples = [*(-3.0 + 6.0 * uniforms(random.Random(3), n)).tolist(), 0.0]
        worst = 0.0
        for eps in eps_values:
            for r in samples:
                b = float(pot.regularize(REG, eps, r).value)
                worst = max(worst, 0.25 * abs(b) - b * r)
        assert worst > 0.0
        assert metrics["interior_bound_C0"] == pytest.approx(worst, abs=1e-12)

    def test_double_obstacle_zero_constant(self):
        _, metrics = potentials_suite(OBS, [0.9, 0.5, 0.1, 0.01], 4000, random.Random(0))
        assert metrics["interior_bound_C0"] == 0.0


class TestSpecs:
    def test_prototype_decompositions(self):
        r = np.linspace(-0.99, 0.99, 101)
        # F = beta_hat + pi_hat(0) - (L/2) r^2 reproduces each double well
        f_reg = REG.beta_hat(r) + pi_hat(REG, r)
        assert np.allclose(f_reg, 0.25 * (r**2 - 1.0) ** 2, atol=1e-14)
        f_log = LOG.beta_hat(r) + pi_hat(LOG, r)
        expected = (1 + r) * np.log(1 + r) + (1 - r) * np.log(1 - r) - 2.0 * r**2
        assert np.allclose(f_log, expected, atol=1e-12)
        assert np.allclose(OBS.beta_hat(r) + pi_hat(OBS, r), -1.0 * r**2, atol=1e-14)

    @pytest.mark.parametrize("spec", PROTOTYPES, ids=KINDS)
    def test_sampled_invariants_hold(self, spec):
        grid = np.linspace(-2.0, 2.0, 81)
        assert sampled_spec_violations(spec, grid) == []

    def test_logarithmic_requires_c1_above_one(self):
        with pytest.raises(ValueError):
            pot.logarithmic_potential(1.0)
        with pytest.raises(ValueError):
            pot.double_obstacle_potential(0.0)
