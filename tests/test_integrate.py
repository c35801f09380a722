import functools
import math

import numpy as np
import pytest

import hepkit as hk
from hepkit.functors import EvaluationError
from hepkit.integrate import DegenerateGridError, VegasGrid, vegas_refine


def _poly(coeffs):
    c = np.asarray(coeffs, dtype=float)
    return hk.wrap_closure(lambda x, p: np.polyval(c, np.asarray(x[0], dtype=float)))


def _poly_integral(coeffs, a, b):
    c = np.asarray(coeffs, dtype=float)
    anti = np.polyint(c)
    return float(np.polyval(anti, b) - np.polyval(anti, a))


def _flat(dim):
    return hk.wrap_closure(
        lambda x, p: np.ones_like(np.asarray(x[0], dtype=float)), arity=dim
    )


class TestPlainMc:
    def test_constant_has_zero_error(self):
        region = hk.BoundedRegion.cube(0, 1, 3)
        r = hk.plain_mc(_flat(3), region, 1000, hk.RngKey(1, 3))
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert r.error == pytest.approx(0.0, abs=1e-12)

    def test_linear_on_interval(self):
        region = hk.BoundedRegion(((0.0, 2.0),))
        r = hk.plain_mc(hk.identity(), region, 1_000_000, hk.RngKey(2, 3))
        assert abs(r.value - 2.0) < 3 * r.error
        assert r.calls_used == 1_000_000

    def test_worker_count_bitwise_invariance(self):
        region = hk.BoundedRegion(((0.0, 2.0),))
        g = hk.shape_gaussian(hk.Parameter("m", 1.0), hk.Parameter("s", 0.5))
        one = hk.plain_mc(g, region, 300_000, hk.RngKey(3, 3), workers=1)
        many = hk.plain_mc(g, region, 300_000, hk.RngKey(3, 3), workers=8)
        assert one.value == many.value and one.error == many.error

    def test_non_finite_integrand(self):
        def f(x, p):
            with np.errstate(invalid="ignore"):
                return np.log(np.asarray(x[0], dtype=float))

        region = hk.BoundedRegion(((-1.0, 1.0),))
        with pytest.raises(EvaluationError, match="non-finite"):
            hk.plain_mc(hk.wrap_closure(f), region, 1000, hk.RngKey(4, 3))

    def test_too_few_calls(self):
        with pytest.raises(ValueError):
            hk.plain_mc(_flat(1), hk.BoundedRegion.cube(0, 1, 1), 1, hk.RngKey(0, 3))


class TestGk15Static:
    def test_quadratic(self):
        r = hk.gk15_static(_poly([1, 0, 0]), -1.0, 1.0)
        assert r.value == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_degree13_exactness(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            coeffs = rng.uniform(-2, 2, size=14)  # degree 13
            a, b = sorted(rng.uniform(-2, 2, size=2))
            if b - a < 0.1:
                continue
            truth = _poly_integral(coeffs, a, b)
            r = hk.gk15_static(_poly(coeffs), a, b)
            assert r.value == pytest.approx(truth, rel=1e-13, abs=1e-13)
            assert r.error < 1e-9

    def test_matches_adaptive_on_smooth(self):
        f = hk.wrap_closure(lambda x, p: np.exp(-np.asarray(x[0], dtype=float) ** 2))
        static = hk.gk15_static(f, 0.0, 1.0)
        adaptive = hk.gk_adaptive(f, 0.0, 1.0, rel_tol=1e-12)
        assert static.value == pytest.approx(adaptive.value, abs=1e-10)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            hk.gk15_static(_poly([1]), 1.0, 0.0)


class TestGkAdaptive:
    def test_quadratic_single_interval(self):
        r = hk.gk_adaptive(_poly([1, 0, 0]), 0.0, 1.0, rel_tol=1e-10)
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert r.iterations == 1

    def test_sqrt_needs_subdivision(self):
        f = hk.wrap_closure(lambda x, p: np.sqrt(np.asarray(x[0], dtype=float)))
        r = hk.gk_adaptive(f, 0.0, 1.0, rel_tol=1e-9)
        assert abs(r.value - 2.0 / 3.0) <= 1e-9
        assert r.iterations > 1

    def test_budget_exhaustion_flagged(self):
        f = hk.wrap_closure(
            lambda x, p: np.sqrt(np.abs(np.asarray(x[0], dtype=float)))
        )
        r = hk.gk_adaptive(f, 0.0, 1.0, rel_tol=1e-14, max_intervals=1)
        assert r.iterations == 1  # == max_intervals, non-convergence flag

    def test_rel_tol_floor(self):
        with pytest.raises(ValueError):
            hk.gk_adaptive(_poly([1]), 0.0, 1.0, rel_tol=1e-15)

    @pytest.mark.parametrize("kwargs, error", [
        ({"rel_tol": math.nan}, "rel_tol must be finite and >= 1e-14, got nan"),
        ({"rel_tol": math.inf}, "rel_tol must be finite and >= 1e-14, got inf"),
        ({"max_intervals": 0}, "max_intervals must be >= 1, got 0"),
        ({"max_intervals": -3}, "max_intervals must be >= 1, got -3"),
    ])
    def test_settings_rejected_in_one_line(self, kwargs, error):
        with pytest.raises(ValueError) as info:
            hk.gk_adaptive(_poly([1]), 0.0, 1.0, **kwargs)
        assert str(info.value) == error

    @pytest.mark.parametrize("quad", [hk.gk15_static, hk.gk_adaptive])
    @pytest.mark.parametrize("a, b, error", [
        (0.0, math.inf, "upper limit inf is not finite"),
        (-math.inf, 0.0, "lower limit -inf is not finite"),
        (math.nan, 1.0, "lower limit nan is not finite"),
    ])
    def test_non_finite_limit_named(self, quad, a, b, error):
        with pytest.raises(ValueError) as info:
            quad(_poly([1]), a, b)
        assert str(info.value) == error


def _product_gaussian(dim, mean=0.5, sigma=0.1):
    m = hk.Parameter("mean", mean)
    s = hk.Parameter("sigma", sigma)
    g = hk.shape_gaussian(m, s)
    if dim == 1:
        return g
    factors = [hk.compose(g, [hk.coordinate(d, dim)]) for d in range(dim)]
    return functools.reduce(lambda a, b: a * b, factors)


class TestVegas:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
    def test_alpha_rejected_in_one_line(self, alpha):
        region = hk.BoundedRegion.cube(0, 1, 1)
        with pytest.raises(ValueError) as info:
            hk.vegas(_flat(1), region, 1000, hk.RngKey(5, 3), alpha=alpha)
        assert str(info.value) == f"alpha must be finite and >= 0, got {alpha}"

    def test_constant_is_exact(self):
        region = hk.BoundedRegion.cube(0, 1, 2)
        r, _ = hk.vegas(_flat(2), region, 2000, hk.RngKey(5, 3), iterations=4)
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert r.error == pytest.approx(0.0, abs=1e-12)
        assert r.chi2_per_dof == pytest.approx(0.0, abs=1e-9)

    def test_4d_gaussian_small_scale(self):
        region = hk.BoundedRegion.cube(0, 1, 4)
        expr = _product_gaussian(4)
        truth = math.erf(0.5 / (0.1 * math.sqrt(2))) ** 4
        r, _ = hk.vegas(expr, region, 20_000, hk.RngKey(6, 3), iterations=8)
        assert abs(r.value - truth) < 3 * r.error
        assert r.error / r.value < 0.02
        assert r.chi2_per_dof < 3.0

    def test_worker_count_bitwise_invariance(self):
        region = hk.BoundedRegion.cube(0, 1, 3)
        expr = _product_gaussian(3, mean=0.4, sigma=0.2)
        a, ga = hk.vegas(expr, region, 5000, hk.RngKey(7, 3), iterations=5, workers=1)
        b, gb = hk.vegas(expr, region, 5000, hk.RngKey(7, 3), iterations=5, workers=8)
        assert a.value == b.value and a.error == b.error
        assert all(np.array_equal(x, y) for x, y in zip(ga.edges, gb.edges))

    def test_unbiased_with_frozen_grid(self):
        # single iteration = no refinement; mean pull over seeds stays small
        region = hk.BoundedRegion(((0.0, 1.0),))
        truth = math.erf(0.5 / (0.2 * math.sqrt(2)))
        pulls = []
        for seed in range(100):
            expr = _product_gaussian(1, mean=0.5, sigma=0.2)
            r, _ = hk.vegas(expr, region, 2000, hk.RngKey(seed, 3), iterations=1, bins=50)
            pulls.append((r.value - truth) / r.error)
        assert abs(float(np.mean(pulls))) < 0.3

    def test_calls_floor(self):
        with pytest.raises(ValueError):
            hk.vegas(_flat(2), hk.BoundedRegion.cube(0, 1, 2), 100, hk.RngKey(1, 3))

    def test_negative_integrand_warns(self):
        region = hk.BoundedRegion(((0.0, 1.0),))
        neg = hk.wrap_closure(lambda x, p: np.asarray(x[0], dtype=float) - 0.5)
        with pytest.warns(UserWarning, match="negative integrand"):
            hk.vegas(neg, region, 1000, hk.RngKey(9, 3), iterations=2)


class TestVegasRefine:
    def test_uniform_weights_fixed_point(self):
        grid = VegasGrid.uniform(hk.BoundedRegion(((0.0, 1.0),)), 10)
        out = vegas_refine(grid, [np.ones(10)], alpha=1.5)
        assert np.allclose(out.edges[0], grid.edges[0], atol=1e-12)

    def test_all_weight_in_one_bin(self):
        grid = VegasGrid.uniform(hk.BoundedRegion(((0.0, 1.0),)), 10)
        w = np.zeros(10)
        w[4] = 1.0
        out = vegas_refine(grid, [w], alpha=1.5)
        e = out.edges[0]
        assert e[0] == 0.0 and e[-1] == 1.0
        assert np.all(np.diff(e) > 0)
        # smoothing spreads the spike over bins 3..5; most interior edges
        # must migrate into that neighborhood
        inside = (e[1:-1] >= grid.edges[0][3]) & (e[1:-1] <= grid.edges[0][6])
        assert np.count_nonzero(inside) >= 6

    def test_all_zero_dimension_unchanged(self):
        grid = VegasGrid.uniform(hk.BoundedRegion(((0.0, 1.0), (0.0, 2.0))), 8)
        w = [np.ones(8), np.zeros(8)]
        out = vegas_refine(grid, w, alpha=1.5)
        assert np.array_equal(out.edges[1], grid.edges[1])

    def test_gaussian_concentration_after_refinement(self):
        # brute-force oracle: after two refinements on a narrow Gaussian,
        # most bins should sit within +-2 sigma of the peak
        region = hk.BoundedRegion(((0.0, 1.0),))
        expr = _product_gaussian(1, mean=0.5, sigma=0.05)
        _, grid = hk.vegas(expr, region, 10_000, hk.RngKey(11, 3), iterations=3)
        centers = 0.5 * (grid.edges[0][:-1] + grid.edges[0][1:])
        frac = np.mean(np.abs(centers - 0.5) <= 2 * 0.05)
        assert frac >= 0.6

    def test_endpoints_and_monotonicity_preserved(self):
        rng = np.random.default_rng(13)
        grid = VegasGrid.uniform(hk.BoundedRegion(((-1.0, 3.0),)), 30)
        for _ in range(10):
            w = rng.uniform(0, 1, size=30) ** 3
            grid = vegas_refine(grid, [w], alpha=1.5)
            e = grid.edges[0]
            assert e[0] == -1.0 and e[-1] == 3.0
            assert np.all(np.diff(e) > 0)

    def test_degenerate_grid_raises(self):
        edges = np.array([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(DegenerateGridError):
            VegasGrid([edges]).validate()


class TestCrossMethod:
    def test_plain_and_vegas_agree(self):
        # random smooth positive integrands: polynomial-squared times Gaussian
        rng = np.random.default_rng(21)
        region = hk.BoundedRegion(((0.0, 1.0),))
        for trial in range(20):
            coeffs = rng.uniform(-1, 1, size=3)
            mu = rng.uniform(0.2, 0.8)
            sig = rng.uniform(0.1, 0.5)

            def f(x, p, c=coeffs, m=mu, s=sig):
                t = np.asarray(x[0], dtype=float)
                return (np.polyval(c, t) ** 2 + 0.1) * np.exp(-0.5 * ((t - m) / s) ** 2)

            expr = hk.wrap_closure(f)
            pm = hk.plain_mc(expr, region, 200_000, hk.RngKey(100 + trial, 3))
            vg, _ = hk.vegas(expr, region, 10_000, hk.RngKey(200 + trial, 3), iterations=5)
            sigma = math.hypot(pm.error, vg.error)
            assert abs(pm.value - vg.value) < 3 * sigma
