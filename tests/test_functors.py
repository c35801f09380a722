import math

import numpy as np
import pytest

import hepkit as hk
from hepkit.functors import EvaluationError, pair_key


def _gauss(mean=0.0, sigma=1.0):
    return hk.shape_gaussian(hk.Parameter("mean", mean), hk.Parameter("sigma", sigma))


class TestShapes:
    def test_gaussian_peak(self):
        assert _gauss(0, 1)(0.0) == pytest.approx(0.3989422804014327, rel=1e-15)

    def test_gaussian_shift_invariance(self):
        assert _gauss(2, 1)(2.0) == pytest.approx(0.3989422804014327, rel=1e-15)

    def test_gaussian_closed_form(self):
        # frozen from an independent evaluation of the normalized density
        assert _gauss(0, 2)(2.0) == pytest.approx(0.12098536225957168, rel=1e-14)

    def test_gaussian_bad_sigma_at_eval(self):
        g = _gauss(0, 1)
        g.sigma.value = -1.0  # bypass Parameter.set on purpose
        with pytest.raises(EvaluationError):
            g(0.0)

    def test_exponential_values(self):
        e = hk.shape_exponential(hk.Parameter("tau", 1.0))
        assert e(0.0) == 1.0
        assert e(1.0) == pytest.approx(0.36787944117144233, rel=1e-15)

    def test_exponential_frozen_oracle(self):
        e = hk.shape_exponential(hk.Parameter("tau", 2.0))
        assert e(3.0) == pytest.approx(0.22313016014842982, rel=1e-14)

    def test_exponential_zero_tau(self):
        e = hk.shape_exponential(hk.Parameter("tau", 1.0))
        e.tau.value = 0.0
        with pytest.raises(EvaluationError):
            e(1.0)


class TestClosure:
    def test_two_sin(self):
        f = hk.wrap_closure(lambda x, p: 2.0 * np.sin(x[0]))
        assert f(math.pi / 2) == pytest.approx(2.0, rel=1e-15)

    def test_constant(self):
        f = hk.wrap_closure(lambda x, p: np.ones_like(np.asarray(x[0], dtype=float)))
        assert f(17.3) == 1.0

    def test_parametrized(self):
        a = hk.Parameter("a", 3.0)
        f = hk.wrap_closure(lambda x, p: p["a"].value * np.asarray(x[0]), [a])
        assert f(2.0) == 6.0


class TestCombine:
    def test_difference_identity(self):
        rng = np.random.default_rng(2)
        a = _gauss(0, 1)
        b = hk.shape_exponential(hk.Parameter("tau", 2.0))
        diff = a - b
        for x in rng.uniform(0, 3, size=20):
            assert diff(x) == pytest.approx(a(x) - b(x), rel=1e-12)

    def test_difference_of_squares(self):
        rng = np.random.default_rng(4)
        a = _gauss(0.5, 1.0)
        b = hk.shape_exponential(hk.Parameter("tau", 1.5))
        lhs = (a - b) * (a + b)
        for x in rng.uniform(0, 3, size=20):
            assert lhs(x) == pytest.approx(a(x) ** 2 - b(x) ** 2, rel=1e-12, abs=1e-15)

    def test_division_by_zero(self):
        a = hk.wrap_closure(lambda x, p: np.ones_like(np.asarray(x[0], dtype=float)))
        b = hk.identity()
        with pytest.raises(EvaluationError, match="division by zero"):
            (a / b)(0.0)

    def test_commutativity(self):
        a = _gauss(1, 2)
        b = hk.shape_exponential(hk.Parameter("tau", 3.0))
        for x in (0.1, 1.7, 4.2):
            assert (a + b)(x) == pytest.approx((b + a)(x), rel=1e-12)
            assert (a * b)(x) == pytest.approx((b * a)(x), rel=1e-12)

    def test_subtract_add_roundtrip(self):
        a = _gauss(0, 1)
        b = _gauss(1, 2)
        expr = (a - b) + b
        for x in (0.0, 0.5, 2.0):
            assert expr(x) == pytest.approx(a(x), rel=1e-12)

    def test_arity_mismatch(self):
        a = hk.coordinate(0, 2)
        b = hk.identity()
        with pytest.raises(ValueError):
            hk.combine("+", a, b)

    def test_param_aggregation_order(self):
        a = _gauss(0, 1)
        b = hk.shape_exponential(hk.Parameter("tau", 1.0))
        names = [p.name for p in (a + b).leaf_params()]
        assert names == ["mean", "sigma", "tau"]

    def test_shared_parameter_appears_once(self):
        mean = hk.Parameter("mean", 0.0)
        a = hk.shape_gaussian(mean, hk.Parameter("s1", 1.0))
        b = hk.shape_gaussian(mean, hk.Parameter("s2", 2.0))
        params = (a + b).leaf_params()
        assert [p.name for p in params] == ["mean", "s1", "s2"]


class TestCompose:
    def test_identity_compose(self):
        a = _gauss(0, 1)
        expr = hk.compose(hk.identity(), [a])
        assert expr(0.7) == pytest.approx(a(0.7), rel=1e-15)

    def test_compose_equals_combine(self):
        a = _gauss(0, 1)
        b = hk.shape_exponential(hk.Parameter("tau", 2.0))
        plus = hk.wrap_closure(lambda x, p: x[0] + x[1], arity=2)
        composed = hk.compose(plus, [a, b])
        for x in (0.2, 1.1):
            assert composed(x) == pytest.approx((a + b)(x), rel=1e-14)

    def test_sin_cos_product(self):
        sin = hk.wrap_closure(lambda x, p: np.sin(x[0]))
        cos = hk.wrap_closure(lambda x, p: np.cos(x[0]))
        prod = hk.wrap_closure(lambda x, p: x[0] * x[1], arity=2)
        expr = hk.compose(prod, [sin, cos])
        # frozen from an independent sin(x)cos(x) evaluation at x = 0.7
        assert expr(0.7) == pytest.approx(0.4927248649942301, rel=1e-14)

    def test_arity_mismatch_at_construction(self):
        plus = hk.wrap_closure(lambda x, p: x[0] + x[1], arity=2)
        with pytest.raises(ValueError):
            hk.compose(plus, [hk.identity()])

    def test_associativity_with_identity(self):
        a = _gauss(0.3, 1.2)
        wrapped = hk.compose(hk.identity(), [hk.compose(hk.identity(), [a])])
        for x in (0.0, 1.0, -2.0):
            assert wrapped(x) == pytest.approx(a(x), rel=1e-12)


class TestParameterVisibility:
    def test_leaf_update_visible_through_tree(self):
        a = _gauss(0, 1)
        b = hk.shape_exponential(hk.Parameter("tau", 1.0))
        expr = a * b + a
        before = expr(1.0)
        a.mean.set(0.5)
        after = expr(1.0)
        assert after != before
        fresh = _gauss(0.5, 1.0)
        expected = fresh(1.0) * b(1.0) + fresh(1.0)
        assert after == pytest.approx(expected, rel=1e-14)


class TestMapEvaluate:
    def _store(self, values):
        s = hk.ColumnStore(hk.ColumnSchema.real64("x"))
        for v in values:
            s.push((float(v),))
        return s

    def test_identity_copies_column(self):
        s = self._store([1.0, 2.5, -3.0])
        out = hk.map_evaluate(hk.identity(), s, ["x"])
        assert np.array_equal(out, s.column("x"))

    def test_gaussian_at_zero(self):
        s = self._store([0.0])
        out = hk.map_evaluate(_gauss(0, 1), s, ["x"])
        assert out[0] == pytest.approx(0.3989422804014327, rel=1e-15)

    def test_worker_count_bitwise_invariance(self):
        rng = np.random.default_rng(8)
        s = hk.ColumnStore.from_columns(
            hk.ColumnSchema.real64("x"), [rng.normal(size=200_000)]
        )
        expr = _gauss(0.1, 1.3) + hk.shape_exponential(hk.Parameter("tau", 2.0))
        one = hk.map_evaluate(expr, s, ["x"], workers=1)
        eight = hk.map_evaluate(expr, s, ["x"], workers=8)
        assert np.array_equal(one, eight)

    def test_unknown_column(self):
        s = self._store([1.0])
        with pytest.raises(KeyError):
            hk.map_evaluate(hk.identity(), s, ["nope"])

    def test_arity_mismatch(self):
        s = self._store([1.0])
        with pytest.raises(ValueError):
            hk.map_evaluate(hk.coordinate(0, 2), s, ["x"])

    def test_non_real_column_rejected(self):
        schema = hk.ColumnSchema((("n", "integer64"),))
        s = hk.ColumnStore(schema)
        s.push((1,))
        with pytest.raises(ValueError):
            hk.map_evaluate(hk.identity(), s, ["n"])


class TestPartials:
    """Forward-mode partials against central differences of ``eval``."""

    X = np.array([0.3, 1.7, 2.9, 4.4, 6.1])

    @staticmethod
    def _difference(expr, args, p):
        h = 1e-6 * (1.0 + abs(p.value))
        v = p.value
        p.value = v + h
        up = np.asarray(expr.eval(args), dtype=float)
        p.value = v - h
        down = np.asarray(expr.eval(args), dtype=float)
        p.value = v
        return (up - down) / (2.0 * h)

    def _check(self, expr, args):
        value, partials = expr.partials(args)
        assert np.array_equal(value, expr.eval(args))    # bitwise the value
        assert set(partials) == {id(p) for p in expr.leaf_params()}
        for p in expr.leaf_params():
            ref = self._difference(expr, args, p)
            np.testing.assert_allclose(partials[id(p)], ref, rtol=1e-7,
                                       atol=1e-10 * np.max(np.abs(ref)), err_msg=p.name)

    def test_gaussian(self):
        self._check(_gauss(2.5, 1.3), (self.X,))

    def test_exponential(self):
        self._check(hk.shape_exponential(hk.Parameter("tau", 2.2)), (self.X,))

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_binary_ops(self, op):
        mean = hk.Parameter("mean", 2.0)
        a = hk.shape_gaussian(mean, hk.Parameter("s1", 1.1))
        b = hk.shape_exponential(hk.Parameter("tau", 1.7)) + hk.shape_gaussian(
            mean, hk.Parameter("s2", 2.4))    # mean is shared: its partials add up
        self._check(hk.combine(op, a, b), (self.X,))

    def test_division_by_zero_names_the_point(self):
        a = hk.shape_exponential(hk.Parameter("tau", 1.0))
        expr = a / hk.identity()
        with pytest.raises(EvaluationError) as plain:
            expr.eval((np.array([1.0, 0.0]),))
        with pytest.raises(EvaluationError) as differentiated:
            expr.partials((np.array([1.0, 0.0]),))
        assert str(differentiated.value) == str(plain.value)
        assert str(plain.value) == "division by zero at point (0.0,)"

    def test_composition_chains_argument_tangents(self):
        # gauss(exp(x1 / tau)) * closure(gauss, exp): the outer leaves see
        # arguments that depend on tau, mean and sigma
        tau = hk.Parameter("tau", 2.0)
        inner = hk.compose(hk.shape_exponential(tau), [hk.coordinate(1, 2)])
        g = _gauss(0.6, 0.3)
        product = hk.wrap_closure(lambda x, p: p["k"].value * x[0] * np.sqrt(x[1]),
                                  [hk.Parameter("k", 1.5)], arity=2)
        expr = hk.compose(g, [inner]) * hk.compose(product, [hk.compose(g, [inner]), inner])
        x1 = np.array([0.2, 0.9, 1.6, 2.8])
        self._check(expr, (np.zeros_like(x1), x1))

    def test_closure_matches_analytic(self):
        a, b = hk.Parameter("a", 1.3), hk.Parameter("b", -0.7)
        f = hk.wrap_closure(lambda x, p: p["a"].value * np.sin(p["b"].value * x[0]), [a, b])
        value, partials = f.partials((self.X,))
        assert np.array_equal(value, f.eval((self.X,)))
        np.testing.assert_allclose(partials[id(a)], np.sin(b.value * self.X), rtol=1e-7)
        np.testing.assert_allclose(partials[id(b)], a.value * self.X * np.cos(b.value * self.X),
                                   rtol=1e-7)

    def test_closure_steps_do_not_touch_the_parameters(self):
        a = hk.Parameter("a", 2.0, lower=1.0, upper=2.0)
        seen = []

        def fn(x, p):
            seen.append(p["a"])
            return p["a"].value * x[0]

        f = hk.wrap_closure(fn, [a])
        _, partials = f.partials((self.X,))
        np.testing.assert_allclose(partials[id(a)], self.X, rtol=1e-9)
        assert a.value == 2.0 and any(q is not a for q in seen)

    def test_coordinate_passes_its_tangent_through(self):
        a = hk.Parameter("a", 1.0)
        c = hk.coordinate(1, 2)
        value, partials = c.partials((self.X, 2 * self.X), ({id(a): 3.0}, {id(a): self.X}))
        assert np.array_equal(value, 2 * self.X)
        assert partials.keys() == {id(a)}
        np.testing.assert_array_equal(partials[id(a)], self.X)
        assert c.partials((self.X, self.X))[1] == {}


class TestSecondPartials:
    """Exact second partials against central differences of the first."""

    X = np.array([0.3, 1.7, 2.9, 4.4, 6.1])

    def _check(self, expr, args):
        assert expr.second_order
        value, partials, second = expr.partials(args, second=True)
        plain_value, plain_partials = expr.partials(args)
        assert np.array_equal(value, plain_value)    # bitwise the first order
        assert partials.keys() == plain_partials.keys()
        for key, d in partials.items():
            assert np.array_equal(d, plain_partials[key])
        params = expr.leaf_params()
        for p in params:
            h = 1e-6 * (1.0 + abs(p.value))
            v = p.value
            p.value = v + h
            up = expr.partials(args)[1]
            p.value = v - h
            down = expr.partials(args)[1]
            p.value = v
            for q in params:
                ref = (up[id(q)] - down[id(q)]) / (2.0 * h)
                got = second.get(pair_key(id(p), id(q)), np.zeros_like(ref))
                np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-9 * np.max(np.abs(ref)),
                                           err_msg=f"{p.name}, {q.name}")

    def test_gaussian(self):
        self._check(_gauss(2.5, 1.3), (self.X,))

    def test_exponential(self):
        self._check(hk.shape_exponential(hk.Parameter("tau", 2.2)), (self.X,))

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_binary_ops(self, op):
        mean = hk.Parameter("mean", 2.0)
        a = hk.shape_gaussian(mean, hk.Parameter("s1", 1.1))
        b = hk.shape_exponential(hk.Parameter("tau", 1.7)) + hk.shape_gaussian(
            mean, hk.Parameter("s2", 2.4))    # mean is shared: its cross terms double
        self._check(hk.combine(op, a, b), (self.X,))

    def test_coordinate_in_a_product(self):
        tau = hk.Parameter("tau", 1.7)
        self._check(hk.identity() * hk.shape_exponential(tau) / _gauss(3.0, 2.0), (self.X,))

    def test_one_parameter_as_mean_and_sigma(self):
        p = hk.Parameter("p", 1.4)
        self._check(hk.shape_gaussian(p, p), (self.X,))

    def test_closure_and_composition_have_none(self):
        closure = hk.wrap_closure(lambda x, p: p["a"].value * x[0], [hk.Parameter("a", 1.0)])
        composed = hk.compose(_gauss(), [hk.identity()])
        for expr in (closure, composed, closure * _gauss(), _gauss() / composed):
            assert not expr.second_order
        for expr in (closure, composed):
            with pytest.raises(NotImplementedError):
                expr.partials((self.X,), second=True)
