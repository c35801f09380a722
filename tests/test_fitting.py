import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import hepkit as hk
from hepkit import fitting
from hepkit.fitting import FitStatus, _likelihood_pass, generate_model_sample, numeric_errors
from hepkit.functors import pair_key
from hepkit.parallel import CHUNK, EVAL_BATCH, run_batches
from toymodel import build_model, RANGE, TRUTH


def _region():
    return hk.BoundedRegion((RANGE,))


def _store(values):
    return hk.ColumnStore.from_columns(
        hk.ColumnSchema.real64("x0"), [np.asarray(values, dtype=float)]
    )


class TestMakePdf:
    def test_gaussian_norm_on_wide_interval(self):
        g = hk.shape_gaussian(hk.Parameter("mean", 0.0), hk.Parameter("sigma", 1.0))
        pdf = hk.make_pdf(g, hk.gaussian_norm(g), hk.BoundedRegion(((-10.0, 10.0),)))
        # erf over +-10 sigma is 1.0 to double precision
        assert pdf.value((0.0,)) == pytest.approx(0.3989422804014327, rel=1e-13)

    def test_exponential_norm_closed_form(self):
        e = hk.shape_exponential(hk.Parameter("tau", 1.0))
        pdf = hk.make_pdf(e, hk.exponential_norm(e), hk.BoundedRegion(((0.0, 10.0),)))
        pdf.value((0.0,))
        # frozen: tau (e^0 - e^-10) = 0.9999546000702375
        assert pdf.norm() == pytest.approx(0.9999546000702375, rel=1e-14)

    def test_numeric_norm_matches_analytic(self):
        g1 = hk.shape_gaussian(hk.Parameter("mean", 1.0), hk.Parameter("sigma", 0.7))
        g2 = hk.shape_gaussian(g1.mean, g1.sigma)
        region = hk.BoundedRegion(((-2.0, 4.0),))
        analytic = hk.make_pdf(g1, hk.gaussian_norm(g1), region)
        numeric = hk.make_pdf(g2, None, region)
        assert numeric.norm() == pytest.approx(analytic.norm(), rel=1e-10)

    def test_norm_cache_contract(self):
        g = hk.shape_gaussian(hk.Parameter("mean", 0.0), hk.Parameter("sigma", 1.0))
        pdf = hk.make_pdf(g, hk.gaussian_norm(g), _region())
        for _ in range(5):
            pdf.value((1.0,))
        assert pdf.norm_computations == 1
        g.mean.set(0.5)
        pdf.value((1.0,))
        assert pdf.norm_computations == 2

    def test_bad_norm_rejected(self):
        g = hk.shape_gaussian(hk.Parameter("mean", 0.0), hk.Parameter("sigma", 1.0))
        pdf = hk.make_pdf(g, lambda region: -1.0, _region())
        with pytest.raises(ValueError, match="positive"):
            pdf.norm()


class TestAddPdfs:
    def test_single_component_density(self):
        g = hk.shape_gaussian(hk.Parameter("mean", 5.0), hk.Parameter("sigma", 1.0))
        pdf = hk.make_pdf(g, hk.gaussian_norm(g), _region())
        n = hk.Parameter("n", 100.0)
        model = hk.add_pdfs([n], [pdf])
        assert model.density((5.0,)) == pytest.approx(100.0 * pdf.value((5.0,)), rel=1e-14)

    def test_identical_pdfs_doubling(self):
        g = hk.shape_gaussian(hk.Parameter("mean", 5.0), hk.Parameter("sigma", 1.0))
        pdf = hk.make_pdf(g, hk.gaussian_norm(g), _region())
        n1 = hk.Parameter("n1", 50.0)
        n2 = hk.Parameter("n2", 50.0)
        model = hk.add_pdfs([n1, n2], [pdf, pdf])
        single = hk.add_pdfs([hk.Parameter("n", 100.0)], [pdf])
        assert model.density((4.0,)) == pytest.approx(single.density((4.0,)), rel=1e-14)

    def test_length_mismatch(self):
        g = hk.shape_gaussian(hk.Parameter("mean", 5.0), hk.Parameter("sigma", 1.0))
        pdf = hk.make_pdf(g, hk.gaussian_norm(g), _region())
        with pytest.raises(ValueError):
            hk.add_pdfs([hk.Parameter("n", 1.0)], [pdf, pdf])

    def test_gauss_plus_exp_model(self):
        model = build_model()
        assert model.species() == ["n_sig", "n_bkg"]
        assert model.expected_total() == pytest.approx(50000.0)


class TestNll:
    def test_single_event_definitional(self):
        g = hk.shape_gaussian(hk.Parameter("mean", 0.0), hk.Parameter("sigma", 1.0))
        region = hk.BoundedRegion(((-10.0, 10.0),))
        pdf = hk.make_pdf(g, hk.gaussian_norm(g), region)
        n = hk.Parameter("n", 1.0)
        model = hk.add_pdfs([n], [pdf])
        store = _store([0.0])
        # frozen hand evaluation: 1 - ln(0.3989422804014327 / 1.0)
        assert hk.nll(model, store, ["x0"]) == pytest.approx(1.9189385332046727, rel=1e-14)

    def test_duplicating_events_doubles_event_sum(self):
        model = build_model()
        x = np.linspace(1.0, 9.0, 101)
        base = hk.nll(model, _store(x), ["x0"])
        doubled = hk.nll(model, _store(np.concatenate([x, x])), ["x0"])
        total = model.expected_total()
        assert doubled - total == pytest.approx(2.0 * (base - total), rel=1e-12)

    def test_empty_store_rejected(self):
        model = build_model()
        with pytest.raises(ValueError):
            hk.nll(model, _store([]), ["x0"])

    def test_nonpositive_density_names_event(self):
        e = hk.shape_exponential(hk.Parameter("tau", 1.0))
        pdf = hk.make_pdf(e, hk.exponential_norm(e), _region())
        model = hk.add_pdfs([hk.Parameter("n", 0.0)], [pdf])
        with pytest.raises(ValueError, match="event 0") as info:
            hk.nll(model, _store([1.0]), ["x0"])
        assert "np." not in str(info.value)    # plain numbers, not numpy reprs

    def test_worker_count_bitwise_invariance(self):
        model = build_model()
        data = generate_model_sample(model, hk.RngKey(51, 2), workers=2)
        values = {w: hk.nll(model, data, ["x0"], workers=w) for w in (1, 2, 8)}
        assert values[1] == values[2] == values[8]

    def test_cache_disabled_equivalence(self):
        # same values through a fresh model (empty caches) are bitwise equal
        model_a = build_model()
        data = generate_model_sample(model_a, hk.RngKey(52, 2))
        seq = [
            {"mean": 5.1, "sigma": 0.52},
            {"mean": 5.1, "sigma": 0.52},   # repeated: cache hit path
            {"mean": 4.9, "sigma": 0.48},
        ]
        got = []
        for upd in seq:
            ps = model_a.param_set()
            for k, v in upd.items():
                ps[k].set(v)
            got.append(hk.nll(model_a, data, ["x0"]))
        fresh = []
        for upd in seq:
            model_b = build_model(**upd)
            fresh.append(hk.nll(model_b, data, ["x0"]))
        assert got == fresh


class TestMinimize:
    def test_quadratic_closed_form(self):
        a = hk.Parameter("a", 0.0, step=0.5)
        params = hk.ParamSet([a])
        res = hk.minimize(lambda ps: (ps["a"].value - 3.0) ** 2, params)
        assert res.status is FitStatus.CONVERGED
        assert a.value == pytest.approx(3.0, abs=1e-4)
        # NLL convention: H = 2 -> error = 1/sqrt(2)
        assert res.errors["a"] == pytest.approx(0.7071067811865475, rel=1e-4)

    def test_interior_optimum_unaffected_by_bounds(self):
        # both runs land within the EDM tolerance of the same argmin
        objective = lambda ps: (ps["a"].value - 1.5) ** 2 + 0.7
        free = hk.Parameter("a", 0.2, step=0.3)
        res_free = hk.minimize(objective, hk.ParamSet([free]))
        bounded = hk.Parameter("a", 0.2, step=0.3, lower=-5.0, upper=5.0)
        res_bounded = hk.minimize(objective, hk.ParamSet([bounded]))
        assert bounded.value == pytest.approx(free.value, abs=5e-4)
        assert res_bounded.nll_min == pytest.approx(res_free.nll_min, abs=1e-7)

    def test_fixed_parameter_never_moves(self):
        a = hk.Parameter("a", 0.0, step=0.5)
        b = hk.Parameter("b", 2.5, step=0.5, fixed=True)
        params = hk.ParamSet([a, b])
        hk.minimize(lambda ps: (ps["a"].value - 1.0) ** 2 + ps["b"].value, params)
        assert b.value == 2.5
        assert a.value == pytest.approx(1.0, abs=1e-4)

    def test_zero_free_parameters(self):
        a = hk.Parameter("a", 1.0, fixed=True)
        res = hk.minimize(lambda ps: ps["a"].value ** 2, hk.ParamSet([a]))
        assert res.status is FitStatus.CONVERGED
        assert res.nll_min == 1.0
        assert res.errors == {}
        assert res.n_calls == 1

    def test_constant_shift_invariance(self):
        # adding an exactly representable constant shifts nll_min by exactly
        # that constant and leaves the trajectory, which follows the
        # analytic gradient and Hessian, untouched
        shift = 4.0
        base = lambda ps: (ps["a"].value - 2.0) ** 4 + (ps["a"].value + 1.0) ** 2

        def derivatives(objective):
            def gradient(ps, hessian):
                a = ps["a"].value
                hess = np.array([[12.0 * (a - 2.0) ** 2 + 2.0]]) if hessian else None
                return objective(ps), np.array([4.0 * (a - 2.0) ** 3 + 2.0 * (a + 1.0)]), hess
            return gradient

        shifted = lambda ps: base(ps) + shift
        a1 = hk.Parameter("a", 0.3, step=0.4)
        r1 = hk.minimize(base, hk.ParamSet([a1]), gradient=derivatives(base))
        a2 = hk.Parameter("a", 0.3, step=0.4)
        r2 = hk.minimize(shifted, hk.ParamSet([a2]), gradient=derivatives(shifted))
        assert r1.status is FitStatus.CONVERGED
        assert a2.value == a1.value
        assert r2.nll_min == r1.nll_min + shift

    def test_max_iterations_flag(self):
        a = hk.Parameter("a", 100.0, step=0.001)
        res = hk.minimize(
            lambda ps: abs(ps["a"].value), hk.ParamSet([a]), max_iterations=3
        )
        assert res.status is FitStatus.MAX_ITERATIONS
        assert res.errors is None

    def test_two_dimensional_rosenbrock_ish(self):
        x = hk.Parameter("x", -1.0, step=0.2)
        y = hk.Parameter("y", 1.5, step=0.2)

        def obj(ps):
            return (1 - ps["x"].value) ** 2 + 5.0 * (ps["y"].value - ps["x"].value ** 2) ** 2

        res = hk.minimize(obj, hk.ParamSet([x, y]), max_iterations=5000)
        assert res.status is FitStatus.CONVERGED
        assert x.value == pytest.approx(1.0, abs=1e-3)
        assert y.value == pytest.approx(1.0, abs=1e-3)


class TestNumericErrors:
    def test_correlated_quadratic(self):
        # NLL = 0.5 x^T H x with known H; errors are sqrt of inv(H) diagonal
        H = np.array([[2.0, 0.6], [0.6, 1.0]])

        def obj(ps):
            v = np.array([ps["x"].value, ps["y"].value])
            return 0.5 * float(v @ H @ v)

        params = hk.ParamSet([hk.Parameter("x", 0.0), hk.Parameter("y", 0.0)])
        errors = numeric_errors(obj, params)
        cov = np.linalg.inv(H)
        assert errors["x"] == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-5)
        assert errors["y"] == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-5)

    def test_not_posdef_returns_none(self):
        params = hk.ParamSet([hk.Parameter("x", 0.0)])
        assert numeric_errors(lambda ps: -ps["x"].value ** 2, params) is None

    def test_exact_yield_block(self):
        # x, y, z differenced from the exact gradient; n has its exact block
        H = np.array([
            [2.0, 0.6, 0.3, 0.5],
            [0.6, 1.0, 0.2, -0.4],
            [0.3, 0.2, 1.5, 0.1],
            [0.5, -0.4, 0.1, 3.0],
        ])
        names = ("x", "y", "z", "n")
        params = hk.ParamSet([hk.Parameter(name, 0.0) for name in names])
        passes = []

        def obj(ps):
            passes.append("f")
            v = np.array([ps[name].value for name in names])
            return 0.5 * float(v @ H @ v)

        def gradient(ps, hessian):
            passes.append("h" if hessian else "g")
            v = np.array([ps[name].value for name in names])
            # a wrong estimate off the n block, which must not be used
            estimate = np.where(np.eye(4) == 1, H, 0.0) if hessian else None
            return 0.5 * float(v @ H @ v), H @ v, estimate

        errors = numeric_errors(obj, params, gradient, exact=("n",))
        cov = np.linalg.inv(H)
        for i, name in enumerate(names):
            assert errors[name] == pytest.approx(math.sqrt(cov[i, i]), rel=1e-6)
        # the centre for the exact block, two per differenced column
        assert passes.count("h") == 1
        assert passes.count("g") == 2 * 3
        assert passes.count("f") == 0

    def test_yield_on_bound_returns_none_without_passes(self):
        params = hk.ParamSet([hk.Parameter("x", 1.0), hk.Parameter("n", 0.0, lower=0.0)])

        def never(ps):
            raise AssertionError("no pass expected")

        assert numeric_errors(never, params, never, exact=("n",)) is None


class TestFit:
    def test_recovers_truth_and_yield_sum(self):
        model = build_model(scale=0.2)    # 10k expected
        data = generate_model_sample(model, hk.RngKey(61, 2), workers=2)
        n = len(data)
        ps = model.param_set()
        ps["mean"].set(4.7)
        ps["sigma"].set(0.6)
        ps["tau"].set(2.6)
        res = hk.fit(model, data, ["x0"], workers=2)
        assert res.status is FitStatus.CONVERGED
        total = ps["n_sig"].value + ps["n_bkg"].value
        # extended-ML identity: fitted total equals the event count
        assert total == pytest.approx(n, rel=1e-6)
        assert abs(total - n) < 3 * math.sqrt(n)
        for name in ("mean", "sigma", "tau"):
            pull = (ps[name].value - TRUTH[name]) / res.errors[name]
            assert abs(pull) < 5

    def test_zero_free_parameters(self):
        model = build_model(scale=0.01)
        data = generate_model_sample(model, hk.RngKey(62, 2))
        for p in model.param_set():
            p.fixed = True
        res = hk.fit(model, data, ["x0"])
        assert res.status is FitStatus.CONVERGED
        assert res.errors == {}
        assert res.nll_min == pytest.approx(hk.nll(model, data, ["x0"]), rel=1e-12)

    def test_yield_stationarity_after_fit(self):
        model = build_model(scale=0.1)
        data = generate_model_sample(model, hk.RngKey(63, 2))
        hk.fit(model, data, ["x0"])
        _, g, _ = _likelihood_pass(model, data, ["x0"], 1, model.yields())
        assert np.max(np.abs(g)) < 1e-10

    def test_fixed_shape_fit_only_yields(self):
        model = build_model(scale=0.05)
        data = generate_model_sample(model, hk.RngKey(64, 2))
        ps = model.param_set()
        for name in ("mean", "sigma", "tau"):
            ps[name].fixed = True
        res = hk.fit(model, data, ["x0"])
        assert res.status is FitStatus.CONVERGED
        assert ps["n_sig"].value + ps["n_bkg"].value == pytest.approx(len(data), rel=1e-6)


class TestGenerateModelSample:
    def test_poisson_fluctuates_total(self):
        model = build_model(scale=0.02)    # 1000 expected
        sizes = {
            len(generate_model_sample(model, hk.RngKey(seed, 2))) for seed in range(5)
        }
        assert len(sizes) > 1

    def test_fixed_counts_without_poisson(self):
        model = build_model(scale=0.02)
        data = generate_model_sample(model, hk.RngKey(65, 2), poisson=False)
        assert len(data) == 1000

    def test_deterministic(self):
        model = build_model(scale=0.02)
        a = generate_model_sample(model, hk.RngKey(66, 2), workers=1)
        b = generate_model_sample(model, hk.RngKey(66, 2), workers=8)
        assert np.array_equal(a.column("x0"), b.column("x0"))

    @pytest.mark.parametrize("toy_key", [
        lambda t: hk.RngKey(6, 2).child(t),          # as ``hepkit toys`` keys toy t
        lambda t: hk.RngKey(6, 2, counter=t << 40),  # toy counters that once wrapped
    ])
    def test_toys_0_and_256_share_no_event(self, toy_key):
        model = build_model(scale=0.2)
        a, b = (generate_model_sample(model, toy_key(t)).column("x0") for t in (0, 256))
        assert len(a) > 9000 and len(b) > 9000
        assert np.intersect1d(a, b).size == 0


# ---------------------------------------------------------------------------
# the fused likelihood pass against the density-then-log pass it replaced

def _reference_nll(model, store, observable_columns, workers=1):
    """The NLL as a density-then-log pass with per-slice chunk sums."""
    n = len(store)
    cols = store.columns(observable_columns)
    for _, pdf in model.components:
        pdf.norm()

    def batch(a, b):
        args = tuple(c[a:b] for c in cols)
        dens = model.density(args)
        bad = ~(dens > 0) | ~np.isfinite(dens)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise ValueError(
                f"model density {float(dens[j])!r} is not positive at event {a + j}")
        logs = np.log(dens)
        first = a // CHUNK * CHUNK
        bounds = [(max(s, a), min(s + CHUNK, b)) for s in range(first, b, CHUNK)]
        return [float(np.sum(logs[ca - a : cb - a])) for ca, cb in bounds]

    partials = [p for chunk_list in run_batches(batch, n, workers) for p in chunk_list]
    total = partials[0]
    for p in partials[1:]:
        total = total + p
    return model.expected_total() - total


def _gauss_exp_sample(seed, n_sig=4000, n_bkg=6000):
    """Gaussian (5, 0.5) and exponential (tau 3, truncated to [0, 10])
    events drawn with numpy."""
    rng = np.random.default_rng(seed)
    sig = rng.normal(5.0, 0.5, n_sig)
    u = rng.random(n_bkg)
    bkg = -3.0 * np.log1p(-u * -math.expm1(-10.0 / 3.0))
    return _store(np.concatenate([sig, bkg]))


def _start_model(scale=0.2):
    return build_model(scale=scale, mean=4.7, sigma=0.6, tau=2.6)


# Fits of three samples recorded as hex floats: BFGS on the likelihood
# pass's exact gradient, stopped at EDM < 1e-6, then the yield polish and
# errors from the exact yield block and gradient differences.  n_calls
# counts the minimizer's gradient passes.
GOLDEN = {
    11: ({"n_sig": "0x1.f052e3dc37b2ep+11", "mean": "0x1.40ced1ea20a8bp+2",
          "sigma": "0x1.f37c99100cc48p-2", "n_bkg": "0x1.78d68e11e4269p+12",
          "tau": "0x1.7b6571d753a94p+1"},
         {"n_sig": "0x1.30749c401f107p+6", "mean": "0x1.41c1ce9ed1581p-7",
          "sigma": "0x1.245eef7c45659p-7", "n_bkg": "0x1.627301b1ba0dfp+6",
          "tau": "0x1.d72bf214ee677p-5"},
         "-0x1.ee6a00940cbfap+15", 8),
    12: ({"n_sig": "0x1.fb37120cba405p+11", "mean": "0x1.407ec8df5f710p+2",
          "sigma": "0x1.080b817de3dc8p-1", "n_bkg": "0x1.736476f9a2dfep+12",
          "tau": "0x1.7e3bf8e489b74p+1"},
         {"n_sig": "0x1.34cbada5b2385p+6", "mean": "0x1.4f719b6a66d64p-7",
          "sigma": "0x1.2bf3d1648d878p-7", "n_bkg": "0x1.6245468abfe82p+6",
          "tau": "0x1.e39411ae69b71p-5"},
         "-0x1.edafc40d4abc0p+15", 7),
    13: ({"n_sig": "0x1.e84dc42ef4f71p+11", "mean": "0x1.417ee03486531p+2",
          "sigma": "0x1.f4d2da71bc354p-2", "n_bkg": "0x1.7cd91de884563p+12",
          "tau": "0x1.7ea66092c39c4p+1"},
         {"n_sig": "0x1.2d8a8271898e9p+6", "mean": "0x1.43d58570c3c1dp-7",
          "sigma": "0x1.203a050ddb224p-7", "n_bkg": "0x1.62da949079520p+6",
          "tau": "0x1.d9bfa7e52a1b5p-5"},
         "-0x1.edb74f8ca86e2p+15", 9),
}


# nll_min of the same fits by the Nelder-Mead simplex this minimizer
# replaced, which stopped on a spread relative to |NLL|
SIMPLEX_NLL_MIN = {
    11: "-0x1.ee6a009063d0ap+15", 12: "-0x1.edafc3f2a564ap+15", 13: "-0x1.edb74f12ff643p+15",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_fit(seed):
    values, errors, nll_min, n_calls = GOLDEN[seed]
    model = _start_model()
    res = hk.fit(model, _gauss_exp_sample(seed), ["x0"])
    assert res.status is FitStatus.CONVERGED
    assert res.nll_min < float.fromhex(SIMPLEX_NLL_MIN[seed])
    assert res.n_calls == n_calls
    for name in ("mean", "sigma", "tau"):
        assert res.params[name].value.hex() == values[name]
    for name in ("n_sig", "n_bkg"):
        assert res.params[name].value == pytest.approx(float.fromhex(values[name]), rel=1e-12)
    assert res.nll_min == pytest.approx(float.fromhex(nll_min), abs=1e-9)
    assert res.errors.keys() == errors.keys()
    for name, err in errors.items():
        assert res.errors[name] == pytest.approx(float.fromhex(err), rel=1e-5)


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, EVAL_BATCH + 7])
def test_nll_bitwise_equals_reference(n):
    model = build_model(scale=0.2, mean=5.1, sigma=0.45, tau=3.3)
    data = _store(np.random.default_rng(n).uniform(*RANGE, n))
    expected = _reference_nll(model, data, ["x0"])
    for workers in (1, 2, 8):
        assert hk.nll(model, data, ["x0"], workers=workers).hex() == expected.hex()


def test_fit_result_bitwise_across_workers():
    data = _gauss_exp_sample(21, 28000, 42000)
    assert len(data) > EVAL_BATCH
    results = {}
    for workers in (1, 2, 8):
        res = hk.fit(_start_model(scale=1.4), data, ["x0"], workers=workers)
        assert res.status is FitStatus.CONVERGED
        results[workers] = (
            {p.name: p.value.hex() for p in res.params},
            {k: v.hex() for k, v in res.errors.items()},
            res.nll_min.hex(), res.n_calls,
        )
    assert results[1] == results[2] == results[8]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_bad_density_names_first_bad_event(bad):
    # density 0.4 c x + 0.6 c x with c = 1: the data value is the density
    region = hk.BoundedRegion((RANGE,))
    c = hk.Parameter("c", 1.0)
    shape = hk.identity() * hk.wrap_closure(lambda x, p: p["c"].value, [c])
    model = hk.add_pdfs(
        [hk.Parameter("a", 0.4), hk.Parameter("b", 0.6)],
        [hk.make_pdf(shape, lambda r: 1.0, region) for _ in range(2)],
    )
    x = np.random.default_rng(5).uniform(1.0, 2.0, 3 * EVAL_BATCH)
    first = EVAL_BATCH + 2 * CHUNK + 1234    # second batch, mid-chunk
    x[[first, first + 3 * CHUNK, 2 * EVAL_BATCH + 5]] = bad
    data = _store(x)
    with pytest.raises(ValueError) as ref:
        _reference_nll(model, data, ["x0"])
    assert str(ref.value).endswith(f"at event {first}")
    for workers in (1, 2, 8):
        with pytest.raises(ValueError) as got:
            hk.nll(model, data, ["x0"], workers=workers)
        assert str(got.value) == str(ref.value)
        # the gradient pass of a fit and of the yield polish names it too
        with pytest.raises(ValueError) as got:
            _likelihood_pass(model, data, ["x0"], workers, model.param_set().free(), outer=True)
        assert str(got.value) == str(ref.value)


def _closure_model(analytic_gauss=False):
    """``_start_model``'s Gaussian and exponential, the exponential (and
    unless ``analytic_gauss`` the Gaussian too) as closures with plain
    closed-form normalizers: shapes without second partials."""
    region = hk.BoundedRegion((RANGE,))
    lo, hi = RANGE
    mean = hk.Parameter("mean", 4.7, step=0.1)
    sigma = hk.Parameter("sigma", 0.6, step=0.05, lower=1e-4)
    tau = hk.Parameter("tau", 2.6, step=0.2, lower=1e-4)
    if analytic_gauss:
        gauss = hk.shape_gaussian(mean, sigma)
        gauss_pdf = hk.make_pdf(gauss, hk.gaussian_norm(gauss), region)
    else:
        gauss = hk.wrap_closure(
            lambda x, p: np.exp(-0.5 * ((x[0] - p["mean"].value) / p["sigma"].value) ** 2),
            [mean, sigma])

        def gauss_norm(r):
            rt2 = math.sqrt(2.0) * sigma.value
            return sigma.value * math.sqrt(0.5 * math.pi) * (
                math.erf((hi - mean.value) / rt2) - math.erf((lo - mean.value) / rt2))

        gauss_pdf = hk.make_pdf(gauss, gauss_norm, region)
    expo = hk.wrap_closure(lambda x, p: np.exp(-x[0] / p["tau"].value), [tau])
    expo_pdf = hk.make_pdf(
        expo, lambda r: tau.value * (math.exp(-lo / tau.value) - math.exp(-hi / tau.value)), region)
    return hk.add_pdfs([hk.Parameter("n_sig", 4000.0, step=63.0, lower=0.0),
                        hk.Parameter("n_bkg", 6000.0, step=77.0, lower=0.0)],
                       [gauss_pdf, expo_pdf])


@pytest.mark.parametrize("build, differenced", [
    (_start_model, 0),
    (lambda: _closure_model(analytic_gauss=True), 1),
    (_closure_model, 3),
])
def test_hessian_passes_inside_numeric_errors(monkeypatch, build, differenced):
    # one exact pass at the centre, two per parameter without second partials
    passes = []
    inner_pass = fitting._likelihood_pass
    inner_errors = fitting.numeric_errors

    def counting_pass(*args, **kwargs):
        passes.append("pass")
        return inner_pass(*args, **kwargs)

    def marking_errors(*args, **kwargs):
        passes.append("start")
        out = inner_errors(*args, **kwargs)
        passes.append("end")
        return out

    monkeypatch.setattr(fitting, "_likelihood_pass", counting_pass)
    monkeypatch.setattr(fitting, "numeric_errors", marking_errors)
    model = build()
    res = hk.fit(model, _gauss_exp_sample(11), ["x0"])
    assert res.status is FitStatus.CONVERGED
    free = model.param_set().free()
    assert len(free) == 5
    assert sum(id(p) not in model.second_order_ids() for p in free) == differenced
    inside = passes[passes.index("start") + 1 : passes.index("end")]
    assert len(inside) == 1 + 2 * differenced


# The fit of the all-closure model on seed 11, recorded before the exact
# Hessian existed: every shape column of its Hessian is differenced, so
# the errors are bitwise those of the differencing path.
CLOSURE_GOLDEN = (
    {"n_sig": "0x1.f052e3db0f04ap+11", "mean": "0x1.40ced1ea0abadp+2",
     "sigma": "0x1.f37c990f0695cp-2", "n_bkg": "0x1.78d68e12787ddp+12",
     "tau": "0x1.7b6571daed506p+1"},
    {"n_sig": "0x1.30749c39c0e01p+6", "mean": "0x1.41c1cea5dfd1cp-7",
     "sigma": "0x1.245eefa2b6a02p-7", "n_bkg": "0x1.627301acad185p+6",
     "tau": "0x1.d72bf136a7ed1p-5"},
    "-0x1.ee6a00940cbfep+15", 8,
)


def test_closure_model_differenced_errors_bitwise():
    values, errors, nll_min, n_calls = CLOSURE_GOLDEN
    res = hk.fit(_closure_model(), _gauss_exp_sample(11), ["x0"])
    assert res.status is FitStatus.CONVERGED
    assert {p.name: p.value.hex() for p in res.params} == values
    assert {k: v.hex() for k, v in res.errors.items()} == errors
    assert (res.nll_min.hex(), res.n_calls) == (nll_min, n_calls)


_FAULTS_CHILD = """
import math, resource, sys
import numpy as np
import hepkit as hk
from toymodel import build_model

rng = np.random.default_rng(11)
sig = rng.normal(5.0, 0.5, 4000)
bkg = -3.0 * np.log1p(-rng.random(6000) * -math.expm1(-10.0 / 3.0))
data = hk.ColumnStore.from_columns(hk.ColumnSchema.real64("x0"), [np.concatenate([sig, bkg])])

def one():
    model = build_model(scale=0.2, mean=4.7, sigma=0.6, tau=2.6)
    assert hk.fit(model, data, ["x0"], workers=2).status is hk.FitStatus.CONVERGED

for _ in range(3):
    one()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    one()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.parametrize("malloc, bound", [
    ({}, 100),
    # glibc's default thresholds, pinned, so never raised after a large
    # free: fresh (q, n) score rows alone would cost 5 * 1e4 * 8 B / 4 KiB,
    # about 98 pages, in each of a fit's 8 or more passes; what is left
    # is glibc trimming and re-faulting the pdf temporaries, which varies
    # with the process's heap layout
    ({"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072"}, 400),
])
def test_fit_minor_faults_per_fit(malloc, bound):
    # a fresh interpreter, which alone is measured; a fit that allocated
    # its (q, n) score rows afresh per pass faulted about 1 500 pages a fit
    # whenever glibc mapped them anew or trimmed them back
    here = os.path.dirname(os.path.abspath(__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env.update(malloc)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])
    out = subprocess.run([sys.executable, "-c", _FAULTS_CHILD], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert float(out.stdout) < bound


@pytest.mark.parametrize("differentiate, kind", [
    (False, {}), (True, {}), (True, {"outer": True}), (True, {"second": True}),
], ids=["nll", "gradient", "sts", "exact"])
def test_warm_single_batch_pass_allocates_no_event_sized_array(differentiate, kind):
    # deterministic where the fault count above samples the heap layout:
    # a warm pass of one batch (nll, gradient, S^T S, exact) writes into
    # its thread's registers, so nothing it allocates holds n floats, nor
    # do all its allocations together
    data = _gauss_exp_sample(11)
    model = _start_model()
    free = model.param_set().free() if differentiate else ()
    n = len(data)
    _likelihood_pass(model, data, ["x0"], 1, free, **kind)
    tracemalloc.start()
    try:
        _likelihood_pass(model, data, ["x0"], 1, free, **kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


# ---------------------------------------------------------------------------
# the score pass: gradient and S^T S

def _difference(f, p, rel=1e-6):
    """Central difference of f() over parameter p."""
    v, h = p.value, rel * abs(p.value)
    p.set(v + h)
    up = f()
    p.set(v - h)
    down = f()
    p.set(v)
    return (up - down) / (2.0 * h)


@pytest.mark.parametrize("shape", ["gauss", "exp"])
def test_norm_log_partials_match_differences(shape):
    region = hk.BoundedRegion(((1.0, 8.5),))
    if shape == "gauss":
        expr = hk.shape_gaussian(hk.Parameter("mean", 4.2), hk.Parameter("sigma", 1.3))
        norm = hk.gaussian_norm(expr)
    else:
        expr = hk.shape_exponential(hk.Parameter("tau", 2.6))
        norm = hk.exponential_norm(expr)
    closed = norm.log_partials(region)
    numeric = hk.make_pdf(expr, None, region).log_norm_partials()
    for p in expr.leaf_params():
        ref = _difference(lambda: math.log(norm(region)), p)
        assert closed[id(p)] == pytest.approx(ref, rel=1e-7), p.name
        assert numeric[id(p)] == pytest.approx(ref, rel=1e-7), p.name


@pytest.mark.parametrize("shape", ["gauss", "exp"])
def test_norm_log_second_partials_match_differences(shape):
    region = hk.BoundedRegion(((1.0, 8.5),))
    if shape == "gauss":
        expr = hk.shape_gaussian(hk.Parameter("mean", 4.2), hk.Parameter("sigma", 1.3))
        norm = hk.gaussian_norm(expr)
    else:
        expr = hk.shape_exponential(hk.Parameter("tau", 2.6))
        norm = hk.exponential_norm(expr)
    closed = norm.log_second_partials(region)
    params = expr.leaf_params()
    assert len(closed) == len(params) * (len(params) + 1) // 2
    for p in params:
        for q in params:
            ref = _difference(lambda: norm.log_partials(region)[id(q)], p)
            assert closed[pair_key(id(p), id(q))] == pytest.approx(ref, rel=1e-7), (p.name, q.name)


@pytest.mark.parametrize("shape", ["gauss", "exp"])
def test_pdf_second_partials_match_differences(shape):
    region = hk.BoundedRegion(((1.0, 8.5),))
    if shape == "gauss":
        expr = hk.shape_gaussian(hk.Parameter("mean", 4.2), hk.Parameter("sigma", 1.3))
        pdf = hk.make_pdf(expr, hk.gaussian_norm(expr), region)
    else:
        expr = hk.shape_exponential(hk.Parameter("tau", 2.6))
        pdf = hk.make_pdf(expr, hk.exponential_norm(expr), region)
    assert pdf.second_order
    x = (np.linspace(1.0, 8.5, 31),)
    value, first, second = pdf.partials(x, second=True)
    plain_value, plain_first = pdf.partials(x)
    assert np.array_equal(value, plain_value)
    assert all(np.array_equal(first[k], plain_first[k]) for k in plain_first)
    for p in expr.leaf_params():
        for q in expr.leaf_params():
            ref = _difference(lambda: pdf.partials(x)[1][id(q)], p)
            np.testing.assert_allclose(second[pair_key(id(p), id(q))], ref, rtol=1e-6,
                                       atol=1e-9 * np.max(np.abs(ref)), err_msg=f"{p.name}, {q.name}")


def _off_optimum_model():
    return build_model(scale=1.4, mean=5.1, sigma=0.47, tau=3.3, n_sig=29000.0, n_bkg=39000.0)


def test_pass_gradient_matches_nll_differences():
    data = _gauss_exp_sample(31, 28000, 42000)
    assert len(data) > EVAL_BATCH
    model = _off_optimum_model()
    free = model.param_set().free()
    value, grad, _ = _likelihood_pass(model, data, ["x0"], 1, free)
    assert value == hk.nll(model, data, ["x0"])
    for p, g in zip(free, grad):
        ref = _difference(lambda: hk.nll(model, data, ["x0"]), p)
        assert g == pytest.approx(ref, rel=1e-6), p.name


def test_pass_yield_block_is_exact_and_worker_invariant():
    data = _gauss_exp_sample(32, 28000, 42000)
    model = _off_optimum_model()
    free = model.param_set().free()
    results = {}
    for workers in (1, 2, 8):
        value, grad, sts = _likelihood_pass(model, data, ["x0"], workers, free, outer=True)
        results[workers] = (value.hex(), [g.hex() for g in grad], [v.hex() for v in sts.ravel()])
    assert results[1] == results[2] == results[8]
    # the yield block of S^T S is the yield Hessian: d(1 - sum r_k)/dN_j
    yields = [i for i, p in enumerate(free) if p.name.startswith("n_")]
    for i in yields:
        for j in yields:
            ref = _difference(
                lambda: _likelihood_pass(model, data, ["x0"], 1, free)[1][i], free[j])
            assert sts[i, j] == pytest.approx(ref, rel=1e-6)


def test_fit_from_afar_reaches_the_minimum_at_a_million_events(monkeypatch):
    # the sample fit_csv fits at seed 101; a fit from the truth is the
    # reference minimum
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    from workloads import derive_seed, draw_events

    x = draw_events(np.random.default_rng(derive_seed(101, "fit_csv")), 400_000, 600_000)
    data = _store(x)
    results = []
    for start in ({"mean": 4.8, "sigma": 0.55, "tau": 2.7}, {}):
        model = build_model(scale=20.0, **start)
        res = hk.fit(model, data, ["x0"], workers=2)
        assert res.status is FitStatus.CONVERGED
        results.append(res.nll_min)
    assert abs(results[0] - results[1]) < 1e-3


def _shared_mean_model():
    """Two Gaussians sharing their mean, over an exponential, away from
    the optimum of ``_gauss_exp_sample``."""
    region = hk.BoundedRegion((RANGE,))
    mean = hk.Parameter("mean", 5.1)
    narrow = hk.shape_gaussian(mean, hk.Parameter("s_narrow", 0.4, lower=1e-4))
    wide = hk.shape_gaussian(mean, hk.Parameter("s_wide", 0.9, lower=1e-4))
    expo = hk.shape_exponential(hk.Parameter("tau", 3.3, lower=1e-4))
    return hk.add_pdfs(
        [hk.Parameter(name, v, lower=0.0)
         for name, v in (("n_narrow", 20000.0), ("n_wide", 9000.0), ("n_bkg", 39000.0))],
        [hk.make_pdf(narrow, hk.gaussian_norm(narrow), region),
         hk.make_pdf(wide, hk.gaussian_norm(wide), region),
         hk.make_pdf(expo, hk.exponential_norm(expo), region)])


@pytest.mark.parametrize("build", [_off_optimum_model, _shared_mean_model])
def test_pass_hessian_matches_gradient_differences(build):
    data = _gauss_exp_sample(33, 28000, 42000)
    model = build()
    free = model.param_set().free()
    value, grad, hess = _likelihood_pass(model, data, ["x0"], 1, free, second=True)
    assert value.hex() == hk.nll(model, data, ["x0"]).hex()
    plain = _likelihood_pass(model, data, ["x0"], 1, free)[1]
    assert [g.hex() for g in grad] == [g.hex() for g in plain]
    assert np.array_equal(hess, hess.T)
    for j, p in enumerate(free):
        ref = _difference(lambda: _likelihood_pass(model, data, ["x0"], 1, free)[1], p)
        for i, q in enumerate(free):
            assert hess[i, j] == pytest.approx(ref[i], rel=1e-6), (q.name, p.name)
    for workers in (2, 8):
        again = _likelihood_pass(model, data, ["x0"], workers, free, second=True)
        assert [v.hex() for v in again[2].ravel()] == [v.hex() for v in hess.ravel()]


def test_pass_hessian_of_closure_parameters_is_nan():
    data = _gauss_exp_sample(34)
    model = _closure_model(analytic_gauss=True)
    free = model.param_set().free()
    _, _, hess = _likelihood_pass(model, data, ["x0"], 1, free, second=True)
    _, _, sts = _likelihood_pass(model, data, ["x0"], 1, free, outer=True)
    opaque = [i for i, p in enumerate(free) if p.name == "tau"]
    exact = [i for i, p in enumerate(free) if p.name != "tau"]
    assert np.all(np.isnan(hess[opaque, :])) and np.all(np.isnan(hess[:, opaque]))
    assert np.all(np.isfinite(hess[np.ix_(exact, exact)]))
    yields = [i for i, p in enumerate(free) if p.name.startswith("n_")]
    assert np.array_equal(hess[np.ix_(yields, yields)], sts[np.ix_(yields, yields)])


def test_pass_results_do_not_alias_the_workspace():
    data = _gauss_exp_sample(35)
    model = _start_model()
    free = model.param_set().free()
    first = _likelihood_pass(model, data, ["x0"], 1, free, second=True)
    kept = [first[1].copy(), first[2].copy()]
    model.param_set()["mean"].set(5.3)
    _likelihood_pass(model, data, ["x0"], 1, free, second=True)
    _likelihood_pass(model, data, ["x0"], 1, free, outer=True)
    assert np.array_equal(first[1], kept[0]) and np.array_equal(first[2], kept[1])
