import math
import tracemalloc

import numpy as np
import pytest

import hepkit as hk
from hepkit.fitting import generate_model_sample
from toymodel import build_model, RANGE


def _fitted_toy(seed=71, scale=0.2, workers=2):
    model = build_model(scale=scale)
    data = generate_model_sample(model, hk.RngKey(seed, 2), workers=workers)
    hk.fit(model, data, ["x0"], workers=workers)
    return model, data


class TestMatrix:
    def test_single_species_is_yield(self):
        # with one species V collapses to the 1x1 matrix [N] at the optimum
        g = hk.shape_gaussian(hk.Parameter("mean", 5.0), hk.Parameter("sigma", 0.5))
        region = hk.BoundedRegion((RANGE,))
        pdf = hk.make_pdf(g, hk.gaussian_norm(g), region)
        n = hk.Parameter("n", 2000.0, step=40.0, lower=0.0)
        model = hk.add_pdfs([n], [pdf])
        data = generate_model_sample(model, hk.RngKey(72, 2))
        hk.fit(model, data, ["x0"])
        V = hk.splot_matrix(model, data, ["x0"])
        assert V.shape == (1, 1)
        assert V[0, 0] == pytest.approx(n.value, rel=1e-9)

    def test_identical_pdfs_singular(self):
        g = hk.shape_gaussian(hk.Parameter("mean", 5.0), hk.Parameter("sigma", 0.5))
        region = hk.BoundedRegion((RANGE,))
        pdf = hk.make_pdf(g, hk.gaussian_norm(g), region)
        n1 = hk.Parameter("n1", 500.0, lower=0.0)
        n2 = hk.Parameter("n2", 500.0, lower=0.0)
        model = hk.add_pdfs([n1, n2], [pdf, pdf])
        data = generate_model_sample(model, hk.RngKey(73, 2))
        # two copies of one pdf: any yield split with the same total is
        # stationary, so pick one explicitly and expect the singularity
        n1.set(len(data) / 2)
        n2.set(len(data) / 2)
        with pytest.raises(ValueError, match="singular|degenerate"):
            hk.splot_matrix(model, data, ["x0"])

    def test_matches_bruteforce_accumulation(self):
        model, data = _fitted_toy()
        V = hk.splot_matrix(model, data, ["x0"])
        # independent accumulation from closed-form densities
        ps = model.param_set()
        x = np.asarray(data.column("x0"))
        lo, hi = RANGE
        mu, s, tau = ps["mean"].value, ps["sigma"].value, ps["tau"].value
        gn = 0.5 * (math.erf((hi - mu) / (s * math.sqrt(2)))
                    - math.erf((lo - mu) / (s * math.sqrt(2))))
        en = tau * (math.exp(-lo / tau) - math.exp(-hi / tau))
        p_sig = np.exp(-0.5 * ((x - mu) / s) ** 2) / (s * math.sqrt(2 * math.pi)) / gn
        p_bkg = np.exp(-x / tau) / en
        dens = ps["n_sig"].value * p_sig + ps["n_bkg"].value * p_bkg
        vinv = np.empty((2, 2))
        vinv[0, 0] = np.sum(p_sig * p_sig / dens**2)
        vinv[0, 1] = vinv[1, 0] = np.sum(p_sig * p_bkg / dens**2)
        vinv[1, 1] = np.sum(p_bkg * p_bkg / dens**2)
        ref = np.linalg.inv(vinv)
        assert np.max(np.abs((V - ref) / ref)) < 1e-8

    def test_symmetry(self):
        model, data = _fitted_toy(seed=74)
        V = hk.splot_matrix(model, data, ["x0"])
        assert abs(V[0, 1] - V[1, 0]) <= 1e-10 * abs(V[0, 1])

    def test_rejects_unfitted_yields(self):
        model = build_model(scale=0.1)
        data = generate_model_sample(model, hk.RngKey(75, 2))
        ps = model.param_set()
        ps["n_sig"].set(ps["n_sig"].value * 1.5)   # move far from stationarity
        with pytest.raises(ValueError, match="optimum"):
            hk.splot_matrix(model, data, ["x0"])

    def test_worker_count_bitwise_invariance(self):
        model, data = _fitted_toy(seed=76, scale=0.4)
        a = hk.splot_matrix(model, data, ["x0"], workers=1)
        b = hk.splot_matrix(model, data, ["x0"], workers=8)
        assert np.array_equal(a, b)


class TestWeights:
    def test_single_species_all_ones(self):
        g = hk.shape_gaussian(hk.Parameter("mean", 5.0), hk.Parameter("sigma", 0.5))
        region = hk.BoundedRegion((RANGE,))
        pdf = hk.make_pdf(g, hk.gaussian_norm(g), region)
        n = hk.Parameter("n", 1500.0, step=40.0, lower=0.0)
        model = hk.add_pdfs([n], [pdf])
        data = generate_model_sample(model, hk.RngKey(77, 2))
        hk.fit(model, data, ["x0"])
        V = hk.splot_matrix(model, data, ["x0"])
        table = hk.splot_weights(model, data, ["x0"], V)
        assert np.max(np.abs(table.column("sw_n") - 1.0)) < 1e-9

    def test_per_event_sums_and_yield_sums(self):
        model, data = _fitted_toy(seed=78)
        ps = model.param_set()
        V = hk.splot_matrix(model, data, ["x0"])
        table = hk.splot_weights(model, data, ["x0"], V)
        sw_sig = np.asarray(table.column("sw_n_sig"))
        sw_bkg = np.asarray(table.column("sw_n_bkg"))
        assert np.max(np.abs(sw_sig + sw_bkg - 1.0)) < 1e-9
        assert abs(np.sum(sw_sig) - ps["n_sig"].value) < 1e-6 * ps["n_sig"].value
        assert abs(np.sum(sw_bkg) - ps["n_bkg"].value) < 1e-6 * ps["n_bkg"].value

    def test_shape_validation(self):
        model, data = _fitted_toy(seed=79, scale=0.05)
        with pytest.raises(ValueError):
            hk.splot_weights(model, data, ["x0"], np.eye(3))

    def test_worker_count_bitwise_invariance(self):
        model, data = _fitted_toy(seed=80, scale=0.4)
        V = hk.splot_matrix(model, data, ["x0"])
        a = hk.splot_weights(model, data, ["x0"], V, workers=1)
        b = hk.splot_weights(model, data, ["x0"], V, workers=8)
        for name in a.schema.names:
            assert np.array_equal(a.column(name), b.column(name))


def test_weights_hold_only_what_a_batch_needs():
    # a batch keeps its pdfs, its density and their stack, not the rest of
    # the register file: a warm call on 1e5 events at one worker peaks at
    # about 4.0 MiB traced, 1.5 MiB of it the output; holding the whole
    # register file while stacking and dividing took 5.6 MiB
    model = build_model(scale=1.0)
    x = np.random.default_rng(5).uniform(*RANGE, size=100_000)
    data = hk.ColumnStore.from_columns(hk.ColumnSchema.real64("x0"), [x])
    V = np.array([[2.0, -0.5], [-0.5, 3.0]])
    hk.splot_weights(model, data, ["x0"], V, workers=1)
    tracemalloc.start()
    try:
        hk.splot_weights(model, data, ["x0"], V, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.1 * 2**20, f"peak {peak / 2**20:.2f} MiB"
