"""Golden bytes: every fixed-order sum pinned to its exact floating-point value.

The worker-invariance tests elsewhere compare one worker count with
another, so a rounding change that moves every count alike passes them.
These pin the results of the reductions (plain MC, VEGAS, the phase-space
average, the fit and the sPlot matrix), of the boost core and of 5-body
generation, as hex
floats or a digest of the raw column bytes.  All but the sPlot matrix
(see ``SPLOT_V_LOOP``) are the values of the per-chunk loop reductions
that ``parallel.chunk_sums`` and ``parallel.fold`` replaced.

The values also depend on numpy's elementwise kernels (exp, log, sin,
cos). They were recorded with numpy 2.4.6 on an x86-64 host with AVX-512;
a numpy build whose kernels round differently needs them re-recorded.
"""

import hashlib

import numpy as np
import pytest

import hepkit as hk
from hepkit.cli import build_integrand
from hepkit.rng import raw64
from toymodel import build_model

WORKERS = (1, 2, 8)

GOLDEN = {
    "plain_mc": [
        "0x1.d85975c622eb6p-1", "0x1.447e3eaf8e462p-8",
    ],
    "vegas": [
        "0x1.dc5389e34390ep-1", "0x1.b64857927e436p-11", "0x1.ab699e92cef35p+0",
        "0x0.0p+0", "0x1.35c08aa0ddf8fp-3", "0x1.f2a364e086e91p-3",
        "0x1.38891b45851d5p-2", "0x1.6e73b7505bb3ep-2", "0x1.a40ed827825d4p-2",
        "0x1.d8249118a1148p-2", "0x1.093f755795205p-1", "0x1.2abb12480c01ap-1",
        "0x1.648cf25f4fdbcp-1", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x1.34c6bb6d4f0fap-3", "0x1.f2326880d0b18p-3", "0x1.383dbada5fe73p-2",
        "0x1.6e56e5e958ee5p-2", "0x1.a40d4a1107f8dp-2", "0x1.d7ffe73eeedb3p-2",
        "0x1.093c7e0ccdf14p-1", "0x1.2a9b76b42c563p-1", "0x1.64812e20ae623p-1",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.336c69e93ca60p-3",
        "0x1.f145845217251p-3", "0x1.3793fc7fdbde1p-2", "0x1.6dbaf69e0ea26p-2",
        "0x1.a39ecb326b6e6p-2", "0x1.d76b56a3d7261p-2", "0x1.08d6003d5d8d3p-1",
        "0x1.2a48d1444c8d0p-1", "0x1.63d3ca1fa24cdp-1", "0x1.0000000000000p+0",
    ],
    "phsp_average": [
        "0x1.1196322bc0dd6p-2", "0x1.68809de00deadp-12",
    ],
    "fit_params": [
        "0x1.d5d60da8a2084p+14", "0x1.4000a8a2b7c1ep+2", "0x1.0127df2e4fa4cp-1",
        "0x1.5ebaf92baeb52p+15", "0x1.808d4b9aa7550p+1",
    ],
    "splot_V": [
        "0x1.2a0cdb12e0c04p+15", "-0x1.f91f19e79b84cp+12", "-0x1.f91f19e79b84bp+12",
        "0x1.9de0eb67061dep+15",
    ],
    # both digests follow the rounding of lambda in ``kinematics.breakup``
    "phsp_moving_sha256": "b85f7825b346c8dbb539586a5dd8afd7d2845d0a6974ac6acde84d80e1240228",
    "decay_chain_sha256": "de9c55484b61980c74ecae1a81603cace777c62e183048b45d68a0137f3b4907",
    # three sorted mass draws per event, across a batch boundary
    "phsp_five_body_sha256": "409ee032d02592a4cf0ff2d5237f362ee70afb3f5d65bdd90996e86af7392004",
}

# The parameters V is computed at: this toy's fit as the Nelder-Mead
# simplex left it, pinned so that V keeps the bits recorded for it.
SPLOT_AT = [
    "0x1.d5d1efabdaa18p+14", "0x1.3ffd1ab0d035cp+2", "0x1.0127a04065eccp-1",
    "0x1.5ebd082a12adep+15", "0x1.80a6cee7634ecp+1",
]

# The one recorded value that moved.  sPlot's V^-1 is now the r^T r moment
# of the fit's likelihood pass, whose density is the left fold of
# N_k pdf_k; the loop it replaced used the BLAS product p @ yields, which
# rounds differently on 3.9% of this toy's events.  V moved by at most
# 2 ulp per entry from the loop's value, recorded here.
SPLOT_V_LOOP = [
    "0x1.2a0cdb12e0c03p+15", "-0x1.f91f19e79b84ap+12", "-0x1.f91f19e79b84ap+12",
    "0x1.9de0eb67061dep+15",
]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _integrand():
    return build_integrand("gauss", {"mean": 0.4, "sigma": 0.2}, 3)


def plain_mc_golden(workers: int) -> list[str]:
    # a 65 536-call batch and a second one ending mid-chunk
    r = hk.plain_mc(_integrand(), hk.BoundedRegion.cube(0.0, 1.0, 3),
                    77_947, hk.RngKey(5, stream=3), workers=workers)
    return _hex([r.value, r.error])


def vegas_golden(workers: int) -> list[str]:
    r, grid = hk.vegas(_integrand(), hk.BoundedRegion.cube(0.0, 1.0, 3),
                       66_537, hk.RngKey(6, stream=3),
                       iterations=5, bins=10, workers=workers)
    return _hex([r.value, r.error, r.chi2_per_dof]) + _hex(np.concatenate(grid.edges))


def _m12sq(cols):
    e = cols["p1_e"] + cols["p2_e"]
    px = cols["p1_px"] + cols["p2_px"]
    py = cols["p1_py"] + cols["p2_py"]
    pz = cols["p1_pz"] + cols["p2_pz"]
    return (e * e - px * px - py * py - pz * pz,)


def phsp_average_golden(workers: int) -> list[str]:
    spec = hk.DecaySpec(1.0, (0.1, 0.2, 0.3))
    block = hk.phsp_generate(spec, hk.FourVector.at_rest(1.0),
                             73_805, hk.RngKey(24, 1))
    r = hk.phsp_average(hk.identity(), block, _m12sq, workers=workers)
    return _hex([r.value, r.error])


def _splot_toy():
    """A two-batch Gaussian+exponential sample and its model.

    The sample is drawn as ``generate_model_sample`` drew it before its keys
    became ``RngKey.child`` keys: component c's count from a numpy Philox
    keyed by two hepkit words, its events at counter (c + 1) << 32.  The
    recorded values are of this sample.
    """
    model = build_model(scale=1.5)
    key = hk.RngKey(71, 2)
    parts = []
    for c, (y, pdf) in enumerate(model.components):
        words = raw64(key, np.arange(2, dtype=np.uint64) + np.uint64(2 * c))
        gen = np.random.Generator(np.random.Philox(key=[int(words[0]), int(words[1])]))
        count = int(gen.poisson(y.value))
        part = hk.sample_pdf(pdf.shape, pdf.region, count, key.at((c + 1) << 32), workers=2)
        parts.append(part.column("x0"))
    return model, hk.ColumnStore.from_columns(hk.ColumnSchema.real64("x0"),
                                              [np.concatenate(parts)])


def fit_params_golden(model, data, workers: int) -> list[str]:
    hk.fit(model, data, ["x0"], workers=workers)
    return _hex([p.value for p in model.param_set()])


def splot_V_golden(model, data, workers: int) -> list[str]:
    model.param_set().set_values([float.fromhex(h) for h in SPLOT_AT])
    return _hex(hk.splot_matrix(model, data, ["x0"], workers=workers))


def _digest(block) -> str:
    h = hashlib.sha256()
    for name in block.schema.names:
        h.update(np.ascontiguousarray(block.column(name)).tobytes())
    return h.hexdigest()


def phsp_moving_golden(workers: int) -> str:
    spec = hk.DecaySpec(3.0, (0.5, 1.0, 0.2))
    mother = hk.FourVector(23.0 ** 0.5, 1.0, -2.0, 3.0)    # mass 3, gamma 1.6
    return _digest(hk.phsp_generate(spec, mother, 5000, hk.RngKey(40, 1), workers=workers))


def decay_chain_golden(workers: int) -> str:
    spec = hk.DecaySpec(3.0, (0.5, 1.0, 0.2))
    block = hk.phsp_generate(spec, hk.FourVector.at_rest(3.0), 5000, hk.RngKey(41, 1))
    sub = hk.DecaySpec(1.0, (0.2, 0.3, 0.1))
    return _digest(hk.phsp_decay_chain(block, 2, sub, hk.RngKey(42, 1), workers=workers))


def phsp_five_body_golden(workers: int) -> str:
    spec = hk.DecaySpec(5.0, (0.1, 0.2, 0.3, 0.4, 0.5))
    return _digest(hk.phsp_generate(spec, hk.FourVector.at_rest(5.0), 70_000,
                                    hk.RngKey(43, 1), workers=workers))


@pytest.mark.parametrize("workers", WORKERS)
def test_plain_mc(workers):
    assert plain_mc_golden(workers) == GOLDEN["plain_mc"]


@pytest.mark.parametrize("workers", WORKERS)
def test_vegas(workers):
    assert vegas_golden(workers) == GOLDEN["vegas"]


@pytest.mark.parametrize("workers", WORKERS)
def test_phsp_average(workers):
    assert phsp_average_golden(workers) == GOLDEN["phsp_average"]


def test_fit_and_splot_matrix():
    model, data = _splot_toy()
    assert len(data) > 65_536
    assert fit_params_golden(model, data, 1) == GOLDEN["fit_params"]
    for workers in WORKERS:
        assert splot_V_golden(model, data, workers) == GOLDEN["splot_V"]
    now, loop = (np.array([float.fromhex(h) for h in v]) for v in (GOLDEN["splot_V"], SPLOT_V_LOOP))
    assert np.max(np.abs(now.view(np.int64) - loop.view(np.int64))) <= 2


@pytest.mark.parametrize("workers", WORKERS)
def test_boosted_generation(workers):
    assert phsp_moving_golden(workers) == GOLDEN["phsp_moving_sha256"]
    assert decay_chain_golden(workers) == GOLDEN["decay_chain_sha256"]


@pytest.mark.parametrize("workers", WORKERS)
def test_five_body_generation(workers):
    assert phsp_five_body_golden(workers) == GOLDEN["phsp_five_body_sha256"]
