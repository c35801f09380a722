import math
import pathlib
import re

import numpy as np
import pytest
import scipy.stats

import hepkit as hk
from hepkit import rng
from hepkit.rng import CeilingError, poisson_deviate, uniform_array


class TestUniform:
    def test_deterministic(self):
        key = hk.RngKey(123, stream=0, counter=42)
        assert hk.uniform(key) == hk.uniform(key)

    def test_distinct_counters_differ(self):
        key = hk.RngKey(123)
        assert hk.uniform(key.at(0)) != hk.uniform(key.at(1))

    def test_stream_separation(self):
        n = 1000
        idx = np.arange(n, dtype=np.uint64)
        a = uniform_array(hk.RngKey(5, stream=0), idx)
        b = uniform_array(hk.RngKey(5, stream=1), idx)
        assert not np.array_equal(a, b)
        assert np.mean(a != b) > 0.99

    def test_mean_of_1e6_draws(self):
        # CLT: sd of the mean is 1/sqrt(12 n) ~ 2.9e-4; 0.002 is about 7 sigma
        u = uniform_array(hk.RngKey(2024), np.arange(1_000_000, dtype=np.uint64))
        assert abs(float(np.mean(u)) - 0.5) < 0.002

    def test_range(self):
        u = uniform_array(hk.RngKey(1), np.arange(100_000, dtype=np.uint64))
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_counter_offset_consistency(self):
        key = hk.RngKey(9, stream=2)
        direct = hk.uniform(key.at(1000))
        shifted = uniform_array(key.at(990), np.array([10], dtype=np.uint64))[0]
        assert direct == shifted


class TestChildKeys:
    def test_same_stream_at_counter_zero(self):
        key = hk.RngKey(5, stream=3, counter=17)
        child = key.child(4)
        assert (child.stream, child.counter) == (3, 0)
        assert child == key.child(4) and child.seed != key.seed

    def test_injective_in_tag_and_in_counter(self):
        key = hk.RngKey(6, 2)
        assert len({key.child(t).seed for t in range(5000)}) == 5000
        assert len({key.at(c).child(1).seed for c in range(5000)}) == 5000
        # counters that wrap a multiplied layout, as t << 40 times 2**16 did
        assert len({key.at(t << 40).child(0).seed for t in range(1024)}) == 1024

    def test_toy_and_cli_keys_start_2_32_apart(self):
        # A key's draws are mix(base + counter * G), so counter c of the key at
        # position base * G^-1 (mod 2**64) is the state at position + c.  These
        # 4005 keys (1000 toys x 2 components x count/sample, plus the five
        # CLI streams) are pairwise at least 2**32 positions apart, so each
        # can draw 2**32 counters without meeting another.  N uniformly
        # random positions fail this with probability about
        # N (N - 1) 2**32 / 2**64 = 3.7e-3; these are fixed, so it passes or
        # fails deterministically.
        g_inv = pow(int(rng._GOLDEN), -1, 1 << 64)
        toys = [hk.RngKey(6, 2).child(t).child(c).child(k)
                for t in range(1000) for c in range(2) for k in range(2)]
        keys = toys + [hk.RngKey(6, s) for s in range(5)]
        pos = sorted(int(rng._base(k.seed, k.stream)) * g_inv % (1 << 64) for k in keys)
        gaps = [b - a for a, b in zip(pos, pos[1:] + [pos[0] + (1 << 64)])]
        assert len(keys) == 4005 and min(gaps) >= 1 << 32


class TestPoissonDeviate:
    def test_zero_mean_gives_zero(self):
        assert {poisson_deviate(hk.RngKey(1).child(i), 0.0) for i in range(100)} == {0}

    @pytest.mark.parametrize("lam", [-1.0, math.inf, math.nan])
    def test_rejects_a_bad_mean(self, lam):
        with pytest.raises(ValueError, match="Poisson mean"):
            poisson_deviate(hk.RngKey(1), lam)

    @pytest.mark.parametrize("lam, n", [(0.5, 20_000), (7.0, 20_000), (4000.0, 4000)])
    def test_chi2_goodness_of_fit(self, lam, n):
        # n draws, one child key each, binned at up to 20 Poisson quantiles;
        # each of the three tests fails a correct draw with probability
        # alpha = 1e-3 / 3, so 1e-3 over all three
        key = hk.RngKey(2026, stream=0)
        k = np.array([poisson_deviate(key.child(i), lam) for i in range(n)])
        edges = np.unique(scipy.stats.poisson.ppf(np.linspace(0, 1, 21)[1:-1], lam))
        cdf = np.append(scipy.stats.poisson.cdf(edges, lam), 1.0)
        expected = n * np.diff(np.insert(cdf, 0, 0.0))
        observed = np.bincount(np.searchsorted(edges, k), minlength=len(expected))
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert np.min(expected) >= 5
        assert scipy.stats.chi2.sf(stat, len(expected) - 1) > 1e-3 / 3


class TestGaussianDeviate:
    def test_deterministic(self):
        key = hk.RngKey(77, counter=5)
        assert hk.gaussian_deviate(key) == hk.gaussian_deviate(key)

    def test_moments_of_1e6_draws(self):
        from hepkit.rng import gaussian_array

        z = gaussian_array(hk.RngKey(31), np.arange(1_000_000, dtype=np.uint64))
        assert abs(float(np.var(z)) - 1.0) < 0.01
        skew = float(np.mean(z**3))
        assert abs(skew) < 0.01

    def test_mean(self):
        from hepkit.rng import gaussian_array

        z = gaussian_array(hk.RngKey(32), np.arange(1_000_000, dtype=np.uint64))
        assert abs(float(np.mean(z))) < 0.005

    @pytest.mark.parametrize("k", [1, 2, 7, 1 << 40])
    def test_key_at_counter_k_draws_deviates_k_on(self, k):
        from hepkit.rng import gaussian_array

        key = hk.RngKey(5, 2)
        idx = np.arange(20, dtype=np.uint64)
        whole = gaussian_array(key, idx + np.uint64(k))
        assert np.array_equal(gaussian_array(key.at(k), idx), whole)
        assert [hk.gaussian_deviate(key.at(k + i)) for i in range(20)] == whole.tolist()

    def test_wrapping_span_rejected(self):
        from hepkit.rng import gaussian_array

        with pytest.raises(ValueError, match="wraps 2\\*\\*64"):
            gaussian_array(hk.RngKey(5, counter=1 << 63), np.zeros(1, dtype=np.uint64))


class TestBoundedRegion:
    def test_validation(self):
        with pytest.raises(ValueError):
            hk.BoundedRegion(((1.0, 1.0),))
        with pytest.raises(ValueError):
            hk.BoundedRegion(())

    @pytest.mark.parametrize("bounds, error", [
        (((0.0, math.inf),), "dimension 0: upper bound inf is not finite"),
        (((0.0, 1.0), (-math.inf, 1.0)), "dimension 1: lower bound -inf is not finite"),
        (((math.nan, 1.0),), "dimension 0: lower bound nan is not finite"),
    ])
    def test_non_finite_bound_named(self, bounds, error):
        with pytest.raises(ValueError) as info:
            hk.BoundedRegion(bounds)
        assert str(info.value) == error

    def test_volume(self):
        r = hk.BoundedRegion(((0.0, 2.0), (-1.0, 1.0)))
        assert r.volume() == 4.0


class TestSamplePdf:
    def test_constant_density_accepts_everything(self):
        flat = hk.wrap_closure(lambda x, p: np.ones_like(np.asarray(x[0], dtype=float)))
        region = hk.BoundedRegion(((0.0, 1.0),))
        out = hk.sample_pdf(flat, region, 10_000, hk.RngKey(3, 0), ceiling=1.0)
        x = out.column("x0")
        assert len(out) == 10_000
        # uniformity smoke: mean of U(0,1), sd of mean ~ 0.0029
        assert abs(float(np.mean(x)) - 0.5) < 0.012

    def test_gaussian_sample_mean(self):
        g = hk.shape_gaussian(hk.Parameter("mean", 0.0), hk.Parameter("sigma", 1.0))
        region = hk.BoundedRegion(((-6.0, 6.0),))
        out = hk.sample_pdf(g, region, 1_000_000, hk.RngKey(8, 0))
        assert abs(float(np.mean(out.column("x0")))) < 0.004

    def test_ceiling_violation_reported(self):
        g = hk.shape_gaussian(hk.Parameter("mean", 0.0), hk.Parameter("sigma", 1.0))
        region = hk.BoundedRegion(((-6.0, 6.0),))
        with pytest.raises(CeilingError, match="exceeds ceiling") as info:
            hk.sample_pdf(g, region, 1000, hk.RngKey(4, 0), ceiling=0.2)
        assert "np." not in str(info.value)    # plain numbers, not numpy reprs

    def test_worker_count_bitwise_invariance(self):
        g = hk.shape_gaussian(hk.Parameter("mean", 0.5), hk.Parameter("sigma", 0.3))
        region = hk.BoundedRegion(((-2.0, 3.0),))
        a = hk.sample_pdf(g, region, 150_000, hk.RngKey(6, 0), workers=1)
        b = hk.sample_pdf(g, region, 150_000, hk.RngKey(6, 0), workers=8)
        assert np.array_equal(a.column("x0"), b.column("x0"))

    def test_kolmogorov_smirnov_against_normal_cdf(self):
        # 99% confidence band: D < 1.63 / sqrt(n)
        n = 100_000
        g = hk.shape_gaussian(hk.Parameter("mean", 0.0), hk.Parameter("sigma", 1.0))
        region = hk.BoundedRegion(((-6.0, 6.0),))
        x = np.sort(np.asarray(hk.sample_pdf(g, region, n, hk.RngKey(12, 0)).column("x0")))
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        dist = max(float(np.max(ecdf_hi - cdf)), float(np.max(cdf - ecdf_lo)))
        assert dist < 1.63 / math.sqrt(n)

    def test_key_that_would_wrap_is_rejected(self):
        # each event owns 2**16 proposal counters: events from 2**48 on wrap
        flat = hk.wrap_closure(lambda x, p: np.ones_like(np.asarray(x[0], dtype=float)))
        region = hk.BoundedRegion(((0.0, 1.0),))
        hk.sample_pdf(flat, region, 10, hk.RngKey(3, 0, counter=(1 << 48) - 10), ceiling=1.0)
        for counter in ((1 << 48) - 9, 1 << 48, -1):
            with pytest.raises(ValueError, match=r"wraps 2\*\*64$"):
                hk.sample_pdf(flat, region, 10, hk.RngKey(3, 0, counter=counter), ceiling=1.0)

    def test_dimension_mismatch(self):
        g = hk.shape_gaussian(hk.Parameter("mean", 0.0), hk.Parameter("sigma", 1.0))
        with pytest.raises(ValueError):
            hk.sample_pdf(g, hk.BoundedRegion.cube(0, 1, 2), 10, hk.RngKey(1, 0))


# ---------------------------------------------------------------------------
# one counter-addressing rule: event e of a bulk call at ``key`` owns the
# counters (key.counter + e) * width + [0, width)

def _flat(x, p):
    return np.ones_like(np.asarray(x[0], dtype=float))


_UNIT = hk.BoundedRegion(((0.0, 1.0),))
_SPEC = hk.DecaySpec(3.0, (0.5, 1.0, 0.2))


def _chain(key, n):
    block = hk.phsp_generate(_SPEC, hk.FourVector.at_rest(3.0), 5, hk.RngKey(1, 1))
    return hk.phsp_decay_chain(block, 2, hk.DecaySpec(1.0, (0.2, 0.3)), key)


def _unweight(key, n):
    block = hk.phsp_generate(_SPEC, hk.FourVector.at_rest(3.0), 5, hk.RngKey(1, 1))
    return hk.phsp_unweight(block, hk.phsp_max_weight(_SPEC), key)


# each bulk entry as a call of (key, event count); the two that decay a
# fixed 5-event block have no count of their own to make negative
BULK = {
    "plain_mc": lambda key, n: hk.plain_mc(hk.wrap_closure(_flat), _UNIT, n, key),
    "vegas": lambda key, n: hk.vegas(hk.wrap_closure(_flat), _UNIT, n, key,
                                     iterations=2, bins=1),
    "sample_pdf": lambda key, n: hk.sample_pdf(hk.wrap_closure(_flat), _UNIT, n, key,
                                               ceiling=1.0),
    "phsp_generate": lambda key, n: hk.phsp_generate(_SPEC, hk.FourVector.at_rest(3.0),
                                                     n, key),
    "phsp_decay_chain": _chain,
    "phsp_unweight": _unweight,
    "poisson_deviate": lambda key, n: poisson_deviate(key, float(n)),
}
COUNTED = ["plain_mc", "vegas", "sample_pdf", "phsp_generate", "poisson_deviate"]
WRAPS = r"^counter -?\d+ \+ \d+ events x \d+ draws wraps 2\*\*64$"


@pytest.mark.parametrize("entry", sorted(BULK))
def test_bulk_entry_rejects_a_wrapping_key(entry):
    BULK[entry](hk.RngKey(9, 1), 10)
    for counter in ((1 << 64) - 2, -1):
        with pytest.raises(ValueError, match=WRAPS):
            BULK[entry](hk.RngKey(9, 1, counter=counter), 10)


@pytest.mark.parametrize("entry", COUNTED)
def test_bulk_entry_rejects_a_negative_count(entry):
    with pytest.raises(ValueError) as info:
        BULK[entry](hk.RngKey(9, 1), -3)
    assert "-3" in str(info.value) and "\n" not in str(info.value)


def test_check_span_names_a_negative_count():
    with pytest.raises(ValueError, match=r"^event count -1 is negative$"):
        rng.check_span(hk.RngKey(1), -1, 5)
    rng.check_span(hk.RngKey(1, counter=(1 << 64) // 5 - 3), 3, 5)
    with pytest.raises(ValueError, match=r"wraps 2\*\*64$"):
        rng.check_span(hk.RngKey(1, counter=(1 << 64) // 5 - 3), 4, 5)


def test_event_uniforms_addresses_event_blocks():
    key = hk.RngKey(4, 2, counter=7)
    events = np.array([0, 3, 11])
    u = rng.event_uniforms(key, events, 6, first=2, count=3)
    want = uniform_array(key.at(0), (7 + events[:, None]) * 6 + np.arange(2, 5))
    assert u.shape == (3, 3) and np.array_equal(u, want)
    assert np.array_equal(rng.event_uniforms(key, events, 6),
                          rng.event_uniforms(key.at(0), events + 7, 6))


def test_skipped_key_starts_at_a_later_event():
    key = hk.RngKey(4, 2, counter=7)
    events = np.array([0, 3, 11])
    assert key.skip(5) == hk.RngKey(4, 2, counter=12)
    assert np.array_equal(rng.event_uniforms(key.skip(5), events, 6),
                          rng.event_uniforms(key, events + 5, 6))


K, N = 64_000, 3_000    # the shifted calls cross the 65 536-event batch boundary


def test_phsp_generate_at_counter_k_is_events_k_on():
    mother = hk.FourVector.at_rest(3.0)
    whole = hk.phsp_generate(_SPEC, mother, K + N, hk.RngKey(8, 1))
    part = hk.phsp_generate(_SPEC, mother, N, hk.RngKey(8, 1, counter=K), workers=2)
    for name in whole.schema.names:
        assert whole.column(name)[K:].tobytes() == part.column(name).tobytes(), name


def test_sample_pdf_at_counter_k_is_events_k_on():
    g = hk.shape_gaussian(hk.Parameter("mean", 0.5), hk.Parameter("sigma", 0.3))
    region = hk.BoundedRegion(((-2.0, 3.0),))
    whole = hk.sample_pdf(g, region, K + N, hk.RngKey(8, 0))
    part = hk.sample_pdf(g, region, N, hk.RngKey(8, 0, counter=K), workers=2)
    assert whole.column("x0")[K:].tobytes() == part.column("x0").tobytes()


def test_phsp_unweight_at_counter_k_is_events_k_on():
    schema = hk.ColumnSchema.real64("weight", "i")
    weight = np.random.default_rng(3).uniform(0.0, 1.0, K + N)
    index = np.arange(K + N, dtype=float)
    whole = hk.phsp_unweight(hk.ColumnStore.from_columns(schema, [weight, index]),
                             1.0, hk.RngKey(8, 4))
    part = hk.phsp_unweight(hk.ColumnStore.from_columns(schema, [weight[K:], index[K:]]),
                            1.0, hk.RngKey(8, 4, counter=K), workers=2)
    kept = whole.column("i")
    assert np.array_equal(kept[kept >= K], part.column("i"))
    assert 0.4 * N < len(part) < 0.6 * N


# Counters are built in rng.py alone: elsewhere in the package a raw
# primitive call, a counter-0 key or arithmetic on a key's counter is a
# hand-made counter grid.
_FORBIDDEN = {
    "raw primitive": re.compile(r"\b(?:uniform_array|raw64)\("),
    "counter-0 key": re.compile(r"\.at\(0\)"),
    "counter arithmetic": re.compile(
        r"[-+*/%]\s*(?:\w+\()?\w+\.counter\b|\b\w+\.counter\s*\)?\s*[-+*/%]"),
}


def test_guard_patterns_catch_hand_made_counters():
    lines = [
        "base = (ev + _u64(key.counter)) * np.uint64(D)",
        "return uniform_array(key.at(0), base + np.uint64(offset))",
        "u = uniform_array(key, np.arange(a, b, dtype=np.uint64))",
        "first = key.counter * width",
        "words = raw64(key, idx)",
    ]
    for line in lines:
        assert any(p.search(line) for p in _FORBIDDEN.values()), line
    assert not any(p.search("u = event_uniforms(key, ev, D, offset, 1)[:, 0]")
                   for p in _FORBIDDEN.values())


def test_no_counters_built_outside_rng():
    src = pathlib.Path(hk.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "rng.py":
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            found += [f"{path.name}:{n}: {what}: {line.strip()}"
                      for what, p in _FORBIDDEN.items() if p.search(line)]
    assert found == []
