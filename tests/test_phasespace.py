import io
import math
import os
import tracemalloc

import numpy as np
import pytest

import hepkit as hk
from hepkit.kinematics import BelowThreshold
from hepkit.phasespace import PHSP_RANGE
from isolated import in_subprocess


def _daughter(block, k):
    return tuple(np.asarray(block.column(f"p{k}_{c}")) for c in ("e", "px", "py", "pz"))


def _total(block, n):
    parts = [_daughter(block, k) for k in range(1, n + 1)]
    return tuple(sum(p[i] for p in parts) for i in range(4))


def _mass(e, px, py, pz):
    return np.sqrt(np.maximum(e * e - px * px - py * py - pz * pz, 0.0))


class TestDecaySpec:
    def test_threshold_rejected(self):
        with pytest.raises(BelowThreshold):
            hk.DecaySpec(1.0, (0.5, 0.5))

    def test_needs_two_daughters(self):
        with pytest.raises(ValueError):
            hk.DecaySpec(1.0, (0.5,))

    @pytest.mark.parametrize("mother, daughters, message", [
        (math.inf, (0.5, 1.0), "mother mass inf is not finite"),
        (math.nan, (0.5, 1.0), "mother mass nan is not finite"),
        (5.0, (math.nan, 1.0), "daughter 1 mass nan is not finite"),
        (5.0, (0.5, 1.0, math.inf), "daughter 3 mass inf is not finite"),
    ])
    def test_non_finite_mass_rejected(self, mother, daughters, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            hk.DecaySpec(mother, daughters)


class TestGenerate:
    def test_two_body_weight_is_constant(self):
        spec = hk.DecaySpec(1.0, (0.3, 0.3))
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(1.0), 5000, hk.RngKey(1, 1))
        w = np.asarray(block.column("weight"))
        # closed-form two-body oracle
        expected = hk.breakup_momentum(1.0, 0.3, 0.3)
        assert np.all(np.abs(w - expected) <= 1e-12 * expected)
        assert float(np.var(w)) <= 1e-12 * expected**2

    def test_three_body_pair_mass_bounds(self):
        M, m1, m2, m3 = 1.0, 0.15, 0.2, 0.25
        spec = hk.DecaySpec(M, (m1, m2, m3))
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(M), 20_000, hk.RngKey(2, 1))
        d1, d2 = _daughter(block, 1), _daughter(block, 2)
        m12 = _mass(*(a + b for a, b in zip(d1, d2)))
        assert np.all(m12 >= m1 + m2 - 1e-9)
        assert np.all(m12 <= M - m3 + 1e-9)

    def test_conservation(self):
        spec = hk.DecaySpec(2.0, (0.3, 0.1, 0.4, 0.2))
        mother = hk.FourVector.at_rest(2.0)
        block = hk.phsp_generate(spec, mother, 10_000, hk.RngKey(3, 1))
        e, px, py, pz = _total(block, 4)
        tol = 1e-9 * mother.e
        assert np.max(np.abs(e - mother.e)) <= tol
        assert np.max(np.abs(px)) <= tol
        assert np.max(np.abs(py)) <= tol
        assert np.max(np.abs(pz)) <= tol

    def test_daughters_on_shell(self):
        masses = (0.3, 0.1, 0.4)
        spec = hk.DecaySpec(1.5, masses)
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(1.5), 10_000, hk.RngKey(4, 1))
        for k, m in enumerate(masses, start=1):
            dev = np.abs(_mass(*_daughter(block, k)) - m)
            assert np.max(dev) <= 1e-9 * max(m, 1e-6)

    def test_moving_mother(self):
        spec = hk.DecaySpec(1.0, (0.2, 0.2))
        beta, M = 0.8, 1.0
        gamma = 1.0 / math.sqrt(1 - beta * beta)
        mother = hk.FourVector(gamma * M, 0.0, 0.0, gamma * beta * M)
        block = hk.phsp_generate(spec, mother, 5000, hk.RngKey(5, 1))
        e, px, py, pz = _total(block, 2)
        tol = 1e-9 * mother.e
        assert np.max(np.abs(e - mother.e)) <= tol
        assert np.max(np.abs(pz - mother.pz)) <= tol

    def test_mother_mass_mismatch(self):
        spec = hk.DecaySpec(1.0, (0.2, 0.2))
        with pytest.raises(ValueError, match="does not match"):
            hk.phsp_generate(spec, hk.FourVector.at_rest(1.1), 10, hk.RngKey(6, 1))

    def test_key_that_would_wrap_is_rejected(self):
        # a 3-body event owns 5 counters: events from 2**64 // 5 on wrap
        spec = hk.DecaySpec(1.0, (0.1, 0.1, 0.1))
        mother = hk.FourVector.at_rest(1.0)
        last = (1 << 64) // 5
        hk.phsp_generate(spec, mother, 10, hk.RngKey(6, 1, counter=last - 10))
        for counter in (last - 9, -1):
            with pytest.raises(ValueError, match=r"wraps 2\*\*64$"):
                hk.phsp_generate(spec, mother, 10, hk.RngKey(6, 1, counter=counter))

    def test_worker_count_bitwise_invariance(self):
        spec = hk.DecaySpec(1.0, (0.1, 0.1, 0.1))
        mother = hk.FourVector.at_rest(1.0)
        a = hk.phsp_generate(spec, mother, 150_000, hk.RngKey(7, 1), workers=1)
        b = hk.phsp_generate(spec, mother, 150_000, hk.RngKey(7, 1), workers=8)
        for name in a.schema.names:
            assert np.array_equal(a.column(name), b.column(name))

    def test_isotropy_of_two_body_direction(self):
        spec = hk.DecaySpec(1.0, (0.2, 0.3))
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(1.0), 200_000, hk.RngKey(8, 1))
        e, px, py, pz = _daughter(block, 1)
        p = np.sqrt(px**2 + py**2 + pz**2)
        cos = pz / p
        # uniform cos(theta): mean 0 with sd 1/sqrt(3 n)
        assert abs(float(np.mean(cos))) < 5 / math.sqrt(3 * len(block))


class TestMaxWeight:
    def test_two_body_exact(self):
        spec = hk.DecaySpec(1.0, (0.3, 0.2))
        assert hk.phsp_max_weight(spec) == pytest.approx(
            hk.breakup_momentum(1.0, 0.3, 0.2), rel=1e-15
        )

    def test_bounds_empirical_maximum(self):
        spec = hk.DecaySpec(1.0, (0.1, 0.1, 0.1))
        bound = hk.phsp_max_weight(spec)
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(1.0), 1_000_000,
                                 hk.RngKey(9, 1), workers=2)
        assert float(np.max(block.column("weight"))) <= bound

    def test_threshold_spec_rejected(self):
        with pytest.raises(BelowThreshold):
            hk.phsp_max_weight(hk.DecaySpec(1.0, (0.6, 0.5)))


class TestUnweight:
    def test_all_at_ceiling_accepted(self):
        spec = hk.DecaySpec(1.0, (0.3, 0.3))
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(1.0), 2000, hk.RngKey(10, 1))
        w = float(block.column("weight")[0])
        out = hk.phsp_unweight(block, w, hk.RngKey(10, 4))
        assert len(out) == len(block)
        assert np.all(out.column("weight") == 1.0)

    def test_two_body_acceptance_is_one(self):
        spec = hk.DecaySpec(1.0, (0.2, 0.25))
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(1.0), 5000, hk.RngKey(11, 1))
        out = hk.phsp_unweight(block, hk.phsp_max_weight(spec), hk.RngKey(11, 4))
        assert len(out) == len(block)

    def test_ceiling_violation(self):
        spec = hk.DecaySpec(1.0, (0.1, 0.1, 0.1))
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(1.0), 1000, hk.RngKey(12, 1))
        w_max = float(np.max(block.column("weight"))) * 0.5
        with pytest.raises(ValueError, match="exceeds w_max"):
            hk.phsp_unweight(block, w_max, hk.RngKey(12, 4))

    def test_order_preserved(self):
        spec = hk.DecaySpec(1.0, (0.1, 0.1, 0.1))
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(1.0), 20_000, hk.RngKey(13, 1))
        out = hk.phsp_unweight(block, hk.phsp_max_weight(spec), hk.RngKey(13, 4))
        e_in = np.asarray(block.column("p1_e"))
        e_out = np.asarray(out.column("p1_e"))
        # accepted energies appear in their original relative order
        accepted = np.isin(e_in, e_out)
        assert np.array_equal(e_in[accepted], e_out)


class TestDecayChain:
    def test_chain_conservation(self):
        spec = hk.DecaySpec(2.0, (0.9, 0.3))
        mother = hk.FourVector.at_rest(2.0)
        block = hk.phsp_generate(spec, mother, 5000, hk.RngKey(14, 1))
        sub = hk.DecaySpec(0.9, (0.2, 0.3))
        chained = hk.phsp_decay_chain(block, 1, sub, hk.RngKey(15, 1))
        assert chained.schema.names[1:5] == ("p1_e", "p1_px", "p1_py", "p1_pz")
        e, px, py, pz = _total(chained, 3)
        tol = 1e-9 * mother.e
        assert np.max(np.abs(e - mother.e)) <= tol
        assert np.max(np.abs(px)) <= tol

    def test_two_body_chain_weight_product(self):
        spec = hk.DecaySpec(2.0, (0.9, 0.3))
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(2.0), 1000, hk.RngKey(16, 1))
        sub = hk.DecaySpec(0.9, (0.2, 0.3))
        chained = hk.phsp_decay_chain(block, 1, sub, hk.RngKey(17, 1))
        expected = hk.breakup_momentum(2.0, 0.9, 0.3) * hk.breakup_momentum(0.9, 0.2, 0.3)
        w = np.asarray(chained.column("weight"))
        assert np.all(np.abs(w - expected) <= 1e-12 * expected)

    def test_sub_daughters_on_shell(self):
        spec = hk.DecaySpec(2.0, (0.9, 0.3))
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(2.0), 2000, hk.RngKey(18, 1))
        sub = hk.DecaySpec(0.9, (0.2, 0.3))
        chained = hk.phsp_decay_chain(block, 1, sub, hk.RngKey(19, 1))
        for k, m in ((1, 0.2), (2, 0.3), (3, 0.3)):
            dev = np.abs(_mass(*_daughter(chained, k)) - m)
            assert np.max(dev) <= 1e-8 * max(m, 1e-6)

    def test_mass_mismatch_rejected(self):
        spec = hk.DecaySpec(2.0, (0.9, 0.3))
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(2.0), 100, hk.RngKey(20, 1))
        with pytest.raises(ValueError, match="does not match") as info:
            hk.phsp_decay_chain(block, 1, hk.DecaySpec(0.8, (0.2, 0.3)), hk.RngKey(21, 1))
        assert "np." not in str(info.value)    # plain numbers, not numpy reprs


class TestAverage:
    def _m12sq_builder(self, cols):
        e = cols["p1_e"] + cols["p2_e"]
        px = cols["p1_px"] + cols["p2_px"]
        py = cols["p1_py"] + cols["p2_py"]
        pz = cols["p1_pz"] + cols["p2_pz"]
        return (e * e - px * px - py * py - pz * pz,)

    def test_constant_function(self):
        spec = hk.DecaySpec(1.0, (0.1, 0.1, 0.1))
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(1.0), 1000, hk.RngKey(22, 1))
        one = hk.wrap_closure(lambda x, p: np.ones_like(np.asarray(x[0], dtype=float)))
        r = hk.phsp_average(one, block, lambda cols: (cols["weight"] * 0 + 1,))
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert r.error == pytest.approx(0.0, abs=1e-12)

    def test_weighted_vs_unweighted_consistency(self):
        spec = hk.DecaySpec(1.0, (0.1, 0.1, 0.1))
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(1.0), 400_000, hk.RngKey(23, 1))
        unweighted = hk.phsp_unweight(block, hk.phsp_max_weight(spec), hk.RngKey(23, 4))
        f = hk.identity()
        rw = hk.phsp_average(f, block, self._m12sq_builder)
        ru = hk.phsp_average(f, unweighted, self._m12sq_builder)
        sigma = math.hypot(rw.error, ru.error)
        assert abs(rw.value - ru.value) < 3 * sigma

    def test_empty_block_rejected(self):
        empty = hk.ColumnStore(hk.phsp_schema(2))
        with pytest.raises(ValueError, match="empty"):
            hk.phsp_average(hk.identity(), empty, lambda cols: (cols["weight"],))

    def test_worker_count_bitwise_invariance(self):
        spec = hk.DecaySpec(1.0, (0.1, 0.1, 0.1))
        block = hk.phsp_generate(spec, hk.FourVector.at_rest(1.0), 100_000, hk.RngKey(24, 1))
        f = hk.identity()
        a = hk.phsp_average(f, block, self._m12sq_builder, workers=1)
        b = hk.phsp_average(f, block, self._m12sq_builder, workers=8)
        assert a.value == b.value and a.error == b.error


# -- the streamed writer ---------------------------------------------------------


def test_streamed_bytes_are_the_in_memory_paths_at_1_2_and_8_workers():
    # hepkit phsp, to a file and to stdout, against phsp_generate ->
    # phsp_unweight -> write_csv; every call makes one _CsvText per worker
    # and none outlives it
    out = in_subprocess("""
        import contextlib, io, os, tempfile, weakref
        import hepkit as hk
        import hepkit.store as store
        from hepkit.cli import STREAM_PHASESPACE, STREAM_UNWEIGHT, main

        made = []
        init = store._CsvText.__init__

        def tracked(self, kinds):
            init(self, kinds)
            made.append(weakref.ref(self))

        store._CsvText.__init__ = tracked
        spec = hk.DecaySpec(1.0, (0.1, 0.1, 0.1))
        path = os.path.join(tempfile.mkdtemp(), "ev.csv")
        for n in (0, 1, 16383, 16384, 16385, 70001):
            for unweight in ([], ["--unweight"]):
                table = hk.phsp_generate(spec, hk.FourVector.at_rest(1.0), n,
                                         hk.RngKey(21, STREAM_PHASESPACE))
                if unweight:
                    table = hk.phsp_unweight(table, hk.phsp_max_weight(spec),
                                             hk.RngKey(21, STREAM_UNWEIGHT))
                want = table.to_csv()
                args = ["phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1,0.1",
                        "--events", str(n), "--seed", "21", *unweight]
                for w in (1, 2, 8):
                    made.clear()
                    stdout = io.StringIO()
                    with contextlib.redirect_stdout(stdout), \\
                            contextlib.redirect_stderr(io.StringIO()):
                        assert main([*args, "--workers", str(w), "--output", path]) == 0
                        assert main([*args, "--workers", str(w)]) == 0
                    with open(path) as fh:
                        written = fh.read()
                    ok = (written == want and stdout.getvalue() == want
                          and len(made) == 2 * w and all(r() is None for r in made))
                    print(n, bool(unweight), w, ok)
    """)
    lines = out.splitlines()
    assert len(lines) == 36 and all(line.endswith(" True") for line in lines), out


def _streamed_cli(*extra):
    return ["phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1,0.1", "--seed", "1",
            *extra]


@pytest.mark.parametrize("args, code, error", [
    (["phsp", "--mother-mass", "inf", "--masses", "0.5,1.0", "--events", "3",
      "--seed", "1"], 1, "error: mother mass inf is not finite"),
    (["phsp", "--mother-mass", "5.0", "--masses", "nan,1.0", "--events", "3",
      "--seed", "1"], 1, "error: daughter 1 mass nan is not finite"),
    (["phsp", "--mother-mass", "1.0", "--masses", "0.6,0.6", "--events", "3",
      "--seed", "1"], 1, "error: mother mass 1.0 is not above the daughter mass sum 1.2"),
    (_streamed_cli("--events", "-3", "--unweight"), 1, "error: event count -3 is negative"),
    (_streamed_cli("--events", "4000000000000000000", "--unweight"), 1,
     "error: counter 0 + 4000000000000000000 events x 5 draws wraps 2**64"),
    (["phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1", "--events",
      "10000000000000000000", "--seed", "1"], 1,
     "error: counter 0 + 10000000000000000000 events x 2 draws wraps 2**64"),
    (_streamed_cli("--events", "100", "--workers", "-1"), 1,
     "error: workers must be >= 0, got -1"),
    (_streamed_cli("--events", "100", "--seed", "-1"), 2,
     "usage error: --seed -1 is outside [0, 2**64)"),
])
def test_invalid_input_leaves_the_output_untouched(tmp_path, capsys, monkeypatch, args,
                                                 code, error):
    import hepkit.phasespace as phasespace
    from hepkit.cli import main

    def no_range(*args):
        raise AssertionError("a range was generated")

    # without the checks up front, 4e18 events would stream until the disk is full
    monkeypatch.setattr(phasespace, "phsp_generate", no_range)
    out = tmp_path / "ev.csv"
    out.write_bytes(b"kept\n")
    assert main([*args, "--output", str(out)]) == code
    captured = capsys.readouterr()
    assert [l for l in captured.err.splitlines() if not l.startswith("# ")] == [error]
    assert captured.out == "" and out.read_bytes() == b"kept\n"


def test_w_max_error_names_the_event_across_ranges(monkeypatch):
    import hepkit.phasespace as phasespace

    spec = hk.DecaySpec(1.0, (0.1, 0.1, 0.1))
    mother = hk.FourVector.at_rest(1.0)
    n = 4 * PHSP_RANGE
    key, unweight_key = hk.RngKey(25, 1), hk.RngKey(25, 4)
    table = hk.phsp_generate(spec, mother, n, key)
    w = table.column("weight")
    w_max = float(w[: PHSP_RANGE + 50].max())
    j = int(np.argmax(w > w_max))
    assert j > PHSP_RANGE + 50    # the first weight above w_max is in a later range
    with pytest.raises(ValueError) as in_memory:
        hk.phsp_unweight(table, w_max, unweight_key)
    monkeypatch.setattr(phasespace, "phsp_max_weight", lambda spec: w_max)
    with pytest.raises(ValueError) as streamed:
        hk.phsp_write_csv(io.StringIO(), spec, mother, n, key, unweight_key)
    assert str(streamed.value) == str(in_memory.value) == \
        f"event {j} weight {float(w[j])!r} exceeds w_max {w_max!r}"
    assert "np." not in str(streamed.value)


def test_huge_event_count_is_validated_without_a_run(monkeypatch):
    # 3e18 three-body events fit the counter span; the stream accepts them
    # and then stops at a destination that refuses the header, having
    # generated nothing (the in-memory path fails to allocate them)
    import hepkit.phasespace as phasespace

    class Refused(Exception):
        pass

    class Refusing(io.StringIO):
        def write(self, text):
            raise Refused

    generated = []
    monkeypatch.setattr(phasespace, "phsp_generate", lambda *a: generated.append(a))
    spec = hk.DecaySpec(1.0, (0.1, 0.1, 0.1))
    with pytest.raises(Refused):
        hk.phsp_write_csv(Refusing(), spec, hk.FourVector.at_rest(1.0), 3 * 10**18,
                          hk.RngKey(1, 1), hk.RngKey(1, 4), workers=8)
    assert generated == []


def test_warm_streamed_write_peaks_the_same_at_4e5_events_as_at_1e5():
    # one range and its writer scratch at a time, at one worker: the traced
    # peak (about 18.5 MiB) does not grow with the event count; the
    # in-memory path holds 104 bytes a generated event for the table alone
    spec = hk.DecaySpec(1.0, (0.1, 0.1, 0.1))
    mother = hk.FourVector.at_rest(1.0)

    def stream(n):
        hk.phsp_write_csv(os.devnull, spec, mother, n, hk.RngKey(26, 1), hk.RngKey(26, 4))

    stream(100_000)
    peaks = {}
    for n in (100_000, 400_000):
        tracemalloc.start()
        try:
            stream(n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400_000] <= peaks[100_000] + 2 * 2**20, \
        {n: f"{p / 2**20:.2f} MiB" for n, p in peaks.items()}
