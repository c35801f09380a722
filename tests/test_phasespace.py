import math

import numpy as np
import pytest

import hepkit as hk
from hepkit.kinematics import BelowThreshold


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
        with pytest.raises(ValueError, match="does not match"):
            hk.phsp_decay_chain(block, 1, hk.DecaySpec(0.8, (0.2, 0.3)), hk.RngKey(21, 1))


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
