import math

import numpy as np
import pytest

import hepkit as hk
from hepkit.kinematics import BelowThreshold, NonPhysical, boost, breakup


class TestInvariantMass:
    def test_rest_frame(self):
        assert hk.invariant_mass(hk.FourVector(1.0, 0, 0, 0)) == 1.0

    def test_3_4_5_identity(self):
        assert hk.invariant_mass(hk.FourVector(5.0, 0, 0, 4.0)) == 3.0

    def test_massless(self):
        assert hk.invariant_mass(hk.FourVector(1.0, 0, 0, 1.0)) == 0.0

    def test_spacelike_raises(self):
        with pytest.raises(NonPhysical):
            hk.invariant_mass(hk.FourVector(1.0, 0, 0, 2.0))

    def test_small_negative_within_tolerance(self):
        # rounding-level negative m^2 clamps to zero instead of raising
        e = 10.0
        p = math.sqrt(e * e + 1e-10 * e * e)  # m^2 = -1e-10 e^2, inside 1e-9
        assert hk.invariant_mass(hk.FourVector(e, 0, 0, p)) == 0.0


class TestKallen:
    def test_simple_points(self):
        assert hk.kallen(1, 0, 0) == 1.0
        assert hk.kallen(1, 1, 1) == -3.0

    def test_threshold_point(self):
        # direct polynomial evaluation: 16+1+1 - 2*(4+1+4) = 0
        assert hk.kallen(4, 1, 1) == 0.0

    @pytest.mark.parametrize("perm", [(0, 1, 2), (0, 2, 1), (1, 0, 2),
                                      (1, 2, 0), (2, 0, 1), (2, 1, 0)])
    def test_permutation_invariance(self, perm):
        rng = np.random.default_rng(7)
        for _ in range(50):
            args = tuple(rng.uniform(-5, 5, size=3))
            shuffled = tuple(args[i] for i in perm)
            assert hk.kallen(*shuffled) == pytest.approx(hk.kallen(*args), rel=1e-12, abs=1e-12)


class TestBreakupMomentum:
    def test_threshold_is_exactly_zero(self):
        assert hk.breakup_momentum(1.0, 0.5, 0.5) == 0.0

    def test_massless_daughters(self):
        assert hk.breakup_momentum(1.0, 0.0, 0.0) == 0.5

    def test_against_lambda_formula(self):
        # frozen from an independent evaluation of sqrt(lambda)/(2M)
        assert hk.breakup_momentum(2.0, 0.5, 0.3) == pytest.approx(
            0.9119210492142398, rel=1e-15
        )

    def test_symmetric_in_daughters(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m1, m2 = rng.uniform(0.0, 0.4, size=2)
            M = m1 + m2 + rng.uniform(0.01, 2.0)
            assert hk.breakup_momentum(M, m1, m2) == hk.breakup_momentum(M, m2, m1)

    def test_below_threshold_raises(self):
        with pytest.raises(BelowThreshold):
            hk.breakup_momentum(0.9, 0.5, 0.5)

    def test_is_the_array_core_on_one_element(self):
        # phase space runs the core on columns; it must give the checked
        # scalar's bits, be bitwise symmetric in the daughters, and be 0
        # at threshold
        rng = np.random.default_rng(12)
        m1, m2 = rng.uniform(0.0, 0.4, size=(2, 1000))
        M = m1 + m2 + rng.uniform(0.01, 2.0, size=1000)
        core = breakup(M, m1, m2)
        assert np.array_equal(core, breakup(M, m2, m1))
        assert [float(p).hex() for p in core] == [
            hk.breakup_momentum(*args).hex() for args in zip(M, m1, m2)
        ]
        assert np.all(breakup(np.array([1.0, 0.7, 2.0]), np.array([0.5, 0.3, 1.5]),
                              np.array([0.5, 0.4, 0.5])) == 0.0)


def _random_timelike(rng):
    m = rng.uniform(0.1, 3.0)
    p = rng.uniform(-2.0, 2.0, size=3)
    e = math.sqrt(m * m + float(p @ p))
    return hk.FourVector(e, *p)


class TestBoostInto:
    def test_rest_frame_is_identity(self):
        v = hk.FourVector(2.0, 0.1, -0.2, 0.3)
        frame = hk.FourVector(3.0, 0, 0, 0)
        out = hk.boost_into(v, frame)
        assert (out.e, out.px, out.py, out.pz) == pytest.approx((v.e, v.px, v.py, v.pz))

    def test_textbook_z_boost(self):
        # rest mass m boosted along z: (gamma m, 0, 0, gamma beta m)
        m, beta = 1.5, 0.6
        gamma = 1.0 / math.sqrt(1 - beta * beta)
        M = 2.0
        frame = hk.FourVector(gamma * M, 0, 0, gamma * beta * M)
        out = hk.boost_into(hk.FourVector(m, 0, 0, 0), frame)
        assert out.e == pytest.approx(gamma * m, rel=1e-14)
        assert out.pz == pytest.approx(gamma * beta * m, rel=1e-14)
        assert out.px == 0.0 and out.py == 0.0

    def test_mass_preserved_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = _random_timelike(rng)
            frame = _random_timelike(rng)
            out = hk.boost_into(v, frame)
            assert hk.invariant_mass(out) == pytest.approx(
                hk.invariant_mass(v), rel=1e-12
            )

    def test_lightlike_frame_raises(self):
        with pytest.raises(NonPhysical):
            hk.boost_into(hk.FourVector(1, 0, 0, 0), hk.FourVector(1.0, 0, 0, 1.0))

    @pytest.mark.parametrize("log10_p_over_m", [-9.0, -3.0, 0.0, 3.5])
    def test_is_the_array_core_on_one_element(self, log10_p_over_m):
        # gamma - 1 from about 5e-19 (gamma == 1 in double) up to gamma > 3e3;
        # phsp_decay_chain and phsp_generate run the same core on columns
        # (their output bytes are pinned in test_golden)
        rng = np.random.default_rng(int(10 * log10_p_over_m) + 100)
        for _ in range(500):
            v = _random_timelike(rng)
            m = rng.uniform(0.1, 3.0)
            direction = rng.standard_normal(3)
            p = direction / np.linalg.norm(direction) * m * 10.0 ** log10_p_over_m
            frame = hk.FourVector(math.sqrt(m * m + float(p @ p)), *p)
            out = hk.boost_into(v, frame)
            args = (v.e, v.px, v.py, v.pz, frame.e, frame.px, frame.py, frame.pz)
            core = boost(*(np.array([x]) for x in args), np.sqrt(np.array([frame.mass2()])))
            assert [float(c[0]).hex() for c in core] == [
                x.hex() for x in (out.e, out.px, out.py, out.pz)
            ]


class TestParameter:
    def test_bounds_enforced(self):
        p = hk.Parameter("a", 1.0, lower=0.0, upper=2.0)
        with pytest.raises(ValueError):
            p.set(3.0)
        p.set(1.5)
        assert p.value == 1.5

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            hk.Parameter("a", 1.0, lower=2.0, upper=1.0)

    def test_step_positive(self):
        with pytest.raises(ValueError):
            hk.Parameter("a", 1.0, step=0.0)
