"""Relativistic kinematics primitives (GeV, metric +,-,-,-).

All scalars are 64-bit floats.  Operations are pure functions on value
types and safe to call concurrently; ``boost`` and ``breakup`` also take
numpy arrays and are the one boost and breakup-momentum core of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# relative tolerance for the on-shell precondition of invariant_mass
MASS_TOLERANCE = 1e-9

# absolute slack on threshold preconditions, absorbs chain rounding
THRESHOLD_SLACK = 1e-12


class KinematicsError(ValueError):
    """A documented kinematic precondition failed."""

    kind = "NonPhysical"


class BelowThreshold(KinematicsError):
    kind = "BelowThreshold"


class NonPhysical(KinematicsError):
    kind = "NonPhysical"


@dataclass(frozen=True)
class FourVector:
    """Energy-momentum 4-tuple (e, px, py, pz)."""

    e: float
    px: float
    py: float
    pz: float

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(
            self.e + other.e,
            self.px + other.px,
            self.py + other.py,
            self.pz + other.pz,
        )

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(
            self.e - other.e,
            self.px - other.px,
            self.py - other.py,
            self.pz - other.pz,
        )

    def p2(self) -> float:
        return self.px**2 + self.py**2 + self.pz**2

    def mass2(self) -> float:
        return self.e**2 - self.p2()

    @classmethod
    def at_rest(cls, mass: float) -> "FourVector":
        return cls(mass, 0.0, 0.0, 0.0)


@dataclass
class Parameter:
    """Named fit parameter with optional bounds.

    ``step`` is the parameter's scale when ``minimize`` works from values
    alone: the step of the second differences that seed its metric, and
    of its gradient differences scaled down.  It must be positive.  When
    both bounds are present the value must stay inside.
    """

    name: str
    value: float
    step: float = 0.1
    lower: float | None = None
    upper: float | None = None
    fixed: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("parameter name must be non-empty")
        if not self.step > 0:
            raise ValueError(f"{self.name}: step must be > 0, got {self.step}")
        if self.lower is not None and self.upper is not None and not self.lower < self.upper:
            raise ValueError(f"{self.name}: lower {self.lower} must be < upper {self.upper}")
        self._check_bounds(self.value)

    def _check_bounds(self, value: float) -> None:
        if self.lower is not None and value < self.lower:
            raise ValueError(f"{self.name}: value {value} below lower bound {self.lower}")
        if self.upper is not None and value > self.upper:
            raise ValueError(f"{self.name}: value {value} above upper bound {self.upper}")

    def set(self, value: float) -> None:
        self._check_bounds(value)
        self.value = float(value)


def invariant_mass(v: FourVector) -> float:
    """sqrt(e^2 - |p|^2); NonPhysical when the metric is space-like."""
    m2 = v.mass2()
    if m2 < -MASS_TOLERANCE * v.e**2:
        raise NonPhysical(f"space-like four-vector, m^2 = {m2!r}")
    return math.sqrt(max(0.0, m2))


def kallen(x: float, y: float, z: float) -> float:
    """Triangle function x^2 + y^2 + z^2 - 2xy - 2yz - 2zx."""
    return x * x + y * y + z * z - 2.0 * (x * y + y * z + z * x)


def breakup(M, m1, m2):
    """Array-safe breakup momentum sqrt(lambda(M^2, m1^2, m2^2)) / (2M), with
    lambda = (M^2 - (m1^2 + m2^2))^2 - 4 (m1^2 m2^2): bitwise symmetric in the
    daughters, exactly 0 at threshold and clamped at 0 below it.  Preconditions
    are the caller's; ``breakup_momentum`` checks them for one decay."""
    a2, b2 = m1 * m1, m2 * m2
    d = M * M - (a2 + b2)
    return np.sqrt(np.maximum(d * d - 4.0 * (a2 * b2), 0.0)) / (2.0 * M)


def breakup_momentum(M: float, m1: float, m2: float) -> float:
    """``breakup`` of one decay; BelowThreshold if M < m1 + m2 beyond the slack."""
    if M <= 0:
        raise BelowThreshold(f"mother mass must be positive, got {M}")
    if M < m1 + m2 - THRESHOLD_SLACK:
        raise BelowThreshold(f"{M} below threshold {m1} + {m2}")
    return float(breakup(M, m1, m2))


def boost(e, px, py, pz, fe, fx, fy, fz, fm):
    """Boost (e, px, py, pz) from the rest frame of a frame with energy
    ``fe``, momentum (fx, fy, fz) and mass ``fm`` into the frame where it
    carries that momentum.

    Array-safe: scalars and numpy arrays broadcast together, so one call
    boosts a whole column of events.  The rapidity factors are taken as
    gamma = E/M and gamma^2/(gamma+1), which avoids the cancellation in
    (gamma-1)/beta^2 near rest.  Preconditions are the caller's;
    ``boost_into`` checks them for one four-vector.
    """
    gamma = fe / fm
    bx, by, bz = fx / fe, fy / fe, fz / fe
    bp = bx * px + by * py + bz * pz
    k = gamma * gamma / (gamma + 1.0) * bp + gamma * e
    return gamma * (e + bp), px + k * bx, py + k * by, pz + k * bz


def boost_into(v: FourVector, frame: FourVector) -> FourVector:
    """``boost`` of one four-vector into the frame where ``frame`` carries
    its given momentum; NonPhysical unless ``frame`` is time-like."""
    m2 = frame.mass2()
    if m2 <= 0:
        raise NonPhysical(f"boost frame must be time-like, m^2 = {m2!r}")
    return FourVector(*boost(v.e, v.px, v.py, v.pz,
                             frame.e, frame.px, frame.py, frame.pz, math.sqrt(m2)))
