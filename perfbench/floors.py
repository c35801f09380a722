"""Plain-numpy floors: the same work as a hepkit layer, written directly in
numpy, so that each layer's time can be read as a multiple of the floor."""

from __future__ import annotations

import io
import math
import statistics
import time

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _per_unit(fn, units: int, min_seconds: float = 0.2, reps: int = 3) -> float:
    """Median over ``reps`` of seconds per unit, each rep repeating ``fn``
    until ``min_seconds`` have passed."""
    out = []
    for _ in range(reps):
        n = 0
        t0 = time.perf_counter()
        while True:
            fn()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds:
                break
        out.append(elapsed / (n * units))
    return statistics.median(out)


def uniform_s_per_draw(draws: int = 1_000_000) -> float:
    """numpy's counter-based Philox generator, ``random`` over 1e6 draws."""
    gen = np.random.Generator(np.random.Philox(12345))
    return _per_unit(lambda: gen.random(draws), draws)


def gauss10_s_per_point(points: int = 65_536) -> float:
    """Hand-written product of 10 normalized Gaussians, as the 10-D
    integrand of vegas_10d computes it."""
    x = np.random.default_rng(1).random((10, points))
    mean, sigma = 0.5, 0.1

    def product():
        out = np.ones(points)
        for k in range(10):
            z = (x[k] - mean) / sigma
            out *= np.exp(-0.5 * z * z) / (sigma * _SQRT_2PI)
        return out
    return _per_unit(product, points)


def nll_s_per_event(events: int) -> float:
    """Raw numpy extended log-density sum of the gauss+exp model on [0, 10]."""
    x = np.random.default_rng(2).random(events) * 10.0
    ng, ne, mu, s, tau = 4000.0, 6000.0, 5.0, 0.5, 3.0
    gnorm = 0.5 * (math.erf((10.0 - mu) / (s * math.sqrt(2.0))) - math.erf(-mu / (s * math.sqrt(2.0))))
    enorm = tau * -math.expm1(-10.0 / tau)

    def logsum():
        z = (x - mu) / s
        g = np.exp(-0.5 * z * z) / (s * _SQRT_2PI * gnorm)
        e = np.exp(-x / tau) / enorm
        return ng + ne - float(np.sum(np.log(ng * g + ne * e)))
    return _per_unit(logsum, events)


def read_s_per_row(path: str) -> float:
    """``np.loadtxt`` of the CSV file the workload read."""
    def load():
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return _per_unit(load, len(load()), min_seconds=0.0, reps=1)


def write_s_per_row(columns: list[np.ndarray]) -> float:
    """``np.savetxt(fmt="%.17g")`` of the table the workload wrote, in memory."""
    table = np.column_stack(columns)

    def save():
        np.savetxt(io.StringIO(), table, fmt="%.17g", delimiter=",")
    return _per_unit(save, len(table), min_seconds=0.0, reps=1)
