"""Numerical integration: plain Monte Carlo, VEGAS importance sampling and
Gauss-Kronrod quadrature (7-point Gauss / 15-point Kronrod pair).

The stochastic integrators draw from counter-addressed keys and accumulate
per-chunk partials in fixed order, so results are bitwise identical for
any worker count.  Quadrature is 1-D only.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .functors import EvaluationError, FunctorExpr
from .parallel import CHUNK, chunk_sums, fold, run_batches
# uniform_array is unused here; perfbench/tracer.py rebinds integrate.uniform_array
from .rng import BoundedRegion, RngKey, check_span, event_uniforms, uniform_array


@dataclass
class IntegrationResult:
    value: float
    error: float
    iterations: int = 1
    chi2_per_dof: float = 0.0
    calls_used: int = 0


class DegenerateGridError(ValueError):
    """VEGAS grid refinement produced a collapsed bin."""


# ---------------------------------------------------------------------------
# plain Monte Carlo

def _check_finite(vals: np.ndarray, points: tuple[np.ndarray, ...]) -> None:
    bad = ~np.isfinite(vals)
    if np.any(bad):
        j = int(np.argmax(bad))
        pt = tuple(float(p[j]) for p in points)
        raise EvaluationError(f"non-finite integrand value at point {pt}")


def plain_mc(
    expr: FunctorExpr,
    region: BoundedRegion,
    calls: int,
    key: RngKey,
    workers: int | None = 1,
) -> IntegrationResult:
    """V * mean(f) with error V * stddev(f) / sqrt(calls) over uniform draws.

    Call i is event i of ``key``, so the estimate does not depend on how
    calls are split across workers.
    """
    if calls < 2:
        raise ValueError(f"plain_mc needs at least 2 calls, got {calls}")
    d = region.dim
    if expr.arity != d:
        raise ValueError(f"expression consumes {expr.arity} arguments, region has {d}")
    lo = region.lower
    span = region.upper - region.lower
    volume = region.volume()
    check_span(key, calls, d)

    def batch(a: int, b: int) -> np.ndarray:
        u = event_uniforms(key, np.arange(a, b), d)
        pts = tuple(lo[k] + u[:, k] * span[k] for k in range(d))
        vals = np.asarray(expr.eval(pts), dtype=float)
        _check_finite(vals, pts)
        return chunk_sums(np.stack([vals, vals * vals]))

    total, total_sq = fold(run_batches(batch, calls, workers)).tolist()
    mean = total / calls
    var = max(total_sq / calls - mean * mean, 0.0)
    return IntegrationResult(volume * mean, volume * math.sqrt(var / calls), calls_used=calls)


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15
#
# Canonical double-precision nodes and weights of the G7K15 pair
# (positive half; node 7 is the midpoint).  Gauss nodes sit at the odd
# Kronrod indices.

_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 ascending
_KRONROD_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)                            # odd positions
_GAUSS_W = np.concatenate([_WG[:-1], _WG[::-1]])


def _gk15_panel(expr: FunctorExpr, a: float, b: float) -> tuple[float, float]:
    """(K15 estimate, scaled-difference error) on one interval."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c + h * _NODES
    f = np.asarray(expr.eval((x,)), dtype=float)
    _check_finite(f, (x,))
    k15 = h * float(np.dot(_KRONROD_W, f))
    g7 = h * float(np.dot(_GAUSS_W, f[_GAUSS_IDX]))
    err = (200.0 * abs(k15 - g7)) ** 1.5
    return k15, err


def _check_interval(expr: FunctorExpr, a: float, b: float) -> None:
    for side, x in (("lower", a), ("upper", b)):
        if not math.isfinite(x):
            raise ValueError(f"{side} limit {x} is not finite")
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if expr.arity != 1:
        raise ValueError("quadrature is one-dimensional")


def gk15_static(expr: FunctorExpr, a: float, b: float) -> IntegrationResult:
    """Single-panel G7K15; exact for polynomials up to degree 13 (Gauss floor)."""
    _check_interval(expr, a, b)
    value, err = _gk15_panel(expr, a, b)
    return IntegrationResult(value=value, error=err, iterations=1, calls_used=15)


def gk_adaptive(
    expr: FunctorExpr,
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    max_intervals: int = 1000,
) -> IntegrationResult:
    """Bisect the interval with the largest local error until the summed
    error estimate is within rel_tol of the integral, or the interval
    budget is spent (flagged by iterations == max_intervals).
    """
    if not 1e-14 <= rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and >= 1e-14, got {rel_tol}")
    if max_intervals < 1:
        raise ValueError(f"max_intervals must be >= 1, got {max_intervals}")
    _check_interval(expr, a, b)
    val, err = _gk15_panel(expr, a, b)
    heap = [(-err, 0, a, b, val, err)]
    seq = 1
    calls = 15
    while True:
        total = math.fsum(item[4] for item in heap)
        total_err = math.fsum(item[5] for item in heap)
        if total_err <= rel_tol * abs(total):
            break
        if len(heap) >= max_intervals:
            break
        neg_err, _, ia, ib, _, worst = heapq.heappop(heap)
        if worst == 0.0:
            heapq.heappush(heap, (neg_err, seq, ia, ib, -neg_err, worst))
            break
        mid = 0.5 * (ia + ib)
        for lo_, hi_ in ((ia, mid), (mid, ib)):
            v, e = _gk15_panel(expr, lo_, hi_)
            heapq.heappush(heap, (-e, seq, lo_, hi_, v, e))
            seq += 1
        calls += 30
    return IntegrationResult(
        value=math.fsum(item[4] for item in heap),
        error=math.fsum(item[5] for item in heap),
        iterations=len(heap),
        calls_used=calls,
    )


# ---------------------------------------------------------------------------
# VEGAS

@dataclass
class VegasGrid:
    """Per-dimension bin edges; refinement concentrates bins where the
    integrand contributes most."""

    edges: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def uniform(cls, region: BoundedRegion, bins: int) -> "VegasGrid":
        if bins < 1:
            raise ValueError("bins must be >= 1")
        return cls([np.linspace(lo, hi, bins + 1) for lo, hi in region.bounds])

    @property
    def dims(self) -> int:
        return len(self.edges)

    @property
    def bins_per_dim(self) -> int:
        return len(self.edges[0]) - 1

    def validate(self) -> None:
        for d, e in enumerate(self.edges):
            if np.any(np.diff(e) <= 0):
                raise DegenerateGridError(f"non-increasing edges in dimension {d}")


def vegas_refine(grid: VegasGrid, weights: list[np.ndarray], alpha: float) -> VegasGrid:
    """Rebin so every new bin carries an equal share of the damped weight
    measure m = ((r - 1) / ln r)^alpha, r the smoothed per-bin weight
    fraction.  Endpoints are preserved; an all-zero dimension is returned
    unchanged.
    """
    new_edges = []
    bins = grid.bins_per_dim
    for d in range(grid.dims):
        w = np.asarray(weights[d], dtype=float)
        if len(w) != bins:
            raise ValueError(f"dimension {d}: expected {bins} weights, got {len(w)}")
        if np.any(w < 0):
            raise ValueError(f"dimension {d}: negative refinement weight")
        if not np.any(w > 0):
            new_edges.append(grid.edges[d].copy())
            continue
        # neighbor smoothing, then damping toward uniformity
        sm = w.copy()
        if bins > 1:
            sm[0] = 0.5 * (w[0] + w[1])
            sm[-1] = 0.5 * (w[-2] + w[-1])
            if bins > 2:
                sm[1:-1] = (w[:-2] + w[1:-1] + w[2:]) / 3.0
        r = sm / np.sum(sm)
        m = np.zeros(bins)
        pos = r > 0
        near_one = pos & (np.abs(r - 1.0) < 1e-13)
        body = pos & ~near_one
        m[near_one] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            m[body] = ((r[body] - 1.0) / np.log(r[body])) ** alpha
        cum = np.concatenate([[0.0], np.cumsum(m)])
        targets = np.arange(1, bins) * (cum[-1] / bins)
        old = grid.edges[d]
        idx = np.searchsorted(cum, targets, side="right") - 1
        idx = np.clip(idx, 0, bins - 1)
        widths = np.diff(old)
        edges = np.empty(bins + 1)
        edges[0] = old[0]
        edges[-1] = old[-1]
        edges[1:-1] = old[idx] + (targets - cum[idx]) / m[idx] * widths[idx]
        new_edges.append(edges)
    refined = VegasGrid(new_edges)
    refined.validate()
    return refined


def vegas(
    expr: FunctorExpr,
    region: BoundedRegion,
    calls_per_iteration: int,
    key: RngKey,
    iterations: int = 10,
    alpha: float = 1.5,
    bins: int = 50,
    workers: int | None = 1,
) -> tuple[IntegrationResult, VegasGrid]:
    """Adaptive importance-sampling integration.

    Each iteration samples ``calls_per_iteration`` points from the current
    separable grid density, accumulates an estimate with its variance and
    per-bin contributions, then refines the grid.  Iterations are combined
    by inverse-variance weighting; chi2_per_dof reports their mutual
    consistency.  Call i of iteration it is event it * calls + i of
    ``key``, so the sampling is deterministic for any worker count; grid
    refinement runs serially between iterations.
    """
    d = region.dim
    calls = calls_per_iteration
    if expr.arity != d:
        raise ValueError(f"expression consumes {expr.arity} arguments, region has {d}")
    if calls < 2 * bins * d:
        raise ValueError(
            f"calls_per_iteration must be >= 2*bins*dims = {2 * bins * d}, got {calls}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    check_span(key, iterations * calls, d)
    grid = VegasGrid.uniform(region, bins)
    estimates: list[tuple[float, float]] = []
    negatives = 0.0

    for it in range(iterations):
        edges = [grid.edges[k].copy() for k in range(d)]
        widths = [np.diff(e) for e in edges]

        def batch(a: int, b: int):
            u = event_uniforms(key, np.arange(it * calls + a, it * calls + b), d)
            z = u * bins
            bidx = np.minimum(z.astype(np.int64), bins - 1)
            frac = z - bidx
            pts = []
            jac = np.full(b - a, float(bins) ** d)
            for k in range(d):
                wk = widths[k][bidx[:, k]]
                pts.append(edges[k][bidx[:, k]] + frac[:, k] * wk)
                jac *= wk
            vals = np.asarray(expr.eval(tuple(pts)), dtype=float)
            _check_finite(vals, tuple(pts))
            y = vals * jac
            y2 = y * y
            # columns: sum y, sum y^2, the count of negative values, the y^2
            # sums of every dimension's bins, then their counts; one bincount
            # per dimension fills the bins of every chunk at once
            sums = chunk_sums(np.stack([y, y2, vals < 0]))
            c = len(sums)
            cell = (np.arange(b - a) // CHUNK * bins)[:, None] + bidx
            binned = [np.bincount(cell[:, k], weights=y2, minlength=c * bins) for k in range(d)]
            counts = [np.bincount(cell[:, k], minlength=c * bins) for k in range(d)]
            return np.hstack([sums] + [h.reshape(c, bins) for h in binned + counts])

        totals = fold(run_batches(batch, calls, workers))
        total, total_sq = totals[:2].tolist()
        negatives += totals[2]
        dist_sum, dist_cnt = totals[3:].reshape(2, d, bins)
        # count-normalized per-bin contribution: the mean of (f J)^2 in a
        # bin estimates the bin's variance share without the multinomial
        # noise of raw sums, so a flat integrand leaves the grid fixed
        dist = [
            np.where(dist_cnt[k] > 0, dist_sum[k] / np.maximum(dist_cnt[k], 1), 0.0)
            for k in range(d)
        ]
        mean = total / calls
        var = max(total_sq - calls * mean * mean, 0.0) / ((calls - 1) * calls)
        estimates.append((mean, var))
        if it + 1 < iterations:
            grid = vegas_refine(grid, dist, alpha)

    if negatives:
        warnings.warn(
            "vegas received a negative integrand; grid refinement weighs |f|",
            stacklevel=2,
        )

    # an iteration whose spread sits at machine precision carries no
    # statistical information; treat it as exact rather than infinitely
    # precise, which would poison the chi2 with rounding noise
    def _is_exact(m: float, v: float) -> bool:
        return v <= (8.0 * np.finfo(float).eps * abs(m)) ** 2

    exact = [m for m, v in estimates if _is_exact(m, v)]
    if exact:
        value = exact[-1]
        error = 0.0
        rest = [(m, v) for m, v in estimates if not _is_exact(m, v)]
        chi2 = sum((m - value) ** 2 / v for m, v in rest)
        dof = max(len(estimates) - 1, 1)
    else:
        inv = [1.0 / v for _, v in estimates]
        norm = sum(inv)
        value = sum(m * w for (m, _), w in zip(estimates, inv)) / norm
        error = math.sqrt(1.0 / norm)
        chi2 = sum((m - value) ** 2 / v for m, v in estimates)
        dof = max(len(estimates) - 1, 1)
    result = IntegrationResult(
        value=value,
        error=error,
        iterations=iterations,
        chi2_per_dof=chi2 / dof,
        calls_used=calls * iterations,
    )
    return result, grid
