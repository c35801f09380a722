"""Counter-addressable random numbers and accept-reject p.d.f. sampling.

Every deviate is a pure function of (seed, stream, counter): obtaining draw
i never requires producing draw i-1 first.  As in Random123 (Salmon et al.,
SC'11), a stream names a subsystem of the command-line tools,
``RngKey.child(tag)`` names a sub-task by hashing the tag into a new seed,
and a counter indexes one call's draws: each output element owns its own
counter range, so any number of workers gives the same bits.

The concrete bijection is a SplitMix64-style sequence: the keyed state
``base(seed, stream) + counter * GOLDEN`` is passed through the SplitMix64
avalanche finalizer.  That sequence is a well-tested generator in its own
right; stream separation comes from hashing the stream id into the base.

Stream ids used by the command-line tools, and their bulk calls (events x width):

====  ======================  ===========================================
  0   p.d.f. sampling         sample_pdf: accepted points x 2**16
  1   phase-space generation  phsp_generate, phsp_decay_chain: decays x draws per decay
  2   toy studies             poisson_deviate: gaps x 1; then sample_pdf
  3   integration             plain_mc: calls x dim; vegas: it * calls + call x dim
  4   unweighting             phsp_unweight: decays x 1
====  ======================  ===========================================

One rule addresses every bulk draw: event e of a call at ``key`` owns the
counters (key.counter + e) * width + [0, width).  A call checks its span
once (``check_span``) and draws only through ``event_uniforms``, so the key
at counter k draws events k, k + 1, ... of the key at counter 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .parallel import run_batches

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0x6A09E667F3BCC909)
_CHILD_SALT = np.uint64(0xBB67AE8584CAA73B)

# 2**-53, to map the top 53 bits of a u64 onto [0, 1)
_INV53 = float(np.ldexp(1.0, -53))

# Proposal draws reserved per accepted event in accept-reject sampling.
_PROPOSAL_BLOCK = 1 << 16


@dataclass(frozen=True)
class RngKey:
    """Addressable randomness: (seed, stream, counter) -> deviate.

    ``seed`` is the user-level reproducibility knob, ``stream`` separates
    independent subsystems, ``counter`` indexes the draw (or names the
    first event of a bulk call).
    """

    seed: int
    stream: int = 0
    counter: int = 0

    def at(self, counter: int) -> "RngKey":
        return replace(self, counter=counter)

    def skip(self, events: int) -> "RngKey":
        """The key whose event k is this key's event ``events`` + k, so that
        a bulk call over a range of events can start at its first one."""
        return replace(self, counter=self.counter + events)

    def child(self, tag: int) -> "RngKey":
        """The key of sub-task ``tag``: same stream, counter 0, and a seed
        hashed from (seed, stream, counter, tag), injective in the tag for
        one key and in the counter for one tag."""
        h = raw64(self) + np.array([_u64(tag)]) * _CHILD_SALT
        return RngKey(int(_mix64(h)[0]), self.stream)


@dataclass(frozen=True)
class BoundedRegion:
    """Axis-aligned box: one (lower, upper) pair per dimension."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.bounds) < 1:
            raise ValueError("region needs at least one dimension")
        for d, (lo, hi) in enumerate(self.bounds):
            for side, x in (("lower", lo), ("upper", hi)):
                if not math.isfinite(x):
                    raise ValueError(f"dimension {d}: {side} bound {x} is not finite")
            if not lo < hi:
                raise ValueError(f"dimension {d}: lower {lo} must be < upper {hi}")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def lower(self) -> np.ndarray:
        return np.array([b[0] for b in self.bounds])

    @property
    def upper(self) -> np.ndarray:
        return np.array([b[1] for b in self.bounds])

    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    @classmethod
    def cube(cls, lo: float, hi: float, dim: int) -> "BoundedRegion":
        return cls(tuple((lo, hi) for _ in range(dim)))


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 avalanche finalizer, vectorized over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _u64(value: int) -> np.uint64:
    return np.uint64(value % (1 << 64))


def _base(seed: int, stream: int) -> np.uint64:
    s = np.array([_u64(seed)], dtype=np.uint64)
    t = np.array([_u64(stream)], dtype=np.uint64) * _STREAM_SALT
    return _mix64(s + _GOLDEN)[0] ^ _mix64(t + _GOLDEN)[0]


def raw64(key: RngKey, counters: np.ndarray | None = None) -> np.ndarray:
    """uint64 deviates at ``key.counter + counters`` (counters default [0])."""
    if counters is None:
        counters = np.zeros(1, dtype=np.uint64)
    c = np.asarray(counters, dtype=np.uint64) + _u64(key.counter)
    return _mix64(_base(key.seed, key.stream) + c * _GOLDEN)


def uniform_array(key: RngKey, counters: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) deviates at the given counter offsets."""
    return (raw64(key, counters) >> np.uint64(11)).astype(np.float64) * _INV53


def uniform(key: RngKey) -> float:
    """Single uniform [0, 1) deviate addressed by the key."""
    return float(uniform_array(key, np.zeros(1, dtype=np.uint64))[0])


def gaussian_array(key: RngKey, indices: np.ndarray) -> np.ndarray:
    """Standard normal deviates; draw i is event i of ``key`` with width 2,
    so the key at counter k draws deviates k, k + 1, ... of the key at
    counter 0.

    Box-Muller on the event's two uniforms; the log argument uses 1-u so it
    lives in (0, 1] and never hits log(0).
    """
    idx = np.asarray(indices, dtype=np.uint64)
    check_span(key, int(idx.max(initial=0)) + 1, 2)
    u = event_uniforms(key, idx, 2)
    return np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos(2.0 * np.pi * u[:, 1])


def poisson_gaps(lam: float) -> int:
    """The events ``poisson_deviate`` draws for mean ``lam``: lam +
    12 sqrt(lam) + 12 gaps fall short of lam with probability < 1e-30."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"Poisson mean must be finite and >= 0, got {lam!r}")
    return int(lam + 12.0 * math.sqrt(lam) + 12.0)


def poisson_deviate(key: RngKey, lam: float) -> int:
    """Poisson(lam) deviate: the arrivals before time ``lam`` of a unit-rate
    process whose gaps are exponential deviates at events 0, 1, ...,
    ``poisson_gaps(lam)`` of them."""
    n = poisson_gaps(lam)
    check_span(key, n, 1)
    gaps = -np.log1p(-event_uniforms(key, np.arange(n), 1)[:, 0])
    return int(np.searchsorted(np.cumsum(gaps), lam))


def gaussian_deviate(key: RngKey) -> float:
    """Single standard normal deviate; key.counter is the draw index."""
    return float(gaussian_array(key, [0])[0])


def check_span(key: RngKey, n: int, width: int) -> None:
    """Reject n < 0, or events key.counter + [0, n) of ``width`` draws that wrap 2**64."""
    if n < 0:
        raise ValueError(f"event count {n} is negative")
    if key.counter < 0 or (key.counter + n) * width > 1 << 64:
        raise ValueError(f"counter {key.counter} + {n} events x {width} draws wraps 2**64")


def event_uniforms(
    key: RngKey, events: np.ndarray, width: int, first: int = 0, count: int | None = None
) -> np.ndarray:
    """Uniform draws ``first .. first + count`` (default: to ``width``) of
    each event as a (len(events), count) array; event e owns the counters
    (key.counter + e) * width + [0, width).  The caller checks the span."""
    start = (np.asarray(events, dtype=np.uint64) + _u64(key.counter)) * np.uint64(width)
    offsets = np.arange(first, width if count is None else first + count, dtype=np.uint64)
    return uniform_array(key.at(0), start[:, None] + offsets)


class CeilingError(ValueError):
    """The integrand exceeded the accept-reject ceiling at a concrete point."""


def _quasi_points(region: BoundedRegion, n: int) -> np.ndarray:
    """Low-discrepancy scan points (additive lattice) for ceiling estimation."""
    d = region.dim
    # generalized-golden-ratio lattice: x_i = frac((i+1) * alpha)
    phi = 1.0
    for _ in range(32):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alpha = np.array([np.mod(1.0 / phi ** (k + 1), 1.0) for k in range(d)])
    i = np.arange(1, n + 1)[:, None]
    u = np.mod(i * alpha[None, :], 1.0)
    return region.lower[None, :] + u * (region.upper - region.lower)[None, :]


def estimate_ceiling(expr, region: BoundedRegion) -> float:
    """1.1 x the max of ``expr`` over a deterministic 10 000-point
    quasi-random scan."""
    pts = _quasi_points(region, 10_000)
    vals = np.asarray(expr.eval(tuple(pts[:, k] for k in range(region.dim))))
    m = float(np.max(vals))
    if not np.isfinite(m) or m <= 0.0:
        raise ValueError("cannot estimate a positive ceiling for the density")
    return 1.1 * m


def sample_pdf(
    expr,
    region: BoundedRegion,
    n: int,
    key: RngKey,
    ceiling: float | None = None,
    workers: int | None = 1,
):
    """Draw ``n`` points distributed proportionally to ``expr`` on ``region``.

    Accept-reject with uniform proposals.  Event j is produced entirely
    from its own 2**16 draws, proposal t taking draws t (d + 1) ..
    t (d + 1) + d, so the output is independent of the worker count.  A
    proposal where the density exceeds ``ceiling`` aborts with
    :class:`CeilingError` naming the point; when ``ceiling`` is None it is
    estimated from a quasi-random scan.
    """
    from .store import ColumnSchema, ColumnStore  # local import to avoid a cycle

    d = region.dim
    if expr.arity != d:
        raise ValueError(f"expression consumes {expr.arity} arguments, region has {d}")
    if ceiling is None:
        ceiling = estimate_ceiling(expr, region)
    if ceiling <= 0:
        raise ValueError("ceiling must be positive")
    check_span(key, n, _PROPOSAL_BLOCK)

    lo = region.lower
    span = region.upper - region.lower
    cols = [np.empty(n) for _ in range(d)]
    max_rounds = _PROPOSAL_BLOCK // (d + 1)

    def fill(start: int, stop: int) -> None:
        events = np.arange(start, stop, dtype=np.uint64)
        active = events
        for t in range(max_rounds):
            if active.size == 0:
                return
            u = event_uniforms(key, active, _PROPOSAL_BLOCK, t * (d + 1), d + 1)
            pts = lo[None, :] + u[:, :d] * span[None, :]
            vals = np.asarray(expr.eval(tuple(pts[:, k] for k in range(d))), dtype=float)
            over = vals > ceiling
            if np.any(over):
                j = int(np.argmax(over))
                raise CeilingError(
                    f"density {float(vals[j])!r} exceeds ceiling {float(ceiling)!r} "
                    f"at point {tuple(map(float, pts[j]))}"
                )
            accept = u[:, d] * ceiling < vals
            if np.any(accept):
                rows = active[accept].astype(np.int64)
                for k in range(d):
                    cols[k][rows] = pts[accept, k]
                active = active[~accept]
        raise RuntimeError(
            f"acceptance too low: no accept within {max_rounds} proposals "
            f"for some events (ceiling {ceiling!r})"
        )

    run_batches(fill, n, workers)
    schema = ColumnSchema.real64(*(f"x{k}" for k in range(d)))
    return ColumnStore.from_columns(schema, cols)
