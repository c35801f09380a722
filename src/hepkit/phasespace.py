"""n-body phase-space Monte Carlo generation.

Events are produced with the ordered-uniform construction: n-2 sorted
deviates place the intermediate invariant masses inside their kinematic
window, the event weight is the product of the two-body breakup momenta
along the chain, and the kinematics are built by successive isotropic
two-body decays boosted up the chain into the mother frame.

Weights are relative (unnormalized breakup-momentum products);
``phsp_average`` divides by the weight sum, so no absolute phase-space
volume normalization is needed.  Each event derives entirely from its own
counter block, making every generation path worker-count invariant.

``phsp_generate`` builds a whole table in memory.  ``phsp_write_csv``
streams the same events to CSV instead: events K of a key are a pure
function of (key, K), so each range of PHSP_RANGE events is generated,
unweighted and formatted as one task on the worker pool, and its memory
does not grow with the event count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import IntegrationResult
from .functors import EvaluationError, FunctorExpr
from .kinematics import (
    MASS_TOLERANCE,
    BelowThreshold,
    FourVector,
    boost,
    breakup,
    breakup_momentum,
    invariant_mass,
)
from .parallel import CHUNK, chunk_sums, fold, run_batches
# uniform_array is unused here; perfbench/tracer.py rebinds phasespace.uniform_array
from .rng import RngKey, check_span, event_uniforms, uniform_array
from .store import ColumnSchema, ColumnStore, write_csv_parts

PHSP_RANGE = 4 * CHUNK
"""Events per task of ``phsp_write_csv``, on the CHUNK grid.  A constant,
not a setting: the bytes do not depend on it.  A range of 3-body events
is 1.7 MB of columns, so its numpy calls outweigh their dispatch, and the
ranges in flight, one per worker, hold little memory."""


@dataclass(frozen=True)
class DecaySpec:
    """Mother mass and ordered daughter masses (GeV)."""

    mother_mass: float
    daughter_masses: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "daughter_masses", tuple(float(m) for m in self.daughter_masses))
        if len(self.daughter_masses) < 2:
            raise ValueError("a decay needs at least two daughters")
        for k, m in enumerate((self.mother_mass,) + self.daughter_masses):
            if not math.isfinite(m):
                name = f"daughter {k}" if k else "mother"
                raise ValueError(f"{name} mass {m!r} is not finite")
        if any(m < 0 for m in self.daughter_masses):
            raise ValueError("daughter masses must be non-negative")
        if not self.mother_mass > sum(self.daughter_masses):
            raise BelowThreshold(
                f"mother mass {self.mother_mass} is not above the daughter "
                f"mass sum {sum(self.daughter_masses)}"
            )

    @property
    def n(self) -> int:
        return len(self.daughter_masses)


def phsp_schema(n_daughters: int) -> ColumnSchema:
    names = ["weight"]
    for k in range(1, n_daughters + 1):
        names += [f"p{k}_e", f"p{k}_px", f"p{k}_py", f"p{k}_pz"]
    return ColumnSchema.real64(*names)


def _draws_per_event(n: int) -> int:
    # n-2 mass deviates plus (cos theta, phi) per chain step
    return (n - 2) + 2 * (n - 1)


def _generate_rest_frame(
    spec: DecaySpec, n_events: int, key: RngKey, workers: int | None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Weights plus per-daughter component arrays in the mother rest frame."""
    n = spec.n
    masses = np.asarray(spec.daughter_masses)
    M = spec.mother_mass
    T = M - float(np.sum(masses))
    csum = np.cumsum(masses)
    D = _draws_per_event(n)
    check_span(key, n_events, D)

    weight = np.empty(n_events)
    comps = [np.empty(n_events) for _ in range(4 * n)]

    def batch(a: int, b: int) -> None:
        m_ev = b - a
        ev = np.arange(a, b, dtype=np.uint64)

        def draw(offset: int) -> np.ndarray:
            return event_uniforms(key, ev, D, offset, 1)[:, 0]

        # intermediate invariant masses from sorted uniforms
        rno = np.empty((m_ev, n))
        rno[:, 0] = 0.0
        rno[:, n - 1] = 1.0
        if n > 2:
            r = np.stack([draw(k) for k in range(n - 2)], axis=1)
            rno[:, 1 : n - 1] = np.sort(r, axis=1)
        inv_mas = rno * T + csum[None, :]

        w = np.ones(m_ev)
        pstars = []
        for k in range(1, n):
            pk = breakup(inv_mas[:, k], inv_mas[:, k - 1], masses[k])
            pstars.append(pk)
            w = w * pk

        # chain construction: daughter 0 starts at rest with mass m_0
        e = [np.empty((m_ev,)) for _ in range(n)]
        px = [np.zeros(m_ev) for _ in range(n)]
        py = [np.zeros(m_ev) for _ in range(n)]
        pz = [np.zeros(m_ev) for _ in range(n)]
        e[0] = np.full(m_ev, masses[0])
        for k in range(1, n):
            p = pstars[k - 1]
            cz = 2.0 * draw(n - 2 + 2 * (k - 1)) - 1.0
            phi = 2.0 * np.pi * draw(n - 2 + 2 * (k - 1) + 1)
            sz = np.sqrt(np.maximum(1.0 - cz * cz, 0.0))
            nx, ny, nz = sz * np.cos(phi), sz * np.sin(phi), cz
            # the built cluster of mass inv_mas[:, k-1] recoils against
            # daughter k inside the rest frame of inv_mas[:, k]
            cl_m = inv_mas[:, k - 1]
            cl_e = np.sqrt(p * p + cl_m * cl_m)
            cl_x, cl_y, cl_z = p * nx, p * ny, p * nz
            for j in range(k):
                e[j], px[j], py[j], pz[j] = boost(
                    e[j], px[j], py[j], pz[j], cl_e, cl_x, cl_y, cl_z, cl_m
                )
            e[k] = np.sqrt(p * p + masses[k] * masses[k])
            px[k], py[k], pz[k] = -cl_x, -cl_y, -cl_z

        weight[a:b] = w
        for j in range(n):
            comps[4 * j + 0][a:b] = e[j]
            comps[4 * j + 1][a:b] = px[j]
            comps[4 * j + 2][a:b] = py[j]
            comps[4 * j + 3][a:b] = pz[j]

    run_batches(batch, n_events, workers)
    return weight, comps


def _mother_mass(spec: DecaySpec, mother: FourVector) -> float:
    """The invariant mass of ``mother``, which must match the spec mass to
    1e-9 relative."""
    m_mother = invariant_mass(mother)
    if abs(m_mother - spec.mother_mass) > MASS_TOLERANCE * spec.mother_mass:
        raise ValueError(
            f"mother mass {m_mother!r} does not match spec mass {spec.mother_mass!r}"
        )
    return m_mother


def phsp_generate(
    spec: DecaySpec,
    mother: FourVector,
    n_events: int,
    key: RngKey,
    workers: int | None = 1,
) -> ColumnStore:
    """Generate weighted n-body decays of ``mother``.

    The mother's invariant mass must match the spec mass to 1e-9 relative.
    Per event the daughters sum to the mother four-vector and each daughter
    is on shell at its spec mass.
    """
    m_mother = _mother_mass(spec, mother)
    weight, comps = _generate_rest_frame(spec, n_events, key, workers)
    moving = mother.px != 0.0 or mother.py != 0.0 or mother.pz != 0.0
    if moving:
        for j in range(spec.n):
            comps[4 * j], comps[4 * j + 1], comps[4 * j + 2], comps[4 * j + 3] = boost(
                comps[4 * j], comps[4 * j + 1], comps[4 * j + 2], comps[4 * j + 3],
                mother.e, mother.px, mother.py, mother.pz, m_mother,
            )
    return ColumnStore.from_columns(phsp_schema(spec.n), [weight] + comps)


def phsp_max_weight(spec: DecaySpec) -> float:
    """Upper bound on event weights: each chain factor maximized at its
    extremal intermediate masses independently."""
    masses = spec.daughter_masses
    T = spec.mother_mass - sum(masses)
    emmax = T + masses[0]
    emmin = 0.0
    wt = 1.0
    for k in range(1, spec.n):
        emmin += masses[k - 1]
        emmax += masses[k]
        wt *= breakup_momentum(emmax, emmin, masses[k])
    return wt


def _check_weights(w: np.ndarray, w_max: float, first: int) -> None:
    """Reject a weight above ``w_max``, naming it as event first + j."""
    over = w > w_max
    if np.any(over):
        j = int(np.argmax(over))
        raise ValueError(
            f"event {first + j} weight {float(w[j])!r} exceeds w_max {float(w_max)!r}")


def phsp_unweight(
    block: ColumnStore,
    w_max: float,
    key: RngKey,
    workers: int | None = 1,
) -> ColumnStore:
    """Accept event i iff u_i * w_max < weight_i; accepted weights become 1.

    Order is preserved.  Any weight above ``w_max`` is an error (a silent
    ceiling violation would bias the sample).
    """
    w = block.column("weight")
    _check_weights(w, w_max, 0)
    n = len(block)
    check_span(key, n, 1)
    accept = np.empty(n, dtype=bool)

    def batch(a: int, b: int) -> None:
        accept[a:b] = event_uniforms(key, np.arange(a, b), 1)[:, 0] * w_max < w[a:b]

    run_batches(batch, n, workers)
    idx = np.flatnonzero(accept)
    cols = [block.column(name).take(idx) for name in block.schema.names[1:]]
    return ColumnStore.from_columns(block.schema, [np.ones(len(idx))] + cols)


def phsp_write_csv(
    path_or_file,
    spec: DecaySpec,
    mother: FourVector,
    n_events: int,
    key: RngKey,
    unweight_key: RngKey | None = None,
    workers: int | None = 1,
) -> None:
    """Write the CSV of ``phsp_generate(spec, mother, n_events, key)``, or
    with ``unweight_key`` that of ``phsp_unweight`` of it against
    ``phsp_max_weight(spec)``, to a path or an open text file, without
    holding the table.

    Events [a, b) of each PHSP_RANGE-event range are one task on the pool:
    ``phsp_generate`` of b - a events from event a of ``key``,
    ``phsp_unweight`` of them from event a of ``unweight_key``, and the
    formatting of the rows, all through ``store.write_csv_parts`` on
    ``workers`` threads.  So the bytes are those of the in-memory path
    for any worker count, the calls inside a task run inline on its
    thread, and memory is that of ``workers`` ranges and their writer
    scratch, whatever the event count.

    The mother, the count, both keys' spans over all ``n_events`` and the
    worker count are checked before the destination is opened, so invalid
    input leaves it untouched.  An error inside a range, such as a weight
    above the maximum (named by its event index a + j), comes after the
    ranges before it have been written.
    """
    _mother_mass(spec, mother)
    check_span(key, n_events, _draws_per_event(spec.n))
    if unweight_key is not None:
        check_span(unweight_key, n_events, 1)
        w_max = phsp_max_weight(spec)

    def part(i: int) -> tuple[np.ndarray, ...]:
        a = i * PHSP_RANGE
        b = min(a + PHSP_RANGE, n_events)
        block = phsp_generate(spec, mother, b - a, key.skip(a))
        if unweight_key is not None:
            # checked here too, so that an error names the event, not the row
            _check_weights(block.column("weight"), w_max, a)
            block = phsp_unweight(block, w_max, unweight_key.skip(a))
        return block.columns()

    write_csv_parts(path_or_file, phsp_schema(spec.n), -(-n_events // PHSP_RANGE),
                    part, workers)


def phsp_decay_chain(
    block: ColumnStore,
    daughter_index: int,
    subspec: DecaySpec,
    key: RngKey,
    workers: int | None = 1,
) -> ColumnStore:
    """Decay daughter ``daughter_index`` (1-based) of every event in turn.

    The sub-decay is generated in the daughter's rest frame and boosted by
    the daughter's momentum; the event weight picks up the sub-decay
    weight.  The daughter's columns are replaced, in place in the ordering,
    by the sub-daughters, and daughters are renumbered.
    """
    n_old = (len(block.schema) - 1) // 4
    if not 1 <= daughter_index <= n_old:
        raise ValueError(f"daughter index {daughter_index} out of range 1..{n_old}")
    k = daughter_index
    fe = block.column(f"p{k}_e")
    fx = block.column(f"p{k}_px")
    fy = block.column(f"p{k}_py")
    fz = block.column(f"p{k}_pz")
    m2 = fe * fe - fx * fx - fy * fy - fz * fz
    fm = np.sqrt(np.maximum(m2, 0.0))
    tol = MASS_TOLERANCE * max(subspec.mother_mass, 1e-6)
    bad = np.abs(fm - subspec.mother_mass) > tol
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(
            f"event {j}: daughter {k} mass {float(fm[j])!r} does not match "
            f"sub-decay mother mass {float(subspec.mother_mass)!r}"
        )

    sub_w, sub = _generate_rest_frame(subspec, len(block), key, workers)
    boosted = []
    for j in range(subspec.n):
        boosted.append(
            boost(sub[4 * j], sub[4 * j + 1], sub[4 * j + 2], sub[4 * j + 3],
                  fe, fx, fy, fz, fm)
        )

    weight = block.column("weight") * sub_w
    cols: list[np.ndarray] = [weight]
    for i in range(1, n_old + 1):
        if i == k:
            for be, bx, by, bz in boosted:
                cols += [be, bx, by, bz]
        else:
            cols += [
                np.array(block.column(f"p{i}_{c}")) for c in ("e", "px", "py", "pz")
            ]
    return ColumnStore.from_columns(phsp_schema(n_old - 1 + subspec.n), cols)


def phsp_average(
    expr: FunctorExpr,
    block: ColumnStore,
    arg_builder,
    workers: int | None = 1,
) -> IntegrationResult:
    """Weighted average of ``expr`` over the event block.

    ``arg_builder`` receives a dict of column slices for a batch of events
    and returns the tuple of argument arrays for the expression.  The
    result value is sum(w f) / sum(w) with the weighted standard error;
    the five weight sums are one fixed-order chunk reduction.
    """
    n = len(block)
    if n == 0:
        raise ValueError("cannot average over an empty block")
    names = block.schema.names
    w_col = block.column("weight")

    def batch(a: int, b: int):
        cols = {name: block.column(name)[a:b] for name in names}
        args = arg_builder(cols)
        f = np.asarray(expr.eval(tuple(args)), dtype=float)
        if not np.all(np.isfinite(f)):
            j = int(np.argmax(~np.isfinite(f)))
            raise EvaluationError(f"non-finite model value at event {a + j}")
        w = w_col[a:b]
        ww = w * w
        wwf = ww * f
        return chunk_sums(np.stack([w, w * f, ww, wwf, wwf * f]))

    sw, swf, sw2, sw2f, sw2f2 = fold(run_batches(batch, n, workers)).tolist()
    if sw <= 0:
        raise ValueError("total weight is not positive")
    mu = swf / sw
    spread = max(sw2f2 - 2.0 * mu * sw2f + mu * mu * sw2, 0.0)
    return IntegrationResult(mu, math.sqrt(spread) / sw, calls_used=n)
