"""Deterministic data-parallel execution.

Every bulk operation in this package decomposes its index space into
fixed-size evaluation batches (``run_batches``) and reduces them with one
primitive: a batch lays its per-row terms out ``(q, m)`` and returns their
per-chunk sums ``chunk_sums(rows)``, a ``(c, q)`` array, and the caller
reads its totals from ``fold`` of the batch results, the left fold of
every chunk row in global order.  Both sizes are constants, independent of
the worker count, and ``EVAL_BATCH`` is a multiple of ``CHUNK``, so every
batch starts on the global chunk grid and batch-local chunks are global
chunks.  Workers only decide *who* runs a batch, never *what* a batch or a
chunk contains, so results are bitwise identical for any number of
workers.  A batch whose rows are rebuilt call after call can write them
into its thread's ``workspace``, so repeated calls reuse that memory
instead of allocating (and page-faulting) it afresh.

Both ``run_batches`` and a stream whose results must be consumed in order
as they come, ``phsp``'s event ranges on their way to the CSV writer, run
through ``run_ordered``: at most a worker count of calls at a time, each
result consumed on the calling thread in index order.  There is one pool
for the process.  It grows to the largest worker count any call has asked
for, and a call never has more than its own worker count of tasks in
flight, so a 2-worker call keeps to 2 threads of a pool grown to 8.  A
parallel call made on a pool thread, such as a fit inside a task, runs
serially on that thread: it cannot wait for threads that are busy with
its caller, and its results are the same for any worker count.  Such a
call runs its batches on its caller's thread, through that thread's
``workspace``, so a batch must not hold a workspace across a nested
call.
"""

from __future__ import annotations

import collections
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Sequence, TypeVar

import numpy as np

CHUNK = 4096
"""Reduction granularity: partial results are produced per CHUNK rows."""

EVAL_BATCH = 16 * CHUNK
"""Rows handed to a worker per dispatch.  A multiple of CHUNK so batch-local
chunking coincides with the global chunk grid."""

T = TypeVar("T")

# one pool, replaced by a larger one when a call asks for more workers;
# spawning threads per call would dominate operations that finish in
# milliseconds
_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()

# per thread: the workspace buffer, and whether the thread is the pool's
_thread = threading.local()


def _mark_pool_thread() -> None:
    _thread.in_pool = True


def _submit(workers: int, fn: Callable[[int], T], i: int) -> Future:
    """``fn(i)`` on the pool, first replaced by one of ``workers`` threads
    if smaller.  The old pool is shut down under the lock, so nothing
    submits to it after; its queued calls still run."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool_size < workers:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(workers, initializer=_mark_pool_thread)
            _pool_size = workers
        return _pool.submit(fn, i)


def resolve_workers(workers: int | None) -> int:
    """Map the user-facing worker knob to a concrete count (0 or None = auto)."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def batch_ranges(n: int, batch: int = EVAL_BATCH) -> list[tuple[int, int]]:
    """Fixed [start, stop) windows covering 0..n, independent of workers."""
    return [(s, min(s + batch, n)) for s in range(0, n, batch)]


def run_batches(
    fn: Callable[[int, int], T],
    n: int,
    workers: int | None = 1,
    batch: int = EVAL_BATCH,
) -> list[T]:
    """Run ``fn(start, stop)`` over every batch window; results in batch order.
    The windows are ``run_ordered``'s calls, at most ``workers`` at a time.

    ``fn`` must be pure in the sense that its result depends only on
    (start, stop) and on state that is frozen for the duration of the call.
    """
    ranges = batch_ranges(n, batch)
    out: list[T] = []
    run_ordered(lambda i: fn(*ranges[i]), len(ranges), workers, out.append)
    return out


def run_ordered(
    fn: Callable[[int], T],
    n: int,
    workers: int | None,
    consume: Callable[[T], object],
) -> None:
    """``consume(fn(i))`` for i = 0 .. n-1, in that order.  ``fn`` runs on
    the pool, at most ``workers`` calls at a time, and ``consume`` on the
    calling thread; with w workers, call i + w is submitted only once
    result i is taken, so a caller can hand call i's resources on to it.
    With one worker, a single call, or on a pool thread, everything runs
    on the calling thread.

    If ``fn`` or ``consume`` raises, the calls in flight are waited for
    before the error propagates: none of them outlives this call.
    """
    w = resolve_workers(workers)
    if w <= 1 or n <= 1 or getattr(_thread, "in_pool", False):
        for i in range(n):
            consume(fn(i))
        return
    pending: collections.deque = collections.deque()
    try:
        for i in range(n):
            if len(pending) == w:
                done = pending.popleft().result()
                pending.append(_submit(w, fn, i))
                consume(done)
            else:
                pending.append(_submit(w, fn, i))
        while pending:
            consume(pending.popleft().result())
    finally:
        wait(pending)


def chunk_sums(rows: np.ndarray) -> np.ndarray:
    """Per-chunk sums of ``q`` per-row terms over a batch of ``m`` rows,
    laid out ``(q, m)``; returns ``(ceil(m / CHUNK), q)``.

    Entry ``[i, j]`` is term ``j`` summed over the batch's rows
    ``[i*CHUNK, (i+1)*CHUNK)``, bitwise ``np.sum`` of that slice; the last
    chunk may be short.  Batch-local chunks are global chunks only because
    every ``run_batches`` window starts on the chunk grid.
    """
    q, m = rows.shape
    full = m // CHUNK * CHUNK
    out = np.empty((-(-m // CHUNK), q))
    # np.add.reduce is np.sum without its Python-level dispatch, which
    # matters on the small batches of a fit
    np.add.reduce(rows[:, :full].reshape(q, -1, CHUNK), axis=2, out=out[: full // CHUNK].T)
    if full < m:
        np.add.reduce(rows[:, full:], axis=1, out=out[-1])
    return out


def workspace(rows: int, m: int) -> np.ndarray:
    """A ``(rows, m)`` float64 scratch array owned by the calling thread;
    the thread's next call returns the same memory.  Its contents are
    undefined, and nothing made from it may outlive the caller's batch.

    The buffer grows to the largest request the thread has made, with m
    rounded up to whole chunks so that batches a few rows apart share it,
    and is never shrunk.
    """
    need = rows * m
    buf = getattr(_thread, "buf", None)
    if buf is None or buf.size < need:
        buf = _thread.buf = None    # drop the old buffer before allocating
        buf = _thread.buf = np.empty(rows * (-(-m // CHUNK) * CHUNK))
    return buf[:need].reshape(rows, m)


def fold(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The left fold, in global chunk order, of the ``(c, q)`` chunk sums of
    every batch: one total per term, the same for any worker count."""
    return np.add.accumulate(np.concatenate(parts))[-1]
