"""The one reduction primitive: per-chunk sums and their ordered fold."""

import pathlib
import re
import threading

import numpy as np
import pytest

import hepkit as hk
from hepkit.parallel import CHUNK, EVAL_BATCH, chunk_sums, fold, workspace
from isolated import in_subprocess as _in_subprocess
from toymodel import build_model


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _terms(rng, shape):
    # magnitudes over forty decades, so that any change of summation
    # order shows in the low bits
    return rng.standard_normal(shape) * np.exp(rng.uniform(-46.0, 46.0, shape))


@pytest.mark.parametrize("m", [1, CHUNK - 1, CHUNK, CHUNK + 1, EVAL_BATCH, EVAL_BATCH - 7])
@pytest.mark.parametrize("q", [1, 2, 5])
def test_chunk_sums_is_per_slice_sum(m, q):
    rows = _terms(np.random.default_rng(m * 10 + q), (q, m))
    got = chunk_sums(rows)
    ref = [[np.sum(rows[j, s : s + CHUNK]) for j in range(q)] for s in range(0, m, CHUNK)]
    assert got.shape == (-(-m // CHUNK), q)
    assert np.array_equal(_bits(got), _bits(ref))


def test_fold_is_left_fold():
    rng = np.random.default_rng(3)
    parts = [_terms(rng, (c, 4)) for c in (16, 16, 3, 1, 16)]
    total = None
    for part in parts:
        for row in part:
            total = row.copy() if total is None else total + row
    assert np.array_equal(_bits(fold(parts)), _bits(total))


def test_fold_of_one_row_is_that_row():
    row = _terms(np.random.default_rng(4), (1, 3))
    assert np.array_equal(_bits(fold([row])), _bits(row[0]))


def test_splot_matrix_rejects_empty_store():
    empty = hk.ColumnStore(hk.ColumnSchema.real64("x0"))
    with pytest.raises(ValueError) as info:
        hk.splot_matrix(build_model(), empty, ["x0"])
    assert "empty" in str(info.value)
    assert "\n" not in str(info.value)


def test_workspace_is_per_thread_and_grows_on_demand():
    first = workspace(3, 1000)
    assert first.shape == (3, 1000) and first.flags.c_contiguous
    smaller = workspace(2, 700)
    assert np.shares_memory(first, smaller)    # reused, not reallocated
    larger = workspace(4, 1000)
    assert larger.shape == (4, 1000)
    assert np.shares_memory(larger, workspace(1, 10))    # the grown buffer stays
    other = []
    thread = threading.Thread(target=lambda: other.append(workspace(4, 1000)))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert not np.shares_memory(other[0], larger)


# -- the one pool -------------------------------------------------------
# Each check below runs in a fresh interpreter (isolated.in_subprocess): a
# hang then fails at the timeout instead of stalling the run, and the pool
# starts out empty.


def test_parallel_calls_nested_in_ordered_tasks_finish_with_1_worker_bytes():
    out = _in_subprocess("""
        import hashlib
        import numpy as np
        import hepkit as hk
        from hepkit.parallel import chunk_sums, fold, run_batches, run_ordered
        from toymodel import build_model

        spec = hk.DecaySpec(3.0, (0.5, 0.5, 0.5))
        mother = hk.FourVector.at_rest(3.0)

        def task(w, i):
            terms = lambda a, b: chunk_sums(np.sin(np.arange(a, b, dtype=float))[None] * 1e3)
            total = fold(run_batches(terms, 3 * 4096, w, batch=4096))
            ev = hk.phsp_generate(spec, mother, 3000, hk.RngKey(8, 1, counter=3000 * i),
                                  workers=w)
            model = build_model(scale=0.05)
            sample = hk.generate_model_sample(model, hk.RngKey(9, 2).child(i), workers=w)
            result = hk.fit(model, sample, ["x0"], workers=w)
            values = [p.value for p in result.params] + [result.nll_min]
            return b"".join([total.tobytes(), np.asarray(values).tobytes(),
                             *(ev.column(n).tobytes() for n in ev.schema.names)])

        for w in (1, 2, 8):
            digest = hashlib.sha256()
            run_ordered(lambda i: task(w, i), 4, w, digest.update)
            print(digest.hexdigest())
    """)
    digests = out.split()
    assert len(digests) == 3 and len(set(digests)) == 1


def test_threads_after_a_worker_count_sweep_stay_within_the_largest_count():
    out = _in_subprocess("""
        import io, threading, time
        import hepkit as hk
        from hepkit.parallel import run_batches
        from hepkit.phasespace import PHSP_RANGE

        spec = hk.DecaySpec(1.0, (0.1, 0.1, 0.1))
        mother = hk.FourVector.at_rest(1.0)
        for w in range(1, 7):
            hk.phsp_write_csv(io.StringIO(), spec, mother, 6 * PHSP_RANGE, hk.RngKey(3, 1),
                              workers=w)
            run_batches(lambda a, b: b - a, 12 * 4096, w, batch=4096)
        # a replaced pool's threads exit once they see its shutdown
        deadline = time.monotonic() + 10.0
        while threading.active_count() - 1 > 6 and time.monotonic() < deadline:
            time.sleep(0.01)
        print(threading.active_count() - 1)
    """)
    assert 1 <= int(out) <= 6


def test_a_call_keeps_to_its_worker_count_on_a_larger_pool():
    out = _in_subprocess("""
        import threading
        from hepkit.parallel import run_batches

        run_batches(lambda a, b: None, 16, 8, batch=1)    # the pool grows to 8
        lock, running, peak = threading.Lock(), [0], [0]
        pair = threading.Barrier(2, timeout=30)    # fails unless 2 run at once

        def task(a, b):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            pair.wait()
            with lock:
                running[0] -= 1
            return a

        assert run_batches(task, 16, 2, batch=1) == list(range(16))
        print(peak[0])
    """)
    assert int(out) == 2


def test_the_pool_grows_from_another_thread_while_a_call_submits():
    out = _in_subprocess("""
        import threading
        from hepkit import parallel

        started, resume = threading.Event(), threading.Event()
        pools, results, errors = set(), [], []

        def task(i):
            pools.add(threading.current_thread().name.split("_")[0])
            if i == 3:
                started.set()
                assert resume.wait(30)
            return i * i

        def call():
            try:
                parallel.run_ordered(task, 12, 2, results.append)
            except BaseException as exc:
                errors.append(exc)

        caller = threading.Thread(target=call)
        caller.start()
        assert started.wait(30)
        parallel.run_batches(lambda a, b: b - a, 8, 8, batch=1)    # grows the pool mid-call
        assert parallel._pool_size == 8 and caller.is_alive()
        resume.set()
        caller.join(30)
        assert not caller.is_alive() and errors == [], errors
        assert results == [i * i for i in range(12)]
        print(len(pools))
    """)
    assert int(out) == 2    # the call's later tasks ran on the grown pool


def test_calls_from_several_threads_under_forced_thread_switches():
    out = _in_subprocess("""
        import sys, threading
        from hepkit.parallel import run_batches

        results, errors = [], []

        def user(t):
            try:
                for k in range(40):
                    w = 2 + (t + k) % 7    # the pool grows while others submit
                    n = 3 + (t * k) % 11
                    results.append(run_batches(lambda a, b: (t, a, b), n, w, batch=1)
                                   == [(t, i, i + 1) for i in range(n)])
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            users = [threading.Thread(target=user, args=(t,)) for t in range(4)]
            for u in users:
                u.start()
            for u in users:
                u.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(u.is_alive() for u in users) and errors == [], errors
        print(len(results), all(results))
    """)
    assert out.split() == ["160", "True"]


# The pool in parallel.py is the package's only source of threads: a
# second executor would bring back idle pools and nested waits.
_THREAD_MAKERS = re.compile(r"\b(?:ThreadPoolExecutor|threading\.Thread)\(")


def test_guard_pattern_catches_thread_makers():
    for line in ["pool = ThreadPoolExecutor(max_workers=w)",
                 "t = threading.Thread(target=work)"]:
        assert _THREAD_MAKERS.search(line), line
    assert not _THREAD_MAKERS.search("from .parallel import run_batches, run_ordered")


def test_no_threads_started_outside_parallel():
    src = pathlib.Path(hk.__file__).parent
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(src.glob("*.py")) if path.name != "parallel.py"
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if _THREAD_MAKERS.search(line)]
    assert found == []
