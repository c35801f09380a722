"""The one reduction primitive: per-chunk sums and their ordered fold."""

import threading

import numpy as np
import pytest

import hepkit as hk
from hepkit.parallel import CHUNK, EVAL_BATCH, chunk_sums, fold, workspace
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
