"""Structure-of-arrays table: one contiguous column per dimension.

Rows are materialized as tuples on access.  Mutation (push) needs exclusive
access; once construction is done, any number of workers may read
concurrently.  There is no limit on the number of columns.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import io
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .parallel import resolve_workers, run_ordered

_KIND_DTYPES = {
    "real64": np.float64,
    "integer64": np.int64,
    "boolean": np.bool_,
}

# Rows per block of the CSV writer.
CSV_BLOCK = 8192
# Values that a part of a block holds at least, when the writer splits a
# block across workers: below about this many, a part's numpy calls gain
# little from a second thread.
CSV_PART_VALUES = 2 ** 15

_BOOLEAN_TOKENS = {"true": True, "false": False}
_EXPECTED = {
    "real64": "a finite real",
    "integer64": "a 64-bit integer",
    "boolean": "a boolean (true/false)",
}
# What a token parser raises on a token its kind does not accept.
_REJECTED = (ValueError, KeyError, OverflowError)

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _valid_name(name: str) -> bool:
    return bool(name) and set(name) <= _NAME_CHARS


@dataclass(frozen=True)
class ColumnSchema:
    """Ordered (name, kind) pairs; kind is real64, integer64 or boolean."""

    columns: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if len(self.columns) < 1:
            raise ValueError("schema needs at least one column")
        seen = set()
        for name, kind in self.columns:
            if not _valid_name(name):
                raise ValueError(f"invalid column name {name!r} (use [A-Za-z0-9_])")
            if name in seen:
                raise ValueError(f"duplicate column name {name!r}")
            seen.add(name)
            if kind not in _KIND_DTYPES:
                raise ValueError(f"unknown column kind {kind!r}")

    @classmethod
    def real64(cls, *names: str) -> "ColumnSchema":
        """Homogeneous all-real64 schema (the multiarray analog)."""
        return cls(tuple((n, "real64") for n in names))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.columns)

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(k for _, k in self.columns)

    def dtype(self, name: str) -> type:
        for n, k in self.columns:
            if n == name:
                return _KIND_DTYPES[k]
        raise KeyError(name)

    def __len__(self) -> int:
        return len(self.columns)


def _coerce(value, kind: str, column: str):
    if kind == "real64":
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise TypeError(f"column {column!r} expects a real, got {value!r}")
        return float(value)
    if kind == "integer64":
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"column {column!r} expects an integer, got {value!r}")
        return int(value)
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError(f"column {column!r} expects a boolean, got {value!r}")
    return bool(value)


class ColumnStore:
    """Columnar table with tuple row access and vector column access."""

    def __init__(self, schema: ColumnSchema, capacity_hint: int = 0):
        self.schema = schema
        cap = max(int(capacity_hint), 0)
        self._data = {
            name: np.empty(cap, dtype=_KIND_DTYPES[kind])
            for name, kind in schema.columns
        }
        self._len = 0

    @classmethod
    def from_columns(cls, schema: ColumnSchema, columns: Sequence[np.ndarray]) -> "ColumnStore":
        """Bulk constructor from equal-length per-column arrays."""
        if len(columns) != len(schema):
            raise ValueError(f"expected {len(schema)} columns, got {len(columns)}")
        data = {}
        for (name, kind), col in zip(schema.columns, columns):
            arr = np.asarray(col, dtype=_KIND_DTYPES[kind])
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D, got shape {arr.shape}")
            arr = np.ascontiguousarray(arr)
            if not arr.flags.writeable:
                arr = arr.copy()
            data[name] = arr
        lengths = {len(arr) for arr in data.values()}
        if len(lengths) > 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")
        store = cls(schema)
        store._data = data
        store._len = lengths.pop()
        return store

    def __len__(self) -> int:
        return self._len

    def push(self, row: Sequence) -> None:
        """Append one row; arity and kinds must match the schema."""
        if len(row) != len(self.schema):
            raise ValueError(f"row arity {len(row)} != schema arity {len(self.schema)}")
        values = [
            _coerce(v, kind, name)
            for v, (name, kind) in zip(row, self.schema.columns)
        ]
        if self._len == len(next(iter(self._data.values()))):
            new_cap = max(8, 2 * self._len)
            for name in self._data:
                grown = np.empty(new_cap, dtype=self._data[name].dtype)
                grown[: self._len] = self._data[name][: self._len]
                self._data[name] = grown
        for value, name in zip(values, self.schema.names):
            self._data[name][self._len] = value
        self._len += 1

    def row(self, i: int) -> tuple:
        """The i-th row as a tuple of python scalars, in schema order."""
        if not 0 <= i < self._len:
            raise IndexError(f"row {i} out of range (length {self._len})")
        return tuple(self._data[name][i].item() for name in self.schema.names)

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one column (valid until the next mutation)."""
        if name not in self._data:
            raise KeyError(f"unknown column {name!r}")
        view = self._data[name][: self._len]
        view.flags.writeable = False
        return view

    def columns(self, names: Iterable[str] | None = None) -> tuple[np.ndarray, ...]:
        return tuple(self.column(n) for n in (names or self.schema.names))

    def rows(self) -> Iterable[tuple]:
        return (self.row(i) for i in range(self._len))

    def filter(self, predicate: Callable[[tuple], bool]) -> "ColumnStore":
        """New store with the rows where ``predicate(row_tuple)`` is true."""
        mask = np.fromiter(
            (bool(predicate(self.row(i))) for i in range(self._len)),
            dtype=bool,
            count=self._len,
        )
        return self.where_mask(mask)

    def where_mask(self, mask: np.ndarray) -> "ColumnStore":
        """Vectorized row selection; relative order preserved."""
        if len(mask) != self._len:
            raise ValueError("mask length must equal store length")
        idx = np.flatnonzero(mask)
        return ColumnStore.from_columns(
            self.schema, [self._data[n].take(idx) for n in self.schema.names]
        )

    def copy(self) -> "ColumnStore":
        return self.where_mask(np.ones(self._len, dtype=bool))

    # -- CSV interchange ---------------------------------------------------
    # header = column names; real64 with 17 significant digits so values
    # round-trip exactly; no quoting (names are [A-Za-z0-9_] by schema).
    # The writer works a block of CSV_BLOCK (8192) rows at a time, split
    # into parts across workers by csv_parts; its text is byte for byte
    # Python's '%.17g' (real64), '%d' (integer64) and true/false (boolean),
    # and the kernel that makes it is described above _CsvText.  The
    # reader holds one block of text, about _READ_CHARS characters of whole
    # lines, at a time; its kernel is described above _CsvRead.
    # Tokens read: real64 takes what python's float() takes if the value is
    # finite, integer64 what int() takes within 64 bits, boolean true/false
    # in any case.  Whitespace around a line or a token is ignored and blank
    # lines are skipped.  A rejected line or token raises a one-line
    # ValueError naming the line and the column.

    def write_csv(self, path_or_file) -> None:
        """Writes the table to a path or an open text file.  Its blocks are
        formatted on the worker count of an enclosing ``write_workers``
        block (1 outside one): each block is split into the parts of
        ``csv_parts``, each part is formatted on a pool thread into a
        _CsvText of its own, and the calling thread writes the texts in row
        order.  The rows in flight are one block's worth for any worker
        count, so memory stays that of one thread, and the bytes are the
        same for any count: a row's text depends only on its values."""
        columns = [self._data[name] for name in self.schema.names]
        # planned before the file is opened, so a bad count truncates nothing
        w = resolve_workers(_WRITE_WORKERS.get())
        window, parts = csv_parts(self._len, len(columns), w)
        own = isinstance(path_or_file, (str, bytes))
        fh = open(path_or_file, "w") if own else path_or_file
        texts: list[_CsvText] = []
        try:
            fh.write(",".join(self.schema.names) + "\n")
            # part i uses text i % window: run_ordered starts it only after
            # part i - window, the text's last user, is done
            texts += [_CsvText(self.schema.kinds) for _ in range(window)]

            def text(i: int) -> str:
                start, stop = parts[i]
                return texts[i % window]([c[start:stop] for c in columns])

            run_ordered(text, len(parts), w, window, fh.write)
        finally:
            texts.clear()    # the scratch goes now, even if a traceback holds this frame
            if own:
                fh.close()

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


# The worker count of write_csv.
_WRITE_WORKERS: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "write_workers", default=1)


@contextlib.contextmanager
def write_workers(workers: int | None):
    """Within the block, ``ColumnStore.write_csv`` formats on ``workers``
    threads (0 or None = every core).  The writer takes its count this way
    rather than as an argument, so that a wrapper of write_csv that passes
    on only the destination, as perfbench's tracer does, still writes on
    every worker."""
    token = _WRITE_WORKERS.set(workers)
    try:
        yield
    finally:
        _WRITE_WORKERS.reset(token)


def csv_parts(rows: int, width: int, workers: int) -> tuple[int, list[tuple[int, int]]]:
    """The writer's plan for ``rows`` rows of ``width`` columns on
    ``workers`` (>= 1) threads: the parts per block, and the [start, stop)
    rows of every part, in order.  A block of CSV_BLOCK rows is split into
    parts = clamp(CSV_BLOCK * width // CSV_PART_VALUES, 1, workers) parts
    of nearly equal size, and a short last block into at most as many as
    it has rows; so every part holds at least one row, and the rows of one
    block's parts, those in flight at a time, total CSV_BLOCK at most."""
    per_block = max(1, min(CSV_BLOCK * width // CSV_PART_VALUES, workers, CSV_BLOCK))
    parts = []
    for start in range(0, rows, CSV_BLOCK):
        size = min(CSV_BLOCK, rows - start)
        k = min(per_block, size)
        parts += [(start + size * j // k, start + size * (j + 1) // k) for j in range(k)]
    return per_block, parts


# -- CSV text kernel ---------------------------------------------------------
# _CsvText turns a part of a block, a run of rows, into its CSV lines with
# numpy calls over whole columns.  One _CsvText serves one thread at a
# time: write_csv gives each part in flight its own, and a block is split
# only into parts of at least CSV_PART_VALUES values, at most one per
# worker, so that the parts in flight hold one block's rows and their
# arrays total one thread's (179 bytes a real64 value, 19 MB for a block
# of 13 columns).  CSV_BLOCK * width // CSV_PART_VALUES is width // 4, so
# a table of 7 columns or fewer is not split and is written on the calling
# thread, and a block gets at most width // 4 parts for any worker count.
# Every value gets a fixed row of _SLOTS byte slots; a slot that the
# value's text does not use holds 0.  The slots are built slot-major, one
# 1-D call per slot across all of a kind's values, and one boolean index
# over their value-major transpose drops the zeros: that joins the values,
# separators and newlines into the block's text.  integer64 and the real64
# digits come from one routine (groups of four digits from a 10**4-entry
# table); a boolean's slots hold 'false', its bits flipped to 'true' where set.
#
# real64 is exact by construction, with no approximate path.  Its domain is
# finite x with 1e-280 < |x| < 1e280.  There E = floor(log10|x|) is
# estimated and |x| is scaled by 10**(16 - E): the power table holds 10**k
# as hi + lo to within 2**-106 of it, made exactly from Python integers on
# the first write; Dekker's two-product gives |x| * hi exactly as p + t,
# and t += |x| * lo.  p + t is within 4e-15 of the exact scaled value
# (2**-106 * 1e17 from the table, half an ulp of |x| * lo <= 11.1, half an
# ulp of t <= 19.1), and it is rounded half-up to the 17-digit integer N.
# Python's own '%.17g' writes, one value at a time:
#   - a value whose scaled fraction lies within _TIE_BOUND of 0.5, where
#     the error could decide the rounding (exact ties exist: m/4 for odd m
#     in [2**52, 2**53), which '%.17g' rounds half-even);
#   - a value whose scaled value is below 1e16 (log10 rounds up just below
#     a power of ten, e.g. nextafter(1e-274, 0)) or rounds to 1e17 (a
#     carry, which would need E + 1; with a log10 that rounds correctly
#     next to powers of ten no double reaches it);
#   - a value outside the domain: +-0, subnormals, +-inf, nan, |x| >= 1e280.
# The layout is %g's: fixed notation for -4 <= E < 17, else d.ddde+-XX
# with at least two exponent digits; trailing zeros are stripped, a point
# with nothing after it is dropped, and np.signbit gives the '-'.

# real64 slots: sign, '0.000' prefix, 17 digits with the point inserted
# (18 slots), 'e', exponent sign, three exponent digits; a text from
# '%.17g' (24 bytes at most) fits in the same 29.  The last slot holds the
# separator.
_SLOTS = 30
_SEPARATOR = _SLOTS - 1
_PREFIX, _REGION, _EXPONENT = 1, 6, 24
_SPLIT = 134217729.0     # 2**27 + 1: splits a double into two 26-bit halves
_TIE_BOUND = 2.0 ** -40
# 10**(16 - E) for every E that floor(log10|x|) gives on the domain, with
# one of margin on each side for log10's rounding
_POW_MIN, _POW_MAX = -264, 297
# the boolean slots: 'false', and the bits in which 'true\0' differs from it
_BOOLEAN_SLOTS = np.frombuffer(b"false", np.uint8), \
    np.frombuffer(b"false", np.uint8) ^ np.frombuffer(b"true\0", np.uint8)


@functools.cache
def _csv_tables() -> tuple[np.ndarray, np.ndarray]:
    """The digit table (10**4 four-digit ASCII groups as uint32) and the
    power table: rows hi, hi's upper and lower 26-bit halves, and lo, with
    column k - _POW_MIN holding 10**k = hi + lo to within 2**-106 of it."""
    groups = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    digits = groups.astype(np.uint8).view(np.uint32).ravel()
    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den          # integer true division rounds correctly
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    upper = hi * _SPLIT
    upper -= upper - hi
    return digits, np.stack([hi, upper, hi - upper, np.array(lo)])


class _CsvText:
    """The CSV text of a table's parts.  Every array of the kernel but the
    text it returns is scratch, sized by the first part and reused by the
    later ones: fresh arrays of this size would be page-faulted in again
    for every part, by every writer thread."""

    def __init__(self, kinds: Sequence[str]):
        self.groups = [(kind, [j for j, k in enumerate(kinds) if k == kind])
                       for kind in dict.fromkeys(kinds)]
        self.separators = np.frombuffer(b"," * (len(kinds) - 1) + b"\n", np.uint8)
        self._arrays: dict[str, np.ndarray] = {}

    def scratch(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An array of the given shape and dtype in the buffer called
        ``name``; its contents are undefined.  Every request under a name
        gets the same memory, so arrays whose lives overlap take different
        names, and arrays that follow one another can share one: "work"
        holds the real64 kernel's doubles, then _digit_rows's groups, then
        the value-major slots and the mask of those kept."""
        dtype = np.dtype(dtype)
        size = int(np.prod(shape)) * dtype.itemsize
        buf = self._arrays.get(name)
        if buf is None or buf.size < size:
            buf = self._arrays[name] = np.empty(size, np.uint8)
        return buf[:size].view(dtype).reshape(shape)

    def __call__(self, columns: Sequence[np.ndarray]) -> str:
        rows, width = len(columns[0]), len(columns)
        slots = self.scratch("slots", (_SLOTS, rows, width), np.uint8)
        for kind, idx in self.groups:
            values = self.scratch("values", (rows, len(idx)), _KIND_DTYPES[kind])
            for k, j in enumerate(idx):
                values[:, k] = columns[j]
            part = slots if len(idx) == width else \
                self.scratch("group slots", (_SLOTS, rows, len(idx)), np.uint8)
            _KIND_SLOTS[kind](values.ravel(), part.reshape(_SLOTS, -1), self.scratch)
            if part is not slots:
                slots[:, :, idx] = part
        slots[_SEPARATOR] = self.separators
        # value-major, so that dropping the zero slots leaves the text
        chars, keep = self.scratch("work", (2, rows * width, _SLOTS), np.uint8)
        np.copyto(chars, slots.reshape(_SLOTS, -1).T)
        keep = np.not_equal(chars, 0, out=keep.view(bool))
        return str(chars[keep], "ascii")


def _digit_rows(u: np.ndarray, scratch) -> np.ndarray:
    """ASCII digits of the uint64 values ``u``, zero-padded to 20, as 20
    rows (row 0 the most significant)."""
    n = len(u)
    g = scratch("work", (6, n), np.intp)           # five groups of 4 digits
    np.floor_divide(u, 10 ** 8, out=g[5].view(np.uint64))
    np.multiply(g[5], 10 ** 8, out=g[4])
    np.subtract(u.view(np.int64), g[4], out=g[4])   # u % 10**8, modulo 2**64
    np.floor_divide(g[5], 10 ** 8, out=g[0])
    np.multiply(g[0], 10 ** 8, out=g[2])
    np.subtract(g[5], g[2], out=g[2])               # u // 10**8 % 10**8
    for left, right in ((1, 2), (3, 4)):            # 8 digits into two groups
        np.floor_divide(g[right], 10 ** 4, out=g[left])
        np.multiply(g[left], 10 ** 4, out=g[5])
        g[right] -= g[5]
    text = _csv_tables()[0].take(g[:5], out=scratch("digit text", (5, n), np.uint32),
                                  mode="wrap")
    rows = scratch("digit rows", (20, n), np.uint8)
    np.copyto(rows.reshape(5, 4, n), text.view(np.uint8).reshape(5, n, 4).transpose(0, 2, 1))
    return rows


def _real_slots(x: np.ndarray, out: np.ndarray, scratch) -> None:
    n = len(x)
    # the doubles are dead once the digits are made, so _digit_rows reuses
    # their memory
    a, p, s, t, u, hi, upper, lower, lo = scratch("work", (9, n), np.float64)
    digits, whole = scratch("real int", (2, n), np.int64)
    exact, mask, seen, sci, below_one = scratch("real flags", (5, n), bool)
    e10, zeros = scratch("real exponent", (2, n), np.int16)
    length, point, end, dot = scratch("real places", (4, n), np.uint8)
    np.abs(x, out=a)
    np.greater(a, 1e-280, out=exact)
    exact &= np.less(a, 1e280, out=mask)
    np.copyto(a, 1.0, where=np.logical_not(exact, out=mask))
    np.floor(np.log10(a, out=t), out=t)
    np.copyto(e10, t, casting="unsafe")
    np.subtract(16 - _POW_MIN, e10, out=whole)
    for row, table in zip((hi, upper, lower, lo), _csv_tables()[1]):
        table.take(whole, out=row, mode="clip")
    # Dekker's two-product: p + t = a * hi exactly, with a = s + u split in
    # 26-bit halves; then t += a * lo
    np.multiply(a, hi, out=p)
    np.multiply(a, _SPLIT, out=s)
    np.subtract(s, a, out=t)
    s -= t
    np.subtract(a, s, out=u)
    np.multiply(s, upper, out=t)
    t -= p
    s *= lower
    t += s
    np.multiply(u, upper, out=hi)
    t += hi
    u *= lower
    t += u
    np.multiply(a, lo, out=u)
    t += u
    np.floor(t, out=u)
    t -= u                                    # the fraction
    np.copyto(whole, u, casting="unsafe")
    np.copyto(digits, p, casting="unsafe")    # p is an integer above 2**53
    digits += whole
    np.subtract(t, 0.5, out=u)
    exact &= np.greater(np.abs(u, out=u), _TIE_BOUND, out=mask)
    exact &= np.greater_equal(digits, 10 ** 16, out=mask)
    np.copyto(whole, np.greater(t, 0.5, out=mask))
    digits += whole                           # rounded half up
    exact &= np.less(digits, 10 ** 17, out=mask)
    digit = _digit_rows(digits.view(np.uint64), scratch)[3:]
    # significant digits: 17 less the trailing zeros
    length[:] = 0
    seen[:] = False
    for row in digit[::-1]:
        seen |= np.not_equal(row, ord("0"), out=mask)
        length += seen
    np.less(e10, -4, out=sci)
    sci |= np.greater(e10, 16, out=mask)
    np.less(e10, 0, out=below_one)
    below_one &= np.logical_not(sci, out=mask)
    # the point goes before digit `point`: e10 + 1 in fixed notation, 1 in
    # scientific; below one it is in the prefix, and `point` = length
    # leaves the digits without one.  `end` is where the text ends: length
    # + 1 with a point (length > point), else point; `dot` is the point's
    # slot in the digits where it has one (at least 1), else 0
    np.add(e10, 1, out=point, casting="unsafe")
    np.copyto(point, length, where=below_one)
    np.copyto(point, 1, where=sci)
    np.greater(length, point, out=mask)
    np.add(length, mask, out=end)
    np.maximum(end, point, out=end)
    np.multiply(point, mask, out=dot)
    np.signbit(x, out=out[0].view(bool))
    out[0] *= ord("-")
    np.subtract(1, e10, out=zeros)            # the prefix's zeros below one
    zeros *= below_one
    for k, ch in enumerate(b"0.000"):
        row = out[_PREFIX + k]
        np.greater(zeros, k, out=row.view(bool))
        row *= ch
    for r in range(18):
        row = out[_REGION + r]
        before, after = digit[min(r, 16)], digit[max(r - 1, 0)]
        np.subtract(before, after, out=row)
        row *= np.greater(point, r, out=mask)
        row += after      # digit r before the point, digit r - 1 after it
        if r and np.equal(dot, r, out=mask).any():    # few slots hold a point
            np.copyto(row, ord("."), where=mask)
        row *= np.greater(end, r, out=mask)
    out[_EXPONENT:_SEPARATOR] = 0
    sci = np.flatnonzero(sci)
    if sci.size:
        e = e10[sci]
        mag = np.abs(e)
        out[_EXPONENT:_SEPARATOR, sci] = [
            np.full(sci.size, ord("e")), ord("+") + 2 * (e < 0),  # '+' + 2 = '-'
            (mag // 100 + ord("0")) * (mag >= 100), mag // 10 % 10 + ord("0"),
            mag % 10 + ord("0")]
    redo = np.flatnonzero(np.logical_not(exact, out=mask))
    if redo.size:
        text = np.array([b"%.17g" % v for v in x[redo].tolist()], dtype=f"S{_SEPARATOR}")
        out[:_SEPARATOR, redo] = text.view(np.uint8).reshape(-1, _SEPARATOR).T


def _integer_slots(x: np.ndarray, out: np.ndarray, scratch) -> None:
    n = len(x)
    np.less(x, 0, out=out[0].view(bool))
    out[0] *= ord("-")
    # np.abs leaves INT64_MIN as it is, whose uint64 view is its magnitude
    magnitude = np.abs(x, out=scratch("integer magnitude", (n,), np.int64))
    digit = _digit_rows(magnitude.view(np.uint64), scratch)
    seen, mask = scratch("integer flags", (2, n), bool)
    seen[:] = False
    for r, row in enumerate(digit[:-1]):
        seen |= np.not_equal(row, ord("0"), out=mask)
        np.multiply(row, seen, out=out[1 + r])
    out[20] = digit[-1]
    out[21:_SEPARATOR] = 0


def _boolean_slots(x: np.ndarray, out: np.ndarray, scratch) -> None:
    # 'false', with the bits that make it 'true\0' flipped where x is set; a
    # masked copy of 'true' would do the same 40 times slower
    for row, false, flip in zip(out, *_BOOLEAN_SLOTS):
        np.multiply(x, flip, out=row)
        row ^= false
    out[5:_SEPARATOR] = 0


# kind -> f(x, out, scratch): fills every slot of out (_SLOTS rows, a column
# per value of x) but the separator; scratch is _CsvText.scratch
_KIND_SLOTS = {"real64": _real_slots, "integer64": _integer_slots, "boolean": _boolean_slots}


# -- CSV read kernel -----------------------------------------------------------
# _CsvRead turns a block of CSV text, whole lines of about _READ_CHARS
# characters, into its columns with numpy calls over the whole block, on
# one thread.  Lines end at '\n' only, as they do when a text file is
# iterated.  An ASCII block is encoded and read by the kernel; in any other
# block the lines that are not ASCII are read one at a time, as Python
# strings, by str.strip, str.split and _parse_column, and the rest by the
# kernel.  The kernel finds the '\n' and ',' bytes, moves line ends past
# what str.strip skips and field ends past what float() and int() skip,
# drops blank lines and checks each line's field count.  Each kind's tokens
# are gathered into slot-major byte rows, one row per byte position (a
# multiple of four rows, at most _TOKEN_SLOTS; 0 past a token's end), and
# read from them with numpy calls over whole rows:
#   - real64 and integer64 take [sign] digits [.digits] [e [sign] digits]
#     with at least one mantissa digit, at most 19 significant digits (a
#     uint64 mantissa M, by Horner's rule on groups of four rows) and at
#     most 4 exponent digits, for the value M * 10**q.  integer64 takes
#     only [sign] digits, within 64 bits.
#   - boolean takes true and false in any case.
#
# real64 is exact by construction, with no approximate path.  Its domain is
# q in [_POW_MIN, _POW_MAX], the writer's power table, where 10**q = hi + lo
# to within 2**-106 of it, so 1e-264 <= M * 10**q.  M = mh + ml exactly, mh
# the double conversion of M and |ml| below an ulp of mh; Dekker's
# two-product gives mh * hi exactly as p + t, and t += mh * lo + ml * hi.
# p + t is within 12 * 2**-106 * p of M * 10**q (the table, the two rounded
# products, the dropped ml * lo and the two rounded additions); r is p + t
# rounded and err = p + t - r exactly (Fast2Sum).  r is the correctly
# rounded value when |err| + 2**-100 * p, which leaves room for the test's
# own rounding, is below half the gap from r to the double below it (the
# smaller of its two gaps): M * 10**q then lies strictly inside r's rounding
# interval.  On the domain every product is a normal double, so Dekker's
# product is exact, and r is normal.  M = 0 reads as a signed zero.
# _parse_column, Python's float(), int() and true/false, reads one token at
# a time every token that the kernel does not:
#   - one with any other byte: '_', 'inf', 'nan', whitespace inside it, a
#     second point or mark, a sign elsewhere than first or after the mark,
#     no mantissa digit, more than _TOKEN_SLOTS bytes;
#   - more than 19 significant or 4 exponent digits;
#   - real64: q outside the table (magnitudes below about 1e-264 * M,
#     subnormals among them), a result that overflows, and one that fails
#     the rounding test (exact ties and values within the bound of one);
#   - integer64: a value outside 64 bits.
# So the columns are those of _parse_column bit for bit, and every token or
# line that it or the field count rejects raises for _first_error.

_TOKEN_SLOTS = 32
_READ_CHARS = 1 << 17     # characters read per block
_ROUND_BOUND = 2.0 ** -100
# ASCII whitespace, but '\n', which ends a line: what str.strip skips
# around a line, and what float() and int() skip around an ASCII token
# (not \x1c-\x1f, which str.strip also skips)
_LINE_SPACE = np.array([chr(c).isspace() and c != 10 for c in range(256)])
_TOKEN_SPACE = np.array([c in b" \t\x0b\x0c\r" for c in range(256)])


def _skip_space(b: np.ndarray, pos: np.ndarray, step: int, space: np.ndarray) -> None:
    """Moves each position in ``pos`` by ``step`` while the byte it passes
    is in ``space`` (b[pos] forward, b[pos - 1] backward)."""
    back = step < 0
    idx = np.flatnonzero(space.take(b.take(pos - back)))
    while idx.size:
        pos[idx] += step
        idx = idx[space.take(b.take(pos[idx] - back))]


def _gather(b: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Slot-major token bytes: row k holds byte k of every token, 0 past its
    end, in a multiple of four rows, at least five (for 'false'); tokens
    longer than the rows are cut.  Returns the rows and the token lengths,
    capped at _TOKEN_SLOTS + 1."""
    length = np.clip(end - start, 0, _TOKEN_SLOTS + 1).astype(np.uint8)
    slots = min(max(int(length.max(initial=0)), 5), _TOKEN_SLOTS)
    slots += -slots % 4
    rows = np.empty((slots, len(start)), np.uint8)
    at = start.copy()
    for row in rows:
        b.take(at, out=row)
        at += 1
    rows *= np.arange(slots, dtype=np.uint8)[:, None] < length
    return rows, length


def _count(mask: np.ndarray) -> np.ndarray:
    """How many of each column's slots are set, as uint8."""
    return mask.view(np.uint8).sum(0, dtype=np.uint8)


def _decimal(c: np.ndarray, length: np.ndarray):
    """Reads [sign] digits [.digits] [e [sign] digits] from the slot rows
    ``c``.  Returns the sign, the mantissa M, the exponent q (value M *
    10**q), whether the token has a point or an exponent, and whether it
    matched with at most 19 significant and 4 exponent digits."""
    slots, n = c.shape
    slot = np.arange(slots, dtype=np.uint8)[:, None]
    # two slot-sized arrays are reused throughout, to keep a block small
    mask = np.empty(c.shape, bool)
    work = np.empty(c.shape, np.uint8)

    marks = _count(np.equal(np.bitwise_or(c, 32, out=work), ord("e"), out=mask))
    # the exponent, for the tokens with one mark
    at_e = length.copy()
    q = np.zeros(n, np.intp)
    xsign = np.zeros(n, bool)
    xdigits = np.zeros(n, np.uint8)
    e = np.flatnonzero(marks == 1)
    if e.size:
        at_e[e] = _count(mask[:, e] * slot)
        ce = c[:, e].ravel()
        cols = np.arange(e.size)
        at, end = at_e[e].astype(np.intp), length[e].astype(np.intp)
        after = ce.take(np.minimum(at + 1, slots - 1) * e.size + cols)
        xsign[e] = (after == ord("+")) | (after == ord("-"))
        xdigits[e] = end - at - 1 - xsign[e]
        x = np.zeros(e.size, np.intp)
        for i in range(1, 5):
            tail = ce.take(np.clip(end - i, 0, slots - 1) * e.size + cols)
            x += np.where(xdigits[e] >= i, tail.astype(np.intp) - 48, 0) * 10 ** (i - 1)
        q[e] = np.where(after == ord("-"), -x, x)
    points = _count(np.equal(c, ord("."), out=mask))
    # with one point, its slot
    at_point = np.where(points > 0, _count(np.multiply(mask, slot, out=work)), at_e)
    lead = ((c[0] == ord("+")) | (c[0] == ord("-"))).view(np.uint8)
    ok = (length <= slots) & (marks <= 1) & (points <= 1) & (at_point <= at_e)
    ok &= (marks == 0) | ((xdigits >= 1) & (xdigits <= 4))
    d = np.subtract(c, 48, out=work)
    digits = _count(np.less(d, 10, out=mask))
    # every byte is a digit, a point, a mark or a sign where one may be
    ok &= digits + lead + points + marks + xsign == length
    mantissa = digits - xdigits
    ok &= mantissa > 0
    q -= np.where(points > 0, at_e - at_point - 1, 0)
    # the mantissa by Horner's rule on groups of four slots: each a factor
    # 10**k for its k mantissa digits and their value
    used = np.logical_and(mask, slot < at_e, out=mask)
    value = np.multiply(d, used, out=work)
    factor = used * np.uint8(9)
    factor += 1
    for dtype in (np.uint8, np.uint16):     # pairs below 100, then fours
        value = value[0::2].astype(dtype, copy=False) * factor[1::2] + value[1::2]
        factor = factor[0::2].astype(dtype, copy=False) * factor[1::2]
    m = value[0].astype(np.uint64)
    for f, v in zip(factor[1:], value[1:]):
        m *= f
        m += v
    # over 19 mantissa digits: the leading zeros must bring the significant
    # ones to 19 (else M overflowed)
    long = np.flatnonzero(ok & (mantissa > 19))
    if long.size:
        seen = np.zeros(long.size, bool)
        zeros = np.zeros(long.size, np.uint8)
        for cl, ul in zip(c[:, long], used[:, long]):
            seen |= ul & (cl != ord("0"))
            zeros += ul & ~seen
        ok[long] &= mantissa[long] - zeros <= 19
    return c[0] == ord("-"), m, q, (marks > 0) | (points > 0), ok


def _real_values(c: np.ndarray, length: np.ndarray):
    neg, m, q, _, ok = _decimal(c, length)
    ok &= (q >= _POW_MIN) & (q <= _POW_MAX)
    q -= _POW_MIN
    hi, upper, lower, lo = (row.take(q, mode="clip") for row in _csv_tables()[1])
    mh = m.astype(np.float64)
    ml = (m - mh.astype(np.uint64)).view(np.int64).astype(np.float64)
    # out of the domain these overflow to inf and nan, which fail the test
    with np.errstate(over="ignore", invalid="ignore"):
        # Dekker's two-product: p + t = mh * hi exactly, mh = s + u in
        # 26-bit halves; then t += mh * lo + ml * hi
        p = mh * hi
        s = mh * _SPLIT
        s -= s - mh
        u = mh - s
        t = s * upper
        t -= p
        s *= lower
        t += s
        upper *= u
        t += upper
        u *= lower
        t += u
        lo *= mh
        t += lo
        hi *= ml
        t += hi
        r = p + t
        err = r - p
        np.subtract(t, err, out=err)
        np.abs(err, out=err)
        p *= _ROUND_BOUND
        err += p
        # half the gap below r: half an ulp of the double before it
        gap = r.view(np.int64) - 1
        gap &= 0x7FF << 52
        half = gap.view(np.float64)
        half *= 2.0 ** -53
        ok &= (err < half) | (m == 0)
    r.view(np.uint64)[...] |= neg.astype(np.uint64) << np.uint64(63)
    return r, ok


def _integer_values(c: np.ndarray, length: np.ndarray):
    neg, m, _, dotted, ok = _decimal(c, length)
    ok &= ~dotted & (m <= np.uint64(2 ** 63 - 1) + neg)
    flip = np.uint64(0) - neg.astype(np.uint64)    # all ones where negative
    m ^= flip
    m -= flip                                      # -m modulo 2**64 there
    return m.view(np.int64), ok


def _boolean_values(c: np.ndarray, length: np.ndarray):
    lower = c | 32
    true = (length == 4) & (lower[:4] == np.frombuffer(b"true", np.uint8)[:, None]).all(0)
    false = (length == 5) & (lower[:5] == np.frombuffer(b"false", np.uint8)[:, None]).all(0)
    return true, true | false


# kind -> f(slot rows, lengths) -> (values, which of them the kernel read)
_KIND_VALUES = {"real64": _real_values, "integer64": _integer_values,
                "boolean": _boolean_values}


class _CsvRead:
    """The columns of a table's CSV blocks."""

    def __init__(self, kinds: Sequence[str]):
        self.kinds = tuple(kinds)
        self.groups = [(kind, [j for j, k in enumerate(kinds) if k == kind])
                       for kind in dict.fromkeys(kinds)]

    def __call__(self, text: str) -> tuple[list[np.ndarray], int]:
        """The block's columns and its number of lines; raises one of
        _REJECTED if any line or token of it is rejected."""
        if text.isascii():
            columns, _, lines = self.ascii_block(text)
            return columns, lines
        lines = text.split("\n")
        other = [(i, line.strip()) for i, line in enumerate(lines) if not line.isascii()]
        for i, _ in other:
            lines[i] = ""
        columns, at, count = self.ascii_block("\n".join(lines))
        other = [(i, line.split(",")) for i, line in other if line]
        if not other:
            return columns, count
        if any(len(toks) != len(self.kinds) for _, toks in other):
            raise ValueError("a line with the wrong number of fields")
        # the rows in line order
        order = np.argsort(np.concatenate([at, [i for i, _ in other]]), kind="stable")
        columns = [np.concatenate([column, _parse_column([toks[j] for _, toks in other], kind)])
                   for j, (column, kind) in enumerate(zip(columns, self.kinds))]
        return [column[order] for column in columns], count

    def ascii_block(self, text: str) -> tuple[list[np.ndarray], np.ndarray, int]:
        """The columns of an ASCII block, the line index of each row and the
        number of lines."""
        width = len(self.kinds)
        data = text.encode("ascii")
        b = np.frombuffer(data + bytes(_TOKEN_SLOTS), np.uint8)
        ends = np.flatnonzero(b == 10)
        starts = np.empty_like(ends)
        starts[:1] = 0
        starts[1:] = ends[:-1] + 1
        _skip_space(b, starts, 1, _LINE_SPACE)
        rows = np.flatnonzero(b.take(starts) != 10)    # not blank
        commas = np.flatnonzero(b == ord(","))
        fields = np.bincount(np.searchsorted(ends, commas), minlength=len(ends))
        if (fields[rows] != width - 1).any():
            raise ValueError("a line with the wrong number of fields")
        # each field's first byte and the byte after it, column-major
        first = np.empty((width, len(rows)), np.intp)
        last = np.empty_like(first)
        first[0], last[-1] = starts[rows], ends[rows]
        _skip_space(b, last[-1], -1, _LINE_SPACE)
        first[1:] = commas.reshape(len(rows), width - 1).T + 1
        last[:-1] = first[1:] - 1
        _skip_space(b, first[1:].reshape(-1), 1, _TOKEN_SPACE)
        _skip_space(b, last[:-1].reshape(-1), -1, _TOKEN_SPACE)
        columns: list[np.ndarray] = [None] * width
        for kind, idx in self.groups:
            start, end = first[idx].ravel(), last[idx].ravel()
            c, length = _gather(b, start, end)
            values, ok = _KIND_VALUES[kind](c, length)
            redo = np.flatnonzero(~ok)
            if redo.size:
                values[redo] = _parse_column(
                    [data[i:j].decode("ascii") for i, j in zip(start[redo].tolist(),
                                                               end[redo].tolist())], kind)
            values = values.reshape(len(idx), -1)
            for k, j in enumerate(idx):
                columns[j] = values[k]
        return columns, rows, len(ends)


def _parse_column(toks: Sequence[str], kind: str) -> np.ndarray:
    """One column's tokens as an array of the kind's dtype; raises one of
    _REJECTED on a token the kind does not accept."""
    if kind == "boolean":
        values = map(_BOOLEAN_TOKENS.__getitem__, map(str.lower, map(str.strip, toks)))
    else:
        values = map(float if kind == "real64" else int, toks)
    out = np.fromiter(values, _KIND_DTYPES[kind], count=len(toks))
    if kind == "real64" and not np.isfinite(out).all():
        raise ValueError("non-finite real")
    return out


def _first_error(lines: list[str], first: int, schema: ColumnSchema) -> ValueError:
    """Diagnostic for the first line of a rejected block that is rejected
    on its own.  ``lines`` are the block's raw lines, the first of them
    numbered ``first``.  Only the error path calls this."""
    width = len(schema)
    for ln, line in enumerate(map(str.strip, lines), start=first):
        if not line:
            continue
        toks = line.split(",")
        if len(toks) != width:
            return ValueError(f"line {ln}: expected {width} fields, got {len(toks)}")
        for tok, (name, kind) in zip(toks, schema.columns):
            try:
                _parse_column([tok], kind)
            except _REJECTED:
                return ValueError(f"line {ln}, column {name!r}: expected "
                                  f"{_EXPECTED[kind]}, got {tok!r}")
    raise AssertionError("the block was rejected but none of its lines is")


def _text_blocks(fh) -> Iterator[str]:
    """The rest of a text file in blocks of whole lines, each ending at a
    '\\n', of about _READ_CHARS characters; a last line without one gets
    one."""
    pending: list[str] = []
    while text := fh.read(_READ_CHARS):
        cut = text.rfind("\n") + 1
        if cut:
            yield "".join(pending) + text[:cut]
            pending = [text[cut:]]
        else:
            pending.append(text)
    if rest := "".join(pending):
        yield rest + "\n"


def read_csv(path_or_file, schema: ColumnSchema | None = None) -> ColumnStore:
    """Load a store from CSV.  Without an explicit schema every column is
    read as real64 (the interchange default of this package)."""
    own = isinstance(path_or_file, (str, bytes))
    fh = open(path_or_file, "r") if own else path_or_file
    try:
        header = fh.readline().strip()
        if not header:
            raise ValueError("empty CSV: missing header")
        names = header.split(",")
        if schema is None:
            schema = ColumnSchema.real64(*names)
        elif tuple(names) != schema.names:
            raise ValueError(f"CSV header {names} does not match schema {schema.names}")
        width = len(schema)
        blocks: list[list[np.ndarray]] = [[] for _ in range(width)]
        read = _CsvRead(schema.kinds)
        first = 2    # line number of the block's first line
        for text in _text_blocks(fh):
            try:
                parsed, lines = read(text)
            except _REJECTED:
                raise _first_error(text.split("\n"), first, schema) from None
            for parts, column in zip(blocks, parsed):
                parts.append(column)
            first += lines
        return ColumnStore.from_columns(schema, [
            np.concatenate(parts) if parts else np.empty(0, _KIND_DTYPES[kind])
            for parts, kind in zip(blocks, schema.kinds)
        ])
    finally:
        if own:
            fh.close()
