"""Structure-of-arrays table: one contiguous column per dimension.

Rows are materialized as tuples on access.  Mutation (push) needs exclusive
access; once construction is done, any number of workers may read
concurrently.  There is no limit on the number of columns.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, Iterable, Sequence

import numpy as np

_KIND_DTYPES = {
    "real64": np.float64,
    "integer64": np.int64,
    "boolean": np.bool_,
}

# Rows per block of the CSV reader and writer.
CSV_BLOCK = 8192

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
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")
        store = cls(schema)
        data = {}
        for (name, kind), col in zip(schema.columns, columns):
            arr = np.ascontiguousarray(col, dtype=_KIND_DTYPES[kind])
            if not arr.flags.writeable:
                arr = arr.copy()
            data[name] = arr
        store._data = data
        store._len = lengths.pop() if lengths else 0
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
        return ColumnStore.from_columns(
            self.schema, [self._data[n][: self._len][mask] for n in self.schema.names]
        )

    def copy(self) -> "ColumnStore":
        return self.where_mask(np.ones(self._len, dtype=bool))

    # -- CSV interchange ---------------------------------------------------
    # header = column names; real64 with 17 significant digits so values
    # round-trip exactly; no quoting (names are [A-Za-z0-9_] by schema).
    # Both directions work a block of CSV_BLOCK (8192) rows at a time, a
    # column at a time; the reader never holds more than one block of lines.
    # The writer's text is byte for byte Python's '%.17g' (real64), '%d'
    # (integer64) and true/false (boolean); the kernel that makes it is
    # described above _CsvText.
    # Tokens read: real64 takes what python's float() takes if the value is
    # finite, integer64 what int() takes within 64 bits, boolean true/false
    # in any case.  Whitespace around a line or a token is ignored and blank
    # lines are skipped.  A rejected line or token raises a one-line
    # ValueError naming the line and the column.

    def write_csv(self, path_or_file) -> None:
        own = isinstance(path_or_file, (str, bytes))
        fh = open(path_or_file, "w") if own else path_or_file
        try:
            fh.write(",".join(self.schema.names) + "\n")
            columns = [self._data[name] for name in self.schema.names]
            text = _CsvText(self.schema.kinds)
            for start in range(0, self._len, CSV_BLOCK):
                stop = min(start + CSV_BLOCK, self._len)
                fh.write(text([c[start:stop] for c in columns]))
        finally:
            if own:
                fh.close()

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


# -- CSV text kernel ---------------------------------------------------------
# _CsvText turns a block of columns into its CSV lines with numpy calls over
# whole columns, on one thread.  Every value gets a fixed row of _SLOTS
# byte slots; a slot that the value's text does not use holds 0.  The slots
# are built slot-major, one 1-D call per slot across all of a kind's
# values, and one boolean index over their value-major transpose drops the
# zeros: that joins the values, separators and newlines into the block's
# text.  integer64 and the real64 digits come from one routine (groups of
# four digits from a 10**4-entry table), booleans from a two-row table.
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
_BOOLEAN_SLOTS = np.frombuffer(b"falsetrue\0", np.uint8).reshape(2, 5)


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
    """The CSV text of a table's blocks.  Its arrays are sized by the first
    block and reused by the later ones: fresh arrays of this size would be
    page-faulted in again for every block."""

    def __init__(self, kinds: Sequence[str]):
        self.groups = [(kind, [j for j, k in enumerate(kinds) if k == kind])
                       for kind in dict.fromkeys(kinds)]
        self.separators = np.frombuffer(b"," * (len(kinds) - 1) + b"\n", np.uint8)
        self._arrays: dict[str, np.ndarray] = {}

    def scratch(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """The array called ``name``, of the given shape; its contents are
        undefined."""
        size = int(np.prod(shape))
        buf = self._arrays.get(name)
        if buf is None or buf.size < size:
            buf = self._arrays[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def __call__(self, columns: Sequence[np.ndarray]) -> str:
        rows, width = len(columns[0]), len(columns)
        slots = self.scratch("slots", (_SLOTS, rows, width), np.uint8)
        for kind, idx in self.groups:
            values = self.scratch(kind, (rows, len(idx)), _KIND_DTYPES[kind])
            for k, j in enumerate(idx):
                values[:, k] = columns[j]
            part = slots if len(idx) == width else \
                self.scratch(kind + " slots", (_SLOTS, rows, len(idx)), np.uint8)
            _KIND_SLOTS[kind](values.ravel(), part.reshape(_SLOTS, -1), self.scratch)
            if part is not slots:
                slots[:, :, idx] = part
        slots[_SEPARATOR] = self.separators
        slots = slots.reshape(_SLOTS, -1)
        keep = np.not_equal(slots, 0, out=self.scratch("keep", slots.shape, bool))
        return slots.T[keep.T].tobytes().decode("ascii")


def _digit_rows(u: np.ndarray, scratch) -> np.ndarray:
    """ASCII digits of the uint64 values ``u``, zero-padded to 20, as 20
    rows (row 0 the most significant)."""
    n = len(u)
    g = scratch("digit groups", (6, n), np.intp)   # five groups of 4 digits
    np.floor_divide(u, 10 ** 8, out=g[5], casting="unsafe")
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


def _put(row: np.ndarray, mask: np.ndarray, byte: int) -> None:
    """``row`` = ``byte`` where ``mask``, else 0."""
    row[:] = mask
    row *= byte


def _real_slots(x: np.ndarray, out: np.ndarray, scratch) -> None:
    n = len(x)
    a, p, s, t, u, hi, upper, lower, lo = scratch("real", (9, n), np.float64)
    digits, whole = scratch("real int", (2, n), np.int64)
    np.abs(x, out=a)
    exact = (a > 1e-280) & (a < 1e280)
    np.copyto(a, 1.0, where=~exact)
    e10 = np.floor(np.log10(a, out=t), out=t).astype(np.int16)
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
    exact &= np.abs(u, out=u) > _TIE_BOUND
    exact &= digits >= 10 ** 16
    digits += t > 0.5
    exact &= digits < 10 ** 17
    digit = _digit_rows(digits.view(np.uint64), scratch)[3:]
    # significant digits: 17 less the trailing zeros
    length = np.zeros(n, np.uint8)
    seen = np.zeros(n, bool)
    for row in digit[::-1]:
        seen |= row != ord("0")
        length += seen
    sci = (e10 < -4) | (e10 > 16)
    below_one = (e10 < 0) & ~sci
    # the point goes before digit `point`; below one it is in the prefix,
    # and `point` = length leaves the digits without one
    point = np.where(sci, 1, np.where(below_one, length, e10 + 1)).astype(np.uint8)
    end = np.where(length > point, length + 1, point)
    _put(out[0], np.signbit(x), ord("-"))
    zeros = np.where(below_one, 1 - e10, 0)
    for k, ch in enumerate(b"0.000"):
        _put(out[_PREFIX + k], zeros > k, ch)
    for r in range(18):
        row = out[_REGION + r]
        before, after = digit[min(r, 16)], digit[max(r - 1, 0)]
        np.subtract(before, after, out=row)
        row *= point > r
        row += after      # digit r before the point, digit r - 1 after it
        row *= end > r
    dotted = np.flatnonzero(length > point)
    out[_REGION + point[dotted], dotted] = ord(".")
    out[_EXPONENT:_SEPARATOR] = 0
    sci = np.flatnonzero(sci)
    if sci.size:
        e = e10[sci]
        mag = np.abs(e)
        out[_EXPONENT:_SEPARATOR, sci] = [
            np.full(sci.size, ord("e")), ord("+") + 2 * (e < 0),  # '+' + 2 = '-'
            (mag // 100 + ord("0")) * (mag >= 100), mag // 10 % 10 + ord("0"),
            mag % 10 + ord("0")]
    redo = np.flatnonzero(~exact)
    if redo.size:
        text = np.array([b"%.17g" % v for v in x[redo].tolist()], dtype=f"S{_SEPARATOR}")
        out[:_SEPARATOR, redo] = text.view(np.uint8).reshape(-1, _SEPARATOR).T


def _integer_slots(x: np.ndarray, out: np.ndarray, scratch) -> None:
    _put(out[0], x < 0, ord("-"))
    # np.abs leaves INT64_MIN as it is, whose uint64 view is its magnitude
    digit = _digit_rows(np.abs(x).view(np.uint64), scratch)
    seen = np.zeros(len(x), bool)
    for r, row in enumerate(digit[:-1]):
        seen |= row != ord("0")
        np.multiply(row, seen, out=out[1 + r])
    out[20] = digit[-1]
    out[21:_SEPARATOR] = 0


def _boolean_slots(x: np.ndarray, out: np.ndarray, scratch) -> None:
    out[:5] = _BOOLEAN_SLOTS[x.view(np.uint8)].T
    out[5:_SEPARATOR] = 0


# kind -> f(x, out, scratch): fills every slot of out (_SLOTS rows, a column
# per value of x) but the separator; scratch is _CsvText.scratch
_KIND_SLOTS = {"real64": _real_slots, "integer64": _integer_slots, "boolean": _boolean_slots}


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
        first = 2    # line number of the block's first line
        while lines := list(islice(fh, CSV_BLOCK)):
            rows = [line for line in map(str.strip, lines) if line]
            toks = ",".join(rows).split(",")
            try:
                if set(map(str.count, rows, repeat(","))) - {width - 1}:
                    raise ValueError("a line with the wrong number of fields")
                parsed = [_parse_column(toks[j::width], kind)
                          for j, kind in enumerate(schema.kinds)]
            except _REJECTED:
                raise _first_error(lines, first, schema) from None
            for parts, column in zip(blocks, parsed):
                parts.append(column)
            first += len(lines)
        return ColumnStore.from_columns(schema, [
            np.concatenate(parts) if parts else np.empty(0, _KIND_DTYPES[kind])
            for parts, kind in zip(blocks, schema.kinds)
        ])
    finally:
        if own:
            fh.close()
