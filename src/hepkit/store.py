"""Structure-of-arrays table: one contiguous column per dimension.

Rows are materialized as tuples on access.  Mutation (push) needs exclusive
access; once construction is done, any number of workers may read
concurrently.  There is no limit on the number of columns.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Sequence

import numpy as np

_KIND_DTYPES = {
    "real64": np.float64,
    "integer64": np.int64,
    "boolean": np.bool_,
}

# Rows per block of the CSV reader and writer.
CSV_BLOCK = 8192

_FORMATS = {"real64": "%.17g", "integer64": "%d", "boolean": "%s"}
_BOOLEAN_TEXT = np.array(["false", "true"], dtype=object)
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
            row = ",".join(_FORMATS[kind] for kind in self.schema.kinds) + "\n"
            for start in range(0, self._len, CSV_BLOCK):
                stop = min(start + CSV_BLOCK, self._len)
                values = [
                    _python_values(self._data[name][start:stop], kind)
                    for name, kind in self.schema.columns
                ]
                fh.write((row * (stop - start)) % tuple(chain.from_iterable(zip(*values))))
        finally:
            if own:
                fh.close()

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def _python_values(col: np.ndarray, kind: str) -> list:
    """Python scalars that the kind's entry of _FORMATS renders."""
    if kind == "boolean":
        return _BOOLEAN_TEXT[col.view(np.uint8)].tolist()
    return col.tolist()


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
