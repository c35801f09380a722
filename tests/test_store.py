import io
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import hepkit as hk
from hepkit.store import CSV_BLOCK, read_csv, write_workers


def test_create_empty():
    s = hk.ColumnStore(hk.ColumnSchema.real64("x"))
    assert len(s) == 0


def test_heterogeneous_schema():
    schema = hk.ColumnSchema((("x", "real64"), ("n", "integer64"), ("ok", "boolean")))
    s = hk.ColumnStore(schema)
    s.push((1.5, 2, True))
    assert s.row(0) == (1.5, 2, True)


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        hk.ColumnSchema.real64("x", "x")


def test_push_and_row():
    s = hk.ColumnStore(hk.ColumnSchema.real64("x"))
    s.push((1.5,))
    assert s.row(0) == (1.5,)
    for k in range(10):
        s.push((float(k),))
    assert len(s) == 11


def test_push_wrong_arity():
    s = hk.ColumnStore(hk.ColumnSchema.real64("x", "y"))
    with pytest.raises(ValueError):
        s.push((1.0,))


def test_push_wrong_kind():
    schema = hk.ColumnSchema((("n", "integer64"),))
    s = hk.ColumnStore(schema)
    with pytest.raises(TypeError):
        s.push((1.5,))


def test_row_out_of_range():
    s = hk.ColumnStore(hk.ColumnSchema.real64("x"))
    s.push((1.0,))
    with pytest.raises(IndexError):
        s.row(1)


def test_row_order():
    s = hk.ColumnStore(hk.ColumnSchema.real64("a", "b"))
    s.push((1.0, 2.0))
    s.push((3.0, 4.0))
    assert s.row(1) == (3.0, 4.0)


def test_column_view_matches_insertion():
    s = hk.ColumnStore(hk.ColumnSchema.real64("x"))
    for v in (3.0, 1.0, 2.0):
        s.push((v,))
    assert list(s.column("x")) == [3.0, 1.0, 2.0]


def test_unknown_column():
    s = hk.ColumnStore(hk.ColumnSchema.real64("x"))
    with pytest.raises(KeyError):
        s.column("y")


def test_column_view_is_readonly():
    s = hk.ColumnStore(hk.ColumnSchema.real64("x"))
    s.push((1.0,))
    view = s.column("x")
    with pytest.raises(ValueError):
        view[0] = 2.0


def test_roundtrip_random_rows():
    # array-of-structs oracle: keep the pushed tuples in a python list
    rng = np.random.default_rng(5)
    schema = hk.ColumnSchema((("x", "real64"), ("n", "integer64"), ("f", "boolean")))
    s = hk.ColumnStore(schema)
    reference = []
    for _ in range(500):
        row = (float(rng.normal()), int(rng.integers(-10, 10)), bool(rng.random() < 0.5))
        reference.append(row)
        s.push(row)
    assert list(s.rows()) == reference


def test_column_equals_row_projection():
    rng = np.random.default_rng(6)
    s = hk.ColumnStore(hk.ColumnSchema.real64("x", "y"))
    for _ in range(100):
        s.push((float(rng.normal()), float(rng.normal())))
    # zip oracle: sum over column view equals sum over row projections
    assert np.sum(s.column("y")) == pytest.approx(
        sum(r[1] for r in s.rows()), rel=1e-12
    )
    assert [r[0] for r in s.rows()] == list(s.column("x"))


class TestFilter:
    def _store(self, values):
        s = hk.ColumnStore(hk.ColumnSchema.real64("x"))
        for v in values:
            s.push((float(v),))
        return s

    def test_always_true_is_copy(self):
        s = self._store([-1, 2, -3, 4])
        out = s.filter(lambda r: True)
        assert list(out.rows()) == list(s.rows())
        assert out is not s

    def test_always_false_is_empty(self):
        out = self._store([1, 2]).filter(lambda r: False)
        assert len(out) == 0
        assert out.schema.names == ("x",)

    def test_positive_selection(self):
        out = self._store([-1, 2, -3, 4]).filter(lambda r: r[0] > 0)
        assert [r[0] for r in out.rows()] == [2.0, 4.0]

    def test_filter_composition(self):
        rng = np.random.default_rng(9)
        s = self._store(rng.normal(size=200))
        p = lambda r: r[0] > -0.5
        q = lambda r: r[0] < 0.5
        both = s.filter(p).filter(q)
        conj = s.filter(lambda r: p(r) and q(r))
        assert list(both.rows()) == list(conj.rows())

    def test_input_unchanged(self):
        s = self._store([1, -1])
        before = list(s.rows())
        s.filter(lambda r: r[0] > 0)
        assert list(s.rows()) == before


class TestCsv:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(12)
        s = hk.ColumnStore(hk.ColumnSchema.real64("a", "b"))
        for _ in range(50):
            s.push((float(rng.normal() * 1e-7), float(rng.normal() * 1e7)))
        text = s.to_csv()
        back = read_csv(io.StringIO(text))
        assert back.schema.names == s.schema.names
        for i in range(len(s)):
            assert back.row(i) == s.row(i)

    def test_header_only(self):
        s = hk.ColumnStore(hk.ColumnSchema.real64("x"))
        assert s.to_csv() == "x\n"

    def test_typed_schema_roundtrip(self):
        schema = hk.ColumnSchema((("x", "real64"), ("n", "integer64"), ("f", "boolean")))
        s = hk.ColumnStore(schema)
        s.push((0.1, 7, True))
        s.push((-2.5, -3, False))
        back = read_csv(io.StringIO(s.to_csv()), schema=schema)
        assert list(back.rows()) == list(s.rows())


# -- block-wise CSV reader and writer ----------------------------------------

B = CSV_BLOCK
MIXED = hk.ColumnSchema((("x", "real64"), ("n", "integer64"), ("f", "boolean")))


def _mixed_store(rows, seed=0):
    rng = np.random.default_rng(seed)
    return hk.ColumnStore.from_columns(MIXED, [
        rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows),
        rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=rows,
                     endpoint=True),
        rng.random(rows) < 0.5,
    ])


def _per_row_csv(store):
    """The row-at-a-time writer this package had before the block writer:
    the oracle for the block writer's bytes."""
    lines = [",".join(store.schema.names)]
    for row in store.rows():
        parts = []
        for v, kind in zip(row, store.schema.kinds):
            if kind == "real64":
                parts.append(f"{v:.17g}")
            elif kind == "integer64":
                parts.append(str(int(v)))
            else:
                parts.append("true" if v else "false")
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def _assert_same(a, b):
    assert a.schema == b.schema
    assert len(a) == len(b)
    for name in a.schema.names:
        ca, cb = a.column(name), b.column(name)
        assert ca.dtype == cb.dtype
        # bitwise, so -0.0 and every last digit count
        assert ca.tobytes() == cb.tobytes()


def _with_blank_lines_and_crlf(text):
    """Blank lines (empty, spaces, CR only) every 997 lines and CRLF endings
    on every third line, so both fall inside blocks and across block ends."""
    out = []
    for i, line in enumerate(text.split("\n")[:-1]):
        out.append(line + ("\r\n" if i % 3 == 1 else "\n"))
        if i % 997 == 5:
            out.append(["\n", "   \n", "\r\n"][i % 3])
    return "".join(out)


class TestCsvBlocks:
    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_roundtrip_across_block_ends(self, rows):
        s = _mixed_store(rows, seed=rows)
        text = s.to_csv()
        _assert_same(read_csv(io.StringIO(text), schema=MIXED), s)
        messy = _with_blank_lines_and_crlf(text)
        assert messy.count("\n") > text.count("\n") or rows < 6
        _assert_same(read_csv(io.StringIO(messy), schema=MIXED), s)

    def test_crlf_file_read_by_path(self, tmp_path):
        s = _mixed_store(B + 3, seed=4)
        path = tmp_path / "crlf.csv"
        path.write_bytes(_with_blank_lines_and_crlf(s.to_csv()).encode())
        _assert_same(read_csv(str(path), schema=MIXED), s)

    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_writer_bytes_equal_per_row_writer(self, rows):
        s = _mixed_store(rows, seed=rows + 1)
        assert s.to_csv() == _per_row_csv(s)

    def test_writer_bytes_on_edge_values(self):
        info = np.finfo(np.float64)
        reals = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
                 info.smallest_normal, 1e308, -1e308, info.max, -info.max,
                 np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0, 1e16, 123456789012345680.0]
        bits = np.random.default_rng(8).integers(0, 2**63, size=5000, dtype=np.uint64)
        reals = np.concatenate([reals, bits.view(np.float64), -bits.view(np.float64)])
        i64 = np.iinfo(np.int64)
        ints = np.resize(np.array([i64.min, i64.max, 0, -1, 1], dtype=np.int64), len(reals))
        flags = np.resize(np.array([True, False, False]), len(reals))
        s = hk.ColumnStore.from_columns(MIXED, [reals, ints, flags])
        assert s.to_csv() == _per_row_csv(s)

    def test_write_to_path_and_stream_agree(self, tmp_path):
        s = _mixed_store(B + 2, seed=9)
        path = tmp_path / "s.csv"
        s.write_csv(str(path))
        assert path.read_text() == s.to_csv()

    def test_written_after_push(self):
        # capacity beyond the length must not leak into the output
        s = hk.ColumnStore(MIXED)
        for k in range(5):
            s.push((k / 7.0, k, k % 2 == 0))
        assert s.to_csv() == _per_row_csv(s)


class TestCsvDiagnostics:
    def _text(self, rows=3 * B, blanks=5):
        text = _mixed_store(rows, seed=2).to_csv()
        # blank lines ahead of the bad line shift its number
        return text.replace("\n", "\n\n", blanks)

    def _replace_line(self, text, line_number, new):
        lines = text.split("\n")
        lines[line_number - 1] = new
        return "\n".join(lines)

    @pytest.mark.parametrize("line", [7, B + 40, 2 * B + 11])
    def test_arity_names_the_line(self, line):
        text = self._replace_line(self._text(), line, "1.0,2")
        with pytest.raises(ValueError, match=rf"^line {line}: expected 3 fields, got 2$"):
            read_csv(io.StringIO(text), schema=MIXED)

    @pytest.mark.parametrize("line", [7, B + 40, 2 * B + 11])
    @pytest.mark.parametrize("row, column, expected, token", [
        ("1.5,2,yes", "f", "a boolean (true/false)", "yes"),
        ("1.5,2,1", "f", "a boolean (true/false)", "1"),
        ("abc,2,true", "x", "a finite real", "abc"),
        ("nan,2,true", "x", "a finite real", "nan"),
        ("-inf,2,true", "x", "a finite real", "-inf"),
        ("1e999,2,true", "x", "a finite real", "1e999"),
        ("1.5,2.5,true", "n", "a 64-bit integer", "2.5"),
        ("1.5,9223372036854775808,true", "n", "a 64-bit integer", "9223372036854775808"),
    ])
    def test_bad_token_names_line_and_column(self, line, row, column, expected, token):
        text = self._replace_line(self._text(), line, row)
        with pytest.raises(ValueError) as err:
            read_csv(io.StringIO(text), schema=MIXED)
        assert str(err.value) == (
            f"line {line}, column '{column}': expected {expected}, got '{token}'"
        )

    def test_default_schema_rejects_a_non_finite_real(self):
        with pytest.raises(ValueError, match=r"^line 3, column 'b': expected a finite real, got 'inf'$"):
            read_csv(io.StringIO("a,b\n1,2\n3,inf\n"))

    def test_boolean_tokens_in_any_case(self):
        text = "f\ntrue\nFALSE\nTrue\n fAlSe \n"
        back = read_csv(io.StringIO(text), schema=hk.ColumnSchema((("f", "boolean"),)))
        assert list(back.column("f")) == [True, False, True, False]

    def test_integer64_extremes_read_back(self):
        text = "n\n-9223372036854775808\n9223372036854775807\n"
        back = read_csv(io.StringIO(text), schema=hk.ColumnSchema((("n", "integer64"),)))
        assert back.row(0) == (-2**63,) and back.row(1) == (2**63 - 1,)

    def test_first_bad_line_of_a_block_is_named(self):
        # a bad token ahead of an arity error in the same block, and a bad
        # token in a later column ahead of one in an earlier column
        text = self._text()
        text = self._replace_line(text, B + 30, "1.0,2")
        text = self._replace_line(text, B + 20, "1.0,2,maybe")
        text = self._replace_line(text, B + 25, "oops,2,true")
        with pytest.raises(ValueError, match=rf"^line {B + 20}, column 'f':"):
            read_csv(io.StringIO(text), schema=MIXED)


# -- the CSV text kernel against the per-row writer --------------------------

def _neighbours(values, steps=2):
    """Each value and its ``steps`` nearest doubles on either side."""
    values = np.asarray(values, dtype=np.float64)
    out, down, up = [values], values, values
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


def _both_signs(values):
    return np.concatenate([values, -values])


def _kernel_reals():
    """Real64 families that reach every path of the kernel: its digits, its
    three notations and each reason for Python's own '%.17g'."""
    rng = np.random.default_rng(41)
    info = np.finfo(np.float64)
    bits = rng.integers(0, 2**63, size=100_000, dtype=np.uint64).view(np.float64)
    # exact ties at the 17th digit: m/4 for odd m just below 2**53 (16
    # integer digits, then .25 or .75) and m/8 for odd m just below 8e15
    # (15 integer digits, then .125, .375, .625 or .875)
    quarters = 2**53 - 1 - 2 * rng.integers(0, 2**40, size=4000)
    eighths = 8 * 10**15 - 1 - 2 * rng.integers(0, 2**40, size=4000)
    ties = np.concatenate([quarters / 4, eighths / 8, [1234567890123456.25]])
    tenths = np.array([float(f"1e{k}") for k in range(-300, 301)])
    edges = [1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280]
    special = [0.0, info.smallest_subnormal, info.smallest_subnormal * 12345,
               info.smallest_normal * (1 - 2**-52), info.smallest_normal, info.max,
               np.inf, 1e300, 1.0, 0.5, 0.1, 1.0 / 3.0, 123456789012345680.0]
    return {
        "bit_patterns": _both_signs(bits),
        "ties": _both_signs(ties),
        "powers_of_ten": _both_signs(_neighbours(tenths, steps=1)),
        "notation_and_domain_edges": _both_signs(_neighbours(edges)),
        "special": np.concatenate([_both_signs(np.array(special)), [np.nan]]),
    }


KERNEL_REALS = _kernel_reals()
_I64 = np.iinfo(np.int64)
KERNEL_INTS = np.concatenate([
    [_I64.min, _I64.max, _I64.min + 1, _I64.max - 1, 0, 1, -1],
    _both_signs(np.array([10 ** k for k in range(19)])),
    _both_signs(np.array([10 ** k - 1 for k in range(1, 19)])),
    np.random.default_rng(42).integers(_I64.min, _I64.max, size=3000, endpoint=True),
]).astype(np.int64)
REALS_ONLY = hk.ColumnSchema.real64("a", "b")


def _assert_same_text(got, want, label=""):
    """``got == want``; a failure names the first line that differs rather
    than diffing whole files."""
    if got != want:
        got, want = got.split("\n"), want.split("\n")
        line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                    min(len(got), len(want)))
        pytest.fail(f"{label}line {line + 1}: wrote {got[line:line + 1]}, "
                    f"expected {want[line:line + 1]}")


def _assert_written_as_per_row(store):
    """The writer's bytes equal the per-row writer's."""
    _assert_same_text(store.to_csv(), _per_row_csv(store))


class TestCsvKernel:
    @pytest.mark.parametrize("family", sorted(KERNEL_REALS))
    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, None])
    def test_reals_match_per_row_writer(self, family, rows):
        # rows=None writes the whole family; the others cut or repeat it
        values = KERNEL_REALS[family]
        values = values if rows is None else np.resize(values, rows)
        _assert_written_as_per_row(
            hk.ColumnStore.from_columns(REALS_ONLY, [values, values[::-1]]))

    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1])
    def test_mixed_kinds_match_per_row_writer(self, rows):
        reals = np.resize(np.concatenate(list(KERNEL_REALS.values())), rows)
        ints = np.resize(KERNEL_INTS, rows)
        flags = np.resize(np.array([True, False, False, True, True]), rows)
        _assert_written_as_per_row(hk.ColumnStore.from_columns(MIXED, [reals, ints, flags]))

    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1])
    def test_integers_and_booleans_alone_match_per_row_writer(self, rows):
        schema = hk.ColumnSchema((("n", "integer64"), ("f", "boolean"), ("m", "integer64")))
        ints = np.resize(KERNEL_INTS, rows)
        flags = np.random.default_rng(rows).random(rows) < 0.5
        _assert_written_as_per_row(
            hk.ColumnStore.from_columns(schema, [ints, flags, ints[::-1]]))
        _assert_written_as_per_row(
            hk.ColumnStore.from_columns(hk.ColumnSchema((("f", "boolean"),)), [flags]))

    def test_import_does_not_build_the_power_table(self):
        # the table is made on first use, by a write or by a read of reals,
        # so importing costs nothing
        runs = [(["write(0)", "write(1)"], ["0", "0", "1"]),
                (["read('x\\n')", "read('x\\n7\\n', 'integer64')", "read('x\\n0.5\\n')",
                  "write(1)"], ["0", "0", "0", "1", "1"])]
        for steps, built in runs:
            code = "\n".join([
                "import io, hepkit, hepkit.store as s",
                "def write(rows):",
                "    schema = hepkit.ColumnSchema.real64('x')",
                "    hepkit.ColumnStore.from_columns(schema, [[0.5] * rows]).write_csv(io.StringIO())",
                "def read(text, kind='real64'):",
                "    s.read_csv(io.StringIO(text), hepkit.ColumnSchema((('x', kind),)))",
                "print(s._csv_tables.cache_info().currsize)",
                *[f"{step}; print(s._csv_tables.cache_info().currsize)" for step in steps]])
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            assert out.stdout.split() == built, steps


# -- the CSV reader against the per-token parser -----------------------------

_EXPECTED = {"real64": "a finite real", "integer64": "a 64-bit integer",
             "boolean": "a boolean (true/false)"}


def _parse_token(tok, kind):
    if kind == "real64":
        value = float(tok)
        if not np.isfinite(value):
            raise ValueError(tok)
        return value
    if kind == "integer64":
        value = int(tok)
        if not -2**63 <= value < 2**63:
            raise OverflowError(tok)
        return value
    return {"true": True, "false": False}[tok.strip().lower()]


def _per_token_read(text, schema):
    """What the reader makes of ``text``, one line and one token at a time:
    lines end at '\\n' only, each is stripped as str.strip does and skipped
    if blank, split at ',' and each token parsed by float (finite), int
    (64-bit) or true/false in any case.  Returns the columns, or the
    reader's one-line message for the first rejected line."""
    width = len(schema)
    columns = [[] for _ in range(width)]
    for ln, line in enumerate(text.split("\n")[1:], start=2):
        line = line.strip()
        if not line:
            continue
        toks = line.split(",")
        if len(toks) != width:
            return f"line {ln}: expected {width} fields, got {len(toks)}"
        for column, tok, (name, kind) in zip(columns, toks, schema.columns):
            try:
                column.append(_parse_token(tok, kind))
            except (ValueError, KeyError, OverflowError):
                return f"line {ln}, column {name!r}: expected {_EXPECTED[kind]}, got {tok!r}"
    return [np.array(c, dtype=schema.dtype(n)) for c, n in zip(columns, schema.names)]


class _Dribble(io.StringIO):
    """A text file whose ``read`` returns at most ``step`` characters a call,
    so that a reader's blocks end anywhere in a line."""

    def __init__(self, text, step):
        super().__init__(text)
        self.step = step

    def read(self, size=-1):
        return super().read(self.step if size is None or size < 0 else min(size, self.step))


def _assert_reads_as_per_token(text, schema, step=None):
    """read_csv gives the per-token parser's columns bitwise, or its
    message; a failure names the first row that differs."""
    want = _per_token_read(text, schema)
    fh = io.StringIO(text) if step is None else _Dribble(text, step)
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            read_csv(fh, schema=schema)
        assert str(err.value) == want
        return
    got = read_csv(fh, schema=schema)
    assert len(got) == len(want[0])
    for name, column in zip(schema.names, want):
        # bitwise, so -0.0 and every last bit count
        bits = f"u{column.itemsize}"
        bad = np.flatnonzero(got.column(name).view(bits) != column.view(bits))
        if bad.size:
            pytest.fail(f"column {name!r}, row {bad[0]}: read {got.column(name)[bad[0]]!r}, "
                        f"expected {column[bad[0]]!r}")


def _table(schema, columns, rows):
    """CSV text of ``rows`` rows whose tokens cycle through ``columns``."""
    cells = [np.resize(np.array(c, dtype=object), rows) for c in columns]
    body = "".join(",".join(row) + "\n" for row in zip(*cells))
    return ",".join(schema.names) + "\n" + body


def _nearest_decimals(numerator, denominator, digits):
    """The ``digits``-significant-digit decimals nearest to the positive
    fraction and one unit of their last digit either side, as float
    tokens."""
    exp = len(str(numerator // denominator)) - 1 if numerator >= denominator else -1
    while numerator * 10 ** max(0, -exp) < denominator * 10 ** max(0, exp):
        exp -= 1                        # until 10**exp <= the fraction
    shift = digits - 1 - exp
    scaled_num = numerator * 10 ** max(0, shift)
    scaled_den = denominator * 10 ** max(0, -shift)
    n = (2 * scaled_num + scaled_den) // (2 * scaled_den)
    return [f"{m}e{-shift}" if len(str(m)) != digits else f"{str(m)[0]}.{str(m)[1:]}e{exp}"
            for m in (n - 1, n, n + 1)]


def _midpoints():
    """17- to 25-digit tokens at or within one unit of the exact midpoints
    between adjacent doubles, and midpoints that are short decimals."""
    rng = np.random.default_rng(51)
    x = np.abs(rng.normal(size=300) * 10.0 ** rng.integers(-40, 40, size=300))
    x = np.concatenate([x, rng.integers(0, 2**63, size=60, dtype=np.uint64).view(np.float64)])
    out = []
    for value in x[np.isfinite(x) & (x > 2.3e-308)]:
        num, den = float(value).as_integer_ratio()
        num2, den2 = float(np.nextafter(value, np.inf)).as_integer_ratio()
        mid_num, mid_den = num * den2 + num2 * den, 2 * den * den2
        for digits in range(17, 26):
            out += _nearest_decimals(mid_num, mid_den, digits)
    ties = rng.integers(0, 2**40, size=200)
    out += [str(2**53 + 2 * int(i) + 1) for i in ties]            # odd integers
    out += [str(2**54 + 4 * int(i) + 2) for i in ties]            # 17 digits
    out += [f"{2**52 + int(i)}.5" for i in ties]                 # n + 1/2
    out += [f"{2**51 + int(i)}.25" for i in ties]
    return out


def _read_families():
    """Real64 token families: the name and its tokens."""
    rng = np.random.default_rng(47)
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits)]
    normal = rng.normal(size=2000) * 10.0 ** rng.integers(-30, 30, size=2000)
    tenths = [10.0 ** k for k in range(-307, 309)] + [float(f"1e{k}") for k in range(-300, 301)]
    tenths = _neighbours(tenths, steps=1)
    digits = "".join(rng.choice(list("0123456789"), size=400))
    long_tokens = []
    for n in (19, 20, 40):
        for k in range(0, 400 - n, 37):
            d = str(int(digits[k:k + n]) or 1).rjust(n, "1")
            long_tokens += [d, f"{d[0]}.{d[1:]}", f"0.{d}", f"{d}e-{n + 3}",
                            f"{d[:5]}.{d[5:]}e7", f"-{d[:n // 2]}.{d[n // 2:]}"]
    zeros = [f"0.{'0' * k}{d}" for k in (1, 10, 18, 30, 300) for d in ("1", "12345678901234567")]
    zeros += [f"{'0' * k}{d}" for k in (1, 18, 40) for d in ("1.5", "9007199254740993")]
    info = np.finfo(np.float64)
    subnormal = np.concatenate([
        info.smallest_subnormal * np.array([1.0, 2.0, 3.0, 12345.0, 2.0**51]),
        rng.integers(1, 2**52, size=500, dtype=np.uint64).view(np.float64)])
    edges = ["4.9e-324", "5e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
             "2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308",
             "1.7976931348623158e308", "9007199254740993", "9007199254740992.9999999",
             "0.1", "0.3", "1e-264", "1e-265", "1e297", "1e298", "9.999999999999999999e296",
             "1e23", "8.98846567431158e307"]
    return {
        "round_trips": ["%.17g" % v for v in np.concatenate([bits, -bits])],
        "short_forms": [f"%.{p}g" % v for p in range(1, 21)
                        for v in np.concatenate([normal[:300], bits[:200]])],
        "midpoints": _midpoints(),
        "edges": (["%.17g" % v for v in np.concatenate([tenths, -tenths, subnormal])]
                  + long_tokens + zeros + edges + ["-" + e for e in edges]),
        "spellings": ["+1", ".5", "5.", "1E5", "1e-005", "1E+05", "+.5e+2", "1.e5", "00.5",
                      "1_000", "1_0.2_5e1_0", " 1.5 ", "\t1.5", "1.5\t", "\x0c2.5\x0b",
                      "\u0661\u0662\u0663", "\uff11.\uff15", "\u20031.5\u2003", "-0", "-0.0",
                      "+0e0", "0e-400", "-0e400", "3", "-3.", "12345678901234567890e-20"],
    }


READ_FAMILIES = _read_families()
READ_ROWS = [0, 1, B - 1, B, B + 1, 3 * B + 7]
SPELLED = hk.ColumnSchema((("x", "real64"), ("n", "integer64"), ("f", "boolean"),
                           ("y", "real64")))


class TestCsvReadKernel:
    @pytest.mark.parametrize("family", sorted(READ_FAMILIES))
    @pytest.mark.parametrize("rows", READ_ROWS)
    def test_reals_match_per_token_parser(self, family, rows):
        tokens = READ_FAMILIES[family]
        _assert_reads_as_per_token(_table(REALS_ONLY, [tokens, tokens[::-1]], rows),
                                   REALS_ONLY)

    @pytest.mark.parametrize("rows", READ_ROWS)
    def test_integers_and_booleans_match_per_token_parser(self, rows):
        ints = [str(v) for v in KERNEL_INTS] + [
            "+5", "007", "-0", " 42 ", "\t-7", "1_000", "\u0663", "0" * 30 + "12",
            "+9223372036854775807", "-9223372036854775808", "9223372036854775806",
            "-000000000000000000009223372036854775808"]
        flags = ["TRUE", " False ", "true", "false", "tRuE", "\tFALSE\x0c", "True"]
        reals = READ_FAMILIES["spellings"]
        _assert_reads_as_per_token(_table(SPELLED, [reals, ints, flags, reals[::-1]], rows),
                                   SPELLED)

    @pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 3 * B + 7])
    @pytest.mark.parametrize("column, token", [
        ("x", "nan"), ("x", "inf"), ("x", "1e999"), ("y", "-1e999"), ("x", "-Infinity"),
        ("x", "1e"), ("x", "e5"), ("x", "1.5.5"), ("x", "1 5"), ("x", "1__0"), ("x", ""),
        ("x", "0x10"), ("y", "1.7976931348623159e308"), ("x", "4.5\x1c"), ("y", "\x1c4.5"),
        ("x", "12e5.5"), ("y", "-12e+5.5"), ("x", "1-5"), ("x", "1e+-5"), ("x", "--1"),
        ("n", "9223372036854775808"), ("n", "-9223372036854775809"), ("n", "5.0"),
        ("n", "1e3"), ("n", "99999999999999999999"), ("n", ""),
        ("f", "yes"), ("f", "1"), ("f", "truee"), ("f", "t rue"), ("f", ""),
    ])
    def test_rejected_tokens_name_line_and_column(self, rows, column, token):
        good = ["1.5", "7", "true", "-2.5"]
        cells = [[g] * rows for g in good]
        where = SPELLED.names.index(column)
        cells[where][rows // 2] = token
        cells[where][-1] = token
        _assert_reads_as_per_token(_table(SPELLED, cells, rows), SPELLED)

    @pytest.mark.parametrize("rows", READ_ROWS)
    def test_blank_lines_and_inner_separators(self, rows):
        # whitespace-only lines are skipped as str.strip skips them; \x0c,
        # \x1c and U+2028 inside a line end no line, so later line numbers
        # do not move
        blanks = ["", " ", "\t", "\r", "\x0c", "\x0b", "\x1c \x1f", "\u2003", "\u2028",
                  "\x85", " \xa0\t"]
        tokens = ["1.5", "\x0c2.5", "3.5\u2028", "\u30005.5", "6.5\x0b"]
        # \x1c ends a token only at the end of a line, which str.strip trims
        text = _table(REALS_ONLY, [tokens, [t + "\x1c" for t in tokens]], rows).split("\n")
        for k in range(1, len(text), 97):
            text[k] = blanks[k % len(blanks)] + "\n" + text[k]
        text = "\n".join(text)
        _assert_reads_as_per_token(text, REALS_ONLY)
        _assert_reads_as_per_token(text + "oops,1\n", REALS_ONLY)
        _assert_reads_as_per_token(text + "1,2,3\n", REALS_ONLY)

    @pytest.mark.parametrize("step", [1, 7, 64, 1000, 4099])
    def test_blocks_that_end_anywhere(self, step):
        # a reader that takes its text in blocks must give the same rows
        # and the same line numbers wherever a block ends
        s = _mixed_store(600, seed=step)
        text = _with_blank_lines_and_crlf(s.to_csv()).replace("\n", "\n \n", 50)
        _assert_reads_as_per_token(text, MIXED, step=step)
        _assert_reads_as_per_token(text + "1.5,7", MIXED, step=step)   # no final newline
        lines = text.split("\n")
        lines[400] = "1.5,2,maybe"
        _assert_reads_as_per_token("\n".join(lines), MIXED, step=step)
        _assert_reads_as_per_token(text + " " * 5000 + "\n" + "1" * 5000 + ",2,true\n",
                                   MIXED, step=step)

    @pytest.mark.parametrize("line", [7, B + 40, 2 * B + 11])
    @pytest.mark.parametrize("row", [
        "1.0,2", "1.5,2,yes", "1.5,2,1", "abc,2,true", "nan,2,true", "-inf,2,true",
        "1e999,2,true", "1.5,2.5,true", "1.5,9223372036854775808,true", "1,2,3,4", ",,",
    ])
    def test_diagnostics_match_per_token_parser(self, line, row):
        text = _mixed_store(3 * B, seed=2).to_csv().replace("\n", "\n\n", 5)
        lines = text.split("\n")
        lines[line - 1] = row
        _assert_reads_as_per_token("\n".join(lines), MIXED)

    def test_in_domain_tokens_take_no_fallback(self, monkeypatch):
        # '%.17g' reals of magnitude 1e-240 to 1e240, integers and booleans
        # are all the kernel's own: the per-token parser is never called
        import hepkit.store as store
        rng = np.random.default_rng(3)
        x = rng.normal(size=B + 5) * 10.0 ** rng.integers(-240, 240, size=B + 5)
        s = _mixed_store(B + 5, seed=3)
        s = hk.ColumnStore.from_columns(MIXED, [x, s.column("n"), s.column("f")])
        text = s.to_csv()

        def refuse(toks, kind):
            raise AssertionError(f"{kind} tokens {toks[:3]} fell back")

        monkeypatch.setattr(store, "_parse_column", refuse)
        _assert_same(read_csv(io.StringIO(text), schema=MIXED), s)


def test_warm_read_peaks_within_a_bound_of_its_columns(tmp_path):
    # the reader holds one block of text and the arrays made from it at a
    # time: a warm read of 1e5 '%.17g' reals by path peaks at about 2.0 MiB
    # traced above its 0.76 MiB column (2.45 MiB with the per-line reader
    # before it), which keeps hepkit splot's resident peak of about 60 MB
    # within a tenth of itself
    path = tmp_path / "x.csv"
    x = np.random.default_rng(6).normal(5.0, 0.5, 100_000)
    hk.ColumnStore.from_columns(hk.ColumnSchema.real64("x0"), [x]).write_csv(str(path))
    read_csv(str(path))
    tracemalloc.start()
    try:
        back = read_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.column("x0").tobytes() == x.tobytes()
    assert peak - x.nbytes <= 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_from_columns_rejects_a_column_that_is_not_1d():
    # a (3, 2) column used to make a store of length 3 that failed later,
    # in to_csv and in row(0)
    schema = hk.ColumnSchema.real64("a", "b")
    for bad, shape in ((np.zeros((3, 2)), "(3, 2)"), (1.5, "()")):
        with pytest.raises(ValueError, match=rf"^column 'b' must be 1-D, got shape {re.escape(shape)}$"):
            hk.ColumnStore.from_columns(schema, [np.zeros(3), bad])


# -- the writer on the worker pool ---------------------------------------------

# 13 columns, as hepkit phsp writes for three daughters: the writer splits
# its blocks across workers
WIDE_KINDS = ["real64"] * 9 + ["integer64"] * 2 + ["boolean"] * 2
WIDE = hk.ColumnSchema(tuple((f"c{j}", kind) for j, kind in enumerate(WIDE_KINDS)))


def _wide_store(rows, seed=0):
    """A 13-column table whose reals and integers cycle through every value
    that takes the '%.17g' fallback or a kernel edge (ties, subnormals,
    +-0, +-inf, nan, |x| >= 1e280, INT64_MIN), mixed with ordinary ones."""
    rng = np.random.default_rng(seed)
    edges = np.concatenate(list(KERNEL_REALS.values()))
    columns = []
    for j, kind in enumerate(WIDE_KINDS):
        if kind == "real64":
            x = rng.normal(0.0, 0.3, rows)
            pick = rng.random(rows) < 0.2
            x[pick] = rng.choice(edges, size=int(pick.sum()))
        elif kind == "integer64":
            x = np.resize(np.roll(KERNEL_INTS, 97 * j), rows)
        else:
            x = rng.random(rows) < 0.5
        columns.append(x)
    return hk.ColumnStore.from_columns(WIDE, columns)


class TestParallelWriter:
    # B // 3 and B // 2 rows are about one part of a block at 8 and at 2 workers
    @pytest.mark.parametrize("rows", [0, 1, B // 3, B // 2, B - 1, B, B + 1, 3 * B + 7])
    def test_bytes_equal_per_row_writer_at_any_worker_count(self, rows, tmp_path):
        s = _wide_store(rows, seed=rows)
        want = _per_row_csv(s)
        for workers in (1, 2, 8):
            buf = io.StringIO()
            path = tmp_path / f"w{workers}.csv"
            with write_workers(workers):
                s.write_csv(buf)
                s.write_csv(str(path))
            _assert_same_text(buf.getvalue(), want, f"to a handle at {workers} workers, ")
            _assert_same_text(path.read_text(), want, f"to a path at {workers} workers, ")

    def test_write_workers_sets_the_count_for_its_block(self, monkeypatch):
        import hepkit.store as store

        seen = []
        monkeypatch.setattr(store, "csv_parts", lambda rows, width, w: seen.append(w) or (1, []))
        s = _wide_store(3)
        s.write_csv(io.StringIO())
        with write_workers(3):
            s.write_csv(io.StringIO())
        s.write_csv(io.StringIO())
        assert seen == [1, 3, 1]

    def test_a_negative_count_raises_before_the_file_is_touched(self, tmp_path):
        path = tmp_path / "kept.csv"
        path.write_text("x\n1\n")
        handle = io.StringIO()
        with write_workers(-1):
            with pytest.raises(ValueError, match="workers must be >= 0"):
                _wide_store(3).write_csv(str(path))
            with pytest.raises(ValueError, match="workers must be >= 0"):
                _wide_store(3).write_csv(handle)
        assert path.read_text() == "x\n1\n"
        assert handle.getvalue() == ""


@pytest.mark.parametrize("workers", [1, 2, 3, 8, 64, 10 ** 6])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 13, 1000, 10 ** 6])
def test_csv_parts_cover_the_rows_in_order(workers, width):
    # the plan alone, so that no count of workers starts a thread
    from hepkit.store import CSV_PART_VALUES, csv_parts

    for rows in (0, 1, 2, 5, B - 1, B, B + 1, 3 * B + 7):
        per_block, parts = csv_parts(rows, width, workers)
        assert 1 <= per_block <= min(workers, B)
        assert per_block == 1 or B * width // per_block >= CSV_PART_VALUES
        assert [a for a, _ in parts[1:]] == [b for _, b in parts[:-1]]
        assert all(b - a >= 1 for a, b in parts)
        assert len(parts) <= rows
        assert (parts[0][0], parts[-1][1]) == (0, rows) if rows else parts == []
        for start in range(0, rows, B):
            block = [(a, b) for a, b in parts if start <= a < start + B]
            assert len(block) <= per_block and block[-1][1] == min(start + B, rows)


def test_csv_parts_split_only_wide_tables():
    from hepkit.store import csv_parts

    # up to 7 columns, splot's 2 and hist's 3 among them, blocks stay whole
    # on the calling thread
    for width in (1, 2, 3, 7):
        assert csv_parts(3 * B, width, 8) == (1, [(0, B), (B, 2 * B), (2 * B, 3 * B)])
    # phsp's 13: a part per worker, 3 at most
    assert csv_parts(B + 10, 13, 2) == (2, [(0, B // 2), (B // 2, B), (B, B + 5),
                                            (B + 5, B + 10)])
    assert csv_parts(B, 13, 8) == (3, [(0, 2730), (2730, 5461), (5461, B)])
    assert csv_parts(B, 13, 1) == (1, [(0, B)])
    # at most width // 4 parts a block, whatever the worker count
    assert csv_parts(B, 8, 8)[0] == 2 and csv_parts(B, 13, 10 ** 6)[0] == 3


class _FailingHandle(io.StringIO):
    """A text handle whose ``write`` raises ``error`` from its ``fail``-th
    call on (the header is call 0)."""

    def __init__(self, fail, error):
        super().__init__()
        self.fail, self.error, self.calls = fail, error, 0

    def write(self, text):
        self.calls += 1
        if self.calls > self.fail:
            raise self.error
        return super().write(text)


@pytest.mark.parametrize("fail, error", [(0, OSError("disk full")), (3, OSError("disk full")),
                                         (7, BrokenPipeError(32, "Broken pipe"))])
def test_a_failing_write_leaves_no_part_running_and_no_text(fail, error, monkeypatch):
    import threading
    import time
    import weakref

    import hepkit.store as store

    running, started, texts = [0], [0], []
    lock = threading.Lock()
    run_ordered, init = store.run_ordered, store._CsvText.__init__

    def counted(fn, n, workers, window, consume):
        def task(i):
            with lock:
                running[0] += 1
                started[0] += 1
            try:
                time.sleep(0.005)    # so that parts are in flight when a write fails
                return fn(i)
            finally:
                with lock:
                    running[0] -= 1
        return run_ordered(task, n, workers, window, consume)

    def tracked_init(self, kinds):
        init(self, kinds)
        texts.append(weakref.ref(self))

    monkeypatch.setattr(store, "run_ordered", counted)
    monkeypatch.setattr(store._CsvText, "__init__", tracked_init)
    s = _wide_store(4 * B, seed=5)
    handle = _FailingHandle(fail, error)
    with pytest.raises(type(error)) as info, write_workers(2):
        s.write_csv(handle)
    assert info.value is error
    assert running[0] == 0
    assert started[0] <= fail + 2        # the parts written and the window
    count = started[0]
    time.sleep(0.05)                     # nothing starts after the call either
    assert started[0] == count and running[0] == 0
    assert len(texts) == (2 if fail else 0)    # a failed header starts no part
    assert all(ref() is None for ref in texts)


def test_warm_parallel_write_peaks_within_one_threads_memory(tmp_path):
    # the parts in flight hold one block's rows for any worker count, so a
    # warm 13-column write of 1e5 rows at 2 workers peaks no higher than at
    # 1, within 1 MiB (both 20–22 MiB traced: the kernel's arrays for a
    # block and two block texts); with a whole block per worker it peaked
    # twice as high, and phsp_csv's resident peak rose 30%
    s = _wide_store(100_000, seed=7)
    path = str(tmp_path / "w.csv")
    peaks = {}
    for workers in (1, 2):
        with write_workers(workers):
            s.write_csv(path)
            tracemalloc.start()
            try:
                s.write_csv(path)
                peaks[workers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks[2] <= peaks[1] + 2**20, {w: f"{p / 2**20:.2f} MiB" for w, p in peaks.items()}


@pytest.mark.parametrize("kind", ["real64", "integer64", "boolean"])
def test_warm_kernel_allocates_no_value_sized_array(kind):
    # deterministic where fault counts sample the heap layout: a warm call
    # of a kind's kernel writes into its _CsvText scratch, so it allocates
    # nothing of a byte per value, only numpy's cast buffers (at most
    # np.getbufsize() elements) and the index arrays of the rare values in
    # scientific notation or on the '%.17g' fallback
    import hepkit.store as store

    n = 2**18
    rng = np.random.default_rng(9)
    x = {"real64": rng.normal(0.0, 0.3, n), "integer64": np.resize(KERNEL_INTS, n),
         "boolean": rng.random(n) < 0.5}[kind]
    text = store._CsvText([kind])
    out = text.scratch("out", (store._SLOTS, n), np.uint8)
    store._KIND_SLOTS[kind](x, out, text.scratch)
    tracemalloc.start()
    try:
        store._KIND_SLOTS[kind](x, out, text.scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n // 4, f"{peak} bytes"


def test_warm_block_allocates_its_text_and_no_more():
    # the whole call: the kernel's scratch, then the text, once as the
    # array the zero slots are dropped from and once as the str returned
    import hepkit.store as store

    s = _wide_store(B, seed=10)
    columns = [s.column(name) for name in WIDE.names]
    text = store._CsvText(WIDE.kinds)
    text(columns)
    tracemalloc.start()
    try:
        out = text(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(out) + B * len(WIDE) // 4, f"{peak} bytes for {len(out)} characters"


def test_parallel_writer_under_forced_thread_switches():
    # more workers than cores and a switch interval of 1 us: a part reuses
    # a _CsvText only after the part before it is written, so the texts
    # stay whole however the threads interleave
    s = _wide_store(5 * B + 3, seed=11)
    want = _per_row_csv(s)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (3, 8):
            buf = io.StringIO()
            with write_workers(workers):
                s.write_csv(buf)
            _assert_same_text(buf.getvalue(), want, f"at {workers} workers, ")
    finally:
        sys.setswitchinterval(interval)
