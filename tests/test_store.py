import io
import os
import subprocess
import sys

import numpy as np
import pytest

import hepkit as hk
from hepkit.store import CSV_BLOCK, read_csv


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


def _assert_written_as_per_row(store):
    """The writer's bytes equal the per-row writer's; a failure names the
    first line that differs rather than diffing whole files."""
    got, want = store.to_csv().split("\n"), _per_row_csv(store).split("\n")
    if got != want:
        line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                    min(len(got), len(want)))
        pytest.fail(f"line {line + 1}: wrote {got[line:line + 1]}, "
                    f"expected {want[line:line + 1]}")


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
        # the table is made on the first write, so importing costs nothing
        code = ("import io, hepkit, hepkit.store as s\n"
                "print(s._csv_tables.cache_info().currsize)\n"
                "hepkit.ColumnStore(hepkit.ColumnSchema.real64('x')).write_csv(io.StringIO())\n"
                "print(s._csv_tables.cache_info().currsize)\n"
                "hepkit.ColumnStore.from_columns(hepkit.ColumnSchema.real64('x'), [[0.5]]).to_csv()\n"
                "print(s._csv_tables.cache_info().currsize)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["0", "0", "1"]
