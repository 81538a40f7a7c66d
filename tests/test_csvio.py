import filecmp
import tracemalloc
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from memloss import csvio
from memloss.errors import FormatError
from memloss.transfer import make_density

B = csvio._BLOCK


def _reference_write(path, kind, columns):
    """The per-cell writer the block writer replaced."""
    header = csvio.HEADERS[kind]
    n_rows = len(next(c for c in columns if c is not None))
    lines = [",".join(header)]
    for i in range(n_rows):
        lines.append(",".join("" if col is None else "%.17g" % float(col[i]) for col in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_read(path):
    """The per-cell reader the block reader replaced."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln != ""]
    header = lines[0].split(",")
    kind = next(k for k, h in csvio.HEADERS.items() if h == header)
    cols = {name: [] for name in header}
    for ln in lines[1:]:
        for name, cell in zip(header, ln.split(",")):
            cols[name].append(np.nan if cell == "" else float(cell))
    return kind, {name: np.asarray(vals) for name, vals in cols.items()}


_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1.5e-310, np.finfo(float).max, -np.finfo(float).tiny, 0.1, 1 / 3, 1e16 + 1])


def _columns(n_rows, seed):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-320, 300, size=n_rows)
    a = rng.standard_normal(n_rows) * scales
    a[: len(_SPECIAL)] = _SPECIAL[:n_rows]
    b = rng.permutation(np.resize(_SPECIAL, n_rows))
    return np.arange(n_rows, dtype=float), a, b


@pytest.mark.parametrize("n_rows", [1, B - 1, B, B + 1, 3 * B + 5])
@pytest.mark.parametrize("kind", ["tails", "coupling", "memloss"])
def test_block_io_equals_the_per_cell_reference(tmp_path, n_rows, kind):
    n, a, b = _columns(n_rows, n_rows)
    columns = {"tails": [n, a, None], "coupling": [n, a, None, b, a[::-1].copy()], "memloss": [n, b]}[kind]
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    csvio.write_columns(str(new), kind, columns)
    _reference_write(str(ref), kind, columns)
    assert filecmp.cmp(new, ref, shallow=False)
    got_kind, got = csvio.read_csv(str(new))
    ref_kind, expected = _reference_read(str(ref))
    assert got_kind == ref_kind == kind
    assert list(got) == list(expected) == csvio.HEADERS[kind]
    for name in got:
        assert got[name].dtype == np.float64 and got[name].shape == (n_rows,)
        # the same bits, so -0.0 and NaN are covered too
        assert np.array_equal(got[name].view(np.int64), expected[name].view(np.int64))
    for col, name in zip(columns, csvio.HEADERS[kind]):
        if col is None:
            assert np.all(np.isnan(got[name]))
        else:
            assert np.array_equal(got[name], col, equal_nan=True)


def test_blank_lines_are_skipped_across_blocks(tmp_path):
    path = tmp_path / "gaps.csv"
    rows = [f"{i},{i / 7!r}" for i in range(2 * B + 3)]
    for i in (0, B - 1, B, B + 1, 2 * B):
        rows[i] += "\n"
    path.write_text("\n\nn,tv\n\n" + "\n".join(rows) + "\n\n\n")
    kind, cols = csvio.read_csv(str(path))
    assert kind == "memloss"
    assert np.array_equal(cols["n"], np.arange(2 * B + 3, dtype=float))
    assert np.array_equal(cols["tv"], np.arange(2 * B + 3) / 7)


def test_a_block_of_blank_lines_does_not_end_the_file(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("n,tv\n1,0.5\n" + "\n" * (2 * B + 1) + "2,0.25\n")
    _, cols = csvio.read_csv(str(path))
    assert np.array_equal(cols["n"], [1.0, 2.0]) and np.array_equal(cols["tv"], [0.5, 0.25])


def _body(n_rows):
    return "".join(f"{i},0.5\n" for i in range(n_rows))


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("\n\n\n", "empty file"),
    ("n,tv\n", "no data rows"),
    ("n,tv\n\n\n", "no data rows"),
    ("a,b,c\n1,2,3\n", "unrecognized header"),
    ("n,tv,extra\n1,2,3\n", "unrecognized header"),
    ("n,tv\n1,2\n3\n", "ragged row '3'"),
    ("n,tv\n1,2,3\n", "ragged row"),
    ("n,tv\n" + _body(B + 7) + "1,2,3\n" + _body(5), "ragged row '1,2,3'"),
    ("n,tv\n" + _body(3 * B) + "9\n", "ragged row '9'"),
    ("n,tv\n1,abc\n", "abc"),
    ("n,tv\n" + _body(B) + "1,0x1p3\n", "0x1p3"),
])
def test_format_errors(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=message):
        csvio.read_csv(str(path))


def test_missing_and_undecodable_files_are_format_errors(tmp_path):
    with pytest.raises(FormatError):
        csvio.read_csv(str(tmp_path / "missing.csv"))
    path = tmp_path / "binary.csv"
    path.write_bytes(b"n,tv\n1,\xff\n")
    with pytest.raises(FormatError):
        csvio.read_csv(str(path))


def test_write_rejects_columns_of_different_lengths(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="length"):
        csvio.write_columns(str(path), "memloss", [np.arange(3.0), np.arange(4.0)])
    with pytest.raises(ValueError, match="columns"):
        csvio.write_columns(str(path), "memloss", [np.arange(3.0)])
    assert not path.exists() and list(tmp_path.iterdir()) == []


def test_a_failed_write_removes_its_file(tmp_path):
    def parts():
        yield "n,tv\n"
        raise OSError("no space left on device")

    path = tmp_path / "x.csv"
    with pytest.raises(OSError, match="no space"):
        csvio._write(str(path), parts())
    assert list(tmp_path.iterdir()) == []


def test_read_memory_peak(tmp_path):
    # one block's lines and cell strings, and each column's blocks: about 5.4
    # x 16 bytes a row, where a whole-table block list, its concatenation and
    # a transposed copy took 7.7
    n = 2**16
    f = make_density("holder", n)
    path = str(tmp_path / "density.csv")
    csvio.write_columns(path, "density", [f.midpoints(), f.values])
    tracemalloc.start()
    try:
        csvio.read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 16 * n


def test_read_memory_peak_of_the_one_table(tmp_path):
    # measured 1.26 x 16 bytes a row: the C parser's (rows, 2) table, grown
    # as it reads; the bound leaves a margin of about 20%
    n = 2**16
    f = make_density("holder", n)
    path = str(tmp_path / "density.csv")
    csvio.write_columns(path, "density", [f.midpoints(), f.values])
    del f
    tracemalloc.start()
    try:
        _, cols = csvio.read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * n
    assert cols["x"].base is cols["value"].base  # views of one table


@pytest.mark.parametrize("text", ["n,tv\n", "n,tv\n\n\n"])
def test_a_header_only_file_raises_without_a_numpy_warning(tmp_path, text):
    path = tmp_path / "header.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="no data rows"):
            csvio.read_csv(str(path))


_CELLS = st.sampled_from(["0", "1", "-2.5", "1e-320", "1e999", "nan", "-inf", "Infinity", "", " ", " 3 ", "\t4",
                          "5\f", "1_0", "0x1p3", "+7", ".5", "6.", "abc", "\u00a08", "\uff19", "1 2", "\"1\""])
_LINES = st.one_of(st.lists(_CELLS, min_size=1, max_size=3).map(",".join), st.sampled_from(["", " ", "\r", "#1,2"]))


def _refuse(*args, **kwargs):
    raise ValueError("refused")


def _read_or_error(path):
    try:
        kind, cols = csvio.read_csv(path)
    except FormatError as e:
        return str(e)
    return kind, {name: c.view(np.int64).tolist() for name, c in cols.items()}


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_LINES, max_size=6), end=st.sampled_from(["", "\n"]))
def test_the_c_parser_reads_what_the_blocks_read(tmp_path_factory, lines, end):
    # every file the C parser accepts, the block loop reads to the same bits;
    # every file it refuses goes to the block loop
    path = str(tmp_path_factory.mktemp("csv") / "t.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("n,tv\n" + "\n".join(lines) + end)
    got = _read_or_error(path)
    loadtxt = np.loadtxt
    try:
        np.loadtxt = _refuse
        blocks = _read_or_error(path)
    finally:
        np.loadtxt = loadtxt
    assert got == blocks
