import gzip
import urllib.request
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotfit import (
    GAConfig,
    ParamBounds,
    ParseError,
    SignalPair,
    idealize,
    load_record,
    write_record,
)
from pivotfit import ingest
from pivotfit.ingest import write_columns
from oracles import load_record_oracle, write_columns_oracle


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_simple_record(tmp_path):
    p = tmp_path / "rec.csv"
    write_lines(p, ["0,0", "1,5", "2,10"])
    pair = load_record(p)
    assert len(pair) == 3
    np.testing.assert_array_equal(pair.displacement, [0, 1, 2])
    np.testing.assert_array_equal(pair.load, [0, 5, 10])


def test_header_autodetected(tmp_path):
    p = tmp_path / "rec.csv"
    write_lines(p, ["disp_mm,load_kN", "0,0", "1,5"])
    pair = load_record(p)
    assert len(pair) == 2


def test_byte_order_mark_keeps_first_row(tmp_path):
    p = tmp_path / "rec.csv"
    p.write_bytes(b"\xef\xbb\xbf0,0\n1,5\n2,10\n")
    pair = load_record(p)
    assert len(pair) == 3
    np.testing.assert_array_equal(pair.displacement, [0, 1, 2])


@pytest.mark.parametrize("first", ["0,", "0,load", "disp,5", "0"])
def test_partly_numeric_first_row_is_data(tmp_path, first):
    p = tmp_path / "rec.csv"
    write_lines(p, [first, "1,5", "2,10", "3,15"])
    with pytest.raises(ParseError, match="line 1"):
        load_record(p)


def test_non_numeric_cell_names_line(tmp_path):
    p = tmp_path / "rec.csv"
    rows = [f"{i},{2 * i}" for i in range(6)] + ["oops,3", "7,14"]
    write_lines(p, rows)
    with pytest.raises(ParseError, match="line 7"):
        load_record(p)


def test_single_row_too_short(tmp_path):
    p = tmp_path / "rec.csv"
    write_lines(p, ["1,2"])
    with pytest.raises(ParseError, match="too short"):
        load_record(p)


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_record(tmp_path / "nope.csv")


def test_column_mapping_and_delimiter(tmp_path):
    p = tmp_path / "rec.tsv"
    write_lines(p, ["9\t0\t0", "9\t1\t5", "9\t2\t11"])
    pair = load_record(p, delimiter="\t", displacement_column=1, load_column=2)
    np.testing.assert_array_equal(pair.load, [0, 5, 11])


def test_empty_delimiter_is_rejected_by_name(tmp_path):
    # refused before the file is opened: this file does not exist
    with pytest.raises(ValueError, match="delimiter must not be empty, got ''"):
        load_record(tmp_path / "nope.csv", delimiter="")


@pytest.mark.parametrize("cell", ["NaN", "-inf", "1e999"])
@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("delimiter", [",", "\t", ";;"])
def test_non_finite_cell_names_its_line(tmp_path, delimiter, column, cell):
    row = ["0.2", "3"]
    row[column] = cell
    lines = ["d,f", "0,0", "", "0.1,1", ",".join(row), "0.3,2"]
    p = tmp_path / "rec.csv"
    write_lines(p, [line.replace(",", delimiter) for line in lines])
    with pytest.raises(ParseError) as err:
        load_record(p, delimiter)
    assert str(err.value) == f"{p}: line 5: non-finite value {cell!r} in column {column}"


def test_row_with_missing_cell_reports_line(tmp_path):
    p = tmp_path / "rec.csv"
    write_lines(p, ["0,0", "1", "2,4"])
    with pytest.raises(ParseError, match="line 2"):
        load_record(p)


@pytest.mark.parametrize(
    "displacement, load, problems",
    [
        (np.zeros((3, 2)), np.ones(3), ["displacement must be 1-d, got shape (3, 2)"]),
        (np.zeros(3), np.float64(1.0), ["load must be 1-d, got shape ()"]),
        (
            np.zeros((1, 4)),
            np.ones((4, 1)),
            [
                "displacement must be 1-d, got shape (1, 4)",
                "load must be 1-d, got shape (4, 1)",
            ],
        ),
    ],
    ids=["displacement_3x2", "load_0d", "both"],
)
def test_signal_pair_names_a_column_that_is_not_1d(displacement, load, problems):
    with pytest.raises(ValueError) as err:
        SignalPair(displacement, load)
    assert str(err.value) == "; ".join(problems)


@pytest.mark.parametrize("bad", [1, 0], ids=["second", "first"])
def test_write_columns_refuses_a_column_that_is_not_1d(tmp_path, bad):
    # refused before the file is opened
    columns = [np.zeros(3), np.ones(3)]
    columns[bad] = columns[bad].reshape(3, 1)
    path = tmp_path / "rec.csv"
    with pytest.raises(ValueError, match=rf"column {bad} must be 1-d, got shape \(3, 1\)"):
        write_columns(path, ["d", "f"], columns)
    assert not path.exists()


ENVELOPE_D = np.array([-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0])
ENVELOPE_F = np.array([-10.0, -12.0, -9.0, -4.0, 4.0, 9.0, 12.0, 10.0])


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda path: idealize(SignalPair(ENVELOPE_D, ENVELOPE_F[:-1])),
            "length mismatch: displacement has 8 samples, load has 7",
        ),
        (
            lambda path: idealize(SignalPair(ENVELOPE_D, np.r_[np.nan, ENVELOPE_F[1:]])),
            "non-finite load value at index 0",
        ),
        (
            lambda path: write_record(SignalPair([0.0, 1.0, 2.0], [0.0, np.nan, 1.0]), path),
            "non-finite load value at index 1",
        ),
        (lambda path: GAConfig(population_size=-5), "population_size must exceed the 2 elites"),
        (
            lambda path: ParamBounds(alpha1=(0, 1)),
            "bounds exceed the admissible parameter ranges: alpha1 and alpha2 must be >= 1",
        ),
        (
            lambda path: ParamBounds(alpha1=("1", "2")),
            "alpha1 bounds must be a (lo, hi) pair of numbers, got ('1', '2')",
        ),
        (
            lambda path: GAConfig(bounds={"alpha1": (1, 2)}),
            "bounds must be a ParamBounds, got {'alpha1': (1, 2)}",
        ),
    ],
    ids=[
        "mismatched_envelope",
        "nan_envelope",
        "write_nan_pair",
        "negative_population",
        "inadmissible_bounds",
        "bound_of_strings",
        "bounds_of_a_dict",
    ],
)
def test_a_value_refuses_bad_contents_when_it_is_built(tmp_path, build, message):
    path = tmp_path / "rec.csv"
    with pytest.raises(ValueError) as err:
        build(path)
    assert str(err.value) == message
    assert not path.exists()


def test_signal_pair_reports_each_violation():
    disp = np.arange(5.0)
    load = np.arange(6.0)
    load[2] = np.inf
    with pytest.raises(ValueError) as err:
        SignalPair(disp, load)
    assert str(err.value) == (
        "length mismatch: displacement has 5 samples, load has 6; "
        "non-finite load value at index 2"
    )
    with pytest.raises(ValueError) as err:
        SignalPair([0.0], [0.0])
    assert str(err.value) == "too short: 1 samples, need at least 2"


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=40,
    ),
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=40,
    ),
)
def test_write_read_round_trip(tmp_path_factory, disp, load):
    n = min(len(disp), len(load))
    pair = SignalPair(disp[:n], load[:n])
    path = tmp_path_factory.mktemp("rt") / "rec.csv"
    write_record(pair, path)
    back = load_record(path)
    # 9 significant digits of text precision
    np.testing.assert_allclose(back.displacement, pair.displacement, rtol=1e-8, atol=1e-300)
    np.testing.assert_allclose(back.load, pair.load, rtol=1e-8, atol=1e-300)


def test_units_carried_to_header(tmp_path):
    p = tmp_path / "rec.csv"
    write_record(SignalPair([0, 1], [0, 2]), p, units=("1/m", "kN"))
    assert p.read_text().splitlines()[0] == "displacement_1/m,load_kN"
    write_record(SignalPair([0, 1], [0, 2]), p)
    assert p.read_text().splitlines()[0] == "displacement_mm,load_kN"
    write_record(SignalPair([0, 1], [0, 2]), p, units=("µm", "kN"))
    assert p.read_bytes() == "displacement_µm,load_kN\n0,0\n1,2\n".encode("utf-8")


# -- numpy reader and column-wise writer against the per-cell oracles --

CELLS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.17g}"),
    st.sampled_from(
        ["1_0", "nan", "inf", "-inf", "x", "", " 2 ", "١", "+.5", "1e-320", "-0"]
    ),
)
BLANK = st.sampled_from(["", "  ", "\t", " \x0c "])


@st.composite
def record_files(draw):
    delimiter = draw(st.sampled_from([",", "\t", ";", " "]))
    columns = draw(st.sampled_from([(0, 1), (1, 0), (1, 2), (2, 0), (0, 0), (1, -3)]))
    need = max(c + 1 if c >= 0 else -c for c in columns)
    width = draw(st.integers(need, need + 2))
    plain = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
    kinds = ["row"] * 12 + ["blank"]
    if draw(st.booleans()):
        kinds += ["ragged", "odd"]
    # a delimiter at 1 in n line starts and ends
    leading = draw(st.sampled_from([0, 1, 10]))
    trailing = draw(st.sampled_from([0, 1, 10]))
    lines = draw(st.lists(BLANK, max_size=3))  # before the header or first row
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["disp,load", "d\tf", "0,load", "disp;5", "t;d;f", "t d f"])))
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(BLANK))
            continue
        n = width if kind != "ragged" else draw(st.integers(0, width + 2))
        cells = [draw(CELLS if kind == "odd" else plain) for _ in range(n)]
        line = delimiter.join(cells)
        if leading and draw(st.integers(1, leading)) == 1:
            line = delimiter + line
        if trailing and draw(st.integers(1, trailing)) == 1:
            line += delimiter
        if draw(st.integers(0, 9)) == 0:
            line = draw(st.sampled_from([" ", "\t"])) + line + " "
        lines.append(line)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8"), delimiter, columns


def outcome(load, path, delimiter, columns):
    try:
        pair = load(path, delimiter, *columns)
    except ValueError as err:
        return type(err), str(err), getattr(err, "line", None)
    return pair.displacement.tobytes(), pair.load.tobytes()


@settings(max_examples=200, deadline=None)
@given(record_files())
def test_load_record_matches_line_walk_oracle(tmp_path_factory, record):
    data, delimiter, columns = record
    path = tmp_path_factory.mktemp("rec") / "rec.csv"
    path.write_bytes(data)
    with warnings.catch_warnings(record=True) as emitted:
        warnings.simplefilter("always")
        found = outcome(load_record, path, delimiter, columns)
    assert emitted == []  # nothing numpy warns reaches the caller
    assert found == outcome(load_record_oracle, path, delimiter, columns)


@pytest.mark.parametrize("bad", ["oops", "1", "1,2,3", "1,2,", ""])
def test_bad_line_in_a_later_block_is_named(tmp_path, bad):
    rows = [f"{i * 0.001:.9g},{i * 1.5e-3:.9g}" for i in range(20_000)]
    rows[17_345] = bad or ","
    p = tmp_path / "rec.csv"
    write_lines(p, ["displacement_mm,load_kN"] + rows)
    found = outcome(load_record, p, ",", (0, 1))
    assert found == outcome(load_record_oracle, p, ",", (0, 1))
    if bad in ("oops", "1", ""):
        assert found[2] == 17_347
    else:  # a ragged but valid row
        assert len(found[0]) == 8 * 20_000


@pytest.mark.parametrize(
    "lines, delimiter, columns",
    [
        # ragged rows whose cells add up to whole rows of three
        (["0,0,0", "1", "2,2,2,2,2", "3,3,3"], ",", (0, 1)),
        (["0;0", "1;1;", "2", "3;3"], ";", (0, 1)),
        # a later line that would pass the header rule is still data
        (["0,0", "1,1", "x,y", "3,3"], ",", (0, 1)),
        # a joined multi-character delimiter could straddle two lines
        (["21112.21", "112."], "11", (0, 1)),
        (["0, 1", "1, 2.5", "2, 4"], ", ", (0, 1)),
        # negative columns count from each line's end
        (["0,1,2", "3,4,5", "6,7,8"], ",", (-1, 0)),
        (["0,1", "2,3"], ",", (1, -3)),
        (["d,f", "0,1,2", "3,4,5"], ",", (1, -3)),
        # stripping a line moves the cells of a whitespace delimiter
        (["\t5\t6\t7", "\t1\t2\t3\t"], "\t", (1, 2)),
        ([" 5 6 7 ", "1 2 3 "], " ", (1, 2)),
    ],
)
@pytest.mark.parametrize("blank_lines", [1, 1 << 16])
def test_irregular_rows_match_oracle(tmp_path, lines, delimiter, columns, blank_lines):
    p = tmp_path / "rec.csv"
    write_lines(p, [""] * blank_lines + lines)
    expected = outcome(load_record_oracle, p, delimiter, columns)
    assert outcome(load_record, p, delimiter, columns) == expected


def test_negative_column_beyond_a_row_names_the_line(tmp_path):
    p = tmp_path / "rec.csv"
    write_lines(p, ["0,1,2", "2,3", "4,5,6"])
    with pytest.raises(ParseError, match="line 2: expected at least 3 columns, found 2"):
        load_record(p, ",", 1, -3)


def numpy_sources(monkeypatch):
    """Patches out the line walk; returns the list that records, for each
    source handed to numpy, whether it was the path."""
    sources = []
    loadtxt = ingest._loadtxt

    def spy(source, *args):
        sources.append(isinstance(source, str))
        return loadtxt(source, *args)

    monkeypatch.setattr(ingest, "_loadtxt", spy)
    monkeypatch.setattr(ingest, "_walk_lines", None)  # calling it would raise
    return sources


def test_regular_file_is_read_without_the_line_walk(tmp_path, monkeypatch):
    rows = [f"{i},{-i * 0.5:.9g}, 7" for i in range(5000)]
    p = tmp_path / "rec.csv"
    p.write_bytes(b"\xef\xbb\xbfd,f,t\r\n\r\n" + " \r\n".join(rows).encode())
    sources = numpy_sources(monkeypatch)
    pair = load_record(p)
    assert pair.displacement.tobytes() == np.arange(5000.0).tobytes()
    assert sources == [True]


@pytest.mark.parametrize(
    "text, delimiter, columns, sources",
    [
        ("t\td\tf\n" + "".join(f"\t0\t{i}\t{-i}\t\n" for i in range(5000)), "\t", (1, 2), [False]),
        ("d,f\n \n" + "".join(f"{i},{-i}\n\t\n" for i in range(5000)), ",", (0, 1), [True, False]),
    ],
    ids=["tab", "whitespace_lines"],
)
def test_irregular_files_are_read_without_the_line_walk(
    tmp_path, monkeypatch, text, delimiter, columns, sources
):
    p = tmp_path / "rec.csv"
    p.write_text(text, encoding="utf-8")
    expected = outcome(load_record_oracle, p, delimiter, columns)
    found_sources = numpy_sources(monkeypatch)
    assert outcome(load_record, p, delimiter, columns) == expected
    assert len(expected[0]) == 8 * 5000
    assert found_sources == sources


def test_file_named_like_an_archive_is_read_as_text(tmp_path):
    rows = ["d,f", "0,0", "1,5", "2,10"]
    plain, named_gz = tmp_path / "rec.csv", tmp_path / "rec.csv.gz"
    write_lines(plain, rows)
    write_lines(named_gz, rows)
    assert outcome(load_record, named_gz, ",", (0, 1)) == outcome(load_record, plain, ",", (0, 1))
    # a real archive is not unpacked: its bytes are not UTF-8 text
    named_gz.write_bytes(gzip.compress(plain.read_bytes()))
    with pytest.raises(ParseError, match=r"rec\.csv\.gz: line 1: byte 0x8b is not UTF-8"):
        load_record(named_gz)


def test_path_that_parses_as_a_url_is_read_from_disk(tmp_path, monkeypatch):
    def no_download(*args, **kwargs):
        raise AssertionError("load_record tried to download its input")

    monkeypatch.setattr(urllib.request, "urlopen", no_download)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "localhost").mkdir(parents=True)
    write_lines(tmp_path / "http:" / "localhost" / "rec.csv", ["0,0", "1,5"])
    pair = load_record("http://localhost/rec.csv")
    np.testing.assert_array_equal(pair.load, [0, 5])


def test_long_regular_file_matches_oracle(tmp_path):
    rng = np.random.default_rng(5)
    rows = [f"{d:.9g}\t{f:.17g}\t7" for d, f in rng.standard_normal((30_000, 2))]
    p = tmp_path / "rec.tsv"
    p.write_bytes(b"\xef\xbb\xbft\td\tf\r\n" + "\r\n".join(rows).encode())
    found = outcome(load_record, p, "\t", (1, 0))
    assert found == outcome(load_record_oracle, p, "\t", (1, 0))
    assert len(found[0]) == 8 * 30_000


SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 0.1, 1 / 3]


def assert_written_as_oracle(out, columns, precision=9):
    header = [f"c{i}" for i in range(len(columns))]
    write_columns(out / "new.csv", header, columns, precision)
    write_columns_oracle(out / "old.csv", header, columns, precision)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=30),
    st.sampled_from([3, 9, 17]),
)
def test_write_columns_matches_per_value_oracle(tmp_path_factory, values, precision):
    floats = np.array(SPECIAL + values)
    columns = [floats, np.arange(floats.size) - 7, (np.arange(floats.size) / 7).astype(np.float32)]
    out = tmp_path_factory.mktemp("w")
    for cols in (columns, columns[:1], []):
        assert_written_as_oracle(out, cols, precision)
    with pytest.raises(ValueError, match=rf"differ in length: \[{floats.size}, 3\]"):
        write_columns(out / "unequal.csv", ["a", "b"], [floats, floats[:3]], precision)
    assert not (out / "unequal.csv").exists()


@pytest.mark.parametrize("precision", [0, -1])
def test_write_columns_rejects_precision_below_one(tmp_path, precision):
    path = tmp_path / "p.csv"
    with pytest.raises(ValueError, match=f"precision must be at least 1, got {precision}"):
        write_columns(path, ["a"], [np.arange(3.0)], precision=precision)
    assert not path.exists()


B = ingest._WRITE_BLOCK_ROWS


@pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_block_writer_row_counts_match_oracle(tmp_path, rows):
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    assert_written_as_oracle(tmp_path, [values, -values, np.arange(rows)])
    assert len((tmp_path / "new.csv").read_text().splitlines()) == rows + 1


@pytest.mark.parametrize("precision", [1, 9, 17])
def test_block_writer_precisions_match_oracle(tmp_path, precision):
    values = np.array(SPECIAL + [np.nan, np.inf, -np.inf, 123456.789, 0.5, 9.5] * 700)
    assert_written_as_oracle(tmp_path, [values, values[::-1]], precision)


INT64 = np.arange(B + 9, dtype=np.int64) * 977_003 - 2**62 - 1
FLOAT32 = (np.linspace(-1e6, 1e6, B + 9) / 3).astype(np.float32)
BOOL = np.arange(B + 9) % 3 == 0


@pytest.mark.parametrize(
    "columns",
    [[INT64, FLOAT32, BOOL], [BOOL, INT64], [INT64], [FLOAT32], [BOOL]],
    ids=["int64_float32_bool", "bool_int64", "int64", "float32", "bool"],
)
@pytest.mark.parametrize("precision", [1, 9, 17])
def test_block_writer_dtypes_match_oracle(tmp_path, columns, precision):
    assert_written_as_oracle(tmp_path, columns, precision=precision)


def test_block_writer_zero_columns_writes_the_header_line(tmp_path):
    assert_written_as_oracle(tmp_path, [])
    assert (tmp_path / "new.csv").read_bytes() == b"\n"


@pytest.mark.parametrize("bad_row", ["1,\udcff5", "\udcff1,5"], ids=["mid_line", "line_start"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("delimiter", [",", "\t", ";;"])
def test_byte_that_is_not_utf8_names_its_line(tmp_path, newline, delimiter, bad_row):
    # the file is one read chunk, so the header sniff meets the byte before
    # any route reads; the test below puts it past the first chunk
    lines = ["d,f", "0,0", bad_row, "2,10"]
    text = newline.join(line.replace(",", delimiter) for line in lines) + newline
    p = tmp_path / "rec.csv"
    p.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError, match="line 3: byte 0xff is not UTF-8 text") as err:
        load_record(p, delimiter)
    assert err.value.line == 3
    assert err.value.path == p


@pytest.mark.parametrize("delimiter, sources", [(",", [True]), ("\t", [False])])
def test_byte_that_is_not_utf8_stops_the_first_numpy_read(tmp_path, monkeypatch, delimiter, sources):
    rows = [f"{i}{delimiter}{-i}" for i in range(20_000)]  # past the first chunk read
    p = tmp_path / "rec.csv"
    p.write_bytes("\n".join(rows).encode() + b"\n1,\xff5\n")
    found_sources = numpy_sources(monkeypatch)
    with pytest.raises(ParseError, match="line 20001: byte 0xff") as err:
        load_record(p, delimiter)
    assert err.value.line == 20_001
    assert found_sources == sources
