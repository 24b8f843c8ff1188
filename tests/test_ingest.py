import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotfit import (
    ParseError,
    SignalPair,
    ValidationError,
    load_record,
    validate,
    write_record,
)


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


def test_row_with_missing_cell_reports_line(tmp_path):
    p = tmp_path / "rec.csv"
    write_lines(p, ["0,0", "1", "2,4"])
    with pytest.raises(ParseError, match="line 2"):
        load_record(p)


def test_validate_returns_same_pair():
    pair = SignalPair([0, 1, 2], [0, 1, 2])
    assert validate(pair) is pair
    assert validate(validate(pair)) is pair  # idempotent


def test_validate_nan_names_index():
    load = np.arange(6.0)
    load[4] = np.nan
    with pytest.raises(ValidationError, match="index 4"):
        validate(SignalPair(np.arange(6.0), load))


def test_validate_length_mismatch():
    with pytest.raises(ValidationError, match="mismatch"):
        validate(SignalPair(np.arange(5.0), np.arange(6.0)))


def test_validate_reports_each_violation():
    disp = np.arange(5.0)
    load = np.arange(6.0)
    load[2] = np.inf
    with pytest.raises(ValidationError) as err:
        validate(SignalPair(disp, load))
    assert len(err.value.problems) == 2


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
    pair = SignalPair([0, 1], [0, 2], displacement_unit="1/m", load_unit="kN")
    write_record(pair, p)
    assert p.read_text().splitlines()[0] == "displacement_1/m,load_kN"
