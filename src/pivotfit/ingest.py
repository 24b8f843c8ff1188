"""Reading and writing paired load-deformation records.

Records are delimiter-separated text with two designated numeric columns
(displacement and load). An optional single header line is detected
once per file: if no designated cell of the first non-blank row parses
as a number, that row is a header and every read route skips it; a first
row with one numeric designated cell is data and must parse in full.
Units are metadata only and are never converted.

The header sniff, the read of stripped lines and the line walk share one
open handle. The file is read by numpy's C text reader (``np.loadtxt``)
from the path itself, which numpy opens again, when the delimiter is one
non-whitespace character, or else (and when numpy refuses the path) from
the file's stripped, non-blank lines. Where numpy accepts a cell its
value is ``float(cell)``. A file numpy refuses from both sources or
reads with a non-finite value, and any file with a multi-character
delimiter, is walked line by line; the walk yields the same arrays, or
raises ParseError naming the first bad line: too few columns, or a cell
that is not a number or not finite (an LVDT export's NaN).
A byte that is not UTF-8 raises ParseError naming its line. Memory
follows the parsed columns, not the text. Writers write comma-separated
UTF-8 text as bytes into a binary file: they stack the columns once and
write a block of rows at a time, each block formatted by one ``bytes``
``%`` of the :func:`row_format` template, so no ``str`` is built or
encoded per block. Every number pivotfit writes goes through that
template.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Significant digits used for all numeric text output; preserves 32-bit
# sensor precision with margin.
OUTPUT_PRECISION = 9

# Rows formatted by one bytes '%' in write_columns. On a 124,801-row
# record, blocks of 1024 to 32768 rows wrote within noise of each other
# (medians 79.6-80.1 ms, 2 vCPUs), so the size is fixed, not a setting.
_WRITE_BLOCK_ROWS = 4096


class ParseError(ValueError):
    """Raised when an input file cannot be parsed into a record."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        if line is not None:
            message = f"{path}: line {line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class SignalPair:
    """Paired displacement/load histories, as float arrays; their unit
    labels are given to :func:`write_record`.

    Invariants, checked when it is built: both 1-d, equal lengths, at
    least two samples, every element finite. A ValueError names every
    violated invariant, "; "-separated: the shape of a column that is
    not 1-d (no other check runs then), else the first offending index.
    """

    displacement: np.ndarray
    load: np.ndarray

    def __post_init__(self):
        columns = (
            ("displacement", np.asarray(self.displacement, dtype=float)),
            ("load", np.asarray(self.load, dtype=float)),
        )
        vars(self).update(columns)
        problems = [f"{n} must be 1-d, got shape {a.shape}" for n, a in columns if a.ndim != 1]
        if problems:  # the checks below read a 1-d length
            raise ValueError("; ".join(problems))
        nd, nl = self.displacement.shape[0], self.load.shape[0]
        if nd != nl:
            problems.append(f"length mismatch: displacement has {nd} samples, load has {nl}")
        if min(nd, nl) < 2:
            problems.append(f"too short: {min(nd, nl)} samples, need at least 2")
        for name, arr in columns:
            finite = np.isfinite(arr)
            if not finite.all():
                idx = int(np.argmin(finite))
                problems.append(f"non-finite {name} value at index {idx}")
        if problems:
            raise ValueError("; ".join(problems))

    def __len__(self):
        return self.displacement.shape[0]


# Suffixes for which np.loadtxt, given a path, unpacks the file as an
# archive; load_record reads every file as plain text.
_ARCHIVE_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _parse_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _is_header(line: str, delimiter: str, needed) -> bool:
    """The header rule, applied to the first non-blank line of a file: a
    header has no designated cell that parses as a number."""
    cells = [c.strip() for c in line.split(delimiter)]
    n = len(cells)
    return all(_parse_cell(cells[c]) is None for c in needed if -n <= c < n)


def _loadtxt(source, skiprows, delimiter, columns):
    """The designated columns of ``source`` as an (n, 2) array from
    numpy's C reader, or None if numpy refuses the source or warns. A
    cell numpy accepts parses as ``float(cell)`` (both call
    ``PyOS_string_to_double``); one only ``float`` takes (``1_0``) is
    refused."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(
                source,
                delimiter=delimiter,
                comments=None,
                usecols=columns,
                skiprows=skiprows,
                ndmin=2,
                encoding="utf-8-sig",
            )
    except UnicodeDecodeError:
        raise  # not text: no other source can read it
    except (ValueError, TypeError, Warning):
        return None


def _walk_lines(fh, path, delimiter, displacement_column, load_column, ncols, skip):
    """Both designated columns parsed line by line after the first
    ``skip`` lines; raises ParseError at the first line that breaks the
    format or holds a non-finite value."""
    disp, load = [], []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or lineno <= skip:
            continue
        cells = [c.strip() for c in line.split(delimiter)]
        if len(cells) < ncols:
            raise ParseError(
                f"expected at least {ncols} columns, found {len(cells)}",
                path=path,
                line=lineno,
            )
        d = _parse_cell(cells[displacement_column])
        f = _parse_cell(cells[load_column])
        for col, value in ((displacement_column, d), (load_column, f)):
            if value is None or not math.isfinite(value):
                kind = "non-numeric" if value is None else "non-finite"
                raise ParseError(
                    f"{kind} value {cells[col]!r} in column {col}", path=path, line=lineno
                )
        disp.append(d)
        load.append(f)
    return np.array(disp), np.array(load)


def _not_utf8(path) -> ParseError:
    """ParseError naming the line of the first byte of ``path`` that is
    not UTF-8; lines end as in text mode, at \\n, \\r\\n or \\r."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")  # a byte order mark decodes, so offsets stay absolute
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b".").splitlines())
        return ParseError(
            f"byte 0x{data[exc.start]:02x} is not UTF-8 text", path=path, line=line
        )
    return ParseError("not UTF-8 text", path=path)  # changed since it was read


@contextmanager
def open_text(path):
    """``path`` opened to read as UTF-8 text, a leading byte order mark
    dropped; a byte that is not UTF-8 raises ParseError naming its line."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def load_record(
    path,
    delimiter: str = ",",
    displacement_column: int = 0,
    load_column: int = 1,
) -> SignalPair:
    """Read a delimiter-separated record into a SignalPair.

    Column indices are 0-based; a negative index counts from the end of
    each line. Whitespace-only and fully empty lines are ignored, and a
    leading UTF-8 byte order mark is dropped. Errors carry 1-based line
    numbers. The file is read by numpy and, if numpy refuses it, line by
    line (see the module docstring).
    """
    if not delimiter:  # str.split would refuse it only inside the line walk
        raise ValueError(f"delimiter must not be empty, got {delimiter!r}")
    columns = (displacement_column, load_column)
    # column c >= 0 is cell c + 1 of a line, column c < 0 is cell -c from its end
    ncols = max(c + 1 if c >= 0 else -c for c in columns)
    with open_text(path) as fh:
        # the one header sniff: every route skips the first ``skip``
        # lines, those before the first non-blank line and a header
        skip, header, table = 0, None, None
        for lineno, raw in enumerate(fh):
            if line := raw.strip():
                header = int(_is_header(line, delimiter, columns))
                skip = lineno + header
                break
        # The path is the fast source: numpy reads the file in chunks.
        # It gives the walk's cells only where stripping a line cannot
        # move a cell boundary, so not for a whitespace delimiter. The
        # stripped lines serve that case and whitespace-only lines,
        # which numpy refuses. A file with no non-blank line is walked.
        if header is not None and len(delimiter) == 1:
            suffix = os.path.splitext(path)[1]
            if not delimiter.isspace() and suffix not in _ARCHIVE_SUFFIXES:
                # absolute, so numpy cannot take the path for a URL
                table = _loadtxt(os.path.abspath(path), skip, delimiter, columns)
            if table is None:
                fh.seek(0)
                lines = filter(None, map(str.strip, fh))
                table = _loadtxt(lines, header, delimiter, columns)
        if table is not None and np.isfinite(table).all():
            disp, load = table.T.copy()  # each column contiguous, as the walk's
        else:  # the walk also names the line of a non-finite value
            fh.seek(0)
            disp, load = _walk_lines(fh, path, delimiter, *columns, ncols, skip)
    if len(disp) < 2:
        raise ParseError(
            f"too short: found {len(disp)} data rows, need at least 2", path=path
        )
    return SignalPair(disp, load)


def row_format(ncols: int, precision: int) -> bytes:
    """The bytes ``%`` template of one LF-ended row of ``ncols``
    comma-separated numbers, each ``%.<precision>g``. A float formats
    as ``format(value, f".{precision}g")``: ``bytes`` and ``str`` ``%``
    both call ``PyOS_double_to_string``.

    Raises ValueError if precision is below 1.
    """
    if precision < 1:
        raise ValueError(f"precision must be at least 1, got {precision}")
    return ",".join([f"%.{precision}g"] * ncols).encode() + b"\n"


def write_record(
    pair: SignalPair, path, *, units=("mm", "kN"), precision: int = OUTPUT_PRECISION
) -> None:
    """Write a SignalPair as comma-separated text (UTF-8, LF endings)
    under the header ``displacement_<u>,load_<l>``, ``units`` being the
    labels ``(u, l)``; they name the values and never convert them.

    Round-trips through :func:`load_record` up to ``precision``
    significant digits.
    """
    displacement_unit, load_unit = units
    header = (f"displacement_{displacement_unit}", f"load_{load_unit}")
    write_columns(path, header, (pair.displacement, pair.load), precision=precision)


def write_columns(path, header, columns, precision=OUTPUT_PRECISION):
    """Write parallel numeric columns as comma-separated text with a
    one-line header.

    Raises ValueError, before the file is opened, if a column is not
    1-d, the columns differ in length or precision is below 1.
    """
    columns = [np.asarray(c) for c in columns]
    for i, c in enumerate(columns):
        if c.ndim != 1:
            raise ValueError(f"column {i} must be 1-d, got shape {c.shape}")
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    row = row_format(len(columns), precision)
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        if columns:
            table = np.column_stack(columns)
            for start in range(0, len(table), _WRITE_BLOCK_ROWS):
                block = table[start : start + _WRITE_BLOCK_ROWS]
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))
