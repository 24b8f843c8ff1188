"""Reading, validating and writing paired load-deformation records.

Records are delimiter-separated text with two designated numeric columns
(displacement and load). An optional single header line is detected
once per file: if no designated cell of the first non-blank row parses
as a number, that row is a header and every read route skips it; a first
row with one numeric designated cell is data and must parse in full.
Units are metadata only and are never converted.

The file is opened once and read by numpy's C text reader
(``np.loadtxt``) from the path itself, when the delimiter is one
non-whitespace character, or else (and when numpy refuses the path) from
the file's stripped, non-blank lines. Where numpy accepts a cell its
value is ``float(cell)``. A file numpy refuses from both sources, and any
file with a multi-character delimiter, is walked line by line; the walk
yields the same arrays, or raises ParseError naming the first bad line.
A byte that is not UTF-8 raises ParseError naming its line. Memory
follows the parsed columns, not the text. Writers write comma-separated
text: they stack the columns once and write a block of rows at a time,
each block formatted by one ``%`` operation.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

# Significant digits used for all numeric text output; preserves 32-bit
# sensor precision with margin.
OUTPUT_PRECISION = 9

# Rows formatted by one '%' operation in write_columns: on a 124,801-row
# record, blocks of 4096 rows wrote faster than blocks of 512 or 16384.
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


class ValidationError(ValueError):
    """Raised when a record violates one or more invariants.

    ``problems`` holds one message per violated invariant, each naming
    the first offending index (0-based).
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True, eq=False)
class SignalPair:
    """Paired displacement/load histories.

    Invariants (checked by :func:`validate`): equal lengths, at least two
    samples, every element finite.
    """

    displacement: np.ndarray
    load: np.ndarray
    displacement_unit: str = "mm"
    load_unit: str = "kN"

    def __post_init__(self):
        object.__setattr__(
            self, "displacement", np.asarray(self.displacement, dtype=float)
        )
        object.__setattr__(self, "load", np.asarray(self.load, dtype=float))

    def __len__(self):
        return self.displacement.shape[0]

    def with_arrays(self, displacement, load) -> "SignalPair":
        """New pair with the same unit metadata but different samples."""
        return replace(self, displacement=displacement, load=load)


def validate(pair: SignalPair) -> SignalPair:
    """Check all SignalPair invariants, returning the pair unmodified.

    Raises ValidationError carrying one message per violated invariant;
    each message names the first offending index. Idempotent and free of
    side effects.
    """
    problems = []
    nd = pair.displacement.shape[0]
    nl = pair.load.shape[0]
    if nd != nl:
        problems.append(
            f"length mismatch: displacement has {nd} samples, load has {nl}"
        )
    if min(nd, nl) < 2:
        problems.append(f"too short: {min(nd, nl)} samples, need at least 2")
    for name, arr in (("displacement", pair.displacement), ("load", pair.load)):
        finite = np.isfinite(arr)
        if not finite.all():
            idx = int(np.argmin(finite))
            problems.append(f"non-finite {name} value at index {idx}")
    if problems:
        raise ValidationError(problems)
    return pair


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
    ``skip`` lines; raises ParseError at the first line that breaks the format."""
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
        if d is None or f is None:
            col = displacement_column if d is None else load_column
            raise ParseError(
                f"non-numeric value {cells[col]!r} in column {col}",
                path=path,
                line=lineno,
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


def load_record(
    path,
    delimiter: str = ",",
    displacement_column: int = 0,
    load_column: int = 1,
    displacement_unit: str = "mm",
    load_unit: str = "kN",
) -> SignalPair:
    """Read a delimiter-separated record into a validated SignalPair.

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
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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
            if table is not None:
                disp, load = table.T.copy()  # each column contiguous, as the walk's
            else:
                fh.seek(0)
                disp, load = _walk_lines(fh, path, delimiter, *columns, ncols, skip)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if len(disp) < 2:
        raise ParseError(
            f"too short: found {len(disp)} data rows, need at least 2", path=path
        )
    return validate(SignalPair(disp, load, displacement_unit, load_unit))


def format_number(x: float, precision: int = OUTPUT_PRECISION) -> str:
    return f"{x:.{precision}g}"


def write_record(pair: SignalPair, path, precision: int = OUTPUT_PRECISION) -> None:
    """Write a SignalPair as comma-separated text (UTF-8, LF endings).

    Round-trips through :func:`load_record` up to ``precision``
    significant digits.
    """
    write_columns(
        path,
        (f"displacement_{pair.displacement_unit}", f"load_{pair.load_unit}"),
        (pair.displacement, pair.load),
        precision=precision,
    )


def write_columns(path, header, columns, precision=OUTPUT_PRECISION):
    """Write parallel numeric columns as comma-separated text with a
    one-line header.

    Raises ValueError, before the file is opened, if the columns differ
    in length or precision is below 1.
    """
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    if precision < 1:
        raise ValueError(f"precision must be at least 1, got {precision}")
    # '%' with an explicit '.pg' formats a value as format() does
    row = ",".join([f"%.{precision}g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if columns:
            table = np.column_stack(columns)
            for start in range(0, len(table), _WRITE_BLOCK_ROWS):
                block = table[start : start + _WRITE_BLOCK_ROWS]
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))
