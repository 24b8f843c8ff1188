"""Reading, validating and writing paired load-deformation records.

Records are delimiter-separated text with two designated numeric columns
(displacement and load). An optional single header line is auto-detected:
if no designated cell of the first row parses as a number, the row is
treated as a header and skipped; a first row with one numeric designated
cell is data and must parse in full. Units are metadata only and are
never converted.

Files are read in blocks of lines. A regular block (every line with the
same number of cells) is parsed column-wise: one join and split per
block and ``float`` on each designated column. If any block is
irregular, the file is read again line by line; that walk yields the
same arrays, or raises ParseError naming the first bad line. Writers
format whole columns with one row format.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Significant digits used for all numeric text output; preserves 32-bit
# sensor precision with margin.
OUTPUT_PRECISION = 9


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


@dataclass(frozen=True)
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


# Characters read per block by load_record, about 2.5k typical lines:
# memory follows the block and not the file, and the block's strings
# stay in the CPU caches.
_BLOCK_CHARS = 1 << 16


def _parse_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _is_header(line: str, delimiter: str, needed) -> bool:
    """The header rule, applied to the first non-blank line of a file: a
    header has no designated cell that parses as a number."""
    cells = [c.strip() for c in line.split(delimiter)]
    return all(_parse_cell(cells[c]) is None for c in needed if c < len(cells))


def _read_blocks(fh, delimiter, displacement_column, load_column, ncols):
    """Both designated columns of a regular file, parsed one block of
    lines at a time, or None if any block is irregular.

    A block is regular when all its non-blank lines hold the same number
    k >= ncols of cells and every designated cell is accepted by
    ``float``; its cells then come from one join and split.
    """
    if len(delimiter) != 1 or min(displacement_column, load_column) < 0:
        # a joined multi-character delimiter can straddle two lines, and
        # a negative column counts from the end of each line
        return None
    disp, load = [np.empty(0)], [np.empty(0)]
    header_checked = False
    while block := fh.readlines(_BLOCK_CHARS):
        lines = [line for raw in block if (line := raw.strip())]
        if lines and not header_checked:
            header_checked = True
            if _is_header(lines[0], delimiter, (displacement_column, load_column)):
                del lines[0]
        if not lines:
            continue
        k = lines[0].count(delimiter) + 1
        n = len(lines)
        # Every line but the first starts its first cell with "\n", so
        # all lines hold k cells iff there are k * n cells and each of
        # cells[k], cells[2k], ... starts a line.
        cells = (delimiter + "\n").join(lines).split(delimiter)
        if (
            k < ncols
            or len(cells) != k * n
            or "".join(cells[k::k]).count("\n") != n - 1
        ):
            return None
        try:
            disp.append(np.fromiter(map(float, cells[displacement_column::k]), float, n))
            load.append(np.fromiter(map(float, cells[load_column::k]), float, n))
        except ValueError:
            return None
    return np.concatenate(disp), np.concatenate(load)


def _walk_lines(fh, path, delimiter, displacement_column, load_column, ncols):
    """Both designated columns parsed line by line; raises ParseError at
    the first line that breaks the format."""
    disp, load = [], []
    first_line = True
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        if first_line:
            first_line = False
            if _is_header(line, delimiter, (displacement_column, load_column)):
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


def load_record(
    path,
    delimiter: str = ",",
    displacement_column: int = 0,
    load_column: int = 1,
    displacement_unit: str = "mm",
    load_unit: str = "kN",
) -> SignalPair:
    """Read a delimiter-separated record into a validated SignalPair.

    Column indices are 0-based. Whitespace-only and fully empty lines are
    ignored, and a leading UTF-8 byte order mark is dropped. Errors carry
    1-based line numbers. The file is read block-wise and, if a block is
    irregular, again line by line (see the module docstring).
    """
    ncols = max(displacement_column, load_column) + 1
    args = (delimiter, displacement_column, load_column, ncols)
    with open(path, "r", encoding="utf-8-sig") as fh:
        columns = _read_blocks(fh, *args)
    if columns is None:
        with open(path, "r", encoding="utf-8-sig") as fh:
            columns = _walk_lines(fh, path, *args)
    disp, load = columns
    if len(disp) < 2:
        raise ParseError(
            f"too short: found {len(disp)} data rows, need at least 2", path=path
        )
    pair = SignalPair(
        disp,
        load,
        displacement_unit=displacement_unit,
        load_unit=load_unit,
    )
    return validate(pair)


def format_number(x: float, precision: int = OUTPUT_PRECISION) -> str:
    return f"{x:.{precision}g}"


def write_record(
    pair: SignalPair,
    path,
    delimiter: str = ",",
    precision: int = OUTPUT_PRECISION,
    header=None,
) -> None:
    """Write a SignalPair as delimiter-separated text (UTF-8, LF endings).

    Round-trips through :func:`load_record` up to ``precision``
    significant digits.
    """
    if header is None:
        header = (
            f"displacement_{pair.displacement_unit}",
            f"load_{pair.load_unit}",
        )
    write_columns(
        path,
        header,
        (pair.displacement, pair.load),
        delimiter=delimiter,
        precision=precision,
    )


def write_columns(path, header, columns, delimiter=",", precision=OUTPUT_PRECISION):
    """Write parallel numeric columns with a one-line header."""
    columns = [np.asarray(c).tolist() for c in columns]
    sep = delimiter.replace("{", "{{").replace("}", "}}")
    row = sep.join([f"{{:.{precision}g}}"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(delimiter.join(header) + "\n")
        if columns:
            fh.writelines(map(row.format, *columns))
