"""Reading, validating and writing paired load-deformation records.

Records are delimiter-separated text with two designated numeric columns
(displacement and load). An optional single header line is auto-detected:
if no designated cell of the first row parses as a number, the row is
treated as a header and skipped; a first row with one numeric designated
cell is data and must parse in full. Units are metadata only and are
never converted.
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


def _parse_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return None


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
    1-based line numbers.
    """
    ncols = max(displacement_column, load_column) + 1
    disp, load = [], []
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.readlines()

    first_line = True
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(delimiter)]
        if first_line:
            first_line = False
            needed = (displacement_column, load_column)
            if all(_parse_cell(cells[c]) is None for c in needed if c < len(cells)):
                continue  # auto-detected header line
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

    if len(disp) < 2:
        raise ParseError(
            f"too short: found {len(disp)} data rows, need at least 2", path=path
        )
    pair = SignalPair(
        np.array(disp),
        np.array(load),
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
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(delimiter.join(header) + "\n")
        for row in zip(*columns):
            fh.write(delimiter.join(format_number(v, precision) for v in row) + "\n")
