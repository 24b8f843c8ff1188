"""Record size reduction and re-gridding onto uniform displacement steps.

Two stages: a regular reduction that keeps every m-th sample, and an
irregular resampling that re-grids each monotonic displacement segment
onto integer multiples of 1/scale via linear interpolation of load over
displacement. Rising and falling segments take one code path, and a
segment that is not monotone after flooring raises SegmentError.
Segments end at reversals, found by ``sign_flips``: the one rule that
also cuts the backbone's half-cycles and the engine's runs.
"""

from __future__ import annotations

import numpy as np

from pivotfit.ingest import SignalPair, validate


class SegmentError(ValueError):
    """Raised when a resampling segment cannot be interpolated."""

    def __init__(self, segment: int, message: str):
        super().__init__(f"segment {segment}: {message}")


def regular_reduce(pair: SignalPair, step: int) -> SignalPair:
    """Keep samples at 1-based indices 1, 1+m, 1+2m, ... of both arrays.

    Output length is ceil(n/m). ``step`` of 1 returns an identical pair.
    """
    if int(step) != step or step < 1:
        raise ValueError(f"reduction step must be a positive integer, got {step}")
    step = int(step)
    validate(pair)
    return pair.with_arrays(pair.displacement[::step], pair.load[::step])


def sign_flips(v: np.ndarray) -> np.ndarray:
    """0-based indices of the nonzero elements of the 1-d array v whose
    sign differs from that of the previous nonzero element; zeros (and
    -0.0) carry no sign. It splits displacement steps into monotone
    segments, loads into half-cycles and engine steps into runs."""
    moving = v.nonzero()[0]
    rising = v[moving] > 0
    return moving[1:][rising[1:] != rising[:-1]]


def detect_reversals(values) -> np.ndarray:
    """Find 1-based indices where the sign of the first difference flips.

    Zero differences (plateaus) carry no direction; a reversal is
    reported at the sample where a nonzero difference contradicts the
    previous nonzero direction (:func:`sign_flips`). The final index n is
    always appended, so a constant array yields just [n]. Output is
    strictly increasing. A non-finite value raises ValueError.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples to detect reversals, got {n}")
    finite = np.isfinite(values)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(f"values must be finite, values[{i}] is {values[i]}")
    return np.append(sign_flips(values[1:] - values[:-1]) + 1, n)


def _snap_floor(scaled: np.ndarray) -> np.ndarray:
    """Floor toward negative infinity, snapping near-integers first.

    Values within a few ulps of an integer (binary-rounding residue of
    d*scale for decimal data) are treated as that integer so that
    flooring is stable and resampling is idempotent.
    """
    nearest = np.rint(scaled)
    tol = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(scaled))
    snapped = np.where(np.abs(scaled - nearest) <= tol, nearest, scaled)
    return np.floor(snapped)


def irregular_resample(pair: SignalPair, scale: int, changes) -> SignalPair:
    """Re-grid a record to uniform displacement increments of 1/scale.

    ``changes`` are the 1-based direction-change indices of the
    displacement trace with the final sample index appended (the output
    of :func:`detect_reversals`). Both arrays are multiplied by
    ``scale``; displacements are floored toward negative infinity; each
    segment is queried on the integer grid from the previous endpoint to
    the segment end in its own direction, each floored value keeping its
    first sample; load is linearly interpolated over displacement at the
    query points; the concatenated result is divided back by ``scale``.

    A segment whose endpoint equals the running previous endpoint after
    flooring contributes no points; any other segment that is not
    strictly monotone after flooring raises SegmentError. Within every
    contributed segment the displacement increment is 1/scale with
    constant sign.
    """
    if int(scale) != scale or scale <= 10:
        raise ValueError(f"resampling scale must be an integer > 10, got {scale}")
    scale = int(scale)
    validate(pair)

    n = len(pair)
    changes = np.asarray(changes, dtype=int)
    if changes.ndim != 1 or changes.size == 0:
        raise ValueError("direction-change indices must be a non-empty 1-d array")
    if changes[0] < 1 or changes[-1] != n or np.any(np.diff(changes) <= 0):
        raise ValueError(
            "direction-change indices must be strictly increasing, within "
            f"[1, {n}], and end at {n}"
        )

    disp = _snap_floor(pair.displacement * scale)
    load = pair.load * scale

    out_disp, out_load = [], []
    first_val = disp[0]
    first_idx = 0  # 0-based index of the running previous endpoint
    for seg, target in enumerate(changes, start=1):
        last_idx = target - 1
        last_val = disp[last_idx]
        if last_val == first_val:
            continue  # segment shorter than one grid cell
        s = 1 if last_val > first_val else -1
        seg_disp = disp[first_idx : last_idx + 1]
        # the first sample of each run of equal floored values
        kept = np.flatnonzero(np.append(True, seg_disp[1:] != seg_disp[:-1]))
        xp, fp = seg_disp[kept], load[first_idx + kept]
        if not np.all(np.diff(xp) * s > 0):
            trend = "increasing" if s > 0 else "decreasing"
            raise SegmentError(seg, f"displacements not strictly {trend} after flooring")
        if s < 0:
            xp, fp = xp[::-1], fp[::-1]  # np.interp needs rising xp
        queries = np.arange(first_val + s, last_val + s, s)
        out_disp.append(queries)
        out_load.append(np.interp(queries, xp, fp))
        first_idx = last_idx
        first_val = last_val

    if not out_disp:
        raise ValueError("resampling produced an empty record (no segment spans a grid cell)")
    result = pair.with_arrays(
        np.concatenate(out_disp) / scale, np.concatenate(out_load) / scale
    )
    if len(result) < 2:
        raise ValueError("resampling produced fewer than 2 samples")
    return result
