"""Independent reference implementations used to pin expected values.

These deliberately re-derive each contract with plain Python loops and
explicit arithmetic, separate from the library code paths they check.
"""

import math

import numpy as np

from pivotfit.ingest import ParseError, SignalPair, format_number, validate
from pivotfit.pivot import _ENV, PivotEngine


def load_record_oracle(path, delimiter=",", displacement_column=0, load_column=1):
    """The record loader walked one line and one cell at a time; the
    reference that the block-wise ``load_record`` must match."""

    def parse(text):
        try:
            return float(text)
        except ValueError:
            return None

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
            if all(parse(cells[c]) is None for c in needed if c < len(cells)):
                continue  # header line
        if len(cells) < ncols:
            raise ParseError(
                f"expected at least {ncols} columns, found {len(cells)}",
                path=path,
                line=lineno,
            )
        d = parse(cells[displacement_column])
        f = parse(cells[load_column])
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
    return validate(SignalPair(np.array(disp), np.array(load)))


def write_columns_oracle(path, header, columns, delimiter=",", precision=9):
    """Columns written one formatted value at a time."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(delimiter.join(header) + "\n")
        for row in zip(*columns):
            fh.write(delimiter.join(format_number(v, precision) for v in row) + "\n")


def detect_reversals_oracle(values):
    """1-based samples where the direction of travel flips, walked one
    difference at a time, with the final index n appended."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    indices = []
    prev_sign = 0
    for k in range(n - 1):  # k is the 0-based index of the difference
        diff = values[k + 1] - values[k]
        if diff == 0.0:
            continue
        sign = 1 if diff > 0 else -1
        if prev_sign != 0 and sign != prev_sign:
            indices.append(k + 1)
        prev_sign = sign
    indices.append(n)
    return np.array(indices, dtype=int)


def snap_floor(x):
    r = round(x)
    if abs(x - r) <= 4 * np.finfo(float).eps * max(1.0, abs(x)):
        return float(r)
    return float(math.floor(x))


def interp_point(q, xs, ys):
    if xs[0] > xs[-1]:
        xs, ys = xs[::-1], ys[::-1]
    if q <= xs[0]:
        return ys[0]
    if q >= xs[-1]:
        return ys[-1]
    for a in range(len(xs) - 1):
        if xs[a] <= q <= xs[a + 1]:
            t = (q - xs[a]) / (xs[a + 1] - xs[a])
            return ys[a] + t * (ys[a + 1] - ys[a])
    raise AssertionError("query outside segment")


def resample_oracle(disp, load, scale, changes):
    """Hand-rolled irregular resampling: scale, snap-floor, interpolate
    each monotonic segment on its integer grid."""
    disp = [snap_floor(d * scale) for d in disp]
    load = [v * scale for v in load]
    out_d, out_l = [], []
    first_idx, first_val = 0, disp[0]
    for target in changes:
        last_idx = target - 1
        last_val = disp[last_idx]
        if last_val == first_val:
            continue
        step = 1 if last_val > first_val else -1
        queries = range(int(first_val) + step, int(last_val) + step, step)
        seg_d, seg_l, seen = [], [], set()
        for k in range(first_idx, last_idx + 1):
            if disp[k] not in seen:
                seen.add(disp[k])
                seg_d.append(disp[k])
                seg_l.append(load[k])
        for q in queries:
            out_d.append(q / scale)
            out_l.append(interp_point(q, seg_d, seg_l) / scale)
        first_idx, first_val = last_idx, last_val
    return out_d, out_l


def envelope_oracle(disp, load):
    """Split the load trace at sign changes (zeros stay with the
    preceding run), take the signed extremum of every span including the
    leading and trailing ones, sort ascending by displacement, keep the
    outermost point on displacement ties."""
    bounds = [0]
    prev = 0
    for i, v in enumerate(load):
        s = 1 if v > 0 else (-1 if v < 0 else 0)
        if s == 0:
            continue
        if prev != 0 and s != prev:
            bounds.append(i - 1)
        prev = s
    bounds.append(len(load) - 1)
    pts = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        sub = load[a : b + 1]
        mean = sum(sub) / len(sub)
        if mean > 0:
            j = a + max(range(len(sub)), key=lambda k: sub[k])
        else:
            j = a + min(range(len(sub)), key=lambda k: sub[k])
        pts.append((disp[j], load[j]))
    pts.sort(key=lambda p: p[0])
    out = []
    for d, f in pts:
        if out and out[-1][0] == d:
            if abs(f) > abs(out[-1][1]):
                out[-1] = (d, f)
        else:
            out.append((d, f))
    return out


def score_loop_oracle(a, b):
    total = 0.0
    for x, y in zip(a, b):
        d = x - y
        total += d * d  # exact-rounded square; x**2 may differ via libm
    return total


def random_cyclic_record(rng, n_cycles=None):
    """Synthetic reversed-cyclic load-deformation record."""
    n_cycles = n_cycles if n_cycles is not None else rng.integers(2, 6)
    disp, load = [0.0], [rng.uniform(0.01, 0.1)]
    for _ in range(n_cycles):
        up = rng.uniform(0.5, 3.0)
        dn = -rng.uniform(0.5, 3.0)
        for peak in (up, dn):
            steps = rng.integers(4, 20)
            seg = np.linspace(disp[-1], peak, steps + 1)[1:]
            disp.extend(seg)
            load.extend(
                np.sign(seg) * (np.abs(seg) ** 0.7) * 10
                + rng.normal(0, 0.01, steps)
            )
    return np.array(disp), np.array(load)


class SteppingEngine(PivotEngine):
    """The Pivot engine advanced one displacement sample at a time.

    Shares branch launch and event logic with the library engine; only
    the per-sample stepping lives here.
    """

    def step(self, d_next: float) -> float:
        """Advance to displacement d_next and return the load there."""
        d_next = float(d_next)
        if not math.isfinite(d_next):
            raise ValueError(f"displacement must be finite, got {d_next}")
        if d_next == self.d:
            return self.f
        g = self.geom
        if (
            self.d_max <= g.dy_pos
            and self.d_min >= g.dy_neg
            and g.dy_neg <= d_next <= g.dy_pos
        ):
            # never yielded and staying sub-yield: exact elastic response
            self._dir = 1 if d_next > self.d else -1
            self._branch = _ENV
            self.d = d_next
            if d_next == g.dy_pos:
                self.f = g.fy_pos
            elif d_next == g.dy_neg:
                self.f = g.fy_neg
            else:
                self.f = g.k_pos * d_next if d_next >= 0.0 else g.k_neg * d_next
            if d_next > self.d_max:
                self.d_max = d_next
            if d_next < self.d_min:
                self.d_min = d_next
            return self.f
        s = 1 if d_next > self.d else -1
        if s != self._dir:
            self._launch(s)
            self._dir = s

        while True:
            if self._branch == _ENV:
                self._move_on_envelope(d_next)
                return self.f
            if self._events and (d_next - self._events[0][0]) * s >= 0.0:
                ex, kind, payload = self._events.pop(0)
                self.d = ex
                self.f = self._ay + self._slope * (ex - self._ax)
                if kind == _ENV:
                    self._branch = _ENV
                else:
                    ax, ay, slope, events = payload
                    self._set_line(ax, ay, slope)
                    self._events = events
                continue
            self.d = d_next
            self.f = self._ay + self._slope * (d_next - self._ax)
            return self.f

    def _move_on_envelope(self, d_next):
        self.d = d_next
        self.f = self.geom.envelope(d_next)
        if d_next > self.d_max:
            self.d_max = d_next
        if d_next < self.d_min:
            self.d_min = d_next


def step_simulate_oracle(backbone, params, displacements):
    """Pivot response computed one sample at a time; the reference that
    the run-wise ``simulate`` must match bit for bit."""
    engine = SteppingEngine(backbone, params)
    displacements = np.asarray(displacements, dtype=float)
    out = np.empty(displacements.shape[0])
    for i in range(displacements.shape[0]):
        out[i] = engine.step(displacements[i])
    return out
