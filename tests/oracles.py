"""Independent reference implementations used to pin expected values.

These deliberately re-derive each contract with plain Python loops and
explicit arithmetic, separate from the library code paths they check.
"""

import math

import numpy as np

from pivotfit.ingest import ParseError, SignalPair
from pivotfit.pivot import PivotParams


def load_record_oracle(path, delimiter=",", displacement_column=0, load_column=1):
    """The record loader walked one line and one cell at a time; the
    reference that ``load_record`` must match."""

    def parse(text):
        try:
            return float(text)
        except ValueError:
            return None

    needed = (displacement_column, load_column)
    ncols = max(c + 1 if c >= 0 else -c for c in needed)
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
            n = len(cells)
            if all(parse(cells[c]) is None for c in needed if -n <= c < n):
                continue  # header line
        if len(cells) < ncols:
            raise ParseError(
                f"expected at least {ncols} columns, found {len(cells)}",
                path=path,
                line=lineno,
            )
        d = parse(cells[displacement_column])
        f = parse(cells[load_column])
        for col, value in ((displacement_column, d), (load_column, f)):
            if value is None:
                raise ParseError(
                    f"non-numeric value {cells[col]!r} in column {col}",
                    path=path,
                    line=lineno,
                )
            if not math.isfinite(value):
                raise ParseError(
                    f"non-finite value {cells[col]!r} in column {col}",
                    path=path,
                    line=lineno,
                )
        disp.append(d)
        load.append(f)
    if len(disp) < 2:
        raise ParseError(
            f"too short: found {len(disp)} data rows, need at least 2", path=path
        )
    return SignalPair(np.array(disp), np.array(load))


def write_columns_oracle(path, header, columns, precision=9):
    """Columns written one formatted value at a time, comma-separated."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(format(v, f".{precision}g") for v in row) + "\n")


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
    """Cut the load trace into half-cycles, each running from a load of
    one sign to the sample before the next load of the other sign (zero
    loads stay with the half-cycle before them); take the signed extremum
    of every half-cycle, the first on ties; sort ascending by
    displacement; keep the outermost point on displacement ties."""
    bounds = [0]
    prev = 0
    for i, v in enumerate(load):
        s = 1 if v > 0 else (-1 if v < 0 else 0)
        if s == 0:
            continue
        if prev != 0 and s != prev:
            bounds.append(i)
        prev = s
    bounds.append(len(load))
    pts = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        sub = load[a:b]
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


def breed_loop_oracle(rng, genes, scores, lo, hi, elite, tournament, cx, mut, blend, scale):
    """The next GA generation bred one child at a time with the given
    operator settings; the reference that the one-pass ``optimize._breed``
    must match bit for bit when its constants hold the same values."""
    pop_n, n_genes = genes.shape
    span = hi - lo
    n_children = pop_n - elite
    tourney = rng.integers(0, pop_n, size=(n_children, 2, tournament))
    do_cx = rng.random(n_children) < cx
    blend_u = rng.random((n_children, n_genes))
    do_mut = rng.random((n_children, n_genes)) < mut
    mut_step = rng.standard_normal((n_children, n_genes)) * (scale * span)

    elite_idx = np.argsort(scores, kind="stable")[:elite]
    next_genes = np.empty_like(genes)
    next_genes[:elite] = genes[elite_idx]

    for c in range(n_children):
        p1 = genes[tourney[c, 0][np.argmin(scores[tourney[c, 0]])]]
        p2 = genes[tourney[c, 1][np.argmin(scores[tourney[c, 1]])]]
        if do_cx[c]:
            g_lo = np.minimum(p1, p2)
            g_hi = np.maximum(p1, p2)
            width = g_hi - g_lo
            a = blend
            child = (g_lo - a * width) + blend_u[c] * (1 + 2 * a) * width
        else:
            child = p1.copy()
        child = np.where(do_mut[c], child + mut_step[c], child)
        next_genes[elite + c] = np.clip(child, lo, hi)
    return next_genes


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


def backbone_load_oracle(backbone, d):
    """Piecewise-linear load of an ``IdealizedBackbone`` at displacement
    d, clamped at the terminal loads beyond the ultimate points; the
    reference that ``IdealizedBackbone.envelope_at`` must match bit for
    bit."""
    kd = backbone.displacement.tolist()
    kf = backbone.load.tolist()
    if d <= kd[0]:
        return kf[0]
    if d >= kd[6]:
        return kf[6]
    # kd[i] < d at step i, so the first knot not below d ends d's segment
    for i in range(6):
        if d == kd[i + 1]:  # exact at knots
            return kf[i + 1]
        if d < kd[i + 1]:
            return kf[i] + (kf[i + 1] - kf[i]) * (d - kd[i]) / (kd[i + 1] - kd[i])


# branch kinds of the stepping engine
_ENV = 0
_LINE = 1
ETA_SCALE = 100.0  # eta acts per 100 in the degradation shrink factor


class SteppingEngine:
    """The Pivot engine advanced one displacement sample at a time.

    Recomputes the launch geometry of both sides at every branch launch,
    straight from the rules in the ``pivotfit.pivot`` docstring; only the
    ``IdealizedBackbone``'s points, stiffnesses and yield points are
    shared with the library, and envelope loads come from
    ``backbone_load_oracle``.
    """

    def __init__(self, backbone, params: PivotParams):
        self.geom = backbone
        self.params = params
        self.d = 0.0
        self.f = 0.0
        # historical extremes of envelope contact; reloading targets
        self.d_max = 0.0
        self.d_min = 0.0
        self._dir = 0
        self._branch = _ENV
        # active line: anchor (ax, ay) and slope; events: list of
        # (x, kind, payload) in encounter order along the motion
        self._ax = 0.0
        self._ay = 0.0
        self._slope = 0.0
        self._events = []

    # -- degraded elastic geometry ---------------------------------------

    def _k_cur(self, s: int) -> float:
        g = self.geom
        if s > 0:
            k, d_e, mu = g.k_pos, self.d_max, self.d_max / g.dy_pos
        else:
            k, d_e, mu = g.k_neg, self.d_min, self.d_min / g.dy_neg
        if mu <= 1.0:
            return k
        shrink = 1.0 + (self.params.eta / ETA_SCALE) * (mu - 1.0)
        # Degradation approaches the secant stiffness of the
        # extreme-response point asymptotically but never reaches it;
        # unloading softer than the secant would invert loop orientation
        # and generate energy.
        secant = backbone_load_oracle(g, d_e) / d_e
        if 0.0 < secant < k:
            return secant + (k - secant) / shrink
        return k / shrink

    def _extreme_point(self, s: int):
        """Extreme-response point of the side in direction s: the
        backbone point at the historical extreme, at least the yield
        point."""
        g = self.geom
        if s > 0:
            d_e = self.d_max if self.d_max > g.dy_pos else g.dy_pos
        else:
            d_e = self.d_min if self.d_min < g.dy_neg else g.dy_neg
        return d_e, backbone_load_oracle(g, d_e)

    def _side_yielded(self, s: int) -> bool:
        g = self.geom
        return self.d_max > g.dy_pos if s > 0 else self.d_min < g.dy_neg

    # -- branch construction ----------------------------------------------

    def _launch(self, s: int):
        """Start the branch for motion direction s from the current point."""
        x0, y0 = self.d, self.f
        if self._branch == _ENV and (
            (s > 0 and x0 >= self.d_max) or (s < 0 and x0 <= self.d_min)
        ):
            return  # continue outward on the envelope
        if y0 * s < 0:
            self._launch_unloading(s, x0, y0)
        else:
            self._launch_toward_extreme(s, x0, y0)

    def _launch_toward_extreme(self, s, x0, y0):
        d_e, f_e = self._extreme_point(s)
        if (d_e - x0) * s <= 0.0:
            self._set_line(x0, y0, 0.0)  # at/past the target: hold load
            return
        self._set_line(x0, y0, (f_e - y0) / (d_e - x0))
        self._events = [(d_e, _ENV, None)]

    def _launch_unloading(self, s, x0, y0):
        g = self.geom
        p = self.params
        k_dep = self._k_cur(-s)  # elastic line of the departure force side
        if s < 0:  # departing positive force, pivot below the axis
            py = -p.alpha1 * g.fy_pos
        else:  # departing negative force, pivot above the axis
            py = p.alpha2 * (-g.fy_neg)
        px = py / k_dep
        if (px - x0) * s <= 0.0:
            slope = k_dep  # degenerate: launch point at/past the pivot
        else:
            slope = (py - y0) / (px - x0)
        self._set_line(x0, y0, slope)

        d_e, f_e = self._extreme_point(s)
        if self._side_yielded(s):
            # reloading line through the pinching pivot and the extreme
            k_tgt = self._k_cur(s)
            ppy = p.beta2 * g.fy_neg if s < 0 else p.beta1 * g.fy_pos
            ppx = ppy / k_tgt
            # Degradation can push the pinching pivot past the extreme;
            # a reloading line must ascend toward its target to be usable.
            if (d_e - ppx) * s > 0.0 and (r_slope := (f_e - ppy) / (d_e - ppx)) > 0.0:
                x_int = self._intersect(ppx, ppy, r_slope)
                if (
                    x_int is not None
                    and (x_int - x0) * s >= 0.0
                    and (d_e - x_int) * s > 0.0
                ):
                    self._events = [
                        (x_int, _LINE, (ppx, ppy, r_slope, [(d_e, _ENV, None)]))
                    ]
                    return
        elif slope != 0.0:
            # never-yielded side: reload from the zero-load crossing
            # straight toward the yield point
            x_zero = x0 - y0 / slope
            if (x_zero - x0) * s >= 0.0 and (d_e - x_zero) * s > 0.0:
                r_slope = f_e / (d_e - x_zero)
                self._events = [
                    (x_zero, _LINE, (x_zero, 0.0, r_slope, [(d_e, _ENV, None)]))
                ]
                return
        # fallback: hold the extreme load level once the line reaches it
        if slope != 0.0:
            x_cap = x0 + (f_e - y0) / slope
            if (x_cap - x0) * s > 0.0:
                cap_events = [(d_e, _ENV, None)] if (d_e - x_cap) * s > 0.0 else []
                self._events = [(x_cap, _LINE, (x_cap, f_e, 0.0, cap_events))]
                return
        self._events = []

    def _set_line(self, ax, ay, slope):
        self._branch = _LINE
        self._ax = ax
        self._ay = ay
        self._slope = slope
        self._events = []

    def _intersect(self, bx, by, b_slope):
        """x where the active line meets the line through (bx, by) with
        slope b_slope; None if parallel."""
        denom = self._slope - b_slope
        if denom == 0.0:
            return None
        return (by - b_slope * bx - self._ay + self._slope * self._ax) / denom

    # -- stepping ---------------------------------------------------------

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
        self.f = backbone_load_oracle(self.geom, d_next)
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
