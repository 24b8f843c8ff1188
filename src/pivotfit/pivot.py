"""Native Pivot hysteresis engine.

Given a 7-point idealized backbone, the five model parameters and a
displacement history, the engine produces the load response history.

Rule set (all branches are straight lines, so every transition point is
solved exactly and the branch geometry is independent of step size):

* Loading beyond the historical displacement extreme follows the
  piecewise-linear backbone interpolant and updates the extreme.
* Reversing against the current force sign (unloading) follows the line
  from the reversal point toward the primary pivot of that force sign:
  the point on the elastic line of that side, extended across the axis,
  at force -alpha1*Fy+ (positive side) or +alpha2*|Fy-| (negative side).
* Once the unloading line meets the reloading line of the opposite
  side, the response follows that reloading line to the opposite
  extreme-response point and then the backbone. For a side that has
  yielded, the reloading line passes through the pinching pivot (on
  that side's elastic line at force beta1*Fy+ / beta2*Fy-) and through
  the extreme-response point: the backbone point at the historical
  displacement extreme. Toward a never-yielded side the reloading line
  starts at the zero-load crossing of the unloading line and aims
  directly at the yield point, which reduces to the elastic lines for
  histories that never yielded anywhere (exact elastic closure).
* Reversing while the force already has the sign of motion heads
  straight to the extreme-response point of that side, then the
  backbone.
* eta degrades the elastic slope of each side once that side yields,
  from the initial stiffness K asymptotically toward the secant
  stiffness of the extreme-response point (softer unloading than the
  secant would invert loop orientation): the degraded slope is
  secant + (K - secant) / (1 + (eta/100) * (mu - 1)) where mu is the
  side's peak displacement ductility. Pivot and pinching points sit on
  the degraded elastic lines, so eta = 0 means fixed pivot geometry and
  exact cycle retracing.

Displacement beyond the backbone's ultimate points clamps the envelope
load at its terminal value.

The response is computed one monotone run of the history at a time (the
samples between two reversals): a run launches its branch once, and
each stretch of it on one line, on the backbone or on the sub-yield
elastic lines is filled in bulk with the expressions a sample-by-sample
evaluation would use, so the loads match that evaluation bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import neg

import numpy as np

ETA_SCALE = 100.0  # eta acts per 100 in the degradation shrink factor

# branch kinds, which are also load sources of a response segment
_ENV = 0
_LINE = 1
_ELASTIC = 2  # sub-yield shortcut of a never-yielded engine
# segment table entries (source, line anchor x, y, slope) off the lines
_ENV_SEGMENT = (_ENV, 0.0, 0.0, 0.0)
_ELASTIC_SEGMENT = (_ELASTIC, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class PivotParams:
    """The five Pivot model parameters.

    alpha1/alpha2 locate the primary (unloading) pivots, beta1/beta2 the
    pinching pivots as fractions of the yield forces, eta the elastic
    slope degradation rate.
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    eta: float

    def __post_init__(self):
        for name in PARAM_NAMES:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.alpha1 < 1 or self.alpha2 < 1:
            raise ValueError("alpha1 and alpha2 must be >= 1")
        if not (0 <= self.beta1 <= 1 and 0 <= self.beta2 <= 1):
            raise ValueError("beta1 and beta2 must be within [0, 1]")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in PARAM_NAMES])

    @classmethod
    def from_array(cls, values) -> "PivotParams":
        return cls(*(float(v) for v in values))


PARAM_NAMES = ("alpha1", "alpha2", "beta1", "beta2", "eta")


class BackboneGeometry:
    """Stiffnesses, yield points and envelope interpolant of a backbone."""

    def __init__(self, knots_d, knots_f):
        self.knots_d = [float(v) for v in knots_d]
        self.knots_f = [float(v) for v in knots_f]
        if len(self.knots_d) != 7 or len(self.knots_f) != 7:
            raise ValueError("backbone geometry needs exactly 7 points")
        if not all(map(math.isfinite, self.knots_d + self.knots_f)):
            raise ValueError("backbone geometry points must be finite")
        dy_neg, fy_neg = self.knots_d[2], self.knots_f[2]
        dy_pos, fy_pos = self.knots_d[4], self.knots_f[4]
        if dy_pos == 0.0 or dy_neg == 0.0:
            raise ValueError("yield points must have nonzero displacement")
        self.k_pos = fy_pos / dy_pos
        self.k_neg = fy_neg / dy_neg
        if self.k_pos <= 0 or self.k_neg <= 0:
            raise ValueError("elastic stiffness must be positive on both sides")
        self.fy_pos = fy_pos
        self.fy_neg = fy_neg
        self.dy_pos = dy_pos
        self.dy_neg = dy_neg
        self.f_min = min(self.knots_f)
        self.f_max = max(self.knots_f)
        self._history = None  # the last history seen, see history()

    def envelope(self, d: float) -> float:
        """Piecewise-linear backbone load at displacement d, clamped at
        the terminal values beyond the ultimate points."""
        kd = self.knots_d
        kf = self.knots_f
        if d <= kd[0]:
            return kf[0]
        if d >= kd[6]:
            return kf[6]
        for i in range(6):
            if d <= kd[i + 1]:
                x0, x1 = kd[i], kd[i + 1]
                if d == x1:  # exact at knots
                    return kf[i + 1]
                if d == x0:
                    return kf[i]
                return kf[i] + (kf[i + 1] - kf[i]) * (d - x0) / (x1 - x0)
        return kf[6]

    def envelope_at(self, d: np.ndarray) -> np.ndarray:
        """``envelope`` of every element of d, bit for bit."""
        kd = self.knots_d
        kf = self.knots_f
        out = np.full(d.shape, kf[6])
        with np.errstate(divide="ignore", invalid="ignore"):
            # the first segment whose right knot is not below d wins
            for i in range(5, -1, -1):
                x0, x1 = kd[i], kd[i + 1]
                seg = kf[i] + (kf[i + 1] - kf[i]) * (d - x0) / (x1 - x0)
                seg = np.where(d == x1, kf[i + 1], seg)  # exact at knots
                out = np.where(d <= x1, seg, out)
        out[d >= kd[6]] = kf[6]
        out[d <= kd[0]] = kf[0]
        return out

    def history(self, displacements) -> "_History":
        """Engine facts of a displacement history on this geometry.

        The facts of the last history seen are kept, keyed by its bytes,
        so repeated simulations of one record compute them once.
        """
        key = np.asarray(displacements, dtype=float).tobytes()
        facts = self._history
        if facts is None or facts.key != key:
            facts = self._history = _History(self, key)
        return facts


def build_geometry(backbone) -> BackboneGeometry:
    """Engine geometry of an IdealizedBackbone; a BackboneGeometry passes
    through unchanged."""
    if isinstance(backbone, BackboneGeometry):
        return backbone
    return BackboneGeometry(backbone.displacement, backbone.load)


class PivotEngine:
    """Single-owner mutable hysteresis state; see module docstring.

    ``respond`` drives the state over a whole displacement history.
    Independent instances may run concurrently.
    """

    def __init__(self, geometry, params: PivotParams):
        self.geom = build_geometry(geometry)
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
        secant = g.envelope(d_e) / d_e
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
        return d_e, g.envelope(d_e)

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

    # -- run-wise evaluation ------------------------------------------------

    def respond(self, history: "_History") -> np.ndarray:
        """Load at every sample of a history, from the virgin state.

        Branches launch once per monotone run. Each phase (a stretch of
        samples on one line, on the envelope or on the sub-yield elastic
        lines) becomes one segment, and the loads of all segments are
        filled in bulk at the end with the expressions of their branches.
        """
        g = self.geom
        xs = history.xs
        m = xs.shape[0]
        run_ends, run_dirs = history.run_ends, history.run_dirs
        # segment table: sample counts, then source, line anchor x, y and
        # slope of each segment
        lens, segs = [], []
        i = r = 0
        while i < m:
            while run_ends[r] <= i:
                r += 1
            b = run_ends[r]
            if self.d_max <= g.dy_pos and self.d_min >= g.dy_neg:
                # Neither side has yielded: a sample inside the yield
                # displacements takes the elastic shortcut, so phases
                # stop where the history enters or leaves that range.
                toggles = history.toggles
                nxt = int(toggles[toggles.searchsorted(i, "right")])
                if history.inside[i]:
                    vals = xs[i:nxt].tolist()
                    hi, lo = max(vals), min(vals)
                    if hi > self.d_max:
                        self.d_max = hi
                    if lo < self.d_min:
                        self.d_min = lo
                    self.d = vals[-1]
                    self.f = float(history.elastic[nxt - 1])
                    self._dir = 1 if history.up[nxt - 1] else -1
                    self._branch = _ENV
                    lens.append(nxt - i)
                    segs.extend(_ELASTIC_SEGMENT)
                    i = nxt
                    continue
                b = min(b, nxt)
            s = run_dirs[r]
            if s != self._dir:
                self._launch(s)
                self._dir = s
            vals = xs[i:b].tolist()  # monotone in direction s
            n = len(vals)
            j = 0
            while True:
                if self._branch == _ENV:
                    lo, hi = (vals[j], vals[-1]) if s > 0 else (vals[-1], vals[j])
                    if hi > self.d_max:
                        self.d_max = hi
                    if lo < self.d_min:
                        self.d_min = lo
                    self.d = vals[-1]
                    self.f = float(history.envelope[b - 1])
                    lens.append(n - j)
                    segs.extend(_ENV_SEGMENT)
                    break
                # The first sample with (x - ex)*s >= 0 reaches the next
                # event: x >= ex moving up, -x >= -ex moving down. A NaN
                # event point is never reached.
                k = n
                if self._events:
                    ex = self._events[0][0]
                    if ex == ex:
                        if s > 0:
                            k = bisect_left(vals, ex, j)
                        else:
                            k = bisect_left(vals, -ex, j, key=neg)
                if k > j:
                    lens.append(k - j)
                    segs.extend((_LINE, self._ax, self._ay, self._slope))
                if k == n:
                    self.d = vals[-1]
                    self.f = self._ay + self._slope * (vals[-1] - self._ax)
                    break
                _, kind, payload = self._events.pop(0)
                if kind == _ENV:
                    self._branch = _ENV
                else:
                    ax, ay, slope, events = payload
                    self._set_line(ax, ay, slope)
                    self._events = events
                j = k
            i = b

        nseg = len(lens)
        table = np.fromiter(segs, float, 4 * nseg).reshape(nseg, 4)
        source, ax, ay, slope = np.repeat(table.T, lens, axis=1)
        loads = xs - ax  # then ay + slope*(x - ax), in place
        loads *= slope
        loads += ay
        np.copyto(loads, history.envelope, where=source == _ENV)
        np.copyto(loads, history.elastic, where=source == _ELASTIC)
        if history.fill is not None:
            # a repeated sample returns the load of the sample it repeats
            loads = np.concatenate(([0.0], loads))[history.fill]
        return loads


class _History:
    """What a displacement history holds for the engine on one geometry.

    Depends only on the history and the geometry, so a fit computes it
    once: the changed samples, their monotone runs, the sub-yield range
    crossings and the envelope and elastic loads at every sample.
    """

    def __init__(self, geom: BackboneGeometry, key: bytes):
        self.key = key
        x = np.frombuffer(key)
        finite = np.isfinite(x)
        if not finite.all():
            bad = x[np.argmin(finite)]
            raise ValueError(f"displacement must be finite, got {bad}")
        # A sample equal to the previous one (the virgin state sits at
        # 0.0) returns the previous load and changes no state.
        changed = np.empty(x.shape[0], dtype=bool)
        changed[:1] = x[:1] != 0.0
        np.not_equal(x[1:], x[:-1], out=changed[1:])
        if changed.all():
            self.fill = None
            xs = x
        else:
            self.fill = np.cumsum(changed)
            xs = x[changed]
        self.xs = xs
        m = xs.shape[0]
        # direction of the step into each sample, True when increasing
        up = np.empty(m, dtype=bool)
        up[:1] = xs[:1] > 0.0
        np.greater(xs[1:], xs[:-1], out=up[1:])
        self.up = up
        ends = np.append(np.flatnonzero(up[1:] != up[:-1]) + 1, m)
        self.run_ends = ends.tolist()
        self.run_dirs = np.where(up[ends - 1], 1, -1).tolist() if m else []
        inside = (geom.dy_neg <= xs) & (xs <= geom.dy_pos)
        self.inside = inside
        self.toggles = np.append(np.flatnonzero(inside[1:] != inside[:-1]) + 1, m)
        self.envelope = geom.envelope_at(xs)
        self.elastic = np.where(
            xs == geom.dy_pos,
            geom.fy_pos,
            np.where(
                xs == geom.dy_neg,
                geom.fy_neg,
                np.where(xs >= 0.0, geom.k_pos * xs, geom.k_neg * xs),
            ),
        )


def simulate(backbone, params: PivotParams, displacements) -> np.ndarray:
    """Load response of the Pivot model over a displacement history.

    Starts from the virgin state; output has one load per input
    displacement. Deterministic: identical inputs give identical
    outputs.
    """
    engine = PivotEngine(backbone, params)
    return engine.respond(engine.geom.history(displacements))
