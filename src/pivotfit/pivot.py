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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ETA_SCALE = 100.0  # eta acts per 100 in the degradation shrink factor

# branch kinds
_ENV = 0
_LINE = 1


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


def build_geometry(backbone) -> BackboneGeometry:
    """Engine geometry of an IdealizedBackbone; a BackboneGeometry passes
    through unchanged."""
    if isinstance(backbone, BackboneGeometry):
        return backbone
    return BackboneGeometry(backbone.displacement, backbone.load)


class PivotEngine:
    """Single-owner mutable hysteresis state; see module docstring.

    ``step`` advances the state by one displacement value and returns
    the load. Independent instances may be stepped concurrently.
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

    # -- stepping -----------------------------------------------------------

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


def simulate(backbone, params: PivotParams, displacements) -> np.ndarray:
    """Load response of the Pivot model over a displacement history.

    Starts from the virgin state; output has one load per input
    displacement. Deterministic: identical inputs give identical
    outputs.
    """
    engine = PivotEngine(backbone, params)
    displacements = np.asarray(displacements, dtype=float)
    out = np.empty(displacements.shape[0])
    step = engine.step
    for i in range(displacements.shape[0]):
        out[i] = step(displacements[i])
    return out
