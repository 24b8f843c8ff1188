"""Native Pivot hysteresis engine.

Given a 7-point idealized backbone, the five model parameters and a
displacement history, the engine produces the load response history.
The backbone is the ``IdealizedBackbone`` that ``idealize`` returns,
used as it is: it carries the yield points, elastic stiffnesses and
envelope interpolant the engine reads.

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

Until the first sample outside the yield displacements no side has
yielded, so the response is the elastic line of each side whatever the
parameters: this elastic prefix is computed once per history. The
sample after it lands on the backbone (a launch from the elastic line
reaches it at the yield point), and no later sample takes the elastic
line. From there the response is computed one monotone run of the
history at a time (the samples between two reversals): a run launches
its branch once, and each stretch of it on one line or on the backbone
is filled in bulk with the expressions a sample-by-sample evaluation
would use, so the loads match that evaluation bit for bit. A call
first computes what the parameters alone set: each side's primary and
pinching pivot loads and the scaled eta. A launch reads each side's
degraded elastic slope, extreme-response point, pivots and reloading
slope, rebuilt only when that side's historical extreme grows (with the
envelope load of the sample that set it), and computes its branch's
slope and at most two pending events in place. Runs are cut by
``resample.sign_flips``, which also cuts resampling segments and
backbone half-cycles. What a run holds whatever the parameters (its
samples as search keys, its last displacement and envelope load) is
computed with the elastic prefix into a ``History``. A caller that
simulates one history many times prepares its ``History`` once, so a
simulation only launches branches and searches their event points.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from pivotfit.backbone import IdealizedBackbone
from pivotfit.resample import sign_flips

ETA_SCALE = 100.0  # eta acts per 100 in the degradation shrink factor

# load sources of a response segment past the elastic prefix
_ENV = 0.0
_LINE = 1.0
# segment table entry (source, line anchor x, y, slope) of the envelope
_ENV_SEGMENT = (_ENV, 0.0, 0.0, 0.0)


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


def _side(fixed, s, d_x: float, f_x: float):
    """Launch geometry of the side in direction s, whose historical
    extreme is d_x with envelope load f_x: degraded elastic slope k,
    primary pivot (px, py), extreme-response point (d_e, f_e), pinching
    pivot (ppx, ppy) and the slope of the reloading line through the
    pinching pivot and the extreme point, 0.0 where no such line ascends
    or the side has not yielded. ``fixed`` is what the parameters alone
    set for the side: its initial elastic slope, yield point, py, ppy and
    the scaled degradation rate."""
    k, dy, f_dy, py, ppy, eta_scaled = fixed
    yielded = d_x > dy if s > 0 else d_x < dy
    mu = d_x / dy  # peak displacement ductility
    if mu > 1.0:
        shrink = 1.0 + eta_scaled * (mu - 1.0)
        # Degradation approaches the secant stiffness of the
        # extreme-response point asymptotically but never reaches it;
        # unloading softer than the secant would invert loop orientation
        # and generate energy.
        secant = f_x / d_x
        k = secant + (k - secant) / shrink if 0.0 < secant < k else k / shrink
    # the extreme-response point is at least the yield point
    d_e, f_e = (d_x, f_x) if yielded else (dy, f_dy)
    ppx = ppy / k
    r_slope = 0.0
    # Degradation can push the pinching pivot past the extreme; a
    # reloading line must ascend toward its target to be usable.
    if yielded and (d_e - ppx) * s > 0.0:
        r_slope = (f_e - ppy) / (d_e - ppx)
    return k, py / k, py, d_e, f_e, yielded, ppx, ppy, r_slope


def _respond(g: IdealizedBackbone, p: PivotParams, history: "History") -> np.ndarray:
    """Load at every sample of a history, from the virgin state.

    The loads of the elastic prefix come with the history; from the
    engine state at its end, branches launch once per monotone run. Each
    phase (a stretch of samples on one line or on the envelope) becomes
    one segment, and the loads of all segments are filled in bulk at the
    end with the expressions of their branches.
    """
    # what the parameters alone set for each side (see ``_side``): the
    # primary pivot departing positive force is below the axis, the one
    # departing negative force above it
    eta_scaled = p.eta / ETA_SCALE
    pos_fixed = (g.k_pos, g.dy_pos, g.f_dy_pos, -p.alpha1 * g.fy_pos,
                 p.beta1 * g.fy_pos, eta_scaled)
    neg_fixed = (g.k_neg, g.dy_neg, g.f_dy_neg, p.alpha2 * (-g.fy_neg),
                 p.beta2 * g.fy_neg, eta_scaled)
    # current point; historical extremes of envelope contact and the
    # envelope loads there, read only once that side has yielded; motion
    # direction; whether the response is on the envelope, else on the
    # line through (ax, ay) with that slope
    d, f, d_max, d_min, direction = history.start
    f_max = f_min = 0.0
    on_env = True
    # launch geometry of each side, rebuilt when that side's extreme grows
    pos_key = neg_key = pos_side = neg_side = None
    # segment table: sample counts, then source, line anchor x, y and
    # slope of each segment
    lens, segs = [], []
    # bisect on a memoryview compares Python floats, not numpy scalars
    keys = memoryview(history.keys)
    for a, b, s, d_end, f_end in history.runs:
        if s != direction:
            direction = s
            # on the envelope at the extreme, motion continues outward on it
            if not (on_env and (d >= d_max if s > 0 else d <= d_min)):
                if pos_key != d_max:
                    pos_key, pos_side = d_max, _side(pos_fixed, 1, d_max, f_max)
                if neg_key != d_min:
                    neg_key, neg_side = d_min, _side(neg_fixed, -1, d_min, f_min)
                # the departure side -s and the target side s
                dep, tgt = (neg_side, pos_side) if s > 0 else (pos_side, neg_side)
                k_dep, px, py = dep[0], dep[1], dep[2]
                _, _, _, d_e, f_e, yielded, ppx, ppy, r_slope = tgt
                on_env = False
                ax, ay = d, f
                # pending events: at x = e1 onto the line through (e_ax,
                # e_ay) with slope e_slope, or onto the envelope where e_ax
                # is None, then onto the envelope at x = e2. A NaN event
                # point is never reached, so NaN also means no event.
                e1 = e2 = math.nan
                e_ax = None
                if f * s < 0:
                    # unloading toward the primary pivot of the departure
                    # force side
                    if (px - d) * s <= 0.0:
                        slope = k_dep  # degenerate: launch point at/past the pivot
                    else:
                        slope = (py - f) / (px - d)
                    if yielded:
                        # reloading line through the pinching pivot and the extreme
                        denom = slope - r_slope
                        if r_slope > 0.0 and denom != 0.0:
                            x = (ppy - r_slope * ppx - f + slope * d) / denom
                            if (x - d) * s >= 0.0 and (d_e - x) * s > 0.0:
                                e1, e_ax, e_ay, e_slope = x, ppx, ppy, r_slope
                    elif slope != 0.0:
                        # never-yielded side: reload from the zero-load
                        # crossing straight toward the yield point
                        x = d - f / slope
                        if (x - d) * s >= 0.0 and (d_e - x) * s > 0.0:
                            e1, e_ax, e_ay, e_slope = x, x, 0.0, f_e / (d_e - x)
                    if e1 == e1:
                        e2 = d_e
                    elif slope != 0.0:
                        # fallback: hold the extreme load level once the
                        # line reaches it
                        x = d + (f_e - f) / slope
                        if (x - d) * s > 0.0:
                            e1, e_ax, e_ay, e_slope = x, x, f_e, 0.0
                            if (d_e - x) * s > 0.0:
                                e2 = d_e
                # the force already has the sign of motion: head for the
                # extreme point, or hold load at/past it
                elif (d_e - d) * s <= 0.0:
                    slope = 0.0
                else:
                    slope = (f_e - f) / (d_e - d)
                    e1 = d_e
        j = a
        while True:
            if on_env:
                # motion on the envelope points outward, so only the
                # run's last sample can set a new extreme
                d, f = d_end, f_end
                if s > 0:
                    if d > d_max:
                        d_max, f_max = d, f
                elif d < d_min:
                    d_min, f_min = d, f
                lens.append(b - j)
                segs.extend(_ENV_SEGMENT)
                break
            # The first sample with (x - e1)*s >= 0 reaches the next
            # event: keys holds x moving up and -x moving down, so that
            # is the first key not below e1*s.
            k = b
            if e1 == e1:
                k = bisect_left(keys, e1 if s > 0 else -e1, j, b)
            if k > j:
                lens.append(k - j)
                segs.extend((_LINE, ax, ay, slope))
            if k == b:
                d = d_end
                f = ay + slope * (d_end - ax)
                break
            if e_ax is None:
                on_env = True
            else:
                ax, ay, slope = e_ax, e_ay, e_slope
                e1, e_ax = e2, None
            j = k

    nseg = len(lens)
    table = np.fromiter(segs, float, 4 * nseg).reshape(nseg, 4)
    source, ax, ay, slope = table.T.repeat(lens, axis=1)
    n0 = history.n0
    tail = history.xs[n0:] - ax  # then ay + slope*(x - ax), in place
    tail *= slope
    tail += ay
    np.copyto(tail, history.envelope[n0:], where=source == _ENV)
    if history.fill is None:
        return np.concatenate((history.elastic, tail))
    # a repeated sample returns the load of the sample it repeats
    return np.concatenate(([0.0], history.elastic, tail))[history.fill]


class History:
    """What a displacement history holds for the engine on one backbone.

    Depends only on the history and the backbone, so a caller that
    simulates one history many times (the GA) prepares it once and
    passes it to ``simulate`` in place of the displacements. Immutable:
    its arrays are read-only, its own copies, and stay read-only through
    a pickle round trip. ``len()`` is the sample count. It holds the
    ``IdealizedBackbone`` it was prepared on, the changed samples, the
    envelope load at every sample, the elastic prefix (the samples
    before the first one outside the yield displacements, their elastic
    loads and the engine state after them) and what the monotone runs
    past the prefix hold whatever the parameters: ``keys``, the samples
    past the prefix, each negated in a falling run so that the keys rise
    along every run, and ``runs``, one tuple (a, b, s, d_end, f_end) per
    run: the slice of keys it spans, its direction and the displacement
    and envelope load of its last sample. A run ends before the first
    step against its direction (``resample.sign_flips`` over the steps
    into the samples). Per sample it holds numpy arrays only, no Python
    object.
    """

    def __init__(self, backbone: IdealizedBackbone, displacements):
        x = np.array(displacements, dtype=float).ravel()
        finite = np.isfinite(x)
        if not finite.all():
            bad = x[np.argmin(finite)]
            raise ValueError(f"displacement must be finite, got {bad}")
        # A sample equal to the previous one (the virgin state sits at
        # 0.0) returns the previous load and changes no state.
        changed = np.empty(x.shape[0], dtype=bool)
        changed[:1] = x[:1] != 0.0
        np.not_equal(x[1:], x[:-1], out=changed[1:])
        fill = None if changed.all() else np.cumsum(changed)
        xs = x if fill is None else x[changed]
        m = xs.shape[0]
        envelope = backbone.envelope_at(xs)
        inside = (backbone.dy_neg <= xs) & (xs <= backbone.dy_pos)
        n0 = m if inside.all() else int(inside.argmin())
        # the step into each sample, never zero; a run ends before a step
        # against the previous one and has the direction of its last step
        steps = xs - np.concatenate(([0.0], xs[:-1]))
        ends = np.append(sign_flips(steps), m)
        ends = ends[ends > n0]  # the runs past the elastic prefix
        # Every step into a run has the run's direction (+1.0 or -1.0),
        # so the samples times the signs of their steps rise along each
        # run: x moving up, -x moving down (an exact negation).
        signs = np.sign(steps)
        keys = xs[n0:] * signs[n0:]
        # per run: where its keys start and end, its direction, its last
        # displacement and the envelope load there
        last = ends - 1
        bounds = (ends - n0).tolist()
        runs = tuple(
            zip(
                [0, *bounds[:-1]],
                bounds,
                signs[last].tolist(),
                xs[last].tolist(),
                envelope[last].tolist(),
            )
        )
        prefix = xs[:n0]
        elastic = np.where(prefix >= 0.0, backbone.k_pos * prefix, backbone.k_neg * prefix)
        elastic[prefix == backbone.dy_pos] = backbone.fy_pos
        elastic[prefix == backbone.dy_neg] = backbone.fy_neg
        # engine state after the prefix: point, load, extremes, direction
        start = (0.0, 0.0, 0.0, 0.0, 0)
        if n0:
            d, f = float(prefix[-1]), float(elastic[-1])
            hi, lo = max(0.0, float(prefix.max())), min(0.0, float(prefix.min()))
            start = (d, f, hi, lo, 1 if steps[n0 - 1] > 0.0 else -1)
        self.__setstate__(dict(
            backbone=backbone, xs=xs, fill=fill, envelope=envelope, n0=n0,
            keys=keys, runs=runs, elastic=elastic, start=start,
        ))

    def __setstate__(self, state):
        # also after unpickling: the arrays are read-only again
        for name in ("xs", "envelope", "keys", "elastic", "fill"):
            if state[name] is not None:
                state[name].flags.writeable = False
        vars(self).update(state)

    def __setattr__(self, name, value):
        raise AttributeError(f"History is immutable, cannot set {name!r}")

    def __len__(self):
        return self.xs.shape[0] if self.fill is None else self.fill.shape[0]


def simulate(backbone, params: PivotParams, displacements) -> np.ndarray:
    """Load response of the Pivot model over a displacement history.

    Starts from the virgin state; output has one load per input
    displacement. Deterministic: identical inputs give identical
    outputs. ``displacements`` is an array, or a ``History`` prepared on
    the same ``IdealizedBackbone`` object as ``backbone``.
    """
    history = displacements
    if not isinstance(history, History):
        history = History(backbone, displacements)
    elif history.backbone is not backbone:
        raise ValueError("the history was prepared on another backbone geometry")
    return _respond(backbone, params, history)
