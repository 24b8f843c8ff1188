"""Backbone envelope extraction and 7-point idealization.

The envelope is the locus of the signed load extremum of each loading
half-cycle: a ``SignalPair`` whose displacements strictly ascend. The
idealization reduces it to seven points: on each side an elastic-limit
point (first point whose load magnitude exceeds 65% of the side's
extreme load), the extreme-load point and the extreme-displacement
point, plus the origin. A half-cycle ends at the first load of the
other sign, zero loads carrying no sign: the rule
(``resample.sign_flips``) that also splits displacement into monotone
segments. The idealized backbone is also the geometry the Pivot engine
runs on: it carries the yield points, stiffnesses and envelope
interpolant the engine reads, so no conversion sits between
``idealize`` and ``simulate``.
"""

from __future__ import annotations

import warnings

import numpy as np

from pivotfit.ingest import SignalPair, validate
from pivotfit.resample import sign_flips

YIELD_FRACTION = 0.65


class IdealizedBackbone(SignalPair):
    """Exactly 7 (displacement, load) points; point 4 is the origin.

    Points 1-3 describe the negative side (ultimate displacement,
    extreme load, elastic limit), points 5-7 mirror them on the positive
    side. ``yield_equals_peak_positive``/``negative`` flag the degenerate
    case where the elastic-limit point is the extreme-load point (point 5
    equals point 6, point 3 equals point 2); they are derived from the
    points, so a backbone rebuilt from ``idealized.csv`` carries them.

    The one backbone value of the package: ``idealize`` returns it, and
    the Pivot engine reads its yield points (``dy_*``, ``fy_*``),
    elastic stiffnesses (``k_pos``, ``k_neg``), envelope loads at the
    yield points (``f_dy_*``) and ``envelope_at``. Its points are its
    own read-only float copies, so a caller's arrays are never aliased.
    A ``SignalPair`` of 7 points, it compares and hashes by identity, as
    ``simulate`` matches a ``History`` to its backbone.
    """

    def __post_init__(self):
        d = np.array(self.displacement, dtype=float)
        f = np.array(self.load, dtype=float)
        if d.shape != (7,) or f.shape != (7,):
            raise ValueError("idealized backbone must have exactly 7 points")
        if not (np.isfinite(d).all() and np.isfinite(f).all()):
            raise ValueError("idealized points must be finite")
        if (d[:-1] > d[1:]).any():
            raise ValueError("idealized displacements must be non-decreasing")
        dy_neg, fy_neg = float(d[2]), float(f[2])
        dy_pos, fy_pos = float(d[4]), float(f[4])
        if not dy_neg < 0.0 < dy_pos:
            raise ValueError("yield displacement must be nonzero and of its side's sign")
        if d[3] != 0.0 or f[3] != 0.0:
            raise ValueError("idealized point 4 must be the origin")
        k_pos = fy_pos / dy_pos
        k_neg = fy_neg / dy_neg
        if k_pos <= 0 or k_neg <= 0:
            raise ValueError("elastic stiffness must be positive on both sides")
        d.flags.writeable = f.flags.writeable = False
        vars(self).update(displacement=d, load=f)
        # envelope loads at the yield points; a repeated knot can make
        # them differ from the yield forces
        f_dy_neg, f_dy_pos = self.envelope_at(d[[2, 4]]).tolist()
        vars(self).update(
            k_pos=k_pos, k_neg=k_neg, fy_pos=fy_pos, fy_neg=fy_neg,
            dy_pos=dy_pos, dy_neg=dy_neg, f_dy_pos=f_dy_pos, f_dy_neg=f_dy_neg,
            yield_equals_peak_positive=(d[4], f[4]) == (d[5], f[5]),
            yield_equals_peak_negative=(d[2], f[2]) == (d[1], f[1]),
        )

    def __reduce__(self):
        # rebuilt through the constructor, so its arrays stay read-only
        return type(self), (self.displacement, self.load)

    def envelope_at(self, d: np.ndarray) -> np.ndarray:
        """Piecewise-linear backbone load at every displacement of d,
        clamped at the terminal loads beyond the ultimate points and
        exact at the knots."""
        kd, kf = self.displacement, self.load
        # the first segment whose right knot is not below d wins
        i = np.minimum(kd[1:].searchsorted(d), 5)
        x0, x1, f0, f1 = kd[i], kd[i + 1], kf[i], kf[i + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = f0 + (f1 - f0) * (d - x0) / (x1 - x0)
        out = np.where(d == x1, f1, out)  # exact at knots
        out[d >= kd[6]] = kf[6]
        out[d <= kd[0]] = kf[0]
        return out


def extract_envelope(pair: SignalPair) -> SignalPair:
    """Extract the cyclic backbone envelope from a load-deformation record.

    The load trace is cut into subsets between consecutive sign changes
    (zero loads carry no sign, see ``resample.sign_flips``); each subset
    contributes its maximum if the subset mean is positive, otherwise its
    minimum; the selected points are mapped to their displacements and
    sorted ascending by displacement. Duplicate displacements keep the
    point with the larger load magnitude.

    A record whose load never changes sign yields a degenerate
    single-point envelope and a warning; ``idealize`` refuses it.
    """
    validate(pair)
    load = pair.load
    disp = pair.displacement

    # a subset ends just before the first sample of the next sign, so a
    # zero load stays with the preceding subset
    bounds = [0, *(sign_flips(load) - 1), load.shape[0] - 1]
    env_idx = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        subset = load[a : b + 1]
        if subset.mean() > 0:
            local = int(np.argmax(subset))
        else:
            local = int(np.argmin(subset))
        env_idx.append(a + local)

    if len(bounds) == 2:  # no sign change: single subset
        warnings.warn(
            "load never changes sign: degenerate single-extremum envelope",
            stacklevel=2,
        )

    env_d = disp[env_idx]
    env_f = load[env_idx]
    order = np.argsort(env_d, kind="stable")
    env_d = env_d[order]
    env_f = env_f[order]

    # Duplicate displacements: keep the outermost point (larger |load|).
    keep_d, keep_f = [], []
    for dv, fv in zip(env_d, env_f):
        if keep_d and dv == keep_d[-1]:
            if abs(fv) > abs(keep_f[-1]):
                keep_f[-1] = fv
        else:
            keep_d.append(dv)
            keep_f.append(fv)

    return SignalPair(np.array(keep_d), np.array(keep_f))


def idealize(env: SignalPair) -> IdealizedBackbone:
    """Reduce an envelope to the 7-point idealized backbone.

    The envelope's points ascend by displacement, as ``extract_envelope``
    returns them. Requires at least 3 points on each displacement sign
    side. The elastic-limit scan on the positive side walks points in
    ascending displacement order and stops at the first load exceeding
    65% of the maximum envelope load; the negative side mirrors it in
    descending order against 65% of the minimum. If a scan stops at the
    extreme-load point itself the yield point coincides with the peak;
    this is flagged and warned about, not an error.
    """
    d = env.displacement
    f = env.load
    n_neg = int(np.sum(d < 0))
    n_pos = int(np.sum(d > 0))
    if n_neg < 3 or n_pos < 3:
        raise ValueError(
            f"need at least 3 envelope points per side, got {n_neg} negative "
            f"and {n_pos} positive"
        )

    out_d = np.zeros(7)
    out_f = np.zeros(7)

    # Ultimate-displacement points (earliest index on ties).
    i_dmax = int(np.argmax(d))
    i_dmin = int(np.argmin(d))
    out_d[6], out_f[6] = d[i_dmax], f[i_dmax]
    out_d[0], out_f[0] = d[i_dmin], f[i_dmin]

    # Extreme-load points.
    i_fmax = int(np.argmax(f))
    i_fmin = int(np.argmin(f))
    out_d[5], out_f[5] = d[i_fmax], f[i_fmax]
    out_d[1], out_f[1] = d[i_fmin], f[i_fmin]

    f_max = f[i_fmax]
    f_min = f[i_fmin]
    if f_max <= 0 or f_min >= 0:
        raise ValueError("envelope must contain both positive and negative loads")

    # Elastic-limit points: first threshold crossing per side, scanning
    # ascending displacement on the positive side, descending on the
    # negative one. A threshold that rounds to a tiny extreme load has none.
    above, below = f > YIELD_FRACTION * f_max, f[::-1] < YIELD_FRACTION * f_min
    for side, crossed in (("positive", above), ("negative", below)):
        if not crossed.any():
            raise ValueError(f"no {side}-side point exceeds 65% of its extreme load")
    i_yield_pos = int(np.argmax(above))
    i_yield_neg = len(f) - 1 - int(np.argmax(below))
    out_d[4], out_f[4] = d[i_yield_pos], f[i_yield_pos]
    out_d[2], out_f[2] = d[i_yield_neg], f[i_yield_neg]

    ideal = IdealizedBackbone(out_d, out_f)
    yep, yen = ideal.yield_equals_peak_positive, ideal.yield_equals_peak_negative
    if yep or yen:
        sides = " and ".join(
            s for s, hit in (("positive", yep), ("negative", yen)) if hit
        )
        warnings.warn(
            f"yield point coincides with the extreme-load point on the {sides} side",
            stacklevel=2,
        )

    return ideal
