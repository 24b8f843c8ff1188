import itertools
import pickle

import numpy as np
import pytest

from pivotfit import (
    FitError,
    GAConfig,
    IdealizedBackbone,
    ParamBounds,
    PivotParams,
    SignalPair,
    fit,
    simulate,
)
from pivotfit.pivot import History
from pivotfit.resample import sign_flips
from conftest import triangle_protocol
from oracles import SteppingEngine, backbone_load_oracle, step_simulate_oracle


def test_params_bounds_enforced():
    PivotParams(1.0, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        PivotParams(0.5, 2.0, 0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        PivotParams(2.0, 2.0, 1.0001, 0.5, 1.0)
    with pytest.raises(ValueError):
        PivotParams(2.0, 2.0, 0.5, 0.5, -1.0)
    with pytest.raises(ValueError):
        PivotParams(2.0, np.nan, 0.5, 0.5, 1.0)


def test_geometry_simple_stiffness():
    g = IdealizedBackbone([-3, -2, -1, 0, 2, 3, 4], [-12, -15, -10, 0, 10, 15, 12])
    assert g.k_pos == 5.0  # 10 / 2
    assert g.fy_pos == 10.0


def test_geometry_hand_example():
    g = IdealizedBackbone([-4, -3, -3, 0, 2, 4, 5], [-10, -16, -16, 0, 11, 16, 12])
    assert g.k_pos == pytest.approx(11 / 2)
    assert g.k_neg == pytest.approx(16 / 3)


def test_geometry_antisymmetric(symmetric_backbone):
    g = symmetric_backbone
    assert g.k_pos == g.k_neg
    assert g.fy_pos == -g.fy_neg


def test_geometry_rejects_zero_yield_displacement():
    with pytest.raises(ValueError, match="nonzero"):
        IdealizedBackbone([-3, -2, 0, 0, 1, 2, 3], [-12, -15, -10, 0, 10, 15, 12])


def test_geometry_rejects_non_finite_knot():
    knots_f = [-12, -15, -10, 0, 10, 15, 12]
    with pytest.raises(ValueError, match="finite"):
        IdealizedBackbone([-3, -2, np.nan, 0, 1, 2, 3], knots_f)
    with pytest.raises(ValueError, match="finite"):
        IdealizedBackbone([-3, -2, -1, 0, 1, 2, np.inf], knots_f)


def test_geometry_rejects_unordered_knots():
    knots_f = [-12, -15, -10, 0, 10, 15, 12]
    with pytest.raises(ValueError, match="non-decreasing"):
        IdealizedBackbone([-3, -2, -1, 0, 1, 3, 2], knots_f)
    with pytest.raises(ValueError, match="side's sign"):
        IdealizedBackbone([-3, -2, -1, -0.5, -0.2, 2, 3], [-12, -15, -10, -5, -2, 9, 9])


def test_geometry_rejects_wrong_point_count():
    with pytest.raises(ValueError, match="exactly 7 points"):
        IdealizedBackbone([-3, -2, -1, 0, 1, 2], [-12, -15, -10, 0, 10, 15])
    with pytest.raises(ValueError, match="exactly 7 points"):
        IdealizedBackbone([-3, -2, -1, 0, 1, 2, 3], [-12, -15, -10, 0, 10, 15, 12, 9])


def test_geometry_rejects_non_positive_stiffness():
    knots_d = [-3, -2, -1, 0, 1, 2, 3]
    for knots_f in (
        [-12, -15, -10, 0, -10, 15, 12],  # positive yield force below zero
        [-12, -15, 0.0, 0, 10, 15, 12],  # zero negative yield force
    ):
        with pytest.raises(ValueError, match="elastic stiffness must be positive"):
            IdealizedBackbone(knots_d, knots_f)


def test_geometry_knots_are_read_only_float_arrays(symmetric_backbone):
    g = symmetric_backbone
    for knots in (g.displacement, g.load):
        assert knots.dtype == float and knots.shape == (7,)
        with pytest.raises(ValueError, match="read-only"):
            knots[0] = 0.0


def test_envelope_interpolant_through_knots(symmetric_backbone):
    g = symmetric_backbone
    loads = g.envelope_at(np.asarray(symmetric_backbone.displacement, dtype=float))
    assert loads.tolist() == list(symmetric_backbone.load)


def test_envelope_at_matches_envelope_bit_for_bit():
    rng = np.random.default_rng(35)
    for trial in range(400):
        bb = backbone_with_repeated_knots(rng) if trial % 2 else random_backbone(rng)
        knots_f = list(bb.load)
        if trial % 3 == 0:
            knots_f[3] = -0.0  # a signed-zero origin load
        g = IdealizedBackbone(bb.displacement, knots_f)
        kd = np.array(g.displacement)
        points = np.concatenate(
            [
                kd,
                np.nextafter(kd, np.inf),
                np.nextafter(kd, -np.inf),
                [kd[0] - 1.0, kd[6] + 1.0, -1e300, 1e300, 0.0, -0.0],
                rng.uniform(kd[0] - 0.5, kd[6] + 0.5, 50),
            ]
        )
        expected = np.array([backbone_load_oracle(g, float(v)) for v in points])
        assert g.envelope_at(points).tobytes() == expected.tobytes()


def test_elastic_ramp(symmetric_backbone):
    params = PivotParams(2, 2, 0.5, 0.5, 100.0)
    ramp = np.linspace(0, 0.5, 11)  # within half the yield displacement
    loads = simulate(symmetric_backbone, params, ramp)
    np.testing.assert_allclose(loads, 10.0 * ramp, rtol=0, atol=1e-14)


def test_zero_history_zero_load(symmetric_backbone):
    loads = simulate(symmetric_backbone, PivotParams(2, 2, 0.5, 0.5, 0), np.zeros(20))
    np.testing.assert_array_equal(loads, np.zeros(20))


def test_virgin_ramp_reproduces_backbone(symmetric_backbone, asymmetric_backbone):
    for bb in (symmetric_backbone, asymmetric_backbone):
        ramp = np.linspace(min(bb.displacement), 0, 40)[::-1]
        ramp = np.concatenate([np.linspace(0, max(bb.displacement), 50)])
        loads = simulate(bb, PivotParams(5, 5, 0.7, 0.7, 50), ramp)
        expected = np.interp(ramp, bb.displacement, bb.load)
        np.testing.assert_allclose(loads, expected, rtol=0, atol=1e-12)


def test_unloading_line_geometric_oracle(symmetric_backbone):
    """Unloading from the envelope follows the line through the
    departure point and the primary pivot, for the whole positive-load
    span of the branch."""
    alpha1 = 2.0
    params = PivotParams(alpha1, 3.0, 1.0, 1.0, 0.0)
    g = symmetric_backbone
    hist = np.concatenate([np.linspace(0, 2, 41), np.linspace(2, 0, 41)[1:]])
    loads = simulate(symmetric_backbone, params, hist)
    start_d, start_f = 2.0, backbone_load_oracle(g, 2.0)
    pivot_d = -alpha1 * g.fy_pos / g.k_pos
    pivot_f = -alpha1 * g.fy_pos
    slope = (start_f - pivot_f) / (start_d - pivot_d)
    d0 = start_d - start_f / slope  # zero-load crossing
    for d, f in zip(hist[41:], loads[41:]):
        if d >= d0:
            expected = start_f + slope * (d - start_d)
            assert f == pytest.approx(expected, abs=1e-12)


def test_virgin_reload_targets_yield_point(symmetric_backbone):
    """Past the zero crossing toward a never-yielded side the branch is
    the straight line to that side's yield point."""
    params = PivotParams(2.0, 2.0, 1.0, 1.0, 0.0)
    g = symmetric_backbone
    hist = np.concatenate([np.linspace(0, 2, 41), np.linspace(2, -1.0, 61)[1:]])
    loads = simulate(symmetric_backbone, params, hist)
    f_start = backbone_load_oracle(g, 2.0)
    slope = (f_start + 2 * g.fy_pos) / (2.0 + 2 * g.fy_pos / g.k_pos)
    d0 = 2.0 - f_start / slope
    r_slope = g.fy_neg / (g.dy_neg - d0)
    for d, f in zip(hist[41:], loads[41:]):
        if g.dy_neg < d < d0:
            assert f == pytest.approx(r_slope * (d - d0), abs=1e-12)
    # and the yield point itself is hit exactly
    i = int(np.argmin(np.abs(hist - g.dy_neg)))
    assert loads[i] == pytest.approx(g.fy_neg, abs=1e-12)


def test_sub_yield_closure(symmetric_backbone, asymmetric_backbone):
    rng = np.random.default_rng(2)
    for g in (symmetric_backbone, asymmetric_backbone):
        for _ in range(20):
            params = PivotParams(
                rng.uniform(1, 100),
                rng.uniform(1, 100),
                rng.uniform(0, 1),
                rng.uniform(0, 1),
                rng.uniform(0, 1000),
            )
            # random closed sub-yield history
            pts = rng.uniform(0.95 * g.dy_neg, 0.95 * g.dy_pos, 12)
            pts[-1] = 0.0
            hist = np.concatenate([[0.0], pts])
            loads = simulate(g, params, hist)
            expected = np.where(hist >= 0, g.k_pos * hist, g.k_neg * hist)
            np.testing.assert_allclose(loads, expected, rtol=0, atol=1e-12)
            assert loads[-1] == 0.0


def test_post_yield_steady_cycles_retrace_with_zero_eta(symmetric_backbone):
    params = PivotParams(3, 3, 0.7, 0.6, 0.0)
    hist = triangle_protocol([2.5, -2.5, 2.5, -2.5, 2.5, -2.5, 2.5], pts=150)
    loads = simulate(symmetric_backbone, params, hist)
    legs = [loads[149 + 149 * k : 149 + 149 * (k + 1)] for k in range(6)]
    # cycle 2 (legs 3,4) retraces cycle 3 (legs 5,6) exactly
    np.testing.assert_array_equal(legs[2], legs[4])
    np.testing.assert_array_equal(legs[3], legs[5])


def test_eta_changes_response_on_growing_amplitudes(symmetric_backbone):
    hist = triangle_protocol([1.5, -1.5, 2.0, -2.0, 2.6, -2.6, 2.6], pts=60)
    base = simulate(symmetric_backbone, PivotParams(5, 5, 0.7, 0.7, 0.0), hist)
    degraded = simulate(symmetric_backbone, PivotParams(5, 5, 0.7, 0.7, 400.0), hist)
    assert np.abs(base - degraded).max() > 0.1


def test_beta_one_reload_is_single_segment_to_prior_extreme(symmetric_backbone):
    params = PivotParams(3.0, 3.0, 1.0, 1.0, 0.0)
    pts = 400
    hist = triangle_protocol([2.5, -2.5, 2.5], pts=pts)
    loads = simulate(symmetric_backbone, params, hist)
    d_r = hist[-(pts - 1) :]
    f_r = loads[-(pts - 1) :]
    # response ends exactly at the prior extreme point
    assert d_r[-1] == 2.5
    assert f_r[-1] == pytest.approx(13.5, abs=1e-12)
    # the trailing branch is one straight segment: collinear slopes
    slopes = np.diff(f_r) / np.diff(d_r)
    trailing = slopes[-1]
    run = 1
    for s in slopes[-2::-1]:
        if abs(s - trailing) < 1e-9:
            run += 1
        else:
            break
    # the single segment spans from below the zero crossing to the peak
    covered = d_r[-1] - d_r[-1 - run]
    assert covered > 2.0
    # and its slope is the chord through the yield point and the extreme
    chord = (13.5 - 10.0) / (2.5 - 1.0)
    assert trailing == pytest.approx(chord, rel=1e-9)


def test_post_yield_cycle_energy_non_negative(
    symmetric_backbone, asymmetric_backbone
):
    rng = np.random.default_rng(12)
    for trial in range(150):
        bb = symmetric_backbone if trial % 2 else asymmetric_backbone
        params = PivotParams(
            rng.uniform(1, 100),
            rng.uniform(1, 100),
            rng.uniform(0, 1),
            rng.uniform(0, 1),
            rng.uniform(0, 1000),
        )
        amp = rng.uniform(1.3, 2.4)
        hist = triangle_protocol([amp, -amp, amp, -amp, amp], pts=80)
        loads = simulate(bb, params, hist)
        i0, i1 = 79 + 79 * 2, 79 + 79 * 4  # steady closed cycle
        energy = np.trapezoid(loads[i0 : i1 + 1], hist[i0 : i1 + 1])
        assert energy >= -1e-9


def test_envelope_bound_random_histories(symmetric_backbone, asymmetric_backbone):
    rng = np.random.default_rng(14)
    for bb in (symmetric_backbone, asymmetric_backbone):
        f_lo, f_hi = min(bb.load), max(bb.load)
        for _ in range(200):
            params = PivotParams(
                rng.uniform(1, 100),
                rng.uniform(1, 100),
                rng.uniform(0, 1),
                rng.uniform(0, 1),
                rng.uniform(0, 1000),
            )
            hist = np.clip(np.cumsum(rng.normal(0, 0.5, 60)), -5.0, 6.0)
            loads = simulate(bb, params, hist)
            assert loads.max() <= f_hi + 1e-9 * abs(f_hi)
            assert loads.min() >= f_lo - 1e-9 * abs(f_lo)


def test_branch_continuity(symmetric_backbone):
    """No jumps: on a fine grid the per-step load change is bounded by
    a global slope bound times the step."""
    g = symmetric_backbone
    params = PivotParams(2.0, 9.0, 0.3, 0.8, 120.0)
    hist = triangle_protocol([2.7, -2.2, 1.8, -2.7, 2.4], pts=4000)
    loads = simulate(symmetric_backbone, params, hist)
    slopes = np.abs(np.diff(loads) / np.diff(hist))
    # steepest possible branch: elastic slope; envelope and pivot lines
    # are all shallower
    assert slopes.max() <= max(g.k_pos, g.k_neg) + 1e-9


def test_determinism(symmetric_backbone):
    params = PivotParams(7, 3, 0.4, 0.9, 250.0)
    rng = np.random.default_rng(0)
    hist = np.cumsum(rng.normal(0, 0.3, 300))
    a = simulate(symmetric_backbone, params, hist)
    b = simulate(symmetric_backbone, params, hist)
    np.testing.assert_array_equal(a, b)


def test_beyond_ultimate_clamps(symmetric_backbone):
    g = symmetric_backbone
    loads = simulate(g, PivotParams(2, 2, 0.5, 0.5, 0), np.linspace(0, 4.0, 30))
    assert loads[-1] == g.load[6]  # terminal envelope value


def test_engine_rejects_non_finite_displacement(symmetric_backbone):
    g = symmetric_backbone
    params = PivotParams(2, 2, 0.5, 0.5, 0)
    for bad in (np.nan, np.inf, -np.inf):
        hist = np.array([0.0, 0.5, bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            simulate(g, params, hist)
        # the GA fails once, on the record, not once per genome
        record = SignalPair(hist, np.zeros(4))
        for workers in (1, 2):
            config = GAConfig(population_size=4, max_generations=2, workers=workers)
            with pytest.raises(FitError, match="finite"):
                fit(record, g, config)


def random_params(rng):
    return PivotParams(
        rng.uniform(1, 100),
        rng.uniform(1, 100),
        rng.uniform(0, 1),
        rng.uniform(0, 1),
        rng.uniform(0, 1000),
    )


def random_backbone(rng):
    d_neg, d_pos = np.sort(rng.uniform(0.2, 3.0, (2, 3)), axis=1)
    f_neg, f_pos = rng.uniform(5.0, 20.0, (2, 3))
    return IdealizedBackbone([*-d_neg[::-1], 0.0, *d_pos], [*-f_neg, 0.0, *f_pos])


def random_history(rng, g, kind):
    if kind == 0:  # random walk; clipping repeats the bounds
        return np.clip(np.cumsum(rng.normal(0, 0.5, 60)), -5.2, 6.2)
    if kind == 1:  # each amplitude twice: reversals on prior extremes
        amps = np.repeat(rng.uniform(0.3, 3.2, 3), 2) * np.tile([1, -1], 3)
        return triangle_protocol(amps, pts=int(rng.integers(2, 25)))
    # knots, yield points and signed zeros, with repeats
    pool = [*g.displacement, 0.0, -0.0, 0.5 * g.dy_pos, 0.5 * g.dy_neg, 2.5, -2.5]
    return rng.choice(pool, 50)


def with_event_points(g, params, hist):
    """hist with a sample inserted exactly on every branch event point
    that the stepping engine passes between two samples of a run."""
    engine = SteppingEngine(g, params)
    out = []
    for d in hist:
        while out and engine._events:
            s = engine._dir
            ex = engine._events[0][0]
            if not ((ex - engine.d) * s > 0.0 and (d - ex) * s > 0.0):
                break
            out.append(ex)
            engine.step(ex)
        out.append(d)
        engine.step(d)
    return np.array(out)


def test_simulate_bit_identical_to_step_oracle(symmetric_backbone, asymmetric_backbone):
    g = symmetric_backbone
    params = PivotParams(3, 3, 0.5, 0.5, 50)
    for hist in ([], [-0.0], [0.0, -0.0, 0.5, 0.5, -0.0, 0.0], [2.5, 2.5, -0.0, 0.0]):
        expected = step_simulate_oracle(g, params, hist).tobytes()
        assert simulate(g, params, hist).tobytes() == expected
    rng = np.random.default_rng(31)
    events = 0
    for trial in range(450):
        g = (symmetric_backbone, asymmetric_backbone, random_backbone(rng))[trial % 3]
        params = random_params(rng)
        hist = random_history(rng, g, trial // 3 % 3)
        dense = with_event_points(g, params, hist)
        events += dense.shape[0] - hist.shape[0]
        for h in (hist, dense, -hist):
            # tobytes also tells 0.0 from -0.0
            expected = step_simulate_oracle(g, params, h).tobytes()
            assert simulate(g, params, h).tobytes() == expected
    assert events > 450  # the event-point samples were exercised


def repeated_cycle_history(rng, g):
    """Three cycles of one amplitude per side, each leg through a sample
    at 0.0 or -0.0. From the second cycle on, a run heads for the
    extreme-response point set by the cycle before, so the event that
    puts it back on the envelope sits exactly on its last sample; on a
    side held at the yield displacement that point is the yield point."""
    pos = rng.uniform(1.0, 2.0) * g.dy_pos
    neg = rng.choice([1.0, rng.uniform(1.0, 2.0)]) * g.dy_neg
    hist = triangle_protocol([pos, 0.0, neg, 0.0] * 3, pts=int(rng.integers(2, 12)))
    zeros = hist == 0.0
    hist[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    return hist


def test_simulate_matches_oracle_where_events_land_on_samples(
    symmetric_backbone, asymmetric_backbone
):
    rng = np.random.default_rng(37)
    for trial in range(300):
        g = (symmetric_backbone, asymmetric_backbone, random_backbone(rng))[trial % 3]
        params = random_params(rng)
        hist = repeated_cycle_history(rng, g)
        for h in (hist, with_event_points(g, params, hist), -hist):
            expected = step_simulate_oracle(g, params, h).tobytes()
            assert simulate(g, params, h).tobytes() == expected
    # Leaving the elastic prefix by a reversal from (0.5, 5.0) on the
    # symmetric backbone, the unloading line aims at the undegraded
    # pivot (-alpha1, -10 alpha1) on the elastic line, so it crosses zero
    # at exactly 0.0: the event that starts the reload toward the
    # never-yielded side sits at 0.0.
    g = symmetric_backbone
    for alpha in (1.0, 2.0, 3.0, 7.5):
        assert 0.5 - 5.0 / ((-10.0 * alpha - 5.0) / (-alpha - 0.5)) == 0.0
        params = PivotParams(alpha, alpha, 0.5, 0.5, 50)
        for hist in (
            [0.5, -1.5, -0.0, 1.5, 0.0, -0.5],
            [0.5, -0.0, 0.0, 0.5, -1.5, 0.0, -0.0, 1.5, -1.5],
            [0.5, -1.5, -1.0, 0.0, -1.5, -0.0, -1.5],
        ):
            for h in (np.array(hist), -np.array(hist)):
                expected = step_simulate_oracle(g, params, h).tobytes()
                assert simulate(g, params, h).tobytes() == expected


def backbone_with_repeated_knots(rng):
    """A random backbone whose knots repeat on one or both sides; on the
    negative side the envelope load at the yield displacement is then
    not the yield force."""
    bb = random_backbone(rng)
    d = list(bb.displacement)
    for i, j in ((1, 2), (0, 1), (5, 4), (6, 5)):  # knot i copies knot j
        if rng.random() < 0.5:
            d[i] = d[j]
    return IdealizedBackbone(d, bb.load)


def ulp_growth_history(rng, g):
    """Cycles whose positive and negative extremes each grow by one ulp
    per cycle, from the yield displacements or from beyond them."""
    if rng.random() < 0.5:
        pos, neg = g.dy_pos, g.dy_neg
    else:
        pos, neg = rng.uniform(1.0, 2.0) * g.dy_pos, rng.uniform(1.0, 2.0) * g.dy_neg
    peaks = []
    for _ in range(6):
        peaks += [pos, neg]
        pos, neg = np.nextafter(pos, np.inf), np.nextafter(neg, -np.inf)
    return triangle_protocol(peaks, pts=int(rng.integers(2, 12)))


def test_simulate_matches_oracle_on_ulp_growth_and_repeated_knots(
    symmetric_backbone, asymmetric_backbone
):
    rng = np.random.default_rng(34)
    repeats = 0
    for trial in range(300):
        if trial % 2:
            g = backbone_with_repeated_knots(rng)
        else:
            g = (symmetric_backbone, asymmetric_backbone, random_backbone(rng))[trial // 2 % 3]
        repeats += g.f_dy_neg != g.fy_neg
        params = random_params(rng)
        if trial % 4 < 2:
            hist = ulp_growth_history(rng, g)
        else:
            hist = random_history(rng, g, trial // 4 % 3)
        for h in (hist, with_event_points(g, params, hist), -hist):
            expected = step_simulate_oracle(g, params, h).tobytes()
            assert simulate(g, params, h).tobytes() == expected
    assert repeats > 30  # the yield-point envelope load was not the yield force


def prefix_history(rng, g, kind):
    """A history and the length of its elastic prefix (the samples before
    the first one outside the yield displacements). kind 0 stays inside,
    kind 1 starts outside, kind 2 oscillates inside and leaves after a
    reversal, kind 3 lands exactly on a yield displacement and leaves."""
    dy = (g.dy_neg, g.dy_pos)
    inside = list(rng.uniform(g.dy_neg, g.dy_pos, int(rng.integers(2, 12))))
    side = int(rng.integers(2))
    if kind == 0:
        return np.array(inside), len(inside)
    if kind == 2:
        # leave on the side the last inside step turns away from
        side = int(inside[-1] < inside[-2])
    elif kind == 3:
        inside.append(dy[side])
        side = int(rng.integers(2))
    beyond = rng.choice([rng.uniform(1.0, 2.0), np.nextafter(1.0, 2.0)]) * dy[side]
    tail = list(beyond + np.cumsum(rng.normal(0, 0.5, 20)))
    if kind == 1:
        return np.array([beyond, *tail]), 0
    return np.array([*inside, beyond, *tail]), len(inside)


def test_elastic_prefix_matches_step_oracle(symmetric_backbone, asymmetric_backbone):
    rng = np.random.default_rng(36)
    for trial in range(600):
        if trial % 3 == 2:
            g = backbone_with_repeated_knots(rng)
        else:
            g = (symmetric_backbone, asymmetric_backbone)[trial % 3]
        params = random_params(rng)
        hist, n0 = prefix_history(rng, g, trial // 3 % 4)
        history = History(g, hist)
        assert history.n0 == n0
        # the engine state after the prefix is the stepping engine's
        engine = SteppingEngine(g, params)
        for d in hist[:n0]:
            engine.step(d)
        state = (engine.d, engine.f, engine.d_max, engine.d_min, engine._dir)
        assert history.start == state
        for h in (hist, with_event_points(g, params, hist)):
            expected = step_simulate_oracle(g, params, h).tobytes()
            assert simulate(g, params, h).tobytes() == expected


def refine(hist, k):
    """Every step of hist split into k sub-steps in the same direction."""
    prev = np.concatenate(([0.0], hist[:-1]))
    fine = prev[:, None] + (hist - prev)[:, None] * (np.arange(1, k + 1) / k)
    fine[:, -1] = hist
    return fine.ravel()


def test_response_independent_of_step_size(symmetric_backbone, asymmetric_backbone):
    rng = np.random.default_rng(32)
    for trial in range(300):
        g = (symmetric_backbone, asymmetric_backbone, random_backbone(rng))[trial % 3]
        params = random_params(rng)
        if trial // 3 % 2:
            hist = np.cumsum(rng.normal(0, 0.5, 60))
        else:
            amps = rng.uniform(0.3, 3.2, 6) * np.tile([1, -1], 3)
            hist = triangle_protocol(amps, pts=int(rng.integers(2, 25)))[1:]
        k = int(rng.integers(2, 6))
        coarse = simulate(g, params, hist)
        fine = simulate(g, params, refine(hist, k))
        assert fine[k - 1 :: k].tobytes() == coarse.tobytes()


def test_history_facts_follow_the_bytes(symmetric_backbone):
    g = symmetric_backbone
    params = PivotParams(3, 3, 0.5, 0.5, 50)
    hist = triangle_protocol([2.5, -2.5, 2.5], pts=40)
    first = simulate(g, params, hist)
    hist[10:] *= 0.5  # same array, new values
    expected = step_simulate_oracle(g, params, hist)
    assert simulate(g, params, hist).tobytes() == expected.tobytes()
    hist[10:] *= 2.0
    assert simulate(g, params, hist).tobytes() == first.tobytes()


def test_history_is_an_immutable_value(symmetric_backbone):
    g = symmetric_backbone
    params = PivotParams(3, 3, 0.5, 0.5, 50)
    hist = triangle_protocol([2.5, -2.5, 2.5], pts=40)
    hist[5] = hist[4]  # a repeated sample
    history = History(g, hist)
    assert len(history) == hist.shape[0]
    expected = step_simulate_oracle(g, params, hist).tobytes()
    hist *= 0.5  # the caller's array changes, the history does not
    assert simulate(g, params, history).tobytes() == expected
    for array in (history.xs, history.envelope, history.keys, history.fill):
        assert not array.flags.writeable
    with pytest.raises(AttributeError, match="immutable"):
        history.n0 = 0


def test_history_survives_a_pickle_round_trip(asymmetric_backbone):
    g = asymmetric_backbone
    params = PivotParams(3, 7, 0.5, 0.2, 50)
    hist = triangle_protocol([2.5, -2.5, 0.3, -3.0, 4.0], pts=30)
    expected = simulate(g, params, hist).tobytes()
    # a pool worker receives the backbone and the history in one pickle
    g2, history = pickle.loads(pickle.dumps((g, History(g, hist))))
    assert history.backbone is g2
    assert simulate(g2, params, history).tobytes() == expected
    # the round trip keeps the arrays read-only
    arrays = (history.xs, history.envelope, history.keys, history.elastic)
    for array in (*arrays, g2.displacement, g2.load):
        assert not array.flags.writeable


def test_simulate_rejects_a_history_of_another_geometry(symmetric_backbone):
    params = PivotParams(3, 3, 0.5, 0.5, 50)
    history = History(symmetric_backbone, [0.0, 1.5, -1.0])
    # equal points, but another object
    other = IdealizedBackbone(symmetric_backbone.displacement, symmetric_backbone.load)
    with pytest.raises(ValueError, match="another backbone geometry"):
        simulate(other, params, history)


def run_facts_history(rng, g, kind):
    if kind == 0:  # walk with repeated samples and signed zeros
        hist = np.round(np.cumsum(rng.choice([-1.0, 0.0, 1.0], 60) * rng.uniform(0, 1, 60)), 1)
        hist[rng.random(60) < 0.1] = -0.0
        return hist
    if kind == 1:  # knots, yield points and signed zeros, with repeats
        pool = [*g.displacement, 0.0, -0.0, 0.5 * g.dy_pos, 0.5 * g.dy_neg]
        return rng.choice(pool, int(rng.integers(1, 50)))
    if kind == 2:  # inside the yield displacements: no run past the prefix
        return rng.uniform(g.dy_neg, g.dy_pos, int(rng.integers(1, 30)))
    # monotone ramp, from the origin or from beyond a yield displacement
    start = rng.choice([0.0, rng.uniform(1.0, 2.0) * g.dy_pos])
    return np.linspace(start, rng.uniform(-6.0, 6.0), int(rng.integers(2, 40)))


def test_history_runs_hold_the_samples_past_the_prefix(symmetric_backbone):
    rng = np.random.default_rng(38)
    no_runs = 0
    for trial in range(500):
        g = symmetric_backbone if trial % 2 else random_backbone(rng)
        history = History(g, run_facts_history(rng, g, trial // 2 % 4))
        xs, n0 = history.xs, history.n0
        steps = xs - np.concatenate(([0.0], xs[:-1]))
        ends = np.append(sign_flips(steps), xs.shape[0])
        ends = ends[ends > n0]
        assert [s for _, _, s, _, _ in history.runs] == np.sign(steps[ends - 1]).tolist()
        samples = []
        start = 0
        for (a, b, s, d_end, f_end), end in zip(history.runs, ends.tolist()):
            assert start == a < b == end - n0
            keys = history.keys[a:b].tolist()
            assert keys == sorted(keys)
            run = np.array(keys) if s > 0 else np.negative(keys)
            samples.append(run)
            # tobytes also tells 0.0 from -0.0
            assert np.float64(d_end).tobytes() == xs[end - 1].tobytes() == run[-1].tobytes()
            assert np.float64(f_end).tobytes() == history.envelope[end - 1].tobytes()
            start = b
        assert start == len(history.keys)
        tail = np.concatenate([np.empty(0), *samples])
        assert tail.tobytes() == xs[n0:].tobytes()
        no_runs += n0 == xs.shape[0]
    assert no_runs > 60  # the inside-only histories have no runs


def test_params_at_bounds_run(symmetric_backbone):
    hist = triangle_protocol([2.5, -2.5, 2.5], pts=50)
    for params in (
        PivotParams(1, 1, 0, 0, 0),
        PivotParams(100, 100, 1, 1, 1000),
        PivotParams(1, 100, 0, 1, 1000),
    ):
        loads = simulate(symmetric_backbone, params, hist)
        assert np.isfinite(loads).all()


def test_simulate_matches_oracle_at_every_bound_corner():
    # the benchmark's backbone and protocol shape: yield at +-0.4, two
    # cycles at each amplitude, the first two below yield
    g = IdealizedBackbone(
        [-1.6, -1.0, -0.4, 0.0, 0.4, 1.0, 1.6], [-41.0, -50.0, -35.0, 0.0, 40.0, 56.0, 47.0]
    )
    peaks = []
    for amplitude in (0.15, 0.25, 0.4, 0.55, 0.75, 1.0, 1.3, 1.6):
        peaks += [amplitude, -amplitude] * 2
    hist = triangle_protocol([*peaks, 0.0], pts=12)
    doubled = np.repeat(hist, 2)  # every sample repeated: the fill path
    assert History(g, doubled).fill is not None
    lo, hi = ParamBounds().lower(), ParamBounds().upper()
    corners = list(itertools.product(*zip(lo.tolist(), hi.tolist())))
    assert len(corners) == 32
    for corner in corners:
        params = PivotParams(*corner)
        for h in (hist, -hist, doubled):
            # tobytes also tells 0.0 from -0.0
            expected = step_simulate_oracle(g, params, h).tobytes()
            assert simulate(g, params, h).tobytes() == expected, corner
