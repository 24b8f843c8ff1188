import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotfit import (
    SegmentError,
    SignalPair,
    detect_reversals,
    irregular_resample,
    regular_reduce,
)


from oracles import detect_reversals_oracle, resample_oracle


# -- regular reduction ----------------------------------------------------

def test_reduce_ten_by_two_keeps_five():
    pair = SignalPair(np.arange(10.0), np.arange(10.0) * 2)
    assert len(regular_reduce(pair, 2)) == 5


def test_reduce_stride_one_is_identity():
    pair = SignalPair(np.linspace(0, 1, 17), np.sin(np.linspace(0, 1, 17)))
    out = regular_reduce(pair, 1)
    np.testing.assert_array_equal(out.displacement, pair.displacement)
    np.testing.assert_array_equal(out.load, pair.load)


def test_reduce_seven_by_three_keeps_first_fourth_seventh():
    pair = SignalPair(np.arange(1.0, 8.0), np.arange(1.0, 8.0) * 10)
    out = regular_reduce(pair, 3)
    np.testing.assert_array_equal(out.displacement, [1, 4, 7])
    np.testing.assert_array_equal(out.load, [10, 40, 70])


def test_reduce_rejects_bad_stride():
    pair = SignalPair([0, 1], [0, 1])
    with pytest.raises(ValueError):
        regular_reduce(pair, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=300), st.integers(min_value=1, max_value=300))
def test_reduce_length_is_ceil(n, m):
    pair = SignalPair(np.arange(float(n)), np.arange(float(n)))
    assert len(regular_reduce(pair, m)) == math.ceil(n / m)


# -- reversal detection ---------------------------------------------------

def test_reversals_single_triangle():
    np.testing.assert_array_equal(detect_reversals([0, 1, 2, 1, 0]), [3, 5])


def test_reversals_monotonic_ramp():
    np.testing.assert_array_equal(detect_reversals([0, 1, 2, 3]), [4])


def test_reversals_double_triangle():
    # sign changes of first differences by hand: diffs +,-,+,- flip at
    # samples 2, 3 and 4; final index appended
    np.testing.assert_array_equal(detect_reversals([0, 2, 0, 2, 0]), [2, 3, 4, 5])


def test_reversals_constant_array():
    np.testing.assert_array_equal(detect_reversals([5, 5, 5]), [3])


def test_reversals_plateau_at_peak():
    np.testing.assert_array_equal(detect_reversals([0, 1, 1, 0]), [3, 4])


def test_reversals_too_short():
    with pytest.raises(ValueError):
        detect_reversals([1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 2, 4])
def test_reversals_reject_non_finite(bad, index):
    # without the check a NaN counts as a falling step and an infinity
    # as a peak: [0, 1, nan, 2, 3] gave [2, 4, 5] instead of [4]
    values = [0.0, 1.0, 2.0, 3.0, 4.0]
    values[index] = bad
    with pytest.raises(ValueError, match=rf"values\[{index}\] is {bad}"):
        detect_reversals(values)


def test_reversals_match_loop_oracle():
    rng = np.random.default_rng(17)
    histories = [
        np.zeros(2),
        np.array([0.0, -0.0]),
        np.array([-0.0, 0.0, -0.0, 1.0]),
        np.array([1.0, 2.0]),
        np.array([2.0, 1.0]),
        np.full(9, 3.5),
    ]
    for _ in range(300):
        n = int(rng.integers(2, 60))
        steps = rng.choice([-1.0, 0.0, 1.0], size=n - 1, p=[0.4, 0.2, 0.4])
        walk = np.concatenate(([0.0], np.cumsum(steps * rng.uniform(0.1, 2, n - 1))))
        walk[rng.random(n) < 0.1] = -0.0  # signed zeros, mostly on new levels
        histories.append(walk)
    for values in histories:
        found = detect_reversals(values)
        expected = detect_reversals_oracle(values)
        assert found.dtype == expected.dtype
        np.testing.assert_array_equal(found, expected)


# -- irregular resampling ---------------------------------------------------

def test_resample_hand_example():
    # one rising segment, scale 20: queries 1..5 on the scaled grid
    pair = SignalPair([0.0, 0.25], [0.0, 10.0])
    out = irregular_resample(pair, 20, detect_reversals(pair.displacement))
    np.testing.assert_allclose(out.displacement, [0.05, 0.1, 0.15, 0.2, 0.25])
    np.testing.assert_allclose(out.load, [2.0, 4.0, 6.0, 8.0, 10.0])


def test_resample_on_grid_identity():
    # displacement already on the 1/scale grid: interpolation at knots
    scale = 20
    disp = np.arange(1, 11) / scale
    load = np.linspace(3.0, 7.5, 10)
    pair = SignalPair(disp, load)
    out = irregular_resample(pair, scale, detect_reversals(disp))
    np.testing.assert_allclose(out.displacement, disp[1:], rtol=0, atol=0)
    np.testing.assert_allclose(out.load, load[1:], rtol=1e-12)


def test_resample_triangle_both_directions():
    scale = 100
    up = np.linspace(0, 1, 37)
    down = np.linspace(1, 0, 29)[1:]
    disp = np.concatenate([up, down])
    load = 5.0 * disp + 0.3
    pair = SignalPair(disp, load)
    changes = detect_reversals(disp)
    out = irregular_resample(pair, scale, changes)
    assert len(out) == 200  # 100 ascending + 100 descending grid points
    diffs = np.diff(out.displacement)
    assert np.all(diffs[:99] > 0) and np.all(diffs[100:] < 0)
    # piecewise-linear on both segments, matching the hand oracle
    od, ol = resample_oracle(disp.tolist(), load.tolist(), scale, changes.tolist())
    np.testing.assert_allclose(out.displacement, od, rtol=1e-12)
    np.testing.assert_allclose(out.load, ol, rtol=1e-12)
    # knots that fall exactly on the grid are reproduced exactly
    assert out.displacement[99] == 1.0
    assert out.load[99] == pytest.approx(5.3, rel=1e-12)


def test_resample_matches_oracle_random():
    rng = np.random.default_rng(3)
    for trial in range(50):
        scale = int(rng.choice([11, 20, 100]))
        peaks = rng.uniform(0.5, 2.0, size=rng.integers(2, 5))
        peaks[1::2] *= -1
        segs = [np.linspace(0, peaks[0], int(rng.integers(8, 40)))]
        for a, b in zip(peaks[:-1], peaks[1:]):
            segs.append(np.linspace(a, b, int(rng.integers(8, 40)))[1:])
        disp = np.concatenate(segs)
        load = np.tanh(disp) * 10 + rng.normal(0, 0.05, disp.shape)
        pair = SignalPair(disp, load)
        changes = detect_reversals(disp)
        out = irregular_resample(pair, scale, changes)
        od, ol = resample_oracle(disp.tolist(), load.tolist(), scale, changes.tolist())
        np.testing.assert_allclose(out.displacement, od, rtol=1e-12)
        np.testing.assert_allclose(out.load, ol, rtol=1e-12, atol=1e-12)


def test_resample_grid_uniform_within_segments():
    rng = np.random.default_rng(4)
    scale = 11
    disp = np.concatenate([np.linspace(0, 1.7, 40), np.linspace(1.7, -1.1, 50)[1:]])
    load = 4 * disp + rng.normal(0, 0.1, disp.shape)
    out = irregular_resample(SignalPair(disp, load), scale, detect_reversals(disp))
    # exact on the integer grid
    k = np.rint(out.displacement * scale)
    np.testing.assert_allclose(out.displacement * scale, k, rtol=0, atol=1e-9)
    dk = np.diff(k)
    assert set(np.abs(dk[dk != 0])) <= {1.0} or np.all(np.abs(dk) <= 2)


def test_resample_idempotent():
    scale = 49
    disp = np.concatenate([np.linspace(0, 1.3, 60), np.linspace(1.3, -0.9, 70)[1:]])
    load = np.sin(disp) * 9
    first = irregular_resample(SignalPair(disp, load), scale, detect_reversals(disp))
    second = irregular_resample(first, scale, detect_reversals(first.displacement))
    np.testing.assert_array_equal(second.displacement, first.displacement[1:])
    np.testing.assert_allclose(second.load, first.load[1:], rtol=1e-12)


def test_resample_no_load_overshoot():
    # linear interpolation never exceeds its bracketing input samples
    rng = np.random.default_rng(9)
    disp = np.concatenate([np.linspace(0, 2, 25), np.linspace(2, -2, 45)[1:]])
    load = rng.normal(0, 5, disp.shape)
    pair = SignalPair(disp, load)
    out = irregular_resample(pair, 20, detect_reversals(disp))
    assert out.load.max() <= load.max() + 1e-12
    assert out.load.min() >= load.min() - 1e-12


def test_resample_rejects_small_scale():
    pair = SignalPair([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="> 10"):
        irregular_resample(pair, 10, detect_reversals(pair.displacement))


def test_resample_rejects_bad_change_indices():
    pair = SignalPair([0.0, 0.5, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="end at 3"):
        irregular_resample(pair, 20, np.array([2]))
    with pytest.raises(ValueError, match="non-empty 1-d array"):
        irregular_resample(pair, 20, [])


def test_resample_reports_non_monotonic_segment():
    # change indices that claim a monotonic span over a reversal
    disp = np.array([1.0, 0.5, 1.2, 1.4])
    load = np.arange(4.0)
    with pytest.raises(SegmentError, match="segment 1"):
        irregular_resample(SignalPair(disp, load), 100, np.array([3, 4]))
    # a falling segment with a rise in it
    falling = SignalPair([0.0, -0.2, -0.1, -0.3], load)
    with pytest.raises(SegmentError, match="not strictly decreasing after flooring"):
        irregular_resample(falling, 20, [4])
    # a floored value that dips and recovers inside a rising or a falling
    # segment: keeping each value's first sample would hide the dip
    dips = SignalPair([0.25, 0.30, 0.25, 0.35], load)
    with pytest.raises(SegmentError, match="not strictly increasing after flooring"):
        irregular_resample(dips, 20, [4])
    bumps = SignalPair([0.35, 0.30, 0.35, 0.25], load)
    with pytest.raises(SegmentError, match="not strictly decreasing after flooring"):
        irregular_resample(bumps, 20, [4])


def test_resample_sub_cell_wiggle_is_skipped():
    # a reversal inside one grid cell contributes no points and the
    # following segment still resamples cleanly
    disp = np.array([0.0, 1.0, 1.009, 1.001, 1.4])
    load = np.array([0.0, 10.0, 10.1, 10.0, 14.0])
    out = irregular_resample(
        SignalPair(disp, load), 100, detect_reversals(disp)
    )
    k = np.rint(out.displacement * 100)
    assert k[0] == 1.0 and k[-1] == 140.0
    assert np.all(np.diff(k) == 1.0)


def test_resample_empty_output_is_error():
    pair = SignalPair([0.0, 0.001, 0.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="empty"):
        irregular_resample(pair, 100, detect_reversals(pair.displacement))
    one_cell = SignalPair([0.0, 0.05], [0.0, 1.0])  # one sample on the scale-20 grid
    with pytest.raises(ValueError, match="fewer than 2 samples"):
        irregular_resample(one_cell, 20, [2])
