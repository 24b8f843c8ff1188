"""Acceptance suite: one test per release criterion.

Each test enforces its criterion at the stated tolerance and prints a
one-line PASS summary (visible with ``pytest -s``). Run with::

    pytest tests/test_acceptance.py -v -s
"""

import multiprocessing
import time
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from pivotfit import (
    GAConfig,
    ParamBounds,
    PivotParams,
    SignalPair,
    detect_reversals,
    deviation_score,
    extract_envelope,
    fit,
    History,
    idealize,
    irregular_resample,
    regular_reduce,
    simulate,
)
from pivotfit.pivot import PARAM_NAMES
from conftest import random_params
from oracles import (
    envelope_oracle,
    random_cyclic_record,
    resample_oracle,
    score_loop_oracle,
)


def report(n, text):
    print(f"\nACCEPTANCE {n:02d} PASS - {text}")


@pytest.fixture(scope="module")
def ga_run(round_trip_record):
    """Shared default-config GA run for criteria 9 and 10."""
    record, backbone, truth = round_trip_record
    start = time.perf_counter()
    best, history = fit(record, backbone, GAConfig())
    elapsed = time.perf_counter() - start
    return record, backbone, truth, best, history, elapsed


def test_c01_regular_reduction_cardinality():
    start = time.perf_counter()
    ten = SignalPair(np.arange(10.0), np.arange(10.0))
    assert len(regular_reduce(ten, 2)) == 5
    # the first, fourth and seventh samples, each kept whole
    seven = regular_reduce(SignalPair(np.arange(1.0, 8.0), np.arange(1.0, 8.0) * 10), 3)
    np.testing.assert_array_equal(seven.displacement, [1, 4, 7])
    np.testing.assert_array_equal(seven.load, [10, 40, 70])
    out = regular_reduce(ten, 1)
    np.testing.assert_array_equal(out.displacement, ten.displacement)
    np.testing.assert_array_equal(out.load, ten.load)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"reduction cardinalities exact ({elapsed:.3f}s)")


def test_c02_irregular_resampling_grid_uniformity():
    """100 randomized multi-cycle triangle/sine protocols at scales
    11/20/100: within-segment steps exactly one cell on the integer
    grid (float quotients agree with 1/scale to machine precision) and
    loads match the hand-rolled interpolation oracle to 1e-12, relative
    and absolute."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    scales = [11, 20, 100]
    for case in range(100):
        scale = scales[case % 3]
        n_cycles = int(rng.integers(2, 5))
        peaks = []
        for c in range(n_cycles):
            peaks.append(rng.uniform(0.4, 2.5))
            peaks.append(-rng.uniform(0.4, 2.5))
        segs = [np.linspace(0, peaks[0], int(rng.integers(10, 40)))]
        for a, b in zip(peaks[:-1], peaks[1:]):
            n = int(rng.integers(10, 40))
            if case % 2:  # sine-shaped leg
                t = (1 - np.cos(np.linspace(0, np.pi, n)))[1:] / 2
            else:  # triangle leg
                t = np.linspace(0, 1, n)[1:]
            segs.append(a + (b - a) * t)
        disp = np.concatenate(segs)
        load = 12 * np.tanh(disp) + rng.normal(0, 0.05, disp.shape)
        pair = SignalPair(disp, load)
        changes = detect_reversals(disp)
        out = irregular_resample(pair, scale, changes)

        k = out.displacement * scale
        k_int = np.rint(k)
        assert np.abs(k - k_int).max() <= 1e-9  # exactly on the grid
        # within segments every step is one grid cell; only the segment
        # joins may differ
        interior = np.abs(np.diff(k_int)) == 1.0
        assert interior.sum() >= len(k_int) - 2 - len(changes)
        dd = np.diff(out.displacement)[interior]
        np.testing.assert_allclose(np.abs(dd), 1.0 / scale, rtol=1e-9)

        od, ol = resample_oracle(disp.tolist(), load.tolist(), scale, changes.tolist())
        np.testing.assert_allclose(out.displacement, od, rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.load, ol, rtol=1e-12, atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"grid uniform and oracle-matched on 100 protocols ({elapsed:.2f}s)")


def test_c03_envelope_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        disp, load = random_cyclic_record(rng)
        env = extract_envelope(SignalPair(disp, load))
        expected = np.array(envelope_oracle(disp.tolist(), load.tolist())).T
        # byte for byte, so signed zeros count
        assert env.displacement.tobytes() == expected[0].tobytes()
        assert env.load.tobytes() == expected[1].tobytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"1000 envelopes match the brute-force oracle exactly ({elapsed:.2f}s)")


def test_c04_idealization_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 200:
        disp, load = random_cyclic_record(rng, n_cycles=4)
        env = extract_envelope(SignalPair(disp, load))
        if np.sum(env.displacement < 0) < 3 or np.sum(env.displacement > 0) < 3:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ib = idealize(env)
            mirrored = idealize(extract_envelope(SignalPair(-disp, -load)))
        d, f = ib.displacement, ib.load
        assert d.shape == (7,) and f.shape == (7,)
        assert np.all(np.diff(d) >= 0)
        assert d[3] == 0.0 and f[3] == 0.0
        assert f[5] == env.load.max() and f[1] == env.load.min()
        assert d[6] == env.displacement.max() and d[0] == env.displacement.min()
        # first threshold crossings, each among its own side's points
        thresh_pos = 0.65 * env.load.max()
        firsts = [
            i
            for i in range(len(env))
            if env.load[i] > thresh_pos and env.displacement[i] > 0
        ]
        assert (env.displacement[firsts[0]], env.load[firsts[0]]) == (d[4], f[4])
        thresh_neg = 0.65 * env.load.min()
        firsts = [
            i
            for i in range(len(env) - 1, -1, -1)
            if env.load[i] < thresh_neg and env.displacement[i] < 0
        ]
        assert (env.displacement[firsts[0]], env.load[firsts[0]]) == (d[2], f[2])
        # antisymmetry: negation maps point k to point 8-k negated
        np.testing.assert_array_equal(mirrored.displacement, -d[::-1])
        np.testing.assert_array_equal(mirrored.load, -f[::-1])
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(4, f"idealization contract exact on {checked} envelopes ({elapsed:.2f}s)")


def test_c05_backbone_reproduction(symmetric_backbone, asymmetric_backbone):
    start = time.perf_counter()
    for bb in (symmetric_backbone, asymmetric_backbone):
        params = PivotParams(10, 10, 0.5, 0.5, 100)
        knots_d = bb.displacement
        knots_f = bb.load
        pos = knots_d[knots_d >= 0]
        ramp = np.unique(np.concatenate([pos, np.linspace(0, knots_d[-1], 257)]))
        loads = simulate(bb, params, ramp)
        expected = np.interp(ramp, knots_d, knots_f)
        at_knots = np.isin(ramp, pos)
        assert np.abs(loads[at_knots] - expected[at_knots]).max() == 0.0
        assert np.abs(loads - expected).max() <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(5, f"virgin loading reproduces the backbone exactly ({elapsed:.3f}s)")


def elastic_loop_energy(d, f):
    """Integral of f dd along the sampled path, splitting steps that
    cross zero displacement at the origin where the sub-yield response
    passes exactly (the elastic lines kink there for asymmetric K)."""
    total = 0.0
    for i in range(len(d) - 1):
        d0, d1 = d[i], d[i + 1]
        f0, f1 = f[i], f[i + 1]
        if d0 < 0.0 < d1 or d1 < 0.0 < d0:
            total += 0.5 * f0 * (0.0 - d0) + 0.5 * f1 * (d1 - 0.0)
        else:
            total += 0.5 * (f0 + f1) * (d1 - d0)
    return total


def test_c06_elastic_closure(symmetric_backbone, asymmetric_backbone):
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    for g in (symmetric_backbone, asymmetric_backbone):
        for _ in range(100):
            params = random_params(rng)
            inner = rng.uniform(0.98 * g.dy_neg, 0.98 * g.dy_pos, 16)
            hist = np.concatenate([[0.0], inner, [0.0]])
            loads = simulate(g, params, hist)
            # on each side's elastic line, back exactly to zero load
            expected = np.where(hist >= 0, g.k_pos * hist, g.k_neg * hist)
            np.testing.assert_allclose(loads, expected, rtol=0, atol=1e-12)
            assert loads[-1] == 0.0
            loop_energy = abs(elastic_loop_energy(hist, loads))
            peak_elastic = 0.5 * max(
                g.k_pos * hist.max() ** 2, g.k_neg * hist.min() ** 2
            )
            assert loop_energy <= 1e-9 * peak_elastic
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(6, f"sub-yield loops stay elastic and dissipate zero energy ({elapsed:.2f}s)")


def test_c07_envelope_bound_invariant(symmetric_backbone, asymmetric_backbone):
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    backbones = (symmetric_backbone, asymmetric_backbone)
    params_pool = [random_params(rng) for _ in range(100)]
    count = 0
    for h in range(1000):
        bb = backbones[h % 2]
        f_lo, f_hi = min(bb.load), max(bb.load)
        hist = History(bb, np.clip(np.cumsum(rng.normal(0, 0.5, 36)), -5.2, 6.2))
        for params in params_pool:
            loads = simulate(bb, params, hist)
            assert loads.max() <= f_hi + 1e-9 * abs(f_hi)
            assert loads.min() >= f_lo - 1e-9 * abs(f_lo)
            count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"{count} simulations stayed within the backbone bounds ({elapsed:.1f}s)")


def test_c08_deviation_score_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(1, 400))
        a = rng.normal(0, rng.uniform(0.1, 50), n)
        b = rng.normal(0, rng.uniform(0.1, 50), n)
        assert deviation_score(a, b) == score_loop_oracle(a.tolist(), b.tolist())
    a = rng.normal(size=100)
    assert deviation_score(a, a.copy()) == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(8, f"deviation score bit-matches the loop oracle ({elapsed:.2f}s)")


def test_c09_round_trip_identification(ga_run):
    record, backbone, truth, best, history, elapsed = ga_run
    assert len(record) > 400  # matches the reported record scale
    sum_sq = float(np.sum(record.load**2))
    final = history.best_score[-1]
    assert final <= 1e-3 * sum_sq
    response = simulate(backbone, best, record.displacement)
    peak = np.abs(record.load).max()
    max_err = np.abs(response - record.load).max()
    assert max_err <= 0.02 * peak
    assert elapsed < 600.0
    report(
        9,
        f"round trip: score {final:.4g} <= {1e-3 * sum_sq:.4g}, "
        f"max error {max_err:.4g} <= {0.02 * peak:.4g} ({elapsed:.1f}s)",
    )


def test_c10_ga_determinism_and_monotonicity(ga_run, round_trip_record):
    record, backbone, _, _, history, _ = ga_run
    start = time.perf_counter()
    best = np.array(history.best_score)
    assert np.all(np.diff(best) <= 0)

    # byte-identical history across reruns and worker counts
    cfg1 = GAConfig(population_size=16, max_generations=8, rng_seed=123, workers=1)
    cfg2 = GAConfig(population_size=16, max_generations=8, rng_seed=123, workers=2)
    runs = [fit(record, backbone, cfg)[1] for cfg in (cfg1, cfg1, cfg2)]
    assert multiprocessing.active_children() == []  # the 2-worker fit left none
    rows = [["%r" % (h.row(g),) for g in range(1, len(h) + 1)] for h in runs]
    assert rows[0] == rows[1] == rows[2]
    elapsed = time.perf_counter() - start
    report(
        10,
        f"history monotone; rerun and 2-worker runs byte-identical ({elapsed:.1f}s)",
    )


def test_c11_one_parameter_grid_search_equivalence(round_trip_record):
    record, backbone, truth = round_trip_record
    defaults = ParamBounds()
    tv = np.array(astuple(truth))
    history = History(backbone, record.displacement)
    for i, name in enumerate(PARAM_NAMES):
        start = time.perf_counter()
        lo, hi = getattr(defaults, name)
        span = hi - lo
        best_grid, best_score = None, np.inf
        for k in range(1001):  # resolution 1e-3 of the range
            v = lo + k * span * 1e-3
            arr = tv.copy()
            arr[i] = v
            response = simulate(backbone, PivotParams(*arr.tolist()), history)
            s = deviation_score(response, record.load)
            if s < best_score:
                best_score, best_grid = s, v
        fixed = {other: (tv[j], tv[j]) for j, other in enumerate(PARAM_NAMES) if j != i}
        bounds = ParamBounds(**fixed)
        ga_best, _ = fit(record, backbone, GAConfig(rng_seed=7, bounds=bounds))
        ga_value = getattr(ga_best, name)
        elapsed = time.perf_counter() - start
        assert abs(ga_value - best_grid) <= 0.02 * span
        assert elapsed < 300.0
        report(
            11,
            f"{name}: GA {ga_value:.5g} vs grid {best_grid:.5g} "
            f"within 2% of range ({elapsed:.1f}s)",
        )
