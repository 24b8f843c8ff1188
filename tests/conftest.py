import numpy as np
import pytest

from pivotfit import IdealizedBackbone, PivotParams, SignalPair, simulate


@pytest.fixture
def symmetric_backbone():
    return IdealizedBackbone(
        [-3, -2, -1, 0, 1, 2, 3], [-12, -15, -10, 0, 10, 15, 12]
    )


@pytest.fixture
def asymmetric_backbone():
    return IdealizedBackbone(
        [-4, -2.5, -0.8, 0, 1.2, 2.6, 5], [-9, -13, -8.5, 0, 11, 17, 10]
    )


def triangle_protocol(peaks, pts=80):
    """Piecewise-linear displacement history 0 -> peaks[0] -> peaks[1] ..."""
    segs = [np.linspace(0.0, peaks[0], pts)]
    cur = peaks[0]
    for nxt in peaks[1:]:
        segs.append(np.linspace(cur, nxt, pts)[1:])
        cur = nxt
    return np.concatenate(segs)


def random_params(rng):
    """Pivot parameters drawn uniformly over their default search box."""
    return PivotParams(
        rng.uniform(1, 100),
        rng.uniform(1, 100),
        rng.uniform(0, 1),
        rng.uniform(0, 1),
        rng.uniform(0, 1000),
    )


def uniform_grid_protocol(peaks, step):
    """Triangle protocol sampled with exactly uniform |increments|."""
    segs = [np.arange(0.0, peaks[0], step)]
    cur = peaks[0]
    for nxt in peaks[1:]:
        s = step if nxt > cur else -step
        segs.append(np.arange(cur, nxt, s))
        cur = nxt
    segs.append([cur])
    return np.concatenate(segs)


def first_failing_candidate(backbone, displacement, bounds, seed, population):
    """Index and parameters of the first genome of the GA's first
    generation, in population order, that the engine cannot run: its
    simulation raises ZeroDivisionError or its response holds a NaN.
    Drawn as ``fit`` draws it: uniformly within the bounds. None if every
    genome runs."""
    lo, hi = bounds.lower(), bounds.upper()
    genes = lo + np.random.default_rng(seed).random((population, lo.shape[0])) * (hi - lo)
    for i, row in enumerate(genes.tolist()):
        params = PivotParams(*row)
        try:
            response = simulate(backbone, params, displacement)
        except ZeroDivisionError:
            return i, params
        if np.isnan(response).any():
            return i, params
    return None


ROUND_TRIP_TRUTH = PivotParams(12.0, 9.0, 0.7, 0.55, 60.0)


@pytest.fixture(scope="session")
def round_trip_record():
    """Synthetic record generated by the engine from known parameters on
    a 3-amplitude cyclic protocol (~500 points, uniform grid)."""
    backbone = IdealizedBackbone(
        [-3, -2, -1, 0, 1, 2, 3], [-12, -15, -10, 0, 10, 15, 12]
    )
    hist = uniform_grid_protocol([1.5, -1.5, 2.0, -2.0, 2.6, -2.6, 0.0], step=0.05)
    loads = simulate(backbone, ROUND_TRIP_TRUTH, hist)
    return SignalPair(hist, loads), backbone, ROUND_TRIP_TRUTH
