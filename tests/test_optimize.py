import itertools
import multiprocessing
import os
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotfit import (
    FitError,
    GAConfig,
    History,
    IdealizedBackbone,
    ParamBounds,
    PivotParams,
    SignalPair,
    deviation_score,
    fit,
    simulate,
)
from pivotfit import optimize
from pivotfit.optimize import _breed, _score_population
from conftest import ROUND_TRIP_TRUTH, first_failing_candidate, uniform_grid_protocol
from oracles import breed_loop_oracle, score_loop_oracle as loop_oracle


def test_score_identical_is_zero():
    a = np.linspace(-3, 7, 50)
    assert deviation_score(a, a.copy()) == 0.0
    assert deviation_score([], []) == 0.0


def test_score_hand_value():
    assert deviation_score([1.0, 2.0], [0.0, 0.0]) == 5.0


def test_score_symmetry():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=30), rng.normal(size=30)
    assert deviation_score(a, b) == deviation_score(b, a)


def test_score_length_mismatch():
    with pytest.raises(ValueError):
        deviation_score([1.0, 2.0], [1.0, 2.0, 3.0])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
def test_score_matches_loop_oracle_exactly(values):
    rng = np.random.default_rng(len(values))
    a = np.asarray(values)
    b = rng.normal(0, 10, a.shape)
    assert deviation_score(a, b) == loop_oracle(a.tolist(), b.tolist())


@pytest.mark.parametrize(
    "pop, elite, tournament, cx, mut, blend",
    [
        (50, 2, 3, 0.9, 0.1, 0.5),  # the fixed settings
        (3, 2, 3, 0.9, 0.1, 0.5),  # the smallest population they admit
        (50, 0, 3, 0.9, 0.1, 0.3),
        (50, 49, 3, 0.9, 0.1, 0.3),
        (12, 2, 1, 0.9, 0.1, 0.0),
        (5, 1, 9, 0.5, 0.5, 0.3),  # tournaments larger than the population
        (1, 0, 2, 1.0, 1.0, 0.3),
        (8, 3, 2, 0.0, 0.0, 0.3),
    ],
)
def test_breed_matches_loop_oracle(monkeypatch, pop, elite, tournament, cx, mut, blend):
    # The operator settings are module constants; other values are patched
    # in so the one-pass breed is checked at their edges too.
    for name, value in [
        ("ELITE_COUNT", elite),
        ("TOURNAMENT_SIZE", tournament),
        ("CROSSOVER_PROBABILITY", cx),
        ("MUTATION_PROBABILITY", mut),
        ("BLEND_ALPHA", blend),
    ]:
        monkeypatch.setattr(optimize, name, value)
    bounds = ParamBounds(beta2=(0.3, 0.3))  # one gene with an empty range
    lo, hi = bounds.lower(), bounds.upper()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        genes = lo + rng.random((pop, 5)) * (hi - lo)
        # tied, failed (inf) and NaN scores
        scores = np.round(rng.normal(size=pop), 1)
        scores[rng.random(pop) < 0.2] = np.inf
        scores[rng.random(pop) < 0.05] = np.nan
        bred, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _breed(bred, genes, scores, lo, hi)
        expected = breed_loop_oracle(
            looped, genes, scores, lo, hi, elite, tournament, cx, mut, blend,
            optimize.MUTATION_SCALE,
        )
        assert got.tobytes() == expected.tobytes()
        assert bred.random() == looped.random()  # the same draws were made


def test_score_self_consistency(round_trip_record):
    record, backbone, truth = round_trip_record
    score = deviation_score(simulate(backbone, truth, record.displacement), record.load)
    assert score <= 1e-9 * float(np.sum(record.load**2))


def test_score_zero_record(symmetric_backbone):
    record = SignalPair(np.zeros(10), np.zeros(10))
    params = PivotParams(5, 5, 0.5, 0.5, 10)
    response = simulate(symmetric_backbone, params, record.displacement)
    assert deviation_score(response, record.load) == 0.0


def test_perturbing_each_parameter_increases_score(round_trip_record):
    record, backbone, truth = round_trip_record
    base = deviation_score(simulate(backbone, truth, record.displacement), record.load)
    arr = np.array(astuple(truth))
    for i in range(5):
        for factor in (0.85, 1.15):
            p = arr.copy()
            p[i] *= factor
            response = simulate(backbone, PivotParams(*p.tolist()), record.displacement)
            assert deviation_score(response, record.load) > base


def test_score_population_matches_per_genome_scores(round_trip_record):
    # the contract a batched scorer must meet: each row's score equals
    # simulate + deviation_score on that row's parameters, to the bit
    record, backbone, truth = round_trip_record
    lo, hi = ParamBounds().lower(), ParamBounds().upper()
    rng = np.random.default_rng(7)
    random_rows = lo + rng.random((20, 5)) * (hi - lo)
    corners = np.array(list(itertools.product(*zip(lo, hi))))  # every lo/hi corner
    repeated = random_rows[[3, 3]]
    genes = np.vstack([random_rows, corners, repeated, astuple(truth)])
    history = History(backbone, record.displacement)
    got = _score_population(history, record.load, genes)
    expected = [
        deviation_score(
            simulate(backbone, PivotParams(*g.tolist()), record.displacement),
            record.load,
        )
        for g in genes
    ]
    assert got.shape == (len(genes),)
    for row, score in enumerate(expected):
        assert got[row].tobytes() == np.float64(score).tobytes(), row



def test_fit_calls_the_module_scorers_once_per_genome(round_trip_record, monkeypatch):
    # the contract the benchmark's tracer reads: a serial fit calls
    # optimize.simulate and optimize.deviation_score, looked up at call
    # time, once per genome, with positional arguments, a PivotParams and
    # the one History the fit prepared
    record, backbone, _ = round_trip_record
    simulated, responses, scored = [], [], []

    def counted_simulate(*args):
        simulated.append(args)
        responses.append(simulate(*args))
        return responses[-1]

    def counted_score(*args):
        scored.append(args)
        return deviation_score(*args)

    monkeypatch.setattr(optimize, "simulate", counted_simulate)
    monkeypatch.setattr(optimize, "deviation_score", counted_score)
    fit(record, backbone, GAConfig(population_size=6, max_generations=2, workers=1))
    assert len(simulated) == len(scored) == 12
    prepared = simulated[0][2]
    assert isinstance(prepared, History) and prepared.backbone is backbone
    assert len(prepared) == len(record.displacement)
    for (geometry, params, history), response, (resp, load) in zip(
        simulated, responses, scored
    ):
        assert geometry is backbone and history is prepared
        assert type(params) is PivotParams
        assert resp is response
        assert load is record.load

def test_config_validation():
    GAConfig()
    with pytest.raises(ValueError):
        GAConfig(population_size=0)
    with pytest.raises(ValueError, match="population_size must exceed the 2 elites"):
        GAConfig(population_size=2)
    with pytest.raises(ValueError):
        ParamBounds(alpha1=(0.5, 10))
    with pytest.raises(ValueError):
        ParamBounds(beta1=(0.8, 0.2))


@pytest.mark.parametrize(
    "name, value",
    [
        ("alpha1", (1,)),
        ("eta", 5.0),
        ("beta1", (0.0, 0.5, 1.0)),
        ("alpha1", (1, [2, 3])),
        ("alpha2", {1.0, 2.0}),
        ("beta2", {0: 0.1, 1: 0.2}),
    ],
    ids=["one_number", "bare_number", "three_numbers", "ragged", "unindexable", "mapping"],
)
def test_config_bounds_must_be_pairs(name, value):
    with pytest.raises(ValueError, match=rf"{name} bounds must be a \(lo, hi\) pair"):
        ParamBounds(**{name: value})


@pytest.mark.parametrize(
    "name, value",
    [
        ("population_size", 6.0),
        ("max_generations", 2.5),
        ("workers", 1.5),
        ("workers", True),
    ],
)
def test_config_integer_settings_must_be_integers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        GAConfig(**{name: value})


@pytest.mark.parametrize(
    "eta",
    [(0.0, 1.7e308), (8e307, 1.7e308)],
    ids=["width_overflows", "blend_sum_overflows"],
)
def test_bounds_whose_blend_crossover_overflows_are_rejected(eta):
    with pytest.raises(ValueError, match="the range of eta is too wide"):
        ParamBounds(eta=eta)


def test_wide_admitted_bounds_breed_without_overflow():
    bounds = ParamBounds(eta=(0.0, 4e307))  # the box of the underflow fit below
    lo, hi = bounds.lower(), bounds.upper()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        genes = lo + rng.random((50, 5)) * (hi - lo)
        with np.errstate(over="raise"):
            _breed(rng, genes, rng.random(50), lo, hi)


def small_fit(record, backbone, **kwargs):
    defaults = dict(population_size=20, max_generations=25, rng_seed=3)
    defaults.update(kwargs)
    return fit(record, backbone, GAConfig(**defaults))


def test_workers_capped_at_population_size(round_trip_record, monkeypatch):
    record, backbone, _ = round_trip_record
    children = []

    def count_children(generation, history):
        children.append(len(multiprocessing.active_children()))

    def ga(workers):
        config = GAConfig(population_size=4, max_generations=5, rng_seed=3, workers=workers)
        return fit(record, backbone, config, on_generation=count_children)

    best1, h1 = ga(1)
    assert children == [0] * len(h1)  # a serial fit starts no process
    main_slices = []
    score = optimize._score_population

    def score_one_genome(history, load, genes):
        # raised in a child, the error comes back and is raised by fit
        if len(genes) != 1:
            raise AssertionError(f"a slice of {len(genes)} genomes")
        main_slices.append(len(genes))  # appended to in the main process only
        return score(history, load, genes)

    monkeypatch.setattr(optimize, "_score_population", score_one_genome)
    children.clear()
    best2, h2 = ga(64)
    assert children == [3] * len(h2)  # with the main process, one process per genome
    assert main_slices == [1] * len(h2)  # no slice is empty
    assert multiprocessing.active_children() == []
    assert best1 == best2
    np.testing.assert_array_equal(h1.best_score, h2.best_score)
    np.testing.assert_array_equal(h1.mean_score, h2.mean_score)
    np.testing.assert_array_equal(np.vstack(h1.best_params), np.vstack(h2.best_params))


@contextmanager
def deadline(seconds):
    """Fail the test instead of hanging past ``seconds``. pytest's
    failure is not an Exception, so no ``except OSError`` around a pipe
    read or a process wait swallows it."""

    def expire(signum, frame):
        pytest.fail(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def default_start_method(method):
    """Set the process default start method to ``method`` (None leaves
    it as it is) and restore the previous one after."""
    previous = multiprocessing.get_start_method(allow_none=True)
    if method is not None:
        multiprocessing.set_start_method(method, force=True)
    try:
        yield
    finally:
        multiprocessing.set_start_method(previous, force=True)


@pytest.mark.parametrize(
    "workers, start_method",
    [
        pytest.param(workers, method, id=f"{workers}-{method}" if method else f"{workers}")
        for method in (None, "spawn", "forkserver")
        for workers in (2, 3)
    ],
)
def test_a_child_that_dies_stops_the_fit_by_name(
    round_trip_record, monkeypatch, workers, start_method
):
    # the patch reaches a child only if the child is forked
    if start_method is not None and sys.platform != "linux":
        pytest.skip("off Linux a fit keeps the platform's start method")
    record, backbone, _ = round_trip_record
    main_pid = os.getpid()
    score = optimize._score_population

    def die_in_a_child(history, load, genes):
        if os.getpid() != main_pid:
            os._exit(7)
        return score(history, load, genes)

    monkeypatch.setattr(optimize, "_score_population", die_in_a_child)
    with (
        default_start_method(start_method),
        deadline(20),
        pytest.raises(RuntimeError, match="^GA worker 1 exited with code 7$"),
    ):
        small_fit(record, backbone, workers=workers)
    assert multiprocessing.active_children() == []


def test_best_params_respect_bounds(round_trip_record):
    record, backbone, _ = round_trip_record
    bounds = ParamBounds(alpha1=(2.0, 20.0), eta=(0.0, 100.0))
    best, history = small_fit(record, backbone, bounds=bounds)
    lo, hi = bounds.lower(), bounds.upper()
    for params in history.best_params:
        assert np.all(params >= lo) and np.all(params <= hi)


def test_stall_stops_early(round_trip_record):
    record, backbone, _ = round_trip_record
    _, history = small_fit(record, backbone, max_generations=2000)
    assert len(history) < 2000


@pytest.mark.parametrize(
    "displacement, load, message",
    [
        (
            np.linspace(0, 2, 10),
            np.zeros(9),
            "length mismatch: displacement has 10 samples, load has 9",
        ),
        (
            np.linspace(0, 2, 10),
            np.where(np.arange(10) == 3, np.nan, 0.0),
            "non-finite load value at index 3",
        ),
        (
            np.array([0.0, np.nan, 1.0]),
            np.array([0.0, 1.0, 2.0]),
            "non-finite displacement value at index 1",
        ),
    ],
    ids=["length_mismatch", "non_finite_load", "non_finite_displacement"],
)
def test_fit_names_a_record_it_cannot_score(displacement, load, message):
    # such a record never reaches fit: its pair is refused when it is built
    with pytest.raises(ValueError, match=message):
        SignalPair(displacement, load)


@pytest.fixture(scope="module")
def underflow_record():
    """A backbone whose elastic slope is 1e-18: the hardening shape keeps
    the secant above it, so on this history a degraded slope k / shrink
    underflows to 0 for every eta of about 2.7e307 or more."""
    backbone = IdealizedBackbone(
        np.arange(-3.0, 4.0), np.array([-4, -3, -1, 0, 1, 3, 4]) * 1e-18
    )
    hist = uniform_grid_protocol([1.5, -1.5, 2.0, -2.0, 2.5, 0.0], step=0.1)
    loads = simulate(backbone, PivotParams(5.0, 5.0, 0.5, 0.5, 10.0), hist)
    return SignalPair(hist, loads), backbone


def test_an_interrupt_while_children_score_terminates_them(round_trip_record, monkeypatch):
    record, backbone, _ = round_trip_record
    main_pid = os.getpid()

    def interrupt_while_children_sleep(history, load, genes):
        if os.getpid() != main_pid:
            time.sleep(60)  # busy: a sentinel would not stop it in time
        raise KeyboardInterrupt

    monkeypatch.setattr(optimize, "_score_population", interrupt_while_children_sleep)
    with deadline(20), pytest.raises(KeyboardInterrupt):
        small_fit(record, backbone, workers=3)
    assert multiprocessing.active_children() == []


def test_an_error_in_the_main_slice_stops_the_fit_at_once(round_trip_record, monkeypatch):
    record, backbone, _ = round_trip_record
    main_pid = os.getpid()

    def fail_while_children_sleep(history, load, genes):
        if os.getpid() != main_pid:
            time.sleep(60)  # busy: the fit must not wait for its reply
        raise FitError("the main slice failed")

    monkeypatch.setattr(optimize, "_score_population", fail_while_children_sleep)
    with deadline(10), pytest.raises(FitError, match="^the main slice failed$"):
        small_fit(record, backbone, workers=3)
    assert multiprocessing.active_children() == []


# GA seed 0 fails first on genome 0, in the main process's slice. Seed
# 133 fails first on genome 10, in the first child's slice on 2 and on 3
# processes, and again on genome 14, in the second child's slice on 3.
@pytest.mark.parametrize(
    "workers, seed",
    [(1, 0), (2, 0), (3, 0), (1, 133), (2, 133), (3, 133)],
    ids=["1", "2", "3", "first_in_a_child-1", "first_in_a_child-2", "first_in_a_child-3"],
)
def test_fit_names_a_candidate_it_cannot_simulate(underflow_record, workers, seed):
    record, backbone = underflow_record
    bounds = ParamBounds(eta=(0.0, 4e307))
    config = GAConfig(
        population_size=20, max_generations=5, bounds=bounds, rng_seed=seed, workers=workers
    )
    index, params = first_failing_candidate(backbone, record.displacement, bounds, seed, 20)
    assert index == {0: 0, 133: 10}[seed]
    message = f"the engine cannot simulate {params}: a degraded elastic slope underflows to 0"
    with pytest.raises(FitError) as caught:
        fit(record, backbone, config)
    assert str(caught.value) == message
    assert multiprocessing.active_children() == []


# alpha1 up to 2e307 overflows the primary pivot load -alpha1 * 10 of the
# round-trip backbone for about one genome in ten. GA seed 0 first meets
# a NaN response on genome 1, in the main process's slice. Seed 5 meets
# it on genome 11, in the first child's slice on 2 and on 3 processes,
# and again on genomes 15 and 17, in the second child's slice on 3.
@pytest.mark.parametrize(
    "workers, seed",
    [(1, 0), (2, 0), (3, 0), (1, 5), (2, 5), (3, 5)],
    ids=["1", "2", "3", "first_in_a_child-1", "first_in_a_child-2", "first_in_a_child-3"],
)
def test_fit_names_a_candidate_whose_response_is_nan(round_trip_record, workers, seed):
    record, backbone, _ = round_trip_record
    bounds = ParamBounds(alpha1=(1.0, 2e307))
    config = GAConfig(
        population_size=20, max_generations=5, bounds=bounds, rng_seed=seed, workers=workers
    )
    index, params = first_failing_candidate(backbone, record.displacement, bounds, seed, 20)
    assert index == {0: 1, 5: 11}[seed]
    with pytest.raises(FitError) as caught:
        fit(record, backbone, config)
    assert str(caught.value) == (
        f"the engine cannot simulate {params}: its response is NaN, as when a pivot load overflows"
    )
    assert multiprocessing.active_children() == []


def test_fit_without_a_config_fits_with_the_default_config(symmetric_backbone):
    # every sample lies inside the yield displacements, so every genome
    # scores 0: the best is the first genome drawn, and the stall rule
    # stops the fit STALL_GENERATIONS generations later
    d = np.array([0.2, 0.5, -0.4, 0.1])
    record = SignalPair(d, simulate(symmetric_backbone, ROUND_TRIP_TRUTH, d))
    best, history = fit(record, symmetric_backbone)
    explicit_best, explicit_history = fit(record, symmetric_backbone, GAConfig())
    assert len(history) == optimize.STALL_GENERATIONS + 1
    assert np.array(astuple(best)).tobytes() == np.array(astuple(explicit_best)).tobytes()
    for name in ("best_score", "mean_score", "best_params"):
        got = np.array(getattr(history, name)).tobytes()
        assert got == np.array(getattr(explicit_history, name)).tobytes(), name


def test_history_rows_shape(round_trip_record):
    record, backbone, _ = round_trip_record
    _, history = small_fit(record, backbone, max_generations=5)
    rows = [history.row(g) for g in range(1, len(history) + 1)]
    assert rows[0][0] == 1
    assert len(rows[0]) == 8
