"""Genetic-algorithm identification of the five Pivot model parameters.

The fitness is the deviation score: the plain sum of squared differences
between the simulated and the experimental load response on the shared
resampled displacement grid. The GA is real-coded and generational:
uniform initialization within bounds, tournament selection, blend
crossover, per-gene Gaussian mutation clamped to bounds, elitism, and an
early stop after ``STALL_GENERATIONS`` generations without improvement,
with the fixed operator settings below. The bounds lie within the ranges
``PivotParams`` admits, and a candidate the engine cannot run stops the
fit with a ``FitError`` that names it.

All random draws of a generation are made from the master generator
before any fitness evaluation is dispatched, so results are bit-identical
no matter how many processes evaluate the population.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from pivotfit.ingest import SignalPair, validate
from pivotfit.pivot import PARAM_NAMES, History, PivotParams, simulate


# Fixed GA operator settings.
CROSSOVER_PROBABILITY = 0.9
BLEND_ALPHA = 0.5  # widens the parents' interval by this fraction on each side
MUTATION_PROBABILITY = 0.1
MUTATION_SCALE = 0.1  # std as a fraction of each parameter range
TOURNAMENT_SIZE = 3
ELITE_COUNT = 2
STALL_GENERATIONS = 50


class FitError(RuntimeError):
    """Raised when the optimization cannot proceed."""


@dataclass(frozen=True)
class ParamBounds:
    """Per-parameter (lower, upper) search bounds.

    Defaults bracket all fitted values reported for the model with
    margin.
    """

    alpha1: tuple = (1.0, 100.0)
    alpha2: tuple = (1.0, 100.0)
    beta1: tuple = (0.0, 1.0)
    beta2: tuple = (0.0, 1.0)
    eta: tuple = (0.0, 1000.0)

    def lower(self) -> np.ndarray:
        return np.array([getattr(self, n)[0] for n in PARAM_NAMES])

    def upper(self) -> np.ndarray:
        return np.array([getattr(self, n)[1] for n in PARAM_NAMES])

    def validate(self):
        for name in PARAM_NAMES:
            value = getattr(self, name)
            if np.shape(value) != (2,):
                raise ValueError(f"{name} bounds must be a (lo, hi) pair, got {value!r}")
        lo, hi = self.lower(), self.upper()
        try:  # a box is admissible when both of its corners are
            PivotParams(*lo.tolist()), PivotParams(*hi.tolist())
        except ValueError as exc:
            raise ValueError(f"bounds exceed the admissible parameter ranges: {exc}")
        if np.any(lo > hi):
            bad = PARAM_NAMES[int(np.argmax(lo > hi))]
            raise ValueError(f"lower bound exceeds upper bound for {bad}")
        # a blend child lands up to BLEND_ALPHA ranges past hi and a mutation
        # moves it a few tenths of a range more: leave room for both
        with np.errstate(over="ignore"):
            reach_ok = np.isfinite(hi + (1 + 2 * BLEND_ALPHA) * (hi - lo))
        if not reach_ok.all():
            bad = PARAM_NAMES[int(np.argmin(reach_ok))]
            raise ValueError(f"the range of {bad} is too wide for the blend crossover")


@dataclass(frozen=True)
class GAConfig:
    """The GA settings a caller sets; the operator settings are constants."""

    population_size: int = 50
    max_generations: int = 300
    bounds: ParamBounds = field(default_factory=ParamBounds)
    rng_seed: int = 0
    workers: int = 1

    def validate(self):
        for name in ("population_size", "max_generations", "rng_seed", "workers"):
            value = getattr(self, name)  # bool is an int, but not a count or a seed
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.population_size <= ELITE_COUNT:
            raise ValueError(f"population_size must exceed the {ELITE_COUNT} elites")
        if self.max_generations < 1:
            raise ValueError("max_generations must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be a non-negative integer")
        self.bounds.validate()


@dataclass
class ConvergenceHistory:
    """Per-generation best score, mean score and best parameter vector."""

    best_score: list = field(default_factory=list)
    mean_score: list = field(default_factory=list)
    best_params: list = field(default_factory=list)

    def append(self, best, mean, params):
        self.best_score.append(float(best))
        self.mean_score.append(float(mean))
        self.best_params.append(np.asarray(params, dtype=float).copy())

    def __len__(self):
        return len(self.best_score)

    def row(self, generation):
        """(generation, best, mean, alpha1, alpha2, beta1, beta2, eta) of
        a 1-based generation."""
        g = generation - 1
        return (
            generation, self.best_score[g], self.mean_score[g], *self.best_params[g]
        )


def deviation_score(load_resp, load_exp) -> float:
    """Sum of squared differences between two equal-length load arrays.

    Accumulates term by term in index order, matching an elementwise
    reference loop exactly. Zero iff the arrays are identical.
    """
    load_resp = np.asarray(load_resp, dtype=float)
    load_exp = np.asarray(load_exp, dtype=float)
    if load_resp.shape != load_exp.shape or load_resp.ndim != 1:
        raise ValueError(
            f"load arrays must be 1-d and equal-length, got shapes "
            f"{load_resp.shape} and {load_exp.shape}"
        )
    if load_resp.shape[0] == 0:
        return 0.0
    d = load_resp - load_exp
    d *= d
    return float(np.add.accumulate(d)[-1])


def _score_population(history: History, load, genes) -> np.ndarray:
    """Deviation score of every gene row against the load record of a
    prepared history. The first candidate in row order that the engine
    cannot run stops the fit."""
    scores = np.empty(genes.shape[0])
    for i, row in enumerate(genes.tolist()):
        params = PivotParams(*row)
        try:
            response = simulate(history.backbone, params, history)
        except ZeroDivisionError as exc:
            raise FitError(
                f"the engine cannot simulate {params}: a degraded elastic slope underflows to 0"
            ) from exc
        scores[i] = deviation_score(response, load)
    return scores


def _scores_or_error(history, load, genes):
    """``_score_population``, or the exception it raised, held so that
    every slice of a generation is in before the first error is raised."""
    try:
        return _score_population(history, load, genes)
    except Exception as exc:
        return exc


def _score_worker(conn, history, load):
    """A forked child: receive the prepared history and the load record
    once, as process arguments, then score each slice that arrives over
    ``conn`` until the sentinel ``None``."""
    while (genes := conn.recv()) is not None:
        conn.send(_scores_or_error(history, load, genes))


def _score_generation(children, history, load, genes):
    """Scores of a generation cut into one contiguous slice per process:
    the main process scores the first and each child one other (a serial
    fit has no children). The first error in population order is raised
    once every reply is in; a child that died is named with its exit code."""
    parts = np.array_split(genes, len(children) + 1)
    try:
        for (_, conn), part in zip(children, parts[1:]):
            with suppress(OSError):  # a dead child's pipe: its receive reports it
                conn.send(part)
        replies = [_scores_or_error(history, load, parts[0])]
        for child, conn in children:
            try:
                replies.append(conn.recv())
            except (EOFError, OSError):
                child.join()
                replies.append(
                    RuntimeError(f"{child.name} exited with code {child.exitcode}")
                )
    except BaseException:  # a child may still be scoring: do not wait for it
        for child, _ in children:
            child.terminate()
        raise
    for reply in replies:
        if isinstance(reply, Exception):
            raise reply
    return np.concatenate(replies)


def _breed(rng, genes, scores, lo, hi):
    """The next generation: the elites, then children bred in one array
    pass by tournament selection, blend crossover and Gaussian mutation,
    clipped to [lo, hi]."""
    pop_n, n_genes = genes.shape
    # Draw every random decision for the next generation up front so
    # evaluation order cannot affect the stream.
    n_children = pop_n - ELITE_COUNT
    tourney = rng.integers(0, pop_n, size=(n_children, 2, TOURNAMENT_SIZE))
    do_cx = rng.random(n_children) < CROSSOVER_PROBABILITY
    blend_u = rng.random((n_children, n_genes))
    do_mut = rng.random((n_children, n_genes)) < MUTATION_PROBABILITY
    mut_step = rng.standard_normal((n_children, n_genes)) * (MUTATION_SCALE * (hi - lo))

    elite_idx = np.argsort(scores, kind="stable")[:ELITE_COUNT]
    # the first best of each tournament is a parent
    won = np.argmin(scores[tourney], axis=2)[..., None]
    parents = np.take_along_axis(tourney, won, axis=2)[..., 0]
    p1, p2 = genes[parents[:, 0]], genes[parents[:, 1]]
    g_lo = np.minimum(p1, p2)
    width = np.maximum(p1, p2) - g_lo
    blend = (g_lo - BLEND_ALPHA * width) + blend_u * (1 + 2 * BLEND_ALPHA) * width
    children = np.where(do_cx[:, None], blend, p1)
    children = np.where(do_mut, children + mut_step, children)
    return np.concatenate((genes[elite_idx], np.clip(children, lo, hi)))


def fit(
    resampled: SignalPair,
    backbone,
    config: GAConfig = None,
    on_generation=None,
):
    """Search PivotParams space for the minimum deviation score.

    Returns ``(best_params, history)`` where ``best_params`` is the
    best-ever individual and ``history`` the full per-generation record.
    Fully reproducible from ``config.rng_seed``, independent of
    ``config.workers``. ``on_generation(generation, history)`` is called
    after each generation is recorded. A record the engine cannot run
    raises one FitError before any genome is scored, and the first
    candidate in population order it cannot run raises one naming it.
    """
    if config is None:
        config = GAConfig()
    config.validate()
    try:
        validate(resampled)
        prepared = History(backbone, resampled.displacement)
    except ValueError as exc:
        raise FitError(f"the record cannot be simulated: {exc}") from exc

    lo = config.bounds.lower()
    hi = config.bounds.upper()
    rng = np.random.default_rng(config.rng_seed)

    genes = lo + rng.random((config.population_size, len(PARAM_NAMES))) * (hi - lo)

    history = ConvergenceHistory()
    best_genes = None
    best_score = np.inf
    stall = 0

    # a process beyond one per genome would only get an empty slice
    workers = min(config.workers, config.population_size)
    children = []  # (process, the main process's end of its pipe)
    try:
        if workers > 1:
            # imported here: a serial run does not pay for the import
            import multiprocessing

            for i in range(1, workers):
                conn, child_end = multiprocessing.Pipe()
                child = multiprocessing.Process(
                    target=_score_worker,
                    args=(child_end, prepared, resampled.load),
                    name=f"GA worker {i}",
                    daemon=True,
                )
                child.start()
                child_end.close()  # so a child that dies reads as EOF here
                children.append((child, conn))
        for generation in range(1, config.max_generations + 1):
            scores = _score_generation(children, prepared, resampled.load, genes)

            gen_best = int(np.argmin(scores))
            if scores[gen_best] < best_score:
                best_score = float(scores[gen_best])
                best_genes = genes[gen_best].copy()
                stall = 0
            else:
                stall += 1
            history.append(best_score, scores.mean(), best_genes)
            if on_generation is not None:
                on_generation(generation, history)

            if generation == config.max_generations or stall >= STALL_GENERATIONS:
                break

            genes = _breed(rng, genes, scores, lo, hi)
    finally:
        # a forked child holds a copy of its own pipe's other end, so it
        # never reads EOF: it stops on the sentinel
        for child, conn in children:
            with suppress(OSError):
                conn.send(None)
            conn.close()
            child.join()

    return PivotParams(*best_genes.tolist()), history
