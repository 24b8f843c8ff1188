"""Spans around the calls a `pivotfit pipeline` run makes into each layer.

The tracer wraps names from the benchmark's side only; no pivotfit source
is edited. ``install`` rebinds the public functions that ``pivotfit.cli``
looks up at call time, plus the ``simulate`` and ``deviation_score``
names that the GA in ``pivotfit.optimize`` looks up. Spans are kept in
memory as dicts (id, parent, name, pid, start, end and a few counts) and
handed back when the run ends.

GA worker processes are forked from the traced process, so they inherit
the wrapped names and the open-span stack: their spans record the ``fit``
span as parent. Each worker writes its spans to ``<spill_dir>/`` when it
exits, through a ``multiprocessing`` finalizer.

Layer of a span = the part of its name before the first dot; the layers
are the modules of ``src/pivotfit``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from functools import wraps
from multiprocessing import util as mp_util

LAYERS = ("ingest", "resample", "backbone", "pivot", "optimize", "cli")


def _size(result):
    # Facts are also recorded for calls that raised, whose result is None.
    return 0 if result is None else len(result)


def _result_size(key):
    return lambda args, kwargs, result: {key: _size(result)}


def _rows_of_pair(args, kwargs, result):
    return {"rows": len(args[0])}


def _rows_of_columns(args, kwargs, result):
    return {"rows": len(args[2][0])}


def _reversals(args, kwargs, result):
    # detect_reversals appends the final sample index after the reversals.
    return {"reversals": max(0, _size(result) - 1)}


def _simulate_facts(args, kwargs, result):
    params = args[1]
    return {
        "samples": len(args[2]),
        "genome": [params.alpha1, params.alpha2, params.beta1, params.beta2, params.eta],
    }


def _score_facts(args, kwargs, result):
    return {"finite": result is not None and math.isfinite(result)}


def _fit_facts(args, kwargs, result):
    config = args[2]
    return {"workers": config.workers, "population": config.population_size}


# name in pivotfit.cli -> (span name, facts recorded on the span)
CLI_CALLS = {
    "load_record": ("ingest.load_record", _result_size("rows")),
    "write_record": ("ingest.write_record", _rows_of_pair),
    "write_columns": ("ingest.write_columns", _rows_of_columns),
    "regular_reduce": ("resample.regular_reduce", _result_size("rows")),
    "detect_reversals": ("resample.detect_reversals", _reversals),
    "irregular_resample": ("resample.irregular_resample", _result_size("samples")),
    "extract_envelope": ("backbone.extract_envelope", _result_size("points")),
    "idealize": ("backbone.idealize", None),
    "fit": ("optimize.fit", _fit_facts),
    "simulate": ("pivot.simulate", _simulate_facts),
    "cmd_resample": ("cli.cmd_resample", None),
    "cmd_backbone": ("cli.cmd_backbone", None),
    "cmd_fit": ("cli.cmd_fit", None),
    "cmd_simulate": ("cli.cmd_simulate", None),
}

# name in pivotfit.optimize -> (span name, facts)
GA_CALLS = {
    "simulate": ("pivot.simulate", _simulate_facts),
    "deviation_score": ("optimize.deviation_score", _score_facts),
}


class Tracer:
    """Records one span per wrapped call; single-threaded per process."""

    def __init__(self, spill_dir):
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.spans = []
        self._stack = []

    def _enter_forked_process(self):
        # The inherited spans belong to the parent process, which reports
        # them itself; the inherited stack still names the open parents.
        self.pid = os.getpid()
        self.spans = []
        mp_util.Finalize(None, self.spill, exitpriority=100)

    def spill(self):
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def wrap(self, name, fn, facts=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._enter_forked_process()
            span = {
                "id": f"{self.pid}:{len(self.spans)}",
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "pid": self.pid,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            result = None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if facts is not None:
                    span.update(facts(args, kwargs, result))

        return traced

    def wrap_fit(self, fit):
        """Wrap ``fit`` and the per-generation callback the CLI passes."""
        name, facts = CLI_CALLS["fit"]
        traced_fit = self.wrap(name, fit, facts)

        @wraps(fit)
        def fit_with_generations(*args, on_generation=None, **kwargs):
            if on_generation is not None:
                on_generation = self.wrap("cli.convergence_row", on_generation)
            return traced_fit(*args, on_generation=on_generation, **kwargs)

        return fit_with_generations


def install(tracer, cli, optimize):
    """Rebind the traced names; return the traced ``cli.main``."""
    for attr, (name, facts) in CLI_CALLS.items():
        if attr == "fit":
            setattr(cli, attr, tracer.wrap_fit(getattr(cli, attr)))
        else:
            setattr(cli, attr, tracer.wrap(name, getattr(cli, attr), facts))
    for attr, (name, facts) in GA_CALLS.items():
        setattr(optimize, attr, tracer.wrap(name, getattr(optimize, attr), facts))
    return tracer.wrap("cli.main", cli.main)


def load_spills(spill_dir):
    spans = []
    for entry in sorted(os.listdir(spill_dir)):
        with open(os.path.join(spill_dir, entry), encoding="utf-8") as fh:
            spans.extend(json.load(fh))
    return spans


# -- analysis -----------------------------------------------------------------


def duration(span):
    return span["end"] - span["start"]


def nesting_errors(spans):
    """Spans whose parent is missing or does not enclose them in time."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            errors.append(f"{s['id']} {s['name']}: parent {s['parent']} missing")
        elif not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            errors.append(f"{s['id']} {s['name']}: outside parent {parent['name']}")
    return errors


def self_times(spans):
    """Span id -> duration minus the time its children in the same
    process cover. Children in worker processes run concurrently with
    their parent and are not subtracted."""
    child_time = {}
    for s in spans:
        parent = s["parent"]
        if parent is not None and parent.split(":")[0] == str(s["pid"]):
            child_time[parent] = child_time.get(parent, 0.0) + duration(s)
    return {s["id"]: duration(s) - child_time.get(s["id"], 0.0) for s in spans}


def layer_metrics(spans):
    """Per-layer metrics of one traced pipeline run."""
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def total(name, key=None):
        return sum(s[key] if key else duration(s) for s in named.get(name, ()))

    (main,) = named["cli.main"]
    (fit,) = named["optimize.fit"]
    sims = named.get("pivot.simulate", [])
    ga_sims = [s for s in sims if s["parent"] == fit["id"]]
    scores = named.get("optimize.deviation_score", [])
    rows = named.get("cli.convergence_row", [])

    m = {}
    m["ingest.load_record_s"] = total("ingest.load_record")
    m["ingest.rows_read"] = total("ingest.load_record", "rows")
    m["ingest.load_rows_per_s"] = m["ingest.rows_read"] / m["ingest.load_record_s"]
    m["ingest.write_s"] = total("ingest.write_record") + total("ingest.write_columns")
    written = total("ingest.write_record", "rows") + total("ingest.write_columns", "rows")
    m["ingest.write_rows_per_s"] = written / m["ingest.write_s"]

    m["resample.regular_reduce_s"] = total("resample.regular_reduce")
    m["resample.detect_reversals_s"] = total("resample.detect_reversals")
    m["resample.irregular_resample_s"] = total("resample.irregular_resample")
    m["resample.samples_out"] = total("resample.irregular_resample", "samples")
    m["resample.reversals"] = total("resample.detect_reversals", "reversals")

    m["backbone.extract_envelope_s"] = total("backbone.extract_envelope")
    m["backbone.idealize_s"] = total("backbone.idealize")
    m["backbone.envelope_points"] = total("backbone.extract_envelope", "points")

    m["pivot.simulate_calls"] = len(sims)
    m["pivot.simulate_s"] = sum(duration(s) for s in sims)
    m["pivot.us_per_sample"] = 1e6 * m["pivot.simulate_s"] / sum(s["samples"] for s in sims)

    workers = fit["workers"]
    fit_s = duration(fit)
    ga_sim_s = sum(duration(s) for s in ga_sims)
    score_s = sum(duration(s) for s in scores)
    evaluations = len(ga_sims)
    failed = sum(1 for s in ga_sims if "error" in s) + sum(
        1 for s in scores if "error" in s or not s["finite"]
    )
    m["optimize.fit_s"] = fit_s
    m["optimize.generations"] = len(rows)
    m["optimize.evaluations"] = evaluations
    m["optimize.failed_evaluations"] = failed
    m["optimize.unique_eval_ratio"] = (
        len({tuple(s["genome"]) for s in ga_sims}) / evaluations
    )
    m["optimize.deviation_score_s"] = score_s
    # With W workers the evaluation work is shared W ways; what is left of
    # the fit's wall time went to breeding, pickling, dispatch and waiting.
    m["optimize.overhead_s"] = fit_s - (ga_sim_s + score_s) / workers
    marks = [fit["start"]] + [s["start"] for s in rows]
    m["optimize.generation_s"] = statistics.median(
        b - a for a, b in zip(marks, marks[1:])
    )
    m["optimize.evals_per_s"] = evaluations / fit_s

    (resample_stage,) = named["cli.cmd_resample"]
    (backbone_stage,) = named["cli.cmd_backbone"]
    (fit_stage,) = named["cli.cmd_fit"]
    (simulate_stage,) = named["cli.cmd_simulate"]
    m["cli.resample_stage_s"] = duration(resample_stage)
    m["cli.backbone_stage_s"] = duration(backbone_stage)
    m["cli.fit_stage_s"] = duration(fit_stage) - duration(simulate_stage)
    m["cli.simulate_stage_s"] = duration(simulate_stage)
    m["cli.overhead_s"] = duration(main) - (
        duration(resample_stage) + duration(backbone_stage) + duration(fit_stage)
    )

    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            own[s["id"]] for s in spans if s["name"].split(".")[0] == layer
        )
    return m
