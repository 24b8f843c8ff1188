"""Benchmark of `pivotfit pipeline` on seeded synthetic lab records.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Generates the workload's raw record
from the seed (workloads.py), then runs `pivotfit pipeline` on it again
and again, each time in a fresh interpreter (child.py), until S seconds
have passed. Every run's outputs are checked; the last line of standard
output is one JSON object with the result.

--trace 0 reports the end-to-end metrics from untraced runs. The two
times, pipeline_s and setup_s, are scaled to a reference host speed.
Each child also times a fixed probe of work (child.probe) right after the
import, and before and after the pipeline call on the pipeline's number
of workers. pipeline_s is the total time of the untraced pipeline runs
over the total time of their probes, times PROBE_REF_S; setup_s is the
same for the imports and the probes that follow them. Both totals cover
the same minutes, so the host's drift in speed (up to 1.5x over
minutes, and at times another tenant on the second CPU) cancels, while a
change to pivotfit moves the pipeline time and not the probe. Totals,
unlike medians, weigh the pipeline and the probe over the same moments.
The unscaled medians are printed on the info line.

--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of the traced ones (spans.py), the traced pipeline time and the
tracing overhead against the untraced runs. Spans of the traced runs are written
to .perfbench_work/ when the benchmark ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CHILD_TIMEOUT_S = 120
IMPORT_SAMPLES = 5
MIN_RUNS = 3  # per kind of run, even when S seconds pass earlier
CHECKED_FILES = ("convergence.csv", "best_params.txt", "response.csv")
# fit_score_rel a correct run stays below; measured values are about 0.014
# on the fit workloads and 0.02 on ingest_large, while a response that
# ignores the record scores about 1.
FIT_SCORE_LIMIT = {"fit_serial": 0.05, "fit_workers2": 0.05, "ingest_large": 0.5}
# Typical time of child.probe on the 2-vCPU Xeon VM the benchmark was
# tuned on; scaled times are in seconds at that host speed.
PROBE_REF_S = 0.08


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Bench:
    """One benchmark invocation: its inputs, runs and checks."""

    def __init__(self, workload, seed, rundir):
        self.workload = workload
        self.rundir = rundir
        self.raw = rundir / "raw.csv"
        disp, load = workloads.make_record(workload, seed)
        workloads.write_raw_csv(self.raw, disp, load)
        self.raw_rows = len(disp)
        self.step = workloads.WORKLOADS[workload]["step"]
        self.reference = None  # bytes of CHECKED_FILES every run must match
        self.reference_outdir = None
        self.runs = 0
        self.problems = []  # (run index, message)
        self.failed_runs = 0

    def child(self, pipeline=None, trace=False):
        """Run child.py; return its result dict, or None if it crashed."""
        tag = f"run-{self.runs}" if pipeline else f"import-{time.monotonic_ns()}"
        result_path = self.rundir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path)]
        spill = self.rundir / f"{tag}-spill"
        if trace:
            spill.mkdir()
            cmd += ["--spill-dir", str(spill)]
        if pipeline:
            cmd += ["--", *pipeline]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if proc.returncode != 0:
            message = f"child exited {proc.returncode}: {proc.stderr[-400:]}"
            self.problems.append((self.runs, message))
            return None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if trace:
            result["spans"] += spans.load_spills(spill)
        return result

    def pipeline(self, trace=False, workers=None):
        """One checked pipeline run; returns the child's result or None."""
        outdir = self.rundir / f"out-{self.runs}"
        args = workloads.pipeline_args(self.workload, str(self.raw), str(outdir), workers)
        result = self.child(args, trace)
        problems = self.check(result, outdir)
        self.problems += [(self.runs, p) for p in problems]
        self.failed_runs += bool(problems)
        self.runs += 1
        if self.reference_outdir is None and not problems:
            self.reference_outdir = outdir
        else:
            shutil.rmtree(outdir, ignore_errors=True)
        return None if problems else result

    def check(self, result, outdir):
        if result is None:
            return ["run did not finish"]
        if result["exit_code"] != 0:
            return [f"pivotfit exited {result['exit_code']}"]
        problems = []
        reduced_rows = _data_lines(outdir / "reduced.csv")
        if len(reduced_rows) != math.ceil(self.raw_rows / self.step):
            problems.append(
                f"reduced.csv has {len(reduced_rows)} rows, expected "
                f"ceil({self.raw_rows}/{self.step})"
            )
        resampled = _data_lines(outdir / "resampled.csv")
        response = _data_lines(outdir / "response.csv")
        if [r.split(",")[0] for r in response] != [r.split(",")[0] for r in resampled]:
            problems.append("response.csv is not on the resampled.csv grid")
        values = [float(v) for r in response for v in r.split(",")]
        if len(values) != 3 * len(response) or not all(map(math.isfinite, values)):
            problems.append("response.csv holds non-finite or missing values")
        outputs = {name: (outdir / name).read_bytes() for name in CHECKED_FILES}
        if self.reference is None:
            self.reference = outputs
        else:
            problems += [
                f"{name} differs from the reference run"
                for name in CHECKED_FILES
                if outputs[name] != self.reference[name]
            ]
        return problems

    def quality(self):
        """(fit_score_rel, param_err_max) of the reference outputs."""
        out = self.reference_outdir
        best_score = float(_data_lines(out / "convergence.csv")[-1].split(",")[1])
        exp_load = [float(r.split(",")[2]) for r in _data_lines(out / "response.csv")]
        fit_score_rel = best_score / math.fsum(f * f for f in exp_load)
        fitted = {}
        for line in (out / "best_params.txt").read_text(encoding="utf-8").splitlines():
            name, _, value = line.partition("=")
            fitted[name] = float(value)
        param_err_max = max(
            abs(fitted[name] - truth) / (workloads.BOUNDS[name][1] - workloads.BOUNDS[name][0])
            for name, truth in workloads.TRUTH.items()
        )
        limit = FIT_SCORE_LIMIT[self.workload]
        if fit_score_rel >= limit:
            self.problems.append((None, f"fit_score_rel {fit_score_rel} is not below {limit}"))
        return fit_score_rel, param_err_max


def _data_lines(path):
    return path.read_text(encoding="utf-8").splitlines()[1:]


def measure(bench, seconds, trace):
    """Run until `seconds` pass; return (untraced, traced) child results."""
    untraced, traced = [], []
    start = time.perf_counter()
    while not bench.failed_runs:  # one failed run already fails the benchmark
        want_traced = trace and len(traced) < len(untraced)
        result = bench.pipeline(trace=want_traced)
        if result is not None:
            (traced if want_traced else untraced).append(result)
        enough = len(untraced) >= MIN_RUNS and (not trace or len(traced) >= MIN_RUNS)
        if enough and time.perf_counter() - start >= seconds:
            break
    return untraced, traced


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pivotfit" / "cli.py").is_file():
        print(f"perfbench: no pivotfit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        bench = Bench(args.workload, args.seed, rundir)
        setup = [bench.child() for _ in range(IMPORT_SAMPLES)]
        if workloads.WORKLOADS[args.workload]["workers"] > 1:
            # A serial run is the reference: outputs must not depend on
            # the worker count.
            setup.append(bench.pipeline(workers=1))
        untraced, traced = measure(bench, args.seconds, args.trace == 1)
        done = [r for r in setup + untraced + traced if r is not None]
        quality = bench.quality() if bench.reference_outdir else None
        resampled = len(_data_lines(bench.reference_outdir / "resampled.csv")) if quality else 0
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    declared = _declared()
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    values = {}
    raw = {}
    if done:
        raw["probe_s"] = statistics.median(r["probe_s"] for r in done)
        raw["setup_s"] = statistics.median(r["import_s"] for r in done)
    if untraced:
        raw["pipeline_s"] = statistics.median(r["pipeline_s"] for r in untraced)
    if untraced and quality and not args.trace:
        values["pipeline_s"] = PROBE_REF_S * math.fsum(r["pipeline_s"] for r in untraced) / (
            math.fsum(p for r in untraced for p in r["pipeline_probe_s"]) / 2
        )
        values["setup_s"] = PROBE_REF_S * math.fsum(r["import_s"] for r in done) / (
            math.fsum(r["probe_s"] for r in done)
        )
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in untraced)
        values["fit_score_rel"], values["param_err_max"] = quality
    elif untraced and traced:
        per_run = [spans.layer_metrics(r["spans"]) for r in traced]
        values = {name: statistics.median(run[name] for run in per_run) for name in per_run[0]}
        values["trace.pipeline_s"] = statistics.median(r["pipeline_s"] for r in traced)
        # Each traced run directly follows an untraced one; comparing the
        # pairs cancels most of the machine's slow drift in speed.
        values["trace.overhead_pct"] = 100 * statistics.median(
            t["pipeline_s"] / u["pipeline_s"] - 1 for u, t in zip(untraced, traced)
        )
        for i, r in enumerate(traced):
            errors = spans.nesting_errors(r["spans"])
            bench.problems += [(None, f"traced run {i}: {e}") for e in errors]
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps([r["spans"] for r in traced]), encoding="utf-8")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "descriptors": workloads.descriptors(bench.raw_rows, resampled),
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
        },
        "samples": {
            "untraced_runs": len(untraced),
            "traced_runs": len(traced),
            "imports": len(done),
        },
        "unscaled_medians_s": raw,
        "untraced_pipeline_s": [round(r["pipeline_s"], 4) for r in untraced],
        "untraced_probe_s": [[round(x, 4) for x in r["pipeline_probe_s"]] for r in untraced],
        "failed_runs": bench.failed_runs / bench.runs,
        "problems": [f"run {i}: {p}" if i is not None else p for i, p in bench.problems],
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": bool(values) and not bench.problems,
                "attempted": bench.runs,
                "failed": bench.failed_runs,
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
            }
        )
    )
    return 0


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
