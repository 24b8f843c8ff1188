"""One `pivotfit pipeline` run in a fresh interpreter, with its costs.

    python3 child.py RESULT_JSON [--spill-dir DIR] [-- PIPELINE_ARGS...]

Times the import of ``pivotfit.cli`` (what every CLI call pays before
any work), then, if pipeline arguments follow ``--``, the call to
``pivotfit.cli.main``, and the peak resident memory of this process.
With ``--spill-dir`` the run is traced (see spans.py) and the spans are
part of the result. After the import, and before and after the pipeline
call, the child times a fixed probe of work (``probe``) that measures the
host's current speed; around the pipeline, the probe runs on as many
workers as the pipeline does. Writes the result as JSON to RESULT_JSON.

Nothing that ``pivotfit.cli`` imports is imported before it is timed.
"""

import resource
import sys
import time


def probe_work(_=None):
    """A fixed piece of work of the kind pivotfit does: a Python
    arithmetic loop and a round trip of numbers through CSV text."""
    total = 0
    for i in range(300_000):
        total += i * i
    lines = [f"{i * 0.001:.9g},{i * 1.5e-3:.9g}" for i in range(12_000)]
    rows = [[float(cell) for cell in line.split(",")] for line in lines]
    "\n".join(",".join(format(v, ".10g") for v in row) for row in rows)


def probe(workers=1):
    """Seconds per piece of probe work. The work never changes, so the
    time follows only the host's speed. With more than one worker, pieces
    run on a process pool, as the GA's evaluations do, so the time also
    follows how much of the host's other CPUs the run gets."""
    if workers == 1:
        start = time.perf_counter()
        probe_work()
        return time.perf_counter() - start
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers) as pool:
        list(pool.map(int, range(workers)))  # start the worker processes
        start = time.perf_counter()
        list(pool.map(probe_work, range(2 * workers)))
        return (time.perf_counter() - start) / 2


def main(argv):
    pipeline = []
    if "--" in argv:
        cut = argv.index("--")
        argv, pipeline = argv[:cut], argv[cut + 1 :]
    result_path = argv[0]
    spill_dir = argv[argv.index("--spill-dir") + 1] if "--spill-dir" in argv else None

    start = time.perf_counter()
    import pivotfit.cli as cli

    result = {"import_s": time.perf_counter() - start, "probe_s": probe()}
    if pipeline:
        workers = int(pipeline[pipeline.index("--workers") + 1])
        result["pipeline_probe_s"] = [probe(workers)]
        entry = cli.main
        tracer = None
        if spill_dir is not None:
            import pivotfit.optimize

            import spans

            tracer = spans.Tracer(spill_dir)
            entry = spans.install(tracer, cli, pivotfit.optimize)
        start = time.perf_counter()
        result["exit_code"] = entry(pipeline)
        result["pipeline_s"] = time.perf_counter() - start
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["pipeline_probe_s"].append(probe(workers))
        if tracer is not None:
            result["spans"] = tracer.spans

    import json

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
