"""Self-tests of the benchmark: inputs, printed names and span nesting.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from pivotfit import detect_reversals  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Small enough that a benchmark invocation takes a few seconds; two
# workers so that worker-process spans and the serial reference run are
# exercised too.
TINY = {
    "why": "test",
    "rows_per_unit": 40,
    "step": 2,
    "scale": 20,
    "population": 6,
    "generations": 2,
    "workers": 2,
}


def test_generator_is_deterministic_from_seed(tmp_path):
    d1, f1 = workloads.make_record("fit_serial", 3)
    d2, f2 = workloads.make_record("fit_serial", 3)
    d3, f3 = workloads.make_record("fit_serial", 4)
    assert np.array_equal(d1, d2) and np.array_equal(f1, f2)
    # The seed changes the load noise only, so every seed does equal work.
    assert np.array_equal(d1, d3) and not np.array_equal(f1, f3)

    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        workloads.write_raw_csv(path, *workloads.make_record("fit_serial", 3))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_descriptors_match_the_record():
    disp, _ = workloads.make_record("ingest_large", 0)
    found = len(detect_reversals(disp)) - 1
    facts = workloads.descriptors(len(disp), 4800)
    assert facts["reversals"] == found == 32
    assert 240_000 < facts["raw_rows"] < 260_000
    assert facts["samples_per_reversal"] == 4800 / 32


def test_declared_workloads_are_the_generated_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


def _bench(monkeypatch, capsys, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    monkeypatch.setitem(run.FIT_SCORE_LIMIT, "tiny", 1.0)
    code = run.main(["--workload", "tiny", "--seed", "0", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    info, result = (json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:])
    assert info["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    return result


def test_every_end_to_end_name_is_printed(monkeypatch, capsys):
    result = _bench(monkeypatch, capsys, trace=0)
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_name_is_printed_and_spans_nest(monkeypatch, capsys):
    result = _bench(monkeypatch, capsys, trace=1)
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["optimize.generations"] == TINY["generations"]
    assert metrics["optimize.evaluations"] == TINY["generations"] * TINY["population"]

    traced_runs = json.loads((run.WORK / "trace-tiny-seed0.json").read_text())
    for run_spans in traced_runs:
        assert spans.nesting_errors(run_spans) == []
        (fit,) = [s for s in run_spans if s["name"] == "optimize.fit"]
        in_workers = [s for s in run_spans if s["pid"] != fit["pid"]]
        assert in_workers and all(s["parent"] == fit["id"] for s in in_workers)


def test_tracer_nests_spans_and_computes_self_time(tmp_path):
    tracer = spans.Tracer(str(tmp_path))

    def leaf():
        return sum(range(1000))

    def middle():
        return traced_leaf() + traced_leaf()

    traced_leaf = tracer.wrap("pivot.simulate", leaf)
    tracer.wrap("cli.main", tracer.wrap("optimize.fit", middle))()

    recorded = tracer.spans
    assert [s["name"] for s in recorded] == [
        "cli.main",
        "optimize.fit",
        "pivot.simulate",
        "pivot.simulate",
    ]
    assert spans.nesting_errors(recorded) == []
    main, fit, leaf1, leaf2 = recorded
    assert fit["parent"] == main["id"] and leaf1["parent"] == leaf2["parent"] == fit["id"]
    own = spans.self_times(recorded)
    fit_own = spans.duration(fit) - spans.duration(leaf1) - spans.duration(leaf2)
    assert own[fit["id"]] == pytest.approx(fit_own)

    leaf1["end"] = fit["end"] + 1.0
    assert len(spans.nesting_errors(recorded)) == 1


def test_tracer_records_calls_that_raise(tmp_path):
    tracer = spans.Tracer(str(tmp_path))

    def broken(*args):
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("ingest.load_record", broken, spans.CLI_CALLS["load_record"][1])("x")
    (span,) = tracer.spans
    assert span["error"] == "ValueError" and span["rows"] == 0
