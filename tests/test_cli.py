import gzip
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pivotfit.cli
from pivotfit import (
    GAConfig,
    IdealizedBackbone,
    ParamBounds,
    PivotParams,
    SignalPair,
    extract_envelope,
    fit,
    idealize,
    load_record,
    simulate,
    write_record,
)
from pivotfit.cli import entrypoint, main
from pivotfit.optimize import FitError
from conftest import first_failing_candidate, uniform_grid_protocol


BACKBONE = IdealizedBackbone([-3, -2, -1, 0, 1, 2, 3], [-12, -15, -10, 0, 10, 15, 12])


def make_raw_record(path, n_per_leg=400):
    """Noisy oversampled cyclic record resembling a raw LVDT export."""
    rng = np.random.default_rng(8)
    peaks = [1.5, -1.5, 2.0, -2.0, 2.6, -2.6, 0.001]
    segs = [np.linspace(0.0, peaks[0], n_per_leg)]
    cur = peaks[0]
    for nxt in peaks[1:]:
        segs.append(np.linspace(cur, nxt, n_per_leg)[1:])
        cur = nxt
    disp = np.concatenate(segs)
    params = PivotParams(10.0, 8.0, 0.7, 0.6, 40.0)
    load = simulate(BACKBONE, params, disp) + rng.normal(0, 0.02, disp.shape)
    write_record(SignalPair(disp, load), path)
    return disp, load


@pytest.fixture
def workdir(tmp_path):
    raw = tmp_path / "raw.csv"
    make_raw_record(raw)
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "input": str(raw),
                "outdir": str(out),
                "step": 2,
                "scale": 40,
                "population": 16,
                "generations": 10,
                "seed": 5,
            }
        )
    )
    return tmp_path, raw, out, config


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [
        [float(c) for c in line.split(",")] for line in lines[1:]
    ]


def test_pipeline_end_to_end(workdir):
    tmp, raw, out, config = workdir
    assert main(["pipeline", "--config", str(config)]) == 0
    for name in (
        "reduced.csv",
        "resampled.csv",
        "envelope.csv",
        "idealized.csv",
        "best_params.txt",
        "convergence.csv",
        "response.csv",
        "manifest.json",
    ):
        assert (out / name).exists(), name

    _, ideal_rows = read_rows(out / "idealized.csv")
    assert len(ideal_rows) == 7
    assert ideal_rows[3] == [0.0, 0.0]
    raw_row4 = (out / "idealized.csv").read_text().splitlines()[4]
    assert raw_row4 == "0,0"

    _, conv_rows = read_rows(out / "convergence.csv")
    assert len(conv_rows) <= 10

    params_text = (out / "best_params.txt").read_text()
    assert all(k in params_text for k in ("alpha1", "alpha2", "beta1", "beta2", "eta"))


def test_resampled_grid_uniform(workdir):
    tmp, raw, out, config = workdir
    assert main(["resample", "--config", str(config)]) == 0
    _, rows = read_rows(out / "resampled.csv")
    disp = np.array([r[0] for r in rows])
    k = np.rint(disp * 40)
    np.testing.assert_allclose(disp * 40, k, atol=1e-9)
    dk = np.abs(np.diff(k))
    # uniform unit steps on the integer grid within segments
    assert set(dk.tolist()) <= {1.0, 2.0}  # 2 only at segment joins
    assert (dk == 1.0).sum() > 0.9 * len(dk)


def test_pipeline_byte_identical_rerun(workdir):
    tmp, raw, out, config = workdir
    assert main(["pipeline", "--config", str(config)]) == 0
    blobs = {
        name: (out / name).read_bytes()
        for name in os.listdir(out)
    }
    assert main(["pipeline", "--config", str(config)]) == 0
    for name, blob in blobs.items():
        assert (out / name).read_bytes() == blob, name


def test_the_envelope_file_idealizes_to_the_idealized_file(workdir):
    """envelope.csv reads back as the record the backbone stage idealized."""
    tmp, raw, out, config = workdir
    assert main(["resample", "--config", str(config)]) == 0
    assert main(["backbone", "--config", str(config)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a yield==peak side warns
        ideal = idealize(load_record(out / "envelope.csv"))
    written = load_record(out / "idealized.csv")
    assert ideal.displacement.tobytes() == written.displacement.tobytes()
    assert ideal.load.tobytes() == written.load.tobytes()
    # the backbone is a record of 7 points, written as any other
    assert isinstance(ideal, SignalPair) and len(ideal) == 7
    write_record(ideal, tmp / "idealized.csv")
    assert (tmp / "idealized.csv").read_bytes() == (out / "idealized.csv").read_bytes()


def test_stage_by_stage_writes_the_pipeline_bytes(workdir):
    tmp, raw, out, config = workdir
    assert main(["pipeline", "--config", str(config)]) == 0
    staged = tmp / "staged"
    for command in ("resample", "backbone", "fit", "simulate"):
        assert main([command, "--config", str(config), "--outdir", str(staged)]) == 0
    names = sorted(os.listdir(out))
    assert sorted(os.listdir(staged)) == names
    for name in names:
        if name != "manifest.json":
            assert (staged / name).read_bytes() == (out / name).read_bytes(), name


RECORD_FLAGS = [("--delimiter", ";"), ("--displacement-column", "5"), ("--load-column", "7")]


@pytest.mark.parametrize(
    "command, flag, value",
    [(c, f, v) for c in ("backbone", "fit", "simulate") for f, v in RECORD_FLAGS]
    # a prefix of a flag is no flag: on backbone "--load" is not --load-unit
    + [("backbone", "--load", "7"), ("fit", "--pop", "8")],
)
def test_stages_that_read_no_record_refuse_the_record_flags(workdir, capsys, command, flag, value):
    """Only resample and pipeline read the raw record, so only they take
    the flags that say how to read it; a later stage refuses them."""
    tmp, raw, out, config = workdir
    for stage in ("resample", "backbone"):
        assert main([stage, "--config", str(config)]) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert main([command, "--config", str(config), flag, value]) == 1
    assert f"unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


UNIT_HEADERS = {
    "reduced.csv": "displacement_in,load_lbf",
    "resampled.csv": "displacement_in,load_lbf",
    "envelope.csv": "displacement_in,load_lbf",
    "idealized.csv": "displacement_in,load_lbf",
    "response.csv": "displacement_in,simulated_load_lbf,experimental_load_lbf",
}


def test_unit_labels_name_every_header_and_change_no_value(workdir):
    tmp, raw, out, config = workdir
    assert main(["pipeline", "--config", str(config)]) == 0
    units = ["--displacement-unit", "in", "--load-unit", "lbf"]
    flags = tmp / "flags"
    assert main(["pipeline", "--config", str(config), "--outdir", str(flags), *units]) == 0
    keys = tmp / "keys.json"
    values = json.loads(config.read_text())
    values.update(outdir=str(tmp / "keys"), displacement_unit="in", load_unit="lbf")
    keys.write_text(json.dumps(values))
    assert main(["pipeline", "--config", str(keys)]) == 0
    staged = tmp / "staged"
    for command in ("resample", "backbone", "fit"):
        argv = [command, "--config", str(config), "--outdir", str(staged), *units]
        assert main(argv) == 0
    names = sorted(os.listdir(out))
    for name in names:
        if name == "manifest.json":
            continue
        blob = (flags / name).read_bytes()
        assert (tmp / "keys" / name).read_bytes() == blob, name
        assert (staged / name).read_bytes() == blob, name
        header, _, rows = blob.decode().partition("\n")
        default_header, _, default_rows = (out / name).read_text().partition("\n")
        assert header == UNIT_HEADERS.get(name, default_header), name
        assert rows == default_rows, name  # labels only: no value is converted


def _raise_value_error(*args, **kwargs):
    raise ValueError("boom")


def test_simulate_stage_error_in_fit_names_the_stage(workdir, monkeypatch, capsys):
    tmp, raw, out, config = workdir
    for command in ("resample", "backbone"):
        assert main([command, "--config", str(config)]) == 0
    monkeypatch.setattr(pivotfit.cli, "simulate", _raise_value_error)
    assert main(["fit", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "pivotfit: stage 'simulate': boom\n"
    assert (out / "best_params.txt").exists()  # the fit stage completed
    # the failed fit wrote no manifest and removed the backbone stage's
    assert not (out / "manifest.json").exists()


def test_params_file_rejects_a_repeated_parameter(tmp_path, capsys):
    params = tmp_path / "params.txt"
    params.write_text("alpha1=5\nalpha2=8\nbeta1=0.7\nbeta2=0.6\neta=40\nalpha1=50\n")
    argv = ["simulate", "--outdir", str(tmp_path), "--params", str(params)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{params}: line 6: duplicate parameter 'alpha1'" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("alpha1 10\n", "line 1: expected '<param>=<value>'"),
        ("alpha1=ten\n", "line 1: non-numeric value 'ten'"),
        ("alpha1=10\n", "missing parameters: alpha2, beta1, beta2, eta"),
        ("# caf\u00e9\nalpha1=10\n", "line 1: byte 0xe9 is not UTF-8 text"),
        (
            "alpha1=0.5\nalpha2=8\nbeta1=0.7\nbeta2=0.6\neta=40\n",
            "alpha1 and alpha2 must be >= 1",
        ),
        (
            "alpha1=nan\nalpha2=8\nbeta1=0.7\nbeta2=0.6\neta=40\n",
            "alpha1 must be finite, got nan",
        ),
    ],
    ids=[
        "no_equals_sign", "non_numeric", "missing", "not_utf8",
        "out_of_range", "not_finite",
    ],
)
def test_params_file_format_errors_are_named(tmp_path, capsys, text, message):
    params = tmp_path / "params.txt"
    params.write_bytes(text.encode("latin-1"))
    argv = ["simulate", "--outdir", str(tmp_path), "--params", str(params)]
    assert main(argv) == 1
    assert f"{params}: {message}" in capsys.readouterr().err


BOM = b"\xef\xbb\xbf"


def test_params_file_with_a_bom_simulates_as_without(workdir):
    tmp, raw, out, config = workdir
    for command in ("resample", "backbone"):
        assert main([command, "--config", str(config)]) == 0
    text = b"alpha1=10\nalpha2=8\nbeta1=0.7\nbeta2=0.6\neta=40\n"
    responses = []
    for name, data in (("plain.txt", text), ("bom.txt", BOM + text)):
        (tmp / name).write_bytes(data)
        assert main(["simulate", "--config", str(config), "--params", str(tmp / name)]) == 0
        responses.append((out / "response.csv").read_bytes())
    assert responses[0] == responses[1]


def test_config_file_with_a_bom_runs_as_without(workdir):
    """A pipeline set by a config file that starts with a byte order mark
    writes the bytes of the same run set by flags."""
    tmp, raw, out, config = workdir
    flags = tmp / "flags"
    argv = ["pipeline", "--input", str(raw), "--outdir", str(flags), "--step", "2",
            "--scale", "40", "--population", "16", "--generations", "10", "--seed", "5"]
    assert main(argv) == 0
    config.write_bytes(BOM + config.read_bytes())
    assert main(["pipeline", "--config", str(config)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["outdir"] == str(out)
    names = sorted(os.listdir(flags))
    assert sorted(os.listdir(out)) == names
    for name in names:
        if name != "manifest.json":
            assert (out / name).read_bytes() == (flags / name).read_bytes(), name


@pytest.mark.parametrize("delimiter", ["\t", ";;"], ids=["tab", "double_semicolon"])
def test_a_record_with_another_delimiter_resamples_as_with_commas(workdir, delimiter):
    tmp, raw, out, config = workdir
    other = tmp / "raw.txt"
    other.write_text(raw.read_text().replace(",", delimiter))
    assert main(["resample", "--config", str(config)]) == 0
    argv = ["resample", "--config", str(config), "--input", str(other),
            "--outdir", str(tmp / "other"), "--delimiter", delimiter]
    assert main(argv) == 0
    for name in ("reduced.csv", "resampled.csv"):
        assert (tmp / "other" / name).read_bytes() == (out / name).read_bytes(), name


def test_simulate_self_consistency(workdir):
    """Simulating the generating params reproduces the experimental
    column: the record is regenerated from the params file so the
    response must match to high precision."""
    tmp, raw, out, config = workdir
    out.mkdir()
    params_file = out / "params.txt"
    params_file.write_text(  # comment and blank lines are skipped
        "# generating parameters\n\nalpha1=10\nalpha2=8\nbeta1=0.7\nbeta2=0.6\neta=40\n"
    )
    grid = uniform_grid_protocol([1.5, -1.5, 2.2, -2.2, 0.0], step=0.025)
    loads = simulate(BACKBONE, PivotParams(10, 8, 0.7, 0.6, 40), grid)
    write_record(SignalPair(grid, loads), out / "resampled.csv")
    write_record(BACKBONE, out / "idealized.csv")
    assert (
        main(
            [
                "simulate",
                "--outdir",
                str(out),
                "--params",
                str(params_file),
            ]
        )
        == 0
    )
    _, rows = read_rows(out / "response.csv")
    sim = np.array([r[1] for r in rows])
    exp = np.array([r[2] for r in rows])
    assert np.abs(sim - exp).max() <= 1e-9 * max(1.0, np.abs(exp).max())


def test_missing_input_gives_io_exit(tmp_path):
    code = main(
        ["resample", "--input", str(tmp_path / "nope.csv"), "--outdir", str(tmp_path)]
    )
    assert code == 2


def test_empty_input_gives_validation_exit(tmp_path):
    raw = tmp_path / "empty.csv"
    raw.write_text("")
    code = main(["resample", "--input", str(raw), "--outdir", str(tmp_path)])
    assert code == 1


def test_bad_cell_reports_line(tmp_path, capsys):
    raw = tmp_path / "bad.csv"
    raw.write_text("0,0\n1,1\nx,y\n2,2\n")
    code = main(["resample", "--input", str(raw), "--outdir", str(tmp_path)])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cell, message",
    [("oops", "non-numeric value 'oops'"), ("NaN", "non-finite value 'NaN'")],
    ids=["non_numeric", "nan"],
)
def test_bad_load_cell_reports_file_and_line(tmp_path, capsys, cell, message):
    raw = tmp_path / "bad.csv"
    raw.write_text(f"d,f\n0,0\n\n0.1,1\n0.2,{cell}\n0.3,2\n")
    code = main(["resample", "--input", str(raw), "--outdir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"pivotfit: stage 'resample': {raw}: line 5: {message} in column 1\n"
    assert not (tmp_path / "out").exists()


def test_reduction_step_that_keeps_one_sample_is_named(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    disp, _ = make_raw_record(raw, n_per_leg=40)
    code = main(["resample", "--input", str(raw), "--outdir", str(tmp_path / "out"),
                 "--step", "1000"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"pivotfit: stage 'resample': reduction step 1000 keeps 1 of {len(disp)} "
        "samples, need at least 2\n"
    )
    assert not (tmp_path / "out").exists()


def test_negative_column_beyond_a_row_reports_line(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("0,1\n1,2\n2,3\n")
    args = ["pipeline", "--input", str(raw), "--outdir", str(tmp_path / "out")]
    code = main(args + ["--load-column", "-3"])
    assert code == 1
    assert "line 1: expected at least 3 columns, found 2" in capsys.readouterr().err


def test_file_that_is_not_utf8_reports_file_and_line(tmp_path, capsys):
    raw = tmp_path / "g.csv"
    raw.write_bytes(gzip.compress(b"0,0\n1,5\n2,10\n"))
    assert main(["resample", "--input", str(raw), "--outdir", str(tmp_path / "out")]) == 1
    assert f"{raw}: line 1: byte 0x8b is not UTF-8 text" in capsys.readouterr().err


def test_empty_delimiter_flag_is_named(workdir, capsys):
    tmp, raw, out, config = workdir
    assert main(["resample", "--config", str(config), "--delimiter="]) == 1
    err = capsys.readouterr().err
    assert err == "pivotfit: stage 'resample': delimiter must not be empty, got ''\n"


def _raise_fit_error(*args, **kwargs):
    raise FitError("no candidate could be evaluated")


def _raise_keyboard_interrupt(*args, **kwargs):
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "case, code, stderr",
    [
        ("fit_error", 3, "pivotfit: stage 'fit': no candidate could be evaluated\n"),
        ("interrupt", 130, "interrupted; partial outputs flushed\n"),
        ("outdir_not_a_path", 1, "pivotfit: "),
        ("config_not_an_object", 1, "pivotfit: config file {config} must hold a JSON object\n"),
        ("config_not_utf8", 1, "pivotfit: {config}: line 2: byte 0xe9 is not UTF-8 text\n"),
        ("unknown_config_key", 1, "pivotfit: unknown config file keys: colour\n"),
        ("unparsable_bounds", 1, "pivotfit: cannot parse bounds flag 'alpha1=a:b'"),
        ("no_input", 1, "pivotfit: stage 'resample': no input file given\n"),
        ("empty_outdir_flag", 1, "pivotfit: outdir must not be empty, got ''\n"),
        ("empty_outdir_in_config", 1, "pivotfit: outdir must not be empty, got ''\n"),
        ("bad_flag_value", 1, "usage: pivotfit pipeline "),
        ("unknown_command", 1, "usage: pivotfit "),
        ("no_arguments", 1, "usage: pivotfit "),
    ],
)
def test_exit_codes(workdir, monkeypatch, capsys, case, code, stderr):
    tmp, raw, out, config = workdir
    monkeypatch.chdir(tmp)  # where an empty outdir would put the outputs
    argv = ["pipeline", "--config", str(config)]
    if case == "fit_error":
        monkeypatch.setattr(pivotfit.cli, "fit", _raise_fit_error)
    elif case == "interrupt":
        monkeypatch.setattr(pivotfit.cli, "fit", _raise_keyboard_interrupt)
    elif case == "outdir_not_a_path":
        config.write_text(json.dumps({"input": str(raw), "outdir": 5}))
    elif case == "config_not_an_object":
        config.write_text(json.dumps([str(raw), str(out)]))
    elif case == "config_not_utf8":  # latin-1, one key per line, "input" on line 2
        text = json.dumps({"input": "caf\u00e9.csv"}, indent=1, ensure_ascii=False)
        config.write_bytes(text.encode("latin-1"))
    elif case == "empty_outdir_in_config":
        config.write_text(json.dumps({"input": str(raw), "outdir": ""}))
    elif case == "unknown_config_key":
        config.write_text(json.dumps({"input": str(raw), "colour": "red"}))
    else:
        argv = {
            "unparsable_bounds": [*argv, "--bounds", "alpha1=a:b"],
            "no_input": ["resample", "--outdir", str(out)],
            "empty_outdir_flag": [*argv, "--outdir", ""],
            "bad_flag_value": [*argv, "--step", "two"],
            "unknown_command": ["frobnicate"],
            "no_arguments": [],
        }[case]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(stderr.format(config=config))
    # only a failure in a stage after resample leaves an output directory
    assert out.exists() == (case in ("fit_error", "interrupt"))
    assert not (tmp / "reduced.csv").exists()
    # the console script exits with the code main returns
    monkeypatch.setattr(sys, "argv", ["pivotfit", *argv])
    with pytest.raises(SystemExit) as exited:
        entrypoint()
    assert exited.value.code == code


def test_help_and_version_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"{pivotfit.__version__}\n"
    assert main(["pipeline", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: pivotfit pipeline ")


@pytest.mark.parametrize(
    "key, value",
    [
        ("population", "16"),
        ("seed", True),
        ("scale", 40.0),
        ("outdir", 5),
        ("delimiter", None),
        ("bounds", [1, 50]),
        ("bounds", {"alpha1": [1]}),
        ("bounds", {"alpha1": ["1", "50"]}),
        ("bounds", {"gamma": [0, 1]}),
    ],
)
def test_config_file_value_types_checked(workdir, capsys, key, value):
    tmp, raw, out, config = workdir
    values = json.loads(config.read_text())
    values[key] = value
    config.write_text(json.dumps(values))
    assert main(["pipeline", "--config", str(config)]) == 1
    assert f"'{key}' must be" in capsys.readouterr().err
    assert not out.exists()  # rejected before any stage ran


@pytest.mark.parametrize("command", ["fit", "pipeline"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--population", "0"],
        ["--generations", "-1"],
        ["--workers", "0"],
        ["--bounds", "alpha1=50:1"],
        ["--bounds", "alpha1=nan:5"],
        ["--seed", "-1"],
    ],
)
def test_ga_settings_checked_before_any_stage(workdir, capsys, command, flags):
    tmp, raw, out, config = workdir
    assert main([command, "--config", str(config), *flags]) == 1
    assert capsys.readouterr().err.startswith("pivotfit: ")
    assert not out.exists()  # rejected before any stage ran


@pytest.mark.parametrize("command", ["resample", "backbone", "simulate", "fit", "pipeline"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("population", 2, "population_size must exceed the 2 elites"),
        ("generations", -1, "max_generations must be positive"),
        ("workers", 0, "workers must be positive"),
        ("bounds", {"alpha1": [50, 1]}, "lower bound exceeds upper bound for alpha1"),
        ("seed", -1, "rng_seed must be a non-negative integer"),
    ],
)
def test_ga_settings_in_a_config_file_checked_by_every_command(
    workdir, capsys, command, key, value, message
):
    """One file serves every stage, so every command refuses its bad GA
    settings, before resample writes anything."""
    tmp, raw, out, config = workdir
    config.write_text(json.dumps({**json.loads(config.read_text()), key: value}))
    assert main([command, "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"pivotfit: {message}\n"
    assert not out.exists()  # rejected before any stage ran


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--bounds", "eta=0:1.7e308"], "the range of eta is too wide"),
        (["--population", "2"], "population_size must exceed the 2 elites"),
    ],
    ids=["blend_overflow", "population_2"],
)
def test_ga_setting_errors_name_the_setting(workdir, capsys, flags, message):
    tmp, raw, out, config = workdir
    assert main(["pipeline", "--config", str(config), *flags]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()  # rejected before any stage ran


def test_main_gives_the_caller_its_warning_filters_back(workdir):
    tmp, raw, out, config = workdir
    before = list(warnings.filters)
    hook = warnings.showwarning
    assert main(["resample", "--config", str(config)]) == 0
    assert warnings.filters == before and warnings.showwarning is hook
    assert main(["resample", "--input", str(tmp / "missing.csv")]) == 2
    assert warnings.filters == before and warnings.showwarning is hook


@pytest.mark.parametrize("command", ["resample", "backbone", "simulate", "fit", "pipeline"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("precision", [0, -1])
def test_precision_checked_before_any_stage(workdir, capsys, command, source, precision):
    tmp, raw, out, config = workdir
    flags = ["--precision", str(precision)]
    if source == "config":
        values = json.loads(config.read_text())
        config.write_text(json.dumps({**values, "precision": precision}))
        flags = []
    assert main([command, "--config", str(config), *flags]) == 1
    err = capsys.readouterr().err
    assert err == f"pivotfit: precision must be at least 1, got {precision}\n"
    assert not out.exists()  # rejected before any stage ran


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--input", "missing.csv"], 2),
        (["--scale", "5"], 1),
        (["--step", "0"], 1),
        (["--delimiter="], 1),
    ],
)
def test_failed_run_leaves_no_manifest(workdir, flags, code):
    tmp, raw, out, config = workdir
    if flags[0] == "--input":
        flags = ["--input", str(tmp / flags[1])]
    for command in ("resample", "pipeline"):
        assert main([command, "--config", str(config), *flags]) == code
        assert not out.exists()  # the resample stage failed before its first write


def test_failed_command_removes_an_earlier_manifest(workdir):
    tmp, raw, out, config = workdir
    for command in ("resample", "backbone"):
        assert main([command, "--config", str(config)]) == 0
    assert (out / "manifest.json").exists()
    missing = str(tmp / "missing_params.txt")
    assert main(["simulate", "--config", str(config), "--params", missing]) == 2
    assert not (out / "manifest.json").exists()


def test_module_runs_as_script(tmp_path):
    src = os.path.dirname(os.path.dirname(pivotfit.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def run(*args):
        argv = [sys.executable, "-m", "pivotfit.cli", *args]
        return subprocess.run(
            argv, cwd=tmp_path, env=env, capture_output=True, text=True
        )

    version = run("--version")
    assert (version.returncode, version.stdout) == (0, f"{pivotfit.__version__}\n")
    missing = run("pipeline", "--input", "missing.csv", "--outdir", "out")
    assert missing.returncode == 2
    assert "missing.csv" in missing.stderr
    assert not (tmp_path / "out").exists()


def test_load_that_never_changes_sign_stops_the_pipeline_at_the_backbone(tmp_path):
    """A one-sided record gives a one-point envelope, which envelope
    extraction refuses, so no run writes a degenerate envelope."""
    raw = tmp_path / "raw.csv"
    disp, load = make_raw_record(raw, n_per_leg=40)
    write_record(SignalPair(disp, load - load.min() + 1.0), raw)  # every load > 0
    src = os.path.dirname(os.path.dirname(pivotfit.__file__))
    argv = [sys.executable, "-m", "pivotfit.cli", "pipeline", "--input", "raw.csv",
            "--outdir", "out", "--step", "2", "--scale", "40"]
    run = subprocess.run(
        argv, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert run.returncode == 1
    assert run.stderr == (
        "pivotfit: stage 'backbone': the envelope has one point: the load never changes sign\n"
    )
    assert (tmp_path / "out" / "resampled.csv").exists()
    assert not (tmp_path / "out" / "envelope.csv").exists()
    assert not (tmp_path / "out" / "idealized.csv").exists()
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_unknown_bounds_param_rejected(workdir):
    tmp, raw, out, config = workdir
    code = main(["fit", "--config", str(config), "--bounds", "gamma=0:1"])
    assert code == 1


def test_unwritable_outdir(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    make_raw_record(raw, n_per_leg=40)
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file where a directory is needed")
    code = main(
        ["resample", "--input", str(raw), "--outdir", str(blocker / "sub")]
    )
    assert code == 2
    assert "blocker" in capsys.readouterr().err


def test_outdir_env_var(workdir, monkeypatch):
    tmp, raw, out, config = workdir
    env_out = tmp / "env_out"
    monkeypatch.setenv("PIVOTFIT_OUTDIR", str(env_out))
    assert main(["resample", "--input", str(raw), "--step", "2", "--scale", "40"]) == 0
    assert (env_out / "resampled.csv").exists()


def test_warning_does_not_change_exit_status(workdir, capsys):
    """A degenerate yield==peak idealization warns, on one line, but exits 0."""
    tmp, raw, out, config = workdir
    out.mkdir(exist_ok=True)
    # loads rise with |displacement|, so the envelope is the protocol's
    # peaks; on the negative side the first point beyond 65% of the
    # extreme load is that extreme itself
    grid = uniform_grid_protocol([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.0], step=0.02)
    loads = np.interp(grid, [-3, -2, -1, 0, 1, 2, 3], [-12, -6, -4, 0, 5, 10, 12])
    write_record(SignalPair(grid, loads), out / "resampled.csv")
    code = main(["backbone", "--outdir", str(out)])
    assert code == 0
    assert capsys.readouterr().err == (
        "pivotfit: warning: yield point coincides with the extreme-load point "
        "on the negative side\n"
    )


def test_flags_override_config(workdir):
    tmp, raw, out, config = workdir
    alt = tmp / "alt_out"
    assert main(["resample", "--config", str(config), "--outdir", str(alt)]) == 0
    assert (alt / "resampled.csv").exists()


def test_manifest_contents(workdir):
    tmp, raw, out, config = workdir
    assert main(["resample", "--config", str(config)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["scale"] == 40
    assert "config_sha256" in manifest and "input_sha256" in manifest
    assert "pivotfit_version" in manifest


def test_manifest_input_sha256_is_the_hash_of_the_raw_bytes(workdir):
    tmp, raw, out, config = workdir
    with open(raw, "a") as fh:  # blank lines, which the reader skips, span 5 blocks
        fh.write("\n" * (1 << 18))
    assert main(["resample", "--config", str(config)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input_sha256"] == hashlib.sha256(raw.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers, imported", [(1, False), (2, True)])
def test_only_a_fit_on_several_workers_imports_multiprocessing(tmp_path, workers, imported):
    make_raw_record(tmp_path / "raw.csv", n_per_leg=40)
    src = os.path.dirname(os.path.dirname(pivotfit.__file__))
    script = (
        "import sys; from pivotfit.cli import main; "
        "code = main(sys.argv[1:]); print(code, 'multiprocessing' in sys.modules)"
    )
    argv = ["pipeline", "--input", "raw.csv", "--outdir", "out", "--step", "2", "--scale", "40"]
    argv += ["--population", "8", "--generations", "2", "--workers", str(workers)]
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.stdout == f"0 {imported}\n", done.stderr
    # no "use of fork() may lead to deadlocks" warning: no second Python
    # thread runs when the fit forks its workers
    assert done.stderr == ""


def console_script_record(load_scale=1.0):
    """The record the CI step "Installed console script" writes, its
    loads times load_scale."""
    peaks = [0.0, 1.5, -1.5, 2.0, -2.0, 2.6, -2.6, 0.0]
    d = np.concatenate([np.linspace(a, b, 60)[1:] for a, b in zip(peaks, peaks[1:])])
    f = simulate(BACKBONE, PivotParams(10.0, 8.0, 0.7, 0.6, 40.0), d)
    return SignalPair(d, f * load_scale)


@pytest.mark.filterwarnings("ignore:yield point coincides")
def test_readme_library_example_runs(tmp_path, monkeypatch):
    write_record(console_script_record(), tmp_path / "raw.csv")
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        library = fh.read().split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md, Library", "exec"), {})


# loads near 1e156 square to inf against any response on their backbone,
# so no genome of the first generation has a finite score
NO_FINITE_SCORE = "no candidate of generation 1 has a finite deviation score"


@pytest.mark.filterwarnings("ignore:yield point coincides")
def test_fit_with_no_finite_score_raises_fit_error():
    record = console_script_record(1e155)
    backbone = idealize(extract_envelope(record))
    config = GAConfig(population_size=8, max_generations=3, rng_seed=0)
    with pytest.raises(FitError, match=f"^{NO_FINITE_SCORE}$"):
        fit(record, backbone, config)


def test_pipeline_with_no_finite_score_exits_3(tmp_path, capsys):
    write_record(console_script_record(1e155), tmp_path / "huge.csv")
    out = tmp_path / "out"
    code = main(
        ["pipeline", "--input", str(tmp_path / "huge.csv"), "--outdir", str(out),
         "--step", "2", "--scale", "40", "--population", "8", "--generations", "3",
         "--seed", "0"]
    )
    assert code == 3
    # an overflowing square is an inf score, not a numpy warning
    assert capsys.readouterr().err == (
        "pivotfit: warning: yield point coincides with the extreme-load point "
        f"on the negative side\npivotfit: stage 'fit': {NO_FINITE_SCORE}\n"
    )
    assert not (out / "manifest.json").exists()


def test_pipeline_names_a_candidate_whose_response_is_nan(tmp_path, capsys):
    """alpha1 up to 5e307 overflows the primary pivot load of most genomes:
    the fit stops at the first whose response is NaN, and names it."""
    write_record(console_script_record(), tmp_path / "raw.csv")
    out = tmp_path / "out"
    code = main(
        ["pipeline", "--input", str(tmp_path / "raw.csv"), "--outdir", str(out),
         "--step", "2", "--scale", "40", "--population", "8", "--generations", "3",
         "--seed", "0", "--bounds", "alpha1=1:5e307"]
    )
    assert code == 3
    resampled = load_record(out / "resampled.csv")
    ideal = load_record(out / "idealized.csv")
    _, params = first_failing_candidate(
        IdealizedBackbone(ideal.displacement, ideal.load), resampled.displacement,
        ParamBounds(alpha1=(1.0, 5e307)), 0, 8,
    )
    assert capsys.readouterr().err.endswith(
        f"pivotfit: stage 'fit': the engine cannot simulate {params}: "
        "its response is NaN, as when a pivot load overflows\n"
    )
    assert not (out / "manifest.json").exists()
