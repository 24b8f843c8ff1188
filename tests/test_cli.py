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
from pivotfit import IdealizedBackbone, PivotParams, SignalPair, simulate, write_record
from pivotfit.cli import entrypoint, main
from pivotfit.optimize import FitError
from conftest import uniform_grid_protocol


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


def test_stage_composability(workdir):
    tmp, raw, out, config = workdir
    assert main(["pipeline", "--config", str(config)]) == 0
    envelope = (out / "envelope.csv").read_bytes()
    response = (out / "response.csv").read_bytes()
    # re-run individual stages from the files already on disk
    assert main(["backbone", "--config", str(config)]) == 0
    assert (out / "envelope.csv").read_bytes() == envelope
    assert main(["simulate", "--config", str(config)]) == 0
    assert (out / "response.csv").read_bytes() == response


def test_stage_by_stage_writes_the_pipeline_bytes(workdir):
    tmp, raw, out, config = workdir
    assert main(["pipeline", "--config", str(config)]) == 0
    staged = tmp / "staged"
    for command in ("resample", "backbone", "fit"):
        assert main([command, "--config", str(config), "--outdir", str(staged)]) == 0
    names = sorted(os.listdir(out))
    assert sorted(os.listdir(staged)) == names
    for name in names:
        if name != "manifest.json":
            assert (staged / name).read_bytes() == (out / name).read_bytes(), name


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


def test_simulate_self_consistency(workdir):
    """Simulating the generating params reproduces the experimental
    column: the record is regenerated from the params file so the
    response must match to high precision."""
    tmp, raw, out, config = workdir
    out.mkdir()
    params_file = out / "params.txt"
    params_file.write_text(
        "alpha1=10\nalpha2=8\nbeta1=0.7\nbeta2=0.6\neta=40\n"
    )
    grid = uniform_grid_protocol([1.5, -1.5, 2.2, -2.2, 0.0], step=0.025)
    loads = simulate(BACKBONE, PivotParams(10, 8, 0.7, 0.6, 40), grid)
    write_record(SignalPair(grid, loads), out / "resampled.csv")
    write_record(
        SignalPair(BACKBONE.displacement, BACKBONE.load), out / "idealized.csv"
    )
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


@pytest.mark.parametrize(
    "case, code, stderr",
    [
        ("fit_error", 3, "pivotfit: stage 'fit': no candidate could be evaluated\n"),
        ("outdir_not_a_path", 1, "pivotfit: "),
        ("bad_flag_value", 1, "usage: pivotfit pipeline "),
        ("unknown_command", 1, "usage: pivotfit "),
        ("no_arguments", 1, "usage: pivotfit "),
    ],
)
def test_exit_codes(workdir, monkeypatch, capsys, case, code, stderr):
    tmp, raw, out, config = workdir
    argv = ["pipeline", "--config", str(config)]
    if case == "fit_error":
        monkeypatch.setattr(pivotfit.cli, "fit", _raise_fit_error)
    elif case == "outdir_not_a_path":
        config.write_text(json.dumps({"input": str(raw), "outdir": 5}))
    else:
        argv = {
            "bad_flag_value": [*argv, "--step", "two"],
            "unknown_command": ["frobnicate"],
            "no_arguments": [],
        }[case]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(stderr)
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
    assert main(["resample", "--config", str(config)]) == 0
    assert warnings.filters == before
    assert main(["resample", "--input", str(tmp / "missing.csv")]) == 2
    assert warnings.filters == before


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
    [(["--input", "missing.csv"], 2), (["--scale", "5"], 1), (["--step", "0"], 1)],
)
def test_failed_run_leaves_no_manifest(workdir, flags, code):
    tmp, raw, out, config = workdir
    if flags[0] == "--input":
        flags = ["--input", str(tmp / flags[1])]
    assert main(["pipeline", "--config", str(config), *flags]) == code
    assert out.is_dir()  # the run got as far as the stages
    assert not (out / "manifest.json").exists()
    assert not (out / "reduced.csv").exists()


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
    """A degenerate yield==peak idealization warns but exits 0."""
    tmp, raw, out, config = workdir
    out.mkdir(exist_ok=True)
    # an envelope whose first threshold crossing is the peak itself
    grid = uniform_grid_protocol([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.0], step=0.02)
    loads = np.where(grid >= 0, 15 * np.tanh(2 * grid), 13 * np.tanh(2.5 * grid))
    write_record(SignalPair(grid, loads), out / "resampled.csv")
    code = main(["backbone", "--outdir", str(out)])
    assert code == 0


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
