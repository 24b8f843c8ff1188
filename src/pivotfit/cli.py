"""Command-line front end for the identification pipeline.

Subcommands run the pipeline stage by stage (resample, backbone,
simulate, fit) or end to end (pipeline). Every stage reads its inputs
from files and writes plain comma-separated text with a one-line header,
so stages are freely re-runnable and byte-reproducible. A JSON config
file provides defaults; command-line flags override it. A machine-
readable run manifest accompanies every completed run.

Exit codes: 0 success, 1 validation, usage or any other failure, 2
I/O failure, 3 optimization failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, asdict

import numpy as np

import pivotfit
from pivotfit.backbone import extract_envelope, idealize, IdealizedBackbone
from pivotfit.ingest import (
    OUTPUT_PRECISION,
    ParseError,
    ValidationError,
    format_number,
    load_record,
    write_columns,
    write_record,
)
from pivotfit.optimize import FitError, GAConfig, ParamBounds, fit
from pivotfit.pivot import PARAM_NAMES, PivotParams, simulate
from pivotfit.resample import detect_reversals, irregular_resample, regular_reduce

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_OPTIMIZATION = 3

OUTDIR_ENV_VAR = "PIVOTFIT_OUTDIR"


@dataclass
class PipelineConfig:
    """Resolved settings for a run: ingestion, resampling and GA."""

    input: str = None
    outdir: str = "."
    delimiter: str = ","
    displacement_column: int = 0
    load_column: int = 1
    displacement_unit: str = "mm"
    load_unit: str = "kN"
    step: int = 1
    scale: int = 100
    precision: int = OUTPUT_PRECISION
    population: int = 50
    generations: int = 300
    seed: int = 0
    workers: int = 1
    bounds: dict = field(default_factory=dict)  # name -> [lo, hi]

    def ga_config(self) -> GAConfig:
        b = {name: (float(lo), float(hi)) for name, (lo, hi) in self.bounds.items()}
        return GAConfig(
            population_size=self.population,
            max_generations=self.generations,
            rng_seed=self.seed,
            workers=self.workers,
            bounds=ParamBounds(**b),
        )

    def path(self, filename: str) -> str:
        return os.path.join(self.outdir, filename)


def _load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValidationError([f"config file {path} must hold a JSON object"])
    return data


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_bounds(value) -> bool:
    return isinstance(value, dict) and all(
        name in PARAM_NAMES
        and isinstance(interval, list)
        and len(interval) == 2
        and all(_is_int(v) or isinstance(v, float) for v in interval)
        for name, interval in value.items()
    )


# PipelineConfig field type -> (what a config file value must be, check)
_FILE_VALUE_TYPES = {
    "int": ("an integer", _is_int),
    "str": ("a string", lambda value: isinstance(value, str)),
    "dict": ("an object of parameter name -> [lo, hi]", _is_bounds),
}


def _check_file_values(values: dict, path) -> None:
    """Reject config file values of the wrong JSON type before any stage
    runs."""
    for key, value in values.items():
        kind = PipelineConfig.__dataclass_fields__[key].type
        expected, check = _FILE_VALUE_TYPES[kind]
        if not check(value):
            raise ValidationError(
                [f"config file {path}: {key!r} must be {expected}, got {value!r}"]
            )


def _parse_bounds_flag(values) -> dict:
    bounds = {}
    for entry in values or ():
        try:
            name, _, interval = entry.partition("=")
            lo, _, hi = interval.partition(":")
            bounds[name.strip()] = [float(lo), float(hi)]
        except ValueError:
            raise ValidationError(
                [f"cannot parse bounds flag {entry!r}, expected name=lo:hi"]
            ) from None
        if name.strip() not in PARAM_NAMES:
            raise ValidationError([f"unknown parameter in bounds flag: {name!r}"])
    return bounds


def resolve_config(args) -> PipelineConfig:
    cfg = PipelineConfig()
    if os.environ.get(OUTDIR_ENV_VAR):
        cfg.outdir = os.environ[OUTDIR_ENV_VAR]
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
        unknown = set(file_values) - set(cfg.__dataclass_fields__)
        if unknown:
            raise ValidationError(
                [f"unknown config file keys: {', '.join(sorted(unknown))}"]
            )
        _check_file_values(file_values, args.config)
        for key, value in file_values.items():
            setattr(cfg, key, value)
    for key in cfg.__dataclass_fields__:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    flag_bounds = _parse_bounds_flag(getattr(args, "bounds_flags", None))
    cfg.bounds = {**cfg.bounds, **flag_bounds}
    return cfg


def _manifest(cfg: PipelineConfig, command: str) -> dict:
    resolved = asdict(cfg)
    config_blob = json.dumps(resolved, sort_keys=True).encode()
    manifest = {
        "command": command,
        "config": resolved,
        "config_sha256": hashlib.sha256(config_blob).hexdigest(),
        "pivotfit_version": pivotfit.__version__,
        "numpy_version": np.__version__,
    }
    if cfg.input and os.path.exists(cfg.input):
        digest = hashlib.sha256()  # fed in blocks, so the raw text is never held whole
        with open(cfg.input, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                digest.update(block)
        manifest["input_sha256"] = digest.hexdigest()
    return manifest


class _StageFailure(Exception):
    def __init__(self, stage, original):
        self.stage = stage
        self.original = original
        super().__init__(f"stage '{stage}': {original}")


@contextmanager
def _stage(name):
    """Re-raise stage errors tagged with the stage name."""
    try:
        yield
    except Exception as exc:
        raise _StageFailure(name, exc) from exc


def cmd_resample(cfg: PipelineConfig) -> None:
    """input -> reduced.csv + resampled.csv"""
    with _stage("resample"):
        if not cfg.input:
            raise ValidationError(["no input file given"])
        raw = load_record(
            cfg.input,
            delimiter=cfg.delimiter,
            displacement_column=cfg.displacement_column,
            load_column=cfg.load_column,
            displacement_unit=cfg.displacement_unit,
            load_unit=cfg.load_unit,
        )
        reduced = regular_reduce(raw, cfg.step)
        changes = detect_reversals(reduced.displacement)
        resampled = irregular_resample(reduced, cfg.scale, changes)
        write_record(reduced, cfg.path("reduced.csv"), precision=cfg.precision)
        write_record(resampled, cfg.path("resampled.csv"), precision=cfg.precision)


def cmd_backbone(cfg: PipelineConfig) -> None:
    """resampled.csv -> envelope.csv + idealized.csv"""
    with _stage("backbone"):
        resampled = load_record(cfg.path("resampled.csv"))
        env = extract_envelope(resampled)
        write_columns(
            cfg.path("envelope.csv"),
            (f"displacement_{cfg.displacement_unit}", f"load_{cfg.load_unit}"),
            (env.displacement, env.load),
            precision=cfg.precision,
        )
        ideal = idealize(env)
        write_columns(
            cfg.path("idealized.csv"),
            (f"displacement_{cfg.displacement_unit}", f"load_{cfg.load_unit}"),
            (ideal.displacement, ideal.load),
            precision=cfg.precision,
        )


def _read_idealized(cfg: PipelineConfig) -> IdealizedBackbone:
    # Stage outputs are comma-separated displacement,load files.
    pair = load_record(cfg.path("idealized.csv"))
    return IdealizedBackbone(pair.displacement, pair.load)


def _read_params_file(path) -> PivotParams:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, value = line.partition("=")
            name = name.strip()
            if not sep or name not in PARAM_NAMES:
                raise ParseError(
                    f"expected '<param>=<value>' with param in {PARAM_NAMES}",
                    path=path,
                    line=lineno,
                )
            if name in values:
                raise ParseError(f"duplicate parameter {name!r}", path=path, line=lineno)
            try:
                values[name] = float(value)
            except ValueError:
                raise ParseError(
                    f"non-numeric value {value.strip()!r}", path=path, line=lineno
                ) from None
    missing = [n for n in PARAM_NAMES if n not in values]
    if missing:
        raise ParseError(f"missing parameters: {', '.join(missing)}", path=path)
    return PivotParams(**values)


def _write_params_file(params: PivotParams, path, precision):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for name in PARAM_NAMES:
            fh.write(f"{name}={format_number(getattr(params, name), precision)}\n")


def _write_response(cfg: PipelineConfig, resampled, response):
    write_columns(
        cfg.path("response.csv"),
        (
            f"displacement_{cfg.displacement_unit}",
            f"simulated_load_{cfg.load_unit}",
            f"experimental_load_{cfg.load_unit}",
        ),
        (resampled.displacement, response, resampled.load),
        precision=cfg.precision,
    )


def cmd_simulate(cfg: PipelineConfig, params_path=None) -> None:
    """resampled.csv + idealized.csv + params -> response.csv"""
    with _stage("simulate"):
        params = _read_params_file(params_path or cfg.path("best_params.txt"))
        resampled = load_record(cfg.path("resampled.csv"))
        ideal = _read_idealized(cfg)
        response = simulate(ideal, params, resampled.displacement)
        _write_response(cfg, resampled, response)


def cmd_fit(cfg: PipelineConfig) -> None:
    """resampled.csv + idealized.csv -> best_params.txt + convergence.csv
    + response.csv"""
    with _stage("fit"):
        resampled = load_record(cfg.path("resampled.csv"))
        ideal = _read_idealized(cfg)
        ga = cfg.ga_config()

        header = ("generation", "best_score", "mean_score") + PARAM_NAMES
        with open(
            cfg.path("convergence.csv"), "w", encoding="utf-8", newline="\n"
        ) as fh:
            fh.write(",".join(header) + "\n")

            def stream_row(generation, history):
                row = history.row(generation)
                fh.write(
                    ",".join(format_number(v, cfg.precision) for v in row) + "\n"
                )
                fh.flush()

            best, _history = fit(resampled, ideal, ga, on_generation=stream_row)
        _write_params_file(best, cfg.path("best_params.txt"), cfg.precision)
    # Response comes from the written params file so that a later
    # standalone `simulate` reproduces it byte for byte.
    cmd_simulate(cfg)


def cmd_pipeline(cfg: PipelineConfig) -> None:
    """input -> all stage outputs in order"""
    cmd_resample(cfg)
    cmd_backbone(cfg)
    cmd_fit(cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pivotfit",
        description="Identify Pivot hysteresis model parameters from cyclic "
        "load-deformation records.",
    )
    parser.add_argument("--version", action="version", version=pivotfit.__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file with PipelineConfig keys")
        p.add_argument("--input", help="raw record file")
        p.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV_VAR} or .)")
        p.add_argument("--delimiter", help="input column delimiter (default ',')")
        p.add_argument("--displacement-column", type=int, dest="displacement_column")
        p.add_argument("--load-column", type=int, dest="load_column")
        p.add_argument("--displacement-unit", dest="displacement_unit")
        p.add_argument("--load-unit", dest="load_unit")
        p.add_argument("--precision", type=int, help="output significant digits")

    def add_resample(p):
        p.add_argument("--step", type=int, help="regular reduction stride m")
        p.add_argument("--scale", type=int, help="resampling scale (> 10)")

    def add_ga(p):
        p.add_argument("--seed", type=int, help="GA random seed")
        p.add_argument("--population", type=int, help="GA population size")
        p.add_argument("--generations", type=int, help="GA max generations")
        p.add_argument("--workers", type=int, help="parallel fitness workers")
        p.add_argument(
            "--bounds",
            action="append",
            dest="bounds_flags",
            metavar="PARAM=LO:HI",
            help="override a parameter's search bounds (repeatable)",
        )

    p = sub.add_parser("resample", help="reduce and re-grid the raw record")
    add_common(p)
    add_resample(p)

    p = sub.add_parser("backbone", help="extract and idealize the envelope")
    add_common(p)

    p = sub.add_parser("simulate", help="simulate a params file on the record")
    add_common(p)
    p.add_argument("--params", help="params file (default <outdir>/best_params.txt)")

    p = sub.add_parser("fit", help="run the GA identification")
    add_common(p)
    add_ga(p)

    p = sub.add_parser("pipeline", help="resample + backbone + fit + simulate")
    add_common(p)
    add_resample(p)
    add_ga(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help, the version or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    # warnings print during the run; the caller gets its filters back
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            cfg = resolve_config(args)
            if cfg.precision < 1:  # checked before any stage writes a file
                raise ValueError(f"precision must be at least 1, got {cfg.precision}")
            if args.command in ("fit", "pipeline"):
                cfg.ga_config().validate()
            manifest = _manifest(cfg, args.command)  # of the input as read
            os.makedirs(cfg.outdir, exist_ok=True)
            # an earlier command's manifest would describe this run's outputs
            with suppress(FileNotFoundError):
                os.remove(cfg.path("manifest.json"))
            if args.command == "resample":
                cmd_resample(cfg)
            elif args.command == "backbone":
                cmd_backbone(cfg)
            elif args.command == "simulate":
                cmd_simulate(cfg, params_path=getattr(args, "params", None))
            elif args.command == "fit":
                cmd_fit(cfg)
            elif args.command == "pipeline":
                cmd_pipeline(cfg)
            # written last, so only a completed run leaves a manifest
            with open(cfg.path("manifest.json"), "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except KeyboardInterrupt:
            print("interrupted; partial outputs flushed", file=sys.stderr)
            return 130
        except Exception as exc:
            print(f"pivotfit: {exc}", file=sys.stderr)
            cause = exc.original if isinstance(exc, _StageFailure) else exc
            if isinstance(cause, FitError):
                return EXIT_OPTIMIZATION
            if isinstance(cause, OSError):
                return EXIT_IO
            return EXIT_VALIDATION
        return EXIT_OK


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
