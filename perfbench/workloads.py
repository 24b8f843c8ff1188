"""Seeded synthetic raw records and the pipeline settings of each workload.

Every record is the Pivot response of one fixed 7-point backbone under
known parameters, driven through a cyclic protocol (two cycles at each of
eight increasing amplitudes, the first two below yield, 32 reversals),
plus seeded Gaussian load noise. The seed changes only the noise, so the
amount of work per run stays the same from seed to seed while the bytes
the program reads do not.

The backbone knots sit on protocol amplitudes and on the 1/20 resampling
grid, so the envelope the pipeline extracts passes near them; amplitudes
are multiples of 0.05 so peaks are grid points of both resampling scales.
"""

from __future__ import annotations

import numpy as np

BACKBONE_D = (-1.6, -1.0, -0.4, 0.0, 0.4, 1.0, 1.6)
BACKBONE_F = (-41.0, -50.0, -35.0, 0.0, 40.0, 56.0, 47.0)
TRUTH = {"alpha1": 3.0, "alpha2": 2.5, "beta1": 0.5, "beta2": 0.4, "eta": 20.0}
AMPLITUDES = (0.15, 0.25, 0.4, 0.55, 0.75, 1.0, 1.3, 1.6)
CYCLES_PER_AMPLITUDE = 2
NOISE_FRACTION = 0.005  # load noise std as a share of the peak backbone load

# Search bounds passed to every run; also the spans that normalise
# param_err_max. They equal pivotfit's default bounds.
BOUNDS = {
    "alpha1": (1.0, 100.0),
    "alpha2": (1.0, 100.0),
    "beta1": (0.0, 1.0),
    "beta2": (0.0, 1.0),
    "eta": (0.0, 1000.0),
}
GA_SEED = 0

# The GA stops early after 50 generations without improvement, at a
# generation that depends on the record's noise. Runs of at most 50
# generations never stall out, so every seed does the same number of
# evaluations and pipeline_s compares across seeds.
WORKLOADS = {
    "fit_serial": {
        "why": "lab record, GA of 50 x 50 on 1 worker: pivot engine and GA dominate",
        "rows_per_unit": 200,
        "step": 2,
        "scale": 20,
        "population": 50,
        "generations": 50,
        "workers": 1,
    },
    "fit_workers2": {
        "why": "same record and GA on 2 workers: process pool, pickling and chunked map",
        "rows_per_unit": 200,
        "step": 2,
        "scale": 20,
        "population": 50,
        "generations": 50,
        "workers": 2,
    },
    "ingest_large": {
        "why": "250k raw rows and a tiny GA: text I/O, reduction and resampling dominate",
        "rows_per_unit": 5200,
        "step": 2,
        "scale": 100,
        "population": 8,
        "generations": 3,
        "workers": 1,
    },
}


def protocol_peaks():
    peaks = []
    for amplitude in AMPLITUDES:
        peaks += [amplitude, -amplitude] * CYCLES_PER_AMPLITUDE
    peaks.append(0.0)
    return peaks


def displacement_history(rows_per_unit):
    """Raw displacement rows: each leg sampled evenly, with an even row
    count so that reduction by 2 keeps every peak."""
    legs = [np.zeros(1)]
    current = 0.0
    for peak in protocol_peaks():
        rows = 2 * max(1, round(abs(peak - current) * rows_per_unit / 2))
        legs.append(np.linspace(current, peak, rows + 1)[1:])
        current = peak
    return np.concatenate(legs)


def make_record(workload, seed):
    """(displacement, load) of the workload's raw record for this seed."""
    # Imported here so that importing this module needs no pivotfit.
    from pivotfit import IdealizedBackbone, PivotParams, simulate

    disp = displacement_history(WORKLOADS[workload]["rows_per_unit"])
    clean = simulate(
        IdealizedBackbone(BACKBONE_D, BACKBONE_F), PivotParams(**TRUTH), disp
    )
    noise_std = NOISE_FRACTION * max(abs(f) for f in BACKBONE_F)
    rng = np.random.default_rng(seed)
    return disp, clean + noise_std * rng.standard_normal(disp.shape[0])


def write_raw_csv(path, disp, load):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("displacement_mm,load_kN\n")
        fh.writelines(
            f"{d:.9g},{f:.9g}\n" for d, f in zip(disp.tolist(), load.tolist())
        )


def pipeline_args(workload, raw_path, outdir, workers=None):
    w = WORKLOADS[workload]
    args = [
        "pipeline",
        "--input", raw_path,
        "--outdir", outdir,
        "--step", str(w["step"]),
        "--scale", str(w["scale"]),
        "--population", str(w["population"]),
        "--generations", str(w["generations"]),
        "--seed", str(GA_SEED),
        "--workers", str(w["workers"] if workers is None else workers),
    ]
    for name, (lo, hi) in BOUNDS.items():
        args += ["--bounds", f"{name}={lo}:{hi}"]
    return args


def descriptors(raw_rows, resampled_samples):
    reversals = len(protocol_peaks()) - 1
    return {
        "raw_rows": raw_rows,
        "resampled_samples": resampled_samples,
        "reversals": reversals,
        "samples_per_reversal": resampled_samples / reversals,
    }
