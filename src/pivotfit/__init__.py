"""Pivot hysteresis model identification from cyclic load-deformation records.

The package covers the full pipeline: reading raw LVDT-style records,
reducing and re-gridding them onto uniform displacement increments,
extracting and idealizing the backbone envelope curve, simulating the
Pivot hysteresis model natively, and fitting its five parameters with a
real-coded genetic algorithm.
"""

from pivotfit.ingest import (
    ParseError,
    SignalPair,
    ValidationError,
    load_record,
    validate,
    write_record,
)
from pivotfit.resample import (
    SegmentError,
    detect_reversals,
    irregular_resample,
    regular_reduce,
)
from pivotfit.backbone import (
    EnvelopeCurve,
    IdealizedBackbone,
    extract_envelope,
    idealize,
)
from pivotfit.pivot import History, PivotParams, simulate
from pivotfit.optimize import (
    FitError,
    GAConfig,
    ConvergenceHistory,
    ParamBounds,
    deviation_score,
    fit,
)

__version__ = "0.1.0"

__all__ = [
    "SignalPair",
    "ParseError",
    "ValidationError",
    "load_record",
    "write_record",
    "validate",
    "SegmentError",
    "regular_reduce",
    "detect_reversals",
    "irregular_resample",
    "EnvelopeCurve",
    "IdealizedBackbone",
    "extract_envelope",
    "idealize",
    "PivotParams",
    "History",
    "simulate",
    "GAConfig",
    "ParamBounds",
    "ConvergenceHistory",
    "FitError",
    "deviation_score",
    "fit",
    "__version__",
]
