"""Conformal prediction intervals for object detectors.

Split-conformal corner intervals around predicted bounding boxes (with
optional uncertainty scaling and isotonic sigma recalibration), label
prediction sets for the classification head, and the combined two-step
procedure that feeds the label set into class-conditional box quantiles.

Importing the package loads none of its submodules: each exported name
is imported from its submodule the first time it is read (PEP 562), so
``python -m confdet`` reaches ``confdet.cli`` before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "calibration": (
        "SCOPE_GLOBAL",
        "SCOPE_PER_CLASS",
        "SCOPE_RAW",
        "SCOPES",
        "SigmaCalibrator",
        "evaluate_map",
        "isotonic_fit",
        "load_calibrator",
        "pava_fit",
        "save_calibrator",
    ),
    "classification": (
        "classification_quantile",
        "true_class_scores",
    ),
    "core": (
        "AGNOSTIC",
        "DEFAULT_IMAGE_BOUNDS",
        "BoundingBox",
        "Dataset",
        "DetectionRecord",
        "MiscoverageConfig",
        "QuantileTable",
        "RAPSConfig",
        "validate_columns",
        "validate_record",
    ),
    "errors": (
        "ConfdetError",
        "ConfigError",
        "DataError",
        "EmptyCalibration",
        "EmptySetConfig",
        "OutOfRange",
        "ParseError",
        "StratificationImpossible",
        "ValidationError",
    ),
    "io": (
        "LoadReport",
        "emit_report",
        "load_dataset",
        "load_report",
        "save_dataset",
        "save_oracle_info",
    ),
    "metrics": (
        "MetricRow",
        "box_interval_scores",
        "paired_t_test",
    ),
    "oracle": (
        "OracleInfo",
        "OracleSpec",
        "generate",
    ),
    "pipeline": (
        "REGIMES",
        "SCALINGS",
        "RunConfig",
        "RunReport",
        "RunResult",
        "compare_reports",
        "random_split",
        "recovery_sweep",
        "run_experiment",
    ),
    "regression": (
        "bonferroni_corner_alpha",
        "conformal_quantile",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
