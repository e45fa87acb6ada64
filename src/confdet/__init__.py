"""Conformal prediction intervals for object detectors.

Split-conformal corner intervals around predicted bounding boxes (with
optional uncertainty scaling and isotonic sigma recalibration), label
prediction sets for the classification head, and the combined two-step
procedure that feeds the label set into class-conditional box quantiles.
"""

from .calibration import (
    SCOPE_GLOBAL,
    SCOPE_PER_CLASS,
    SCOPE_RAW,
    SCOPES,
    SigmaCalibrator,
    apply_calibrated_sigma,
    evaluate_map,
    isotonic_fit,
    load_calibrator,
    pava_fit,
    save_calibrator,
)
from .classification import (
    classification_quantile,
    true_class_scores,
)
from .core import (
    AGNOSTIC,
    DEFAULT_IMAGE_BOUNDS,
    BoundingBox,
    Dataset,
    DetectionRecord,
    MiscoverageConfig,
    QuantileTable,
    RAPSConfig,
    validate_columns,
    validate_record,
)
from .errors import (
    ConfdetError,
    ConfigError,
    DataError,
    EmptyCalibration,
    EmptySetConfig,
    OutOfRange,
    ParseError,
    StratificationImpossible,
    ValidationError,
)
from .io import (
    LoadReport,
    emit_report,
    load_dataset,
    load_report,
    save_dataset,
    save_oracle_info,
)
from .metrics import (
    MetricRow,
    box_interval_scores,
    paired_t_test,
)
from .oracle import OracleInfo, OracleSpec, generate
from .pipeline import (
    REGIMES,
    SCALINGS,
    RunConfig,
    RunReport,
    RunResult,
    compare_reports,
    random_split,
    recovery_sweep,
    run_experiment,
)
from .regression import (
    bonferroni_corner_alpha,
    conformal_quantile,
)

__version__ = "0.1.0"

__all__ = [
    "AGNOSTIC",
    "BoundingBox",
    "ConfdetError",
    "ConfigError",
    "DEFAULT_IMAGE_BOUNDS",
    "DataError",
    "Dataset",
    "DetectionRecord",
    "EmptyCalibration",
    "EmptySetConfig",
    "LoadReport",
    "MetricRow",
    "MiscoverageConfig",
    "OracleInfo",
    "OracleSpec",
    "OutOfRange",
    "ParseError",
    "QuantileTable",
    "RAPSConfig",
    "REGIMES",
    "RunConfig",
    "RunReport",
    "RunResult",
    "SCALINGS",
    "SCOPE_GLOBAL",
    "SCOPE_PER_CLASS",
    "SCOPE_RAW",
    "SCOPES",
    "SigmaCalibrator",
    "StratificationImpossible",
    "ValidationError",
    "apply_calibrated_sigma",
    "bonferroni_corner_alpha",
    "box_interval_scores",
    "classification_quantile",
    "compare_reports",
    "conformal_quantile",
    "emit_report",
    "evaluate_map",
    "generate",
    "isotonic_fit",
    "load_calibrator",
    "load_dataset",
    "load_report",
    "paired_t_test",
    "pava_fit",
    "random_split",
    "recovery_sweep",
    "run_experiment",
    "save_calibrator",
    "save_dataset",
    "save_oracle_info",
    "true_class_scores",
    "validate_columns",
    "validate_record",
]
