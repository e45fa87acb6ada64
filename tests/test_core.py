import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import confdet
from confdet.core import (
    AGNOSTIC,
    BoundingBox,
    CalibrationMap,
    Dataset,
    MiscoverageConfig,
    QuantileTable,
    RAPSConfig,
    contains_xyxy,
    records_to_arrays,
    validate_record,
)
from confdet.calibration import (
    SCOPE_GLOBAL,
    SCOPE_PER_CLASS,
    SCOPE_RAW,
    SigmaCalibrator,
    calibrated_sigma_array,
    fit_calibrator_arrays,
    sigma_plan,
)
from confdet.classification import true_class_scores
from confdet.errors import InvalidClass, LengthMismatch, OutOfRange, ValidationError
from confdet.regression import fit_quantiles_from_scores, group_quantiles, presort_groups

from conftest import make_dataset, make_record


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks only `from confdet import *`
    assert [name for name in confdet.__all__ if not hasattr(confdet, name)] == []
    namespace = {}
    exec("from confdet import *", namespace)
    assert set(confdet.__all__) <= set(namespace)


def test_only_core_binds_the_record_form():
    # records enter as DetectionRecord and leave as columns in core alone; the
    # kernels and the pipeline take arrays (the package root re-exports the type)
    modules = [info.name for info in pkgutil.iter_modules(confdet.__path__) if info.name not in ("core", "__main__")]
    assert "calibration" in modules
    bound = {
        (module, name)
        for module in modules
        for name in ("DetectionRecord", "records_to_arrays")
        if hasattr(importlib.import_module(f"confdet.{module}"), name)
    }
    assert bound == set()


def test_bounding_box_dimensions():
    box = BoundingBox(1.0, 2.0, 4.0, 10.0)
    assert box.width == 3.0
    assert box.height == 8.0
    assert_allclose(box.as_array(), [1.0, 2.0, 4.0, 10.0])
    assert BoundingBox(*box.as_array().tolist()) == box


def test_bounding_box_contains_inclusive():
    outer = np.array([[0.0, 0.0, 10.0, 10.0]])
    assert contains_xyxy(outer, [[0.0, 0.0, 10.0, 10.0]]).tolist() == [True]
    assert contains_xyxy(outer, [[2.0, 2.0, 8.0, 8.0]]).tolist() == [True]
    assert contains_xyxy(outer, [[-0.1, 0.0, 10.0, 10.0]]).tolist() == [False]
    assert contains_xyxy(outer, [[0.0, 0.0, 10.1, 10.0]]).tolist() == [False]


def test_validate_record_well_formed():
    assert validate_record(make_record()) == []


def test_validate_record_zero_sigma():
    rec = make_record(sigma=(0.0, 1.0, 1.0, 1.0))
    problems = validate_record(rec)
    assert problems == ["sigma[0] not > 0"]


def test_validate_record_prob_sum():
    rec = make_record(class_probs=(0.5, 0.4), gt_class=0)
    problems = validate_record(rec)
    assert len(problems) == 1
    assert "0.9" in problems[0]
    # within tolerance is fine
    rec = make_record(class_probs=(0.5, 0.5 + 5e-7), gt_class=0)
    assert validate_record(rec) == []


def test_validate_record_inverted_box_and_bad_class():
    rec = make_record(pred=(10.0, 0.0, 5.0, 10.0), gt_class=3, class_probs=(1.0,))
    problems = validate_record(rec)
    assert "pred_box: x0 > x1" in problems
    assert any("gt_class 3 outside [0, 1)" in p for p in problems)


def test_validate_record_never_raises():
    rec = make_record(
        pred=(float("nan"), 0.0, 1.0, 1.0),
        sigma=(1.0, -2.0, float("inf"), 1.0),
        class_probs=(0.2, 0.2),
        gt_class=7,
    )
    problems = validate_record(rec)
    assert isinstance(problems, list)
    assert len(problems) >= 3


def test_miscoverage_config_bounds():
    cfg = MiscoverageConfig(alpha_corner=0.025)
    assert cfg.alpha_bbox == 0.1
    with pytest.raises(OutOfRange):
        MiscoverageConfig(alpha_corner=0.25)
    with pytest.raises(OutOfRange):
        MiscoverageConfig(alpha_corner=0.0)
    with pytest.raises(OutOfRange):
        MiscoverageConfig(alpha_corner=0.1, alpha_class=1.0)


def test_raps_config_validation():
    RAPSConfig(penalty_a=0.0, threshold_b=0)
    with pytest.raises(OutOfRange):
        RAPSConfig(penalty_a=-0.1)
    with pytest.raises(OutOfRange):
        RAPSConfig(threshold_b=-1)


def test_quantile_table_accessors():
    table = QuantileTable(
        scope="class_wise",
        quantiles={0: (1.0, 2.0, 3.0, 4.0), 1: (5.0, 6.0, 7.0, 8.0)},
        level={0: 0.95, 1: 0.95},
        n_per_group={0: 20, 1: 20},
        alpha_corner=0.05,
    )
    assert_allclose(table.corners(1), [5.0, 6.0, 7.0, 8.0])
    assert table.by_class(2).shape == (2, 4)
    assert_allclose(table.by_class(2)[0], [1.0, 2.0, 3.0, 4.0])

    agnostic = QuantileTable(
        scope="class_agnostic",
        quantiles={AGNOSTIC: (1.0, 1.0, 1.0, 1.0)},
        level={AGNOSTIC: 0.9},
        n_per_group={AGNOSTIC: 9},
        alpha_corner=0.1,
    )
    with pytest.raises(KeyError):
        agnostic.by_class(1)


def test_dataset_from_records_infers_k():
    recs = [make_record(class_probs=(0.5, 0.5), gt_class=1) for _ in range(3)]
    ds = Dataset.from_records(recs)
    assert ds.n_classes == 2
    assert len(ds) == 3


def test_dataset_from_records_rejects_non_integer_class():
    # a dtype=int column once truncated 1.7 and True to class 1 without a word
    for bad in (1.7, True, np.float64(1.0), "1"):
        recs = [make_record(class_probs=(0.5, 0.5), gt_class=0), make_record(class_probs=(0.5, 0.5), gt_class=bad)]
        with pytest.raises(ValidationError) as exc_info:
            Dataset.from_records(recs)
        assert exc_info.value.line == 2
    ds = Dataset.from_records([make_record(class_probs=(0.5, 0.5), gt_class=np.int64(1))])
    assert_array_equal(ds.gt_class, [1])


def _records_with_classes(classes):
    return [make_record(class_probs=(0.5, 0.5), gt_class=k, image_id=f"img-{i}") for i, k in enumerate(classes)]


# every record-level entry point that goes through records_to_arrays
record_paths = pytest.mark.parametrize(
    "caller",
    [records_to_arrays, Dataset.from_records],
    ids=["records_to_arrays", "from_records"],
)


@record_paths
def test_record_paths_reject_non_integer_class(caller):
    # a class-wise fit once counted 1.7 and True as class 1: n_per_group {0: 3, 1: 3}
    with pytest.raises(ValidationError, match="gt_class 1.7 is not an integer") as exc_info:
        caller(_records_with_classes([0, 1.7, True, 0, 1, 0]))
    assert exc_info.value.line == 2
    with pytest.raises(ValidationError) as exc_info:
        caller(_records_with_classes([0, 1, True, 0, 1, 0]))
    assert exc_info.value.line == 3
    caller(_records_with_classes([0, np.int64(1), 1, 0, 1, 0]))


@record_paths
def test_record_paths_reject_ragged_records(caller):
    # these once raised numpy's "inhomogeneous shape" ValueError, and an
    # all-3-entry sigma built an (n, 3) column that save_dataset wrote
    # and load_dataset then rejected line by line
    recs = _records_with_classes([0, 1, 0, 1, 0, 1])
    ragged = recs[:3] + [dataclasses.replace(recs[3], class_probs=(0.2, 0.3, 0.5))] + recs[4:]
    with pytest.raises(ValidationError, match="class_probs length 3 differs from 2 inferred from the first record") as exc_info:
        caller(ragged)
    assert exc_info.value.line == 4
    one_short = recs[:1] + [dataclasses.replace(recs[1], sigma=(1.0, 1.0, 1.0))] + recs[2:]
    all_short = [dataclasses.replace(r, sigma=(1.0, 1.0, 1.0)) for r in recs]
    for records, line in ((one_short, 2), (all_short, 1)):
        with pytest.raises(ValidationError, match="sigma has 3 entries, expected 4") as exc_info:
            caller(records)
        assert exc_info.value.line == line


def test_from_records_rejects_non_string_image_id():
    # save_dataset once raised TypeError on the image_ids column this built
    with pytest.raises(ValidationError, match="image_id must be a string") as exc_info:
        Dataset.from_records([make_record(image_id="img-0"), make_record(image_id=7)])
    assert exc_info.value.line == 2


# every array kernel that takes labels or group ids, called on two rows of two classes
_PRED = np.array([[0.0, 0.0, 10.0, 10.0], [5.0, 5.0, 20.0, 20.0]])
_SIGMA = np.ones((2, 4))
_GLOBAL = SigmaCalibrator(SCOPE_GLOBAL, global_map=CalibrationMap((0.0,), (1.0,)))
label_kernels = pytest.mark.parametrize(
    "kernel",
    [
        lambda labels: true_class_scores([[0.5, 0.5], [0.9, 0.1]], labels),
        lambda labels: sigma_plan(_PRED, _PRED + 1.0, _SIGMA, labels, SCOPE_PER_CLASS),
        lambda labels: fit_calibrator_arrays(_PRED, _PRED + 1.0, _SIGMA, labels, SCOPE_PER_CLASS),
        lambda labels: calibrated_sigma_array(_GLOBAL, _PRED, _SIGMA, labels),
        lambda labels: calibrated_sigma_array(SigmaCalibrator(SCOPE_RAW), _PRED, _SIGMA, labels),
        lambda labels: group_quantiles(np.ones((2, 4)), 0.1, labels, 2),
        lambda labels: presort_groups(np.ones((2, 4)), labels, 2),
        lambda labels: fit_quantiles_from_scores(np.ones((2, 4)), 0.1, labels),
    ],
    ids=[
        "true_class_scores",
        "sigma_plan",
        "fit_calibrator_arrays",
        "calibrated_sigma_array",
        "calibrated_sigma_array-raw",
        "group_quantiles",
        "presort_groups",
        "fit_quantiles_from_scores",
    ],
)


@label_kernels
def test_array_kernels_reject_non_integer_labels(kernel):
    # all but true_class_scores once read 1.7, True and "1" as class 1
    for bad in ([0.0, 1.7], [False, True], ["0", "1"]):
        with pytest.raises(InvalidClass, match="labels must be integers"):
            kernel(bad)
    for bad in ([0, 1, 1], [0], [[0], [1]], 1):
        with pytest.raises(InvalidClass, match="one entry per row"):
            kernel(bad)
    kernel([0, 1])
    kernel(np.array([0, 1], dtype=np.uint8))


def test_dataset_from_records_rejects_zero_records():
    with pytest.raises(ValidationError, match="cannot build a dataset from zero records"):
        Dataset.from_records([])


def test_dataset_from_records_rejects_k_mismatch():
    recs = [
        make_record(class_probs=(0.5, 0.5), gt_class=0),
        make_record(class_probs=(1.0,), gt_class=0),
    ]
    with pytest.raises(ValidationError) as exc_info:
        Dataset.from_records(recs)
    assert exc_info.value.line == 2


def test_records_to_arrays_shapes():
    recs = [make_record(class_probs=(0.3, 0.7), gt_class=1) for _ in range(5)]
    pred, gt, sigma, gt_class, probs = records_to_arrays(recs)
    assert pred.shape == (5, 4)
    assert gt.shape == (5, 4)
    assert sigma.shape == (5, 4)
    assert gt_class.shape == (5,)
    assert probs.shape == (5, 2)
    assert gt_class.dtype.kind == "i"
    assert np.all(gt_class == 1)


def distinct_records(n):
    """Records that differ in every field, so a row mix-up shows."""
    return [
        make_record(
            pred=(i, 2.0 * i, i + 10.0, 2.0 * i + 20.0),
            gt=(i + 0.5, 2.0 * i, i + 9.5, 2.0 * i + 21.0),
            gt_class=i % 3,
            class_probs=(0.1 * i, 0.5, 0.5 - 0.1 * i),
            sigma=(1.0, 2.0, 3.0, 1.0 + i),
            image_id=f"img-{i}",
        )
        for i in range(n)
    ]


def test_dataset_columns_round_trip_records():
    recs = distinct_records(5)
    ds = Dataset.from_records(recs)
    assert len(ds) == 5
    assert ds.n_classes == 3
    assert ds.records == tuple(recs)
    assert list(ds) == recs
    assert ds[3] == recs[3]
    assert ds.pred.shape == ds.gt.shape == ds.sigma.shape == (5, 4)
    assert ds.probs.shape == (5, 3)
    assert ds.gt_class.dtype.kind == "i"
    assert ds.image_ids.dtype == object


def test_dataset_take_keeps_row_order_in_every_column():
    recs = distinct_records(5)
    ds = Dataset.from_records(recs)
    idx = np.array([4, 0, 2])
    sub = ds.take(idx)
    assert sub.records == tuple(recs[i] for i in idx)
    for name in ("image_ids", "pred", "gt", "sigma", "gt_class", "probs"):
        assert_array_equal(getattr(sub, name), getattr(ds, name)[idx])
    empty = ds.take(np.array([], dtype=int))
    assert len(empty) == 0
    assert empty.n_classes == 3
    assert list(empty) == []


@pytest.mark.parametrize("column", ["image_ids", "pred", "gt", "sigma", "gt_class", "probs"])
def test_dataset_rejects_columns_of_unequal_length(column):
    # if it could be built, such a dataset would reach run_experiment and fail outside the DataError
    # family (gt_class, pred, sigma) or be scored on its shortest column (probs, image_ids)
    ds = make_dataset(200, n_classes=2, seed=3)
    with pytest.raises(LengthMismatch, match=f"dataset columns differ in row count: .*'{column}': 150"):
        dataclasses.replace(ds, **{column: getattr(ds, column)[:150]})
