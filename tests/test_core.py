import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from confdet.core import (
    AGNOSTIC,
    BoundingBox,
    Dataset,
    MiscoverageConfig,
    QuantileTable,
    RAPSConfig,
    records_to_arrays,
    validate_record,
)
from confdet.calibration import apply_calibrated_sigma, fit_calibrator
from confdet.errors import OutOfRange, ValidationError
from confdet.regression import fit_class_agnostic, fit_class_wise

from conftest import make_record


def test_bounding_box_dimensions():
    box = BoundingBox(1.0, 2.0, 4.0, 10.0)
    assert box.width == 3.0
    assert box.height == 8.0
    assert_allclose(box.as_array(), [1.0, 2.0, 4.0, 10.0])
    assert BoundingBox.from_array(box.as_array()) == box


def test_bounding_box_contains_inclusive():
    outer = BoundingBox(0.0, 0.0, 10.0, 10.0)
    assert outer.contains(BoundingBox(0.0, 0.0, 10.0, 10.0))
    assert outer.contains(BoundingBox(2.0, 2.0, 8.0, 8.0))
    assert not outer.contains(BoundingBox(-0.1, 0.0, 10.0, 10.0))
    assert not outer.contains(BoundingBox(0.0, 0.0, 10.1, 10.0))


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
    [
        records_to_arrays,
        Dataset.from_records,
        lambda recs: fit_class_agnostic(recs, 0.1),
        lambda recs: fit_class_wise(recs, 0.1, min_per_class=0),
        fit_calibrator,
    ],
    ids=["records_to_arrays", "from_records", "fit_class_agnostic", "fit_class_wise", "fit_calibrator"],
)


@record_paths
def test_record_paths_reject_non_integer_class(caller):
    # fit_class_wise once counted 1.7 and True as class 1: n_per_group {0: 3, 1: 3}
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


def test_apply_calibrated_sigma_rejects_non_integer_class():
    calibrator = fit_calibrator(_records_with_classes([0] * 6))
    for bad in (1.7, True):
        with pytest.raises(ValidationError, match="is not an integer"):
            apply_calibrated_sigma(calibrator, make_record(class_probs=(0.5, 0.5), gt_class=bad))


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
