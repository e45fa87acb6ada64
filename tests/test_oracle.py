import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from confdet.core import Dataset, validate_record
from confdet.errors import InvalidSpec
from confdet.oracle import OracleSpec, generate


def residuals(dataset):
    pred = np.array([r.pred_box.as_array() for r in dataset.records])
    gt = np.array([r.gt_box.as_array() for r in dataset.records])
    return pred - gt


def test_generate_is_deterministic():
    spec = OracleSpec(
        n_records=50,
        n_classes=3,
        corner_noise=((2.0, 6.0), 4.0, (1.0, 1.0)),
        classifier_accuracy=0.8,
        seed=21,
    )
    ds_a, info_a = generate(spec)
    ds_b, info_b = generate(spec)
    assert ds_a.records == ds_b.records
    assert_array_equal(info_a.true_scales, info_b.true_scales)
    assert_array_equal(info_a.base_scales, info_b.base_scales)


def test_generate_records_validate_clean():
    spec = OracleSpec(
        n_records=500,
        n_classes=3,
        corner_noise=((2.0, 20.0),) * 3,
        sigma_bias=("power", 0.5),
        classifier_accuracy=0.8,
        prob_temperature=2.0,
        noise_correlation=0.5,
        shift=1.5,
        seed=3,
    )
    dataset, _ = generate(spec)
    assert len(dataset) == 500
    assert dataset.n_classes == 3
    for rec in dataset.records:
        assert validate_record(rec) == []


def test_image_ids_are_unique_and_seed_tagged():
    dataset, _ = generate(OracleSpec(n_records=5, n_classes=1, corner_noise=(3.0,), seed=9))
    ids = [rec.image_id for rec in dataset.records]
    assert ids == [f"synthetic-9-{i:06d}" for i in range(5)]


def test_noise_scale_matches_reported_truth():
    spec = OracleSpec(
        n_records=20_000, n_classes=1, corner_noise=((2.0, 8.0),), seed=4
    )
    dataset, info = generate(spec)
    z = residuals(dataset) / info.true_scales[:, None]
    assert abs(np.std(z) - 1.0) < 0.02
    assert abs(np.mean(z)) < 0.02


def test_class_conditional_scale_ranges():
    spec = OracleSpec(
        n_records=2000, n_classes=2, corner_noise=((2.0, 4.0), (10.0, 20.0)), seed=5
    )
    dataset, info = generate(spec)
    gt_class = np.array([rec.gt_class for rec in dataset.records])
    assert np.all(info.base_scales[gt_class == 0] >= 2.0)
    assert np.all(info.base_scales[gt_class == 0] <= 4.0)
    assert np.all(info.base_scales[gt_class == 1] >= 10.0)
    assert np.all(info.base_scales[gt_class == 1] <= 20.0)


def test_sigma_bias_kinds():
    base_kwargs = dict(n_records=200, n_classes=1, corner_noise=((2.0, 8.0),), seed=6)
    ds_id, info = generate(OracleSpec(**base_kwargs))
    sigma = np.array([rec.sigma[0] for rec in ds_id.records])
    assert_allclose(sigma, info.base_scales)
    for rec in ds_id.records:
        assert rec.sigma == (rec.sigma[0],) * 4

    ds_scale, info = generate(OracleSpec(sigma_bias=("scale", 2.0), **base_kwargs))
    sigma = np.array([rec.sigma[0] for rec in ds_scale.records])
    assert_allclose(sigma, 2.0 * info.base_scales)

    ds_pow, info = generate(OracleSpec(sigma_bias=("power", 0.5), **base_kwargs))
    sigma = np.array([rec.sigma[0] for rec in ds_pow.records])
    assert_allclose(sigma, np.sqrt(info.base_scales))


def test_shift_scales_noise_but_not_sigma():
    base_kwargs = dict(n_records=500, n_classes=1, corner_noise=(3.0,), seed=7)
    ds_plain, info_plain = generate(OracleSpec(**base_kwargs))
    ds_shift, info_shift = generate(OracleSpec(shift=2.0, **base_kwargs))
    assert_array_equal(info_shift.base_scales, info_plain.base_scales)
    assert_allclose(info_shift.true_scales, 2.0 * info_plain.true_scales)
    for a, b in zip(ds_plain.records, ds_shift.records):
        assert a.sigma == b.sigma
        assert a.gt_box == b.gt_box
    # residuals are differences of ~1e3 coordinates, so allow rounding slack
    assert_allclose(residuals(ds_shift), 2.0 * residuals(ds_plain), atol=1e-9)


def test_perfect_classifier_hits_argmax():
    spec = OracleSpec(
        n_records=300,
        n_classes=4,
        corner_noise=(3.0,) * 4,
        classifier_accuracy=1.0,
        prob_temperature=0.01,
        seed=8,
    )
    dataset, _ = generate(spec)
    for rec in dataset.records:
        assert int(np.argmax(rec.class_probs)) == rec.gt_class
        assert max(rec.class_probs) > 0.95


def test_classifier_accuracy_is_calibrated():
    spec = OracleSpec(
        n_records=20_000,
        n_classes=5,
        corner_noise=(3.0,) * 5,
        classifier_accuracy=0.7,
        seed=9,
    )
    dataset, _ = generate(spec)
    hits = np.mean(
        [int(np.argmax(rec.class_probs)) == rec.gt_class for rec in dataset.records]
    )
    assert abs(hits - 0.7) < 0.015


def test_noise_correlation_couples_corners():
    kwargs = dict(n_records=5000, n_classes=1, corner_noise=(3.0,), seed=10)
    ds_indep, info = generate(OracleSpec(noise_correlation=0.0, **kwargs))
    z = residuals(ds_indep) / info.true_scales[:, None]
    assert abs(np.corrcoef(z[:, 0], z[:, 3])[0, 1]) < 0.05

    ds_corr, info = generate(OracleSpec(noise_correlation=0.9, **kwargs))
    z = residuals(ds_corr) / info.true_scales[:, None]
    assert np.corrcoef(z[:, 0], z[:, 3])[0, 1] > 0.8
    assert abs(np.std(z) - 1.0) < 0.05  # mixing preserves total variance


def test_spec_validation():
    ok = dict(n_records=10, n_classes=2, corner_noise=(3.0, 3.0))
    OracleSpec(**ok)
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "n_records": 0})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "n_classes": 0, "corner_noise": ()})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "corner_noise": (3.0,)})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "corner_noise": ((5.0, 2.0), 3.0)})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "corner_noise": (0.0, 3.0)})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "sigma_bias": ("cube", 2.0)})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "sigma_bias": ("scale",)})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "sigma_bias": ("power", -1.0)})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "classifier_accuracy": 0.0})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "classifier_accuracy": 1.2})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "prob_temperature": 0.0})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "noise_correlation": 1.0})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "noise_correlation": -0.1})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "shift": 0.0})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "box_size": (400.0, 80.0)})
    with pytest.raises(InvalidSpec):
        OracleSpec(**{**ok, "image_size": (100.0, 100.0)})
    # non-finite values once reached the generator: an OverflowError from
    # rng.uniform, or records that broke the data rules
    for bad in (
        {"corner_noise": (math.inf, 3.0)},
        {"corner_noise": ((2.0, math.inf), 3.0)},
        {"shift": math.inf},
        {"shift": math.nan},
        {"sigma_bias": ("scale", math.inf)},
        {"sigma_bias": ("power", math.inf)},
        {"image_size": (math.inf, 2000.0)},
        {"image_size": (2000.0, math.nan)},
    ):
        with pytest.raises(InvalidSpec):
            OracleSpec(**{**ok, **bad})


@pytest.mark.parametrize("field, value", [("n_records", 10.5), ("n_records", True), ("n_classes", 2.0), ("seed", 1.5)])
def test_spec_integer_fields_take_integers_only(field, value):
    # a float or bool is not truncated: generate would meet it as a bare numpy TypeError
    ok = dict(n_records=10, n_classes=2, corner_noise=(3.0, 3.0))
    with pytest.raises(InvalidSpec, match=f"{field} must be an integer, got {value!r}"):
        OracleSpec(**{**ok, field: value})
    dataset, _ = generate(OracleSpec(**{**ok, field: np.int64(2)}))
    assert len(dataset) == (2 if field == "n_records" else 10)


def test_generate_columns_equal_record_round_trip():
    dataset, _ = generate(
        OracleSpec(
            n_records=200,
            n_classes=3,
            corner_noise=((2.0, 20.0), 5.0, (1.0, 3.0)),
            classifier_accuracy=0.8,
            seed=12,
        )
    )
    again = Dataset.from_records(dataset.records)
    assert dataset.n_classes == again.n_classes == 3
    for name in ("image_ids", "pred", "gt", "sigma", "gt_class", "probs"):
        ours, theirs = getattr(dataset, name), getattr(again, name)
        assert ours.shape == theirs.shape
        assert ours.dtype.kind == theirs.dtype.kind
        assert_array_equal(ours, theirs)
