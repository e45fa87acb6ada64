"""Synthetic detection data with known noise structure.

Ground-truth boxes are sampled inside a virtual image, predictions are
the ground truth plus Gaussian corner noise with a per-record scale, and
the per-record scale is drawn per class (fixed, or log-uniform for
heteroscedastic data).  The emitted sigma passes the true scale through a
configurable monotone bias, which lets experiments study miscalibrated
uncertainty heads.  Class probabilities come from a tempered softmax over
random logits with the argmax forced to (or away from) the true label by
an accuracy coin flip.

The generator returns the true per-record noise scales on the side, so
tests can verify behaviour against ground truth that real data never has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, _is_integer
from .errors import InvalidSpec

#: Supported sigma-bias function tags.
BIAS_KINDS = ("identity", "scale", "power")


@dataclass(frozen=True)
class OracleSpec:
    """Specification of one synthetic dataset.

    Parameters
    ----------
    n_records : int
        Number of records to generate.
    n_classes : int
        Number of classes ``K``.
    corner_noise : tuple
        One entry per class: either a positive float (fixed noise scale in
        pixels) or a ``(low, high)`` pair for a per-record log-uniform
        scale.
    sigma_bias : tuple
        Monotone miscalibration applied to the true scale before it is
        reported as sigma: ``("identity",)``, ``("scale", factor)``, or
        ``("power", exponent)``.
    classifier_accuracy : float
        Probability in ``(0, 1]`` that the probability argmax equals the
        true class.
    prob_temperature : float
        Softmax temperature; small values sharpen toward one-hot, large
        values flatten the vector.
    noise_correlation : float
        Share of corner-noise variance coming from a common per-record
        factor, in ``[0, 1)``.  Zero means independent corners.
    shift : float or None
        Optional multiplier on the true noise scale, marking this dataset
        as a shifted domain.  The reported sigma still reflects the
        unshifted scale, the way a detector calibrated on the source
        domain would behave.
    seed : int
        Generator seed; equal specs generate identical data.
    image_size : (float, float)
        Virtual image width and height.
    box_size : (float, float)
        Range of ground-truth box widths and heights.
    """

    n_records: int
    n_classes: int
    corner_noise: tuple
    sigma_bias: tuple = ("identity",)
    classifier_accuracy: float = 1.0
    prob_temperature: float = 1.0
    noise_correlation: float = 0.0
    shift: float | None = None
    seed: int = 0
    image_size: tuple[float, float] = (2000.0, 2000.0)
    box_size: tuple[float, float] = (80.0, 400.0)

    def __post_init__(self):
        for name, least in (("n_records", 1), ("n_classes", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_integer(value):
                raise InvalidSpec(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise InvalidSpec(f"{name} must be >= {least}, got {value}")
        if len(self.corner_noise) != self.n_classes:
            raise InvalidSpec(
                f"corner_noise needs one entry per class ({self.n_classes}), "
                f"got {len(self.corner_noise)}"
            )
        for entry in self.corner_noise:
            low, high = _noise_range(entry)
            if not (0 < low <= high < math.inf):
                raise InvalidSpec(f"invalid noise scale entry {entry!r}")
        if not self.sigma_bias or self.sigma_bias[0] not in BIAS_KINDS:
            raise InvalidSpec(f"sigma_bias kind must be one of {BIAS_KINDS}")
        if self.sigma_bias[0] != "identity":
            if len(self.sigma_bias) != 2 or not 0 < self.sigma_bias[1] < math.inf:
                raise InvalidSpec(f"sigma_bias {self.sigma_bias!r} needs one positive finite parameter")
        if not 0.0 < self.classifier_accuracy <= 1.0:
            raise InvalidSpec(
                f"classifier_accuracy must lie in (0, 1], got {self.classifier_accuracy}"
            )
        if not self.prob_temperature > 0:
            raise InvalidSpec(f"prob_temperature must be > 0, got {self.prob_temperature}")
        if not 0.0 <= self.noise_correlation < 1.0:
            raise InvalidSpec(
                f"noise_correlation must lie in [0, 1), got {self.noise_correlation}"
            )
        if self.shift is not None and not 0 < self.shift < math.inf:
            raise InvalidSpec(f"shift must be finite and > 0, got {self.shift}")
        if not (self.box_size[0] > 0 and self.box_size[1] >= self.box_size[0]):
            raise InvalidSpec(f"box_size range {self.box_size!r} is invalid")
        if not all(self.box_size[1] <= side < math.inf for side in self.image_size):
            raise InvalidSpec(f"image_size {self.image_size!r} must be finite and accommodate the largest box")


@dataclass(frozen=True, eq=False)
class OracleInfo:
    """Side channel of ground truth the generator knows but data never shows."""

    true_scales: np.ndarray  # (n,) actual noise standard deviation per record
    base_scales: np.ndarray  # (n,) pre-shift scales that sigma is derived from


def _noise_range(entry) -> tuple[float, float]:
    if isinstance(entry, (tuple, list)) and len(entry) == 2:
        return float(entry[0]), float(entry[1])
    return float(entry), float(entry)


def _apply_bias(kind_params: tuple, scale: np.ndarray) -> np.ndarray:
    kind = kind_params[0]
    if kind == "identity":
        return scale.copy()
    if kind == "scale":
        return scale * float(kind_params[1])
    return scale ** float(kind_params[1])  # "power"


def generate(spec: OracleSpec) -> tuple[Dataset, OracleInfo]:
    """Generate a synthetic dataset and its ground-truth side channel."""
    rng = np.random.default_rng(spec.seed)
    n, k = spec.n_records, spec.n_classes
    width_img, height_img = spec.image_size

    gt_class = rng.integers(0, k, size=n)

    ranges = np.array([_noise_range(e) for e in spec.corner_noise], dtype=float)
    low = ranges[gt_class, 0]
    high = ranges[gt_class, 1]
    base_scale = np.exp(rng.uniform(np.log(low), np.log(high)))
    true_scale = base_scale * (spec.shift if spec.shift is not None else 1.0)

    bw = rng.uniform(spec.box_size[0], spec.box_size[1], size=n)
    bh = rng.uniform(spec.box_size[0], spec.box_size[1], size=n)
    cx = rng.uniform(bw / 2.0, width_img - bw / 2.0)
    cy = rng.uniform(bh / 2.0, height_img - bh / 2.0)
    gt = np.stack([cx - bw / 2.0, cy - bh / 2.0, cx + bw / 2.0, cy + bh / 2.0], axis=1)

    z = rng.standard_normal((n, 4))
    if spec.noise_correlation > 0:
        common = rng.standard_normal((n, 1))
        rho = spec.noise_correlation
        z = math.sqrt(1.0 - rho) * z + math.sqrt(rho) * common
    pred = gt + true_scale[:, None] * z
    # keep corner pairs ordered; ties in the tails are rare but legal
    pred_x = np.sort(pred[:, [0, 2]], axis=1)
    pred_y = np.sort(pred[:, [1, 3]], axis=1)
    pred = np.stack([pred_x[:, 0], pred_y[:, 0], pred_x[:, 1], pred_y[:, 1]], axis=1)

    sigma = np.maximum(_apply_bias(spec.sigma_bias, base_scale), 1e-9)

    logits = rng.standard_normal((n, k))
    correct = rng.random(n) < spec.classifier_accuracy
    gap = rng.exponential(1.0, size=n) + 0.1
    top = logits.max(axis=1)
    if k == 1:
        correct[:] = True
    rows = np.arange(n)
    forced = np.where(
        correct,
        gt_class,
        (gt_class + rng.integers(1, k, size=n) if k > 1 else gt_class) % k,
    )
    logits[rows, forced] = top + gap
    logits = logits / spec.prob_temperature
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)

    dataset = Dataset(
        image_ids=np.array([f"synthetic-{spec.seed}-{i:06d}" for i in range(n)], dtype=object),
        pred=pred,
        gt=gt,
        sigma=np.repeat(sigma[:, None], 4, axis=1),
        gt_class=gt_class,
        probs=probs,
    )
    return dataset, OracleInfo(true_scales=true_scale, base_scales=base_scale)
