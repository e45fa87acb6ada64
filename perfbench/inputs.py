"""Seeded JSONL inputs for the benchmark workloads.

The generator uses numpy and json only and never imports ``confdet``, so
the commit under test and its parent read byte-identical inputs even when
a change rewrites the package's own oracle or writer.  Each file is
written once per (name, seed) under the cache directory and reused, so
generation is never inside a timed region.
"""

from __future__ import annotations

import json
import os

import numpy as np

#: Bump when the generated bytes change, so stale cache files are not reused.
GENERATOR_VERSION = 1

IMAGE_SIZE = 2000.0
BOX_SIZE = (80.0, 400.0)
#: Share of lines made invalid in files that exercise the rejection path.
INVALID_SHARE = 0.001


def _records(rng, n, n_classes, accuracy, noise_mult=1.0, sigma_power=1.0):
    """Matched detections with class-dependent, log-uniform corner noise.

    ``noise_mult`` scales the true noise but not the reported sigma (a
    shifted domain); ``sigma_power`` reports ``scale ** power`` as sigma
    (a miscalibrated uncertainty head).
    """
    gt_class = rng.integers(0, n_classes, size=n)
    widen = 1.0 + 0.2 * gt_class
    base = np.exp(rng.uniform(np.log(2.0 * widen), np.log(20.0 * widen)))
    bw = rng.uniform(*BOX_SIZE, size=n)
    bh = rng.uniform(*BOX_SIZE, size=n)
    cx = rng.uniform(bw / 2.0, IMAGE_SIZE - bw / 2.0)
    cy = rng.uniform(bh / 2.0, IMAGE_SIZE - bh / 2.0)
    gt = np.stack([cx - bw / 2.0, cy - bh / 2.0, cx + bw / 2.0, cy + bh / 2.0], axis=1)
    pred = gt + (base * noise_mult)[:, None] * rng.standard_normal((n, 4))
    px = np.sort(pred[:, [0, 2]], axis=1)
    py = np.sort(pred[:, [1, 3]], axis=1)
    pred = np.stack([px[:, 0], py[:, 0], px[:, 1], py[:, 1]], axis=1)
    sigma = (base[:, None] * rng.uniform(0.9, 1.1, size=(n, 4))) ** sigma_power

    logits = rng.standard_normal((n, n_classes))
    correct = rng.random(n) < accuracy
    wrong = (gt_class + rng.integers(1, n_classes, size=n)) % n_classes
    top_class = np.where(correct, gt_class, wrong)
    logits[np.arange(n), top_class] = logits.max(axis=1) + rng.exponential(1.0, size=n) + 0.1
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    return pred, gt, sigma, gt_class, probs


def _invalid(line_doc: dict, kind: int) -> str:
    """One line that every loader rule rejects, cycling through three faults."""
    if kind == 0:
        return json.dumps(line_doc)[:-7]  # truncated: bad JSON
    if kind == 1:
        line_doc = {k: v for k, v in line_doc.items() if k != "sigma"}
        return json.dumps(line_doc)  # missing field
    line_doc = dict(line_doc, sigma=[0.0] + line_doc["sigma"][1:])
    return json.dumps(line_doc)  # sigma <= 0


def write_jsonl(path, seed_key, n, n_classes, accuracy, noise_mult=1.0, sigma_power=1.0, invalid=False):
    """Write one dataset; ``seed_key`` is a tuple that seeds numpy's generator."""
    rng = np.random.default_rng(seed_key)
    pred, gt, sigma, gt_class, probs = _records(rng, n, n_classes, accuracy, noise_mult, sigma_power)
    bad = set()
    if invalid:
        n_bad = max(1, round(n * INVALID_SHARE))
        bad = set(rng.choice(n, size=n_bad, replace=False).tolist())
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for i in range(n):
            doc = {
                "image_id": f"img-{seed_key[0]}-{i:06d}",
                "pred_box": [round(v, 4) for v in pred[i].tolist()],
                "gt_box": [round(v, 4) for v in gt[i].tolist()],
                "gt_class": int(gt_class[i]),
                "class_probs": [round(v, 8) for v in probs[i].tolist()],
                "sigma": [round(v, 5) for v in sigma[i].tolist()],
            }
            fh.write(_invalid(doc, i % 3) if i in bad else json.dumps(doc))
            fh.write("\n")
    os.replace(tmp, path)


#: name -> (records, classes, top-1 accuracy, noise multiplier, sigma power, invalid lines)
DATASETS = {
    "transfer_cal": (40_000, 10, 0.9, 1.0, 1.0, True),
    "transfer_eval": (40_000, 10, 0.9, 1.3, 1.0, True),
    "recal": (20_000, 10, 0.9, 1.0, 1.5, False),
    "two_step": (5_000, 10, 0.9, 1.0, 1.0, False),
}


def dataset_path(cache_dir, name: str, seed: int) -> str:
    """Path of the cached dataset ``name`` for ``seed``, generating it if absent."""
    path = os.path.join(cache_dir, f"{name}-s{seed}-v{GENERATOR_VERSION}.jsonl")
    if not os.path.exists(path):
        os.makedirs(cache_dir, exist_ok=True)
        n, k, acc, mult, power, invalid = DATASETS[name]
        stream = sorted(DATASETS).index(name)
        write_jsonl(path, (seed, stream), n, k, acc, mult, power, invalid)
    return path
