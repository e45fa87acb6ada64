"""Shared helpers for building small hand-made datasets, the Hypothesis profile, and the load cache.

Every property test runs under the one profile loaded here: 150 examples,
no deadline, derandomized (the same examples on every run) and no example
database.  The loader's cache lives in a fresh directory for each session,
so no test reads or writes a developer's own cache.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from confdet.core import BoundingBox, Dataset, DetectionRecord

# pyproject's pytest ``pythonpath`` puts src/ on the path of this process only; the
# tests that start ``python -m confdet`` pass the environment on, so name it there too
_SRC = str(Path(__file__).parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("confdet", max_examples=150, deadline=None, derandomize=True, database=None)
settings.load_profile("confdet")


@pytest.fixture(scope="session", autouse=True)
def _load_cache_dir(tmp_path_factory):
    """``CONFDET_CACHE_DIR`` for the session, inherited by the ``python -m confdet`` children too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("CONFDET_CACHE_DIR", str(tmp_path_factory.mktemp("load-cache")))
        yield


def make_record(
    pred=(0.0, 0.0, 100.0, 100.0),
    gt=(0.0, 0.0, 100.0, 100.0),
    gt_class=0,
    class_probs=(1.0,),
    sigma=(1.0, 1.0, 1.0, 1.0),
    image_id="img-0",
):
    return DetectionRecord(
        image_id=image_id,
        pred_box=BoundingBox(*pred),
        gt_box=BoundingBox(*gt),
        gt_class=gt_class,
        class_probs=tuple(class_probs),
        sigma=tuple(sigma),
    )


def make_dataset(n, n_classes=1, noise=5.0, seed=0, one_hot_probs=False):
    """Random boxes with additive uniform corner noise; valid by construction."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        x0, y0 = rng.uniform(0, 500, size=2)
        w, h = rng.uniform(50, 200, size=2)
        gt = (x0, y0, x0 + w, y0 + h)
        err = rng.uniform(-noise, noise, size=4)
        pred = (
            min(gt[0] + err[0], gt[2] + err[2]),
            min(gt[1] + err[1], gt[3] + err[3]),
            max(gt[0] + err[0], gt[2] + err[2]),
            max(gt[1] + err[1], gt[3] + err[3]),
        )
        gt_class = int(rng.integers(n_classes))
        if one_hot_probs:
            probs = [0.0] * n_classes
            probs[gt_class] = 1.0
        else:
            raw = rng.uniform(0.1, 1.0, size=n_classes)
            probs = list(raw / raw.sum())
        records.append(
            make_record(
                pred=pred,
                gt=gt,
                gt_class=gt_class,
                class_probs=probs,
                sigma=tuple(rng.uniform(0.5, 5.0, size=4)),
                image_id=f"img-{i}",
            )
        )
    return Dataset.from_records(records)
