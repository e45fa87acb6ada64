"""Corner intervals hit their finite-sample coverage band.

Split-conformal calibration promises that each corner interval covers
its ground-truth coordinate with probability in

    (1 - alpha, 1 - alpha + 1/(n_cal + 1))

over the random calibration/evaluation split.  This script checks the
promise empirically on synthetic detections: many resampled datasets,
one quantile fit each, coverage averaged over resamples.  It then walks
through a single prediction to show what the calibrated box looks like.
"""

import numpy as np

from confdet import (
    OracleSpec,
    bonferroni_corner_alpha,
    build_conformal_box,
    conformal_quantile,
    corner_coverage_event,
    generate,
)
from confdet.regression import residual_scores

N_CAL = 300
N_EVAL = 200
RESAMPLES = 200


def coverage_band(alpha, resamples=RESAMPLES):
    covs = np.empty(resamples)
    for r in range(resamples):
        dataset, _ = generate(
            OracleSpec(
                n_records=N_CAL + N_EVAL,
                n_classes=1,
                corner_noise=((1.0, 8.0),),
                seed=1000 + r,
            )
        )
        scores = residual_scores(dataset.pred, dataset.gt, dataset.sigma)
        qhat = np.array(
            [conformal_quantile(scores[:N_CAL, c], alpha) for c in range(4)]
        )
        covs[r] = np.mean(scores[N_CAL:] <= qhat)
    return covs.mean(), covs.std(ddof=1) / np.sqrt(resamples)


def main():
    print(f"Resampling {RESAMPLES} synthetic datasets "
          f"({N_CAL} calibration + {N_EVAL} evaluation records each).\n")
    print(f"{'alpha':>6}  {'band low':>9}  {'band high':>9}  {'empirical':>9}  {'MC SE':>7}")
    for alpha in (0.025, 0.05, 0.1, 0.2):
        lo = 1.0 - alpha
        hi = lo + 1.0 / (N_CAL + 1)
        mean, se = coverage_band(alpha)
        print(f"{alpha:>6}  {lo:>9.4f}  {hi:>9.4f}  {mean:>9.4f}  {se:>7.4f}")

    print(
        "\nThe band is a per-corner statement.  The whole box is covered only"
        "\nwhen all four corner events hold at once, so a box-level target of"
        "\n90% needs the union bound: alpha_corner = alpha_bbox / 4."
    )
    dataset, _ = generate(
        OracleSpec(n_records=N_CAL + N_EVAL, n_classes=1, corner_noise=((1.0, 8.0),), seed=7)
    )
    scores = residual_scores(dataset.pred, dataset.gt, dataset.sigma)
    for label, alpha in (("per-corner alpha = 0.1", 0.1),
                         ("per-corner alpha = 0.1/4", bonferroni_corner_alpha(0.1))):
        q = np.array([conformal_quantile(scores[:N_CAL, c], alpha) for c in range(4)])
        box_cov = np.mean(np.all(scores[N_CAL:] <= q, axis=1))
        print(f"  {label:<26} box coverage {box_cov:.3f}")

    print("\nOne worked example at alpha_bbox = 0.1 (0.025 per corner):")
    qhat = tuple(conformal_quantile(scores[:N_CAL, c], 0.025) for c in range(4))
    record = dataset[N_CAL]
    box = build_conformal_box(record.pred_box, record.sigma, qhat)

    def fmt(bb, digits=1):
        return tuple(round(float(v), digits) for v in bb.as_array())

    print(f"  predicted box : {fmt(record.pred_box)}")
    print(f"  ground truth  : {fmt(record.gt_box)}")
    print(f"  sigma         : {tuple(round(v, 2) for v in record.sigma)}")
    print(f"  quantiles     : {tuple(round(q, 3) for q in qhat)}")
    print(f"  outer box     : {fmt(box.outer)}")
    inner = "degenerate" if box.inner is None else fmt(box.inner)
    print(f"  inner box     : {inner}")
    hits, covered = corner_coverage_event(record.gt_box, box)
    print(f"  corner hits   : {hits}")
    print(f"  box covered   : {covered}")


if __name__ == "__main__":
    main()
