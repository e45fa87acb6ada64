"""Isotonic recalibration repairs a systematically biased sigma.

Detectors rarely emit honest uncertainties.  Here the synthetic
detector reports sigma proportional to the square root of the true
noise scale: overconfident on hard boxes, underconfident on easy ones.
Because conformal scaling only cares about the *ordering* induced by
sigma, coverage still holds, but sharpness suffers.  Fitting a monotone
(isotonic) map from claimed to realized uncertainty on held-out data
restores most of the lost sharpness; a per-class map helps a little
more when classes differ.

The last two rows show a pitfall: fitting the sigma map on the same
records that calibrate the quantiles (``calibrator_fit_fraction=None``)
reuses data and bends the coverage guarantee.  The per-run flag
``coverage_below_nominal`` catches it.
"""

from dataclasses import replace

import numpy as np

from confdet import (
    SCOPE_GLOBAL,
    SCOPE_PER_CLASS,
    SCOPE_RAW,
    MiscoverageConfig,
    OracleSpec,
    RunConfig,
    generate,
    run_experiment,
)
from confdet.calibration import calibrated_sigma_array, fit_calibrator_arrays


def main():
    dataset, _ = generate(
        OracleSpec(
            n_records=2400,
            n_classes=2,
            corner_noise=((2.0, 4.0), (8.0, 16.0)),
            sigma_bias=("power", 0.5),
            seed=33,
        )
    )
    print(
        "2400 detections, 2 classes, claimed sigma = sqrt(true scale):"
        "\ntrue scales 2..16 are reported as 1.4..4, compressing the range.\n"
    )

    calibrator = fit_calibrator_arrays(
        dataset.pred, dataset.gt, dataset.sigma, dataset.gt_class, scope=SCOPE_GLOBAL
    )
    order = np.argsort(dataset.sigma[:, 0])
    print("What the fitted monotone map does to the claimed sigma (corner x1):")
    print(f"  {'claimed':>9}  {'calibrated':>10}")
    for idx in (order[0], order[-1]):
        row = slice(idx, idx + 1)
        fixed = calibrated_sigma_array(calibrator, dataset.pred[row], dataset.sigma[row], dataset.gt_class[row])
        print(f"  {dataset.sigma[idx, 0]:>9.2f}  {fixed[0, 0]:>10.2f}")
    print("  the 2.8x claimed spread is stretched back to a ~5x spread, close")
    print("  to the true 8x ratio of noise scales.\n")

    base = RunConfig(
        miscoverage=MiscoverageConfig(alpha_corner=0.025),
        n_runs=60,
        stratified=True,
        master_seed=9,
        scaling="scaled",
        calibrator_fit_fraction=0.5,
    )
    rows = (
        ("unscaled", replace(base, scaling="unscaled")),
        ("raw sigma", replace(base, calibration_scope=SCOPE_RAW)),
        ("global map", replace(base, calibration_scope=SCOPE_GLOBAL)),
        ("per-class map", replace(base, calibration_scope=SCOPE_PER_CLASS)),
        (
            "global, shared split",
            replace(base, calibration_scope=SCOPE_GLOBAL, calibrator_fit_fraction=None),
        ),
        (
            "per-class, shared split",
            replace(base, calibration_scope=SCOPE_PER_CLASS, calibrator_fit_fraction=None),
        ),
    )
    print("alpha_bbox = 0.1, 60 runs each; sigma map fitted on a disjoint half")
    print("of the calibration split unless marked otherwise:\n")
    print(f"  {'pipeline':<24} {'coverage':>8} {'IoU':>7} {'score':>8}  flag")
    for name, config in rows:
        agg = run_experiment(dataset, config).aggregate
        flag = "below nominal!" if agg["coverage_below_nominal"] else ""
        print(
            f"  {name:<24} {agg['coverage']['mean']:>8.4f}"
            f" {agg['mean_iou']['mean']:>7.4f}"
            f" {agg['interval_score']['mean']:>8.0f}  {flag}"
        )


if __name__ == "__main__":
    main()
