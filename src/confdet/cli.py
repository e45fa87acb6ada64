"""Command line interface.

Subcommands
-----------
run              experiment on a JSONL dataset, report to JSON or CSV
simulate         generate synthetic data, then run on it
compare          paired significance tests between two report files
calibrate-sigma  fit sigma-recalibration maps and write them to JSON
recovery         recovery-rate sweep over IoU thresholds, CSV output

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback

# The CLI calls no BLAS routine, so the thread pool OpenBLAS starts when
# numpy loads only burns CPU.  This must run before the first import that
# loads numpy; a value the caller set still wins, and pool workers inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .calibration import SCOPE_GLOBAL, SCOPE_RAW, SCOPES, fit_calibrator_arrays, save_calibrator
from .core import BoundingBox, MiscoverageConfig, RAPSConfig
from .errors import ConfigError, DataError
from .io import (
    REPORT_FORMATS,
    csv_text,
    emit_report,
    load_dataset,
    load_report,
    save_dataset,
    save_oracle_info,
)
from .oracle import OracleSpec, generate
from .pipeline import (
    REGIMES,
    SCALINGS,
    RunConfig,
    compare_reports,
    recovery_sweep,
    run_experiment,
)


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _expects(form: str):
    """Make a parser's ValueError a usage error that names the ``form`` it expects."""

    def wrap(parse):
        @functools.wraps(parse)
        def parsed(text: str):
            try:
                return parse(text)
            except ValueError:
                raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None

        return parsed

    return wrap


@_expects("image bounds x0,y0,x1,y1")
def _parse_bounds(text: str) -> BoundingBox:
    x0, y0, x1, y1 = (float(p) for p in text.split(","))
    bounds = BoundingBox(x0, y0, x1, y1)
    if not bounds.is_image_extent():
        raise argparse.ArgumentTypeError("image bounds must be finite with x0 < x1 and y0 < y1")
    return bounds


@_expects("comma-separated noise scales, each a number or 'lo:hi', e.g. '5,50' or '2:20'")
def _parse_noise(text: str) -> tuple:
    """Per-class noise spec: entries split by comma, 'lo:hi' for log-uniform."""
    entries = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ":" in chunk:
            lo, hi = chunk.split(":", 1)
            entries.append((float(lo), float(hi)))
        else:
            entries.append(float(chunk))
    return tuple(entries)


@_expects("'identity', 'scale:F', or 'power:P' with a number F or P")
def _parse_bias(text: str) -> tuple:
    if text == "identity":
        return ("identity",)
    kind, _, param = text.partition(":")
    if kind not in ("scale", "power") or not param:
        raise argparse.ArgumentTypeError(
            "sigma bias must be 'identity', 'scale:F', or 'power:P'"
        )
    return (kind, float(param))


#: Most points a 'start:stop:step' grid may hold.
MAX_GRID_POINTS = 10_000


@_expects("'start:stop:step' or comma-separated numbers")
def _parse_grid(text: str) -> list[float]:
    """'start:stop:step' inclusive grid, or a comma-separated list."""
    if ":" in text:
        start, stop, step = (float(v) for v in text.split(":"))
        if step <= 0:
            raise argparse.ArgumentTypeError(f"grid step must be > 0, got {step:g}")
        span = (stop - start + 1e-12) / step  # the last point sits at index floor(span)
        if not span < MAX_GRID_POINTS:  # also catches an infinite or NaN bound
            raise argparse.ArgumentTypeError(f"grid {text} must be finite with at most {MAX_GRID_POINTS} points")
        if span < 0:
            raise argparse.ArgumentTypeError(f"grid {text} has no points: stop {stop:g} lies below start {start:g}")
        return [round(start + i * step, 12) for i in range(math.floor(span) + 1)]
    return [float(v) for v in text.split(",")]


@_expects("comma-separated numbers")
def _parse_alphas(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _resolve_workers(flag_value: int | None) -> int:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    env = os.environ.get("CONFDET_WORKERS")
    if env:
        try:
            workers, source = int(env), "CONFDET_WORKERS"
        except ValueError:
            raise ConfigError(f"CONFDET_WORKERS must be an integer, got {env!r}") from None
    elif flag_value is not None:
        workers, source = flag_value, "--workers"
    else:  # the cores this process may run on
        return cores
    if workers < 1:
        raise ConfigError(f"{source} must be at least 1, got {workers}")
    if workers > cores:  # a cap, not an error: reports are the same for every worker count
        print(f"confdet: {source} {workers} is more than the {cores} cores this process may use; using {cores}", file=sys.stderr)
    return min(workers, cores)


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--regime", choices=REGIMES, default=RunConfig.regime)
    p.add_argument("--alpha-corner", type=float, default=0.025, help="per-corner miscoverage")
    p.add_argument("--alpha-class", type=float, default=MiscoverageConfig.alpha_class, help="label-set miscoverage")
    p.add_argument("--scaling", choices=SCALINGS, default=RunConfig.scaling)
    p.add_argument("--scope", choices=SCOPES, default=RunConfig.calibration_scope, help="sigma recalibration scope")
    p.add_argument(
        "--calibrator-fit-frac",
        type=float,
        default=RunConfig.calibrator_fit_fraction,
        metavar="F",
        help="fit the sigma maps on this share of each run's calibration rows, and the quantiles on the rest "
        "(default: both on all of them)",
    )
    p.add_argument("--runs", type=int, default=RunConfig.n_runs, help="number of seeded runs")
    p.add_argument("--calib-frac", type=float, default=RunConfig.calib_fraction)
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--min-per-class", type=int, default=RunConfig.min_per_class)
    p.add_argument("--raps-a", type=float, default=RunConfig.raps.penalty_a, help="set-size penalty weight")
    p.add_argument("--raps-b", type=int, default=RunConfig.raps.threshold_b, help="penalty-free set depth")
    p.add_argument("--image-bounds", type=_parse_bounds, default=None, metavar="X0,Y0,X1,Y1")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: the cores this process may run on; CONFDET_WORKERS overrides)",
    )
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.add_argument("--format", choices=REPORT_FORMATS, default="json")


def _run_config(args) -> RunConfig:
    config = RunConfig(
        miscoverage=MiscoverageConfig(alpha_corner=args.alpha_corner, alpha_class=args.alpha_class),
        n_runs=args.runs,
        calib_fraction=args.calib_frac,
        scaling=args.scaling,
        calibration_scope=args.scope,
        regime=args.regime,
        raps=RAPSConfig(penalty_a=args.raps_a, threshold_b=args.raps_b),
        master_seed=args.seed,
        image_bounds=args.image_bounds,
        min_per_class=args.min_per_class,
        calibrator_fit_fraction=args.calibrator_fit_frac,
    )
    if config.calibration_scope != SCOPE_RAW and config.calibrator_fit_fraction is None:
        print(
            f"confdet: --scope {config.calibration_scope} fits the sigma maps on the rows that calibrate the "
            "quantiles, so coverage is not guaranteed; --calibrator-fit-frac F fits them on a disjoint share",
            file=sys.stderr,
        )
    return config


def _write(path, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(args, report) -> None:
    # emit_report writes --out itself, so the byte count perfbench/tracer.py takes there covers reports
    text = emit_report(report, format=args.format, path=args.out)
    if args.out is None:
        _write(None, text)


def _cmd_run(args) -> int:
    config, workers = _run_config(args), _resolve_workers(args.workers)
    dataset, _ = load_dataset(args.data, strict=args.strict)
    eval_dataset = None
    if args.eval_data is not None:
        eval_dataset, _ = load_dataset(args.eval_data, strict=args.strict)
    report = run_experiment(dataset, config, eval_dataset=eval_dataset, workers=workers)
    _emit(args, report)
    return 0


def _cmd_simulate(args) -> int:
    config, workers = _run_config(args), _resolve_workers(args.workers)
    spec = OracleSpec(
        n_records=args.records,
        n_classes=args.classes,
        corner_noise=_normalized_noise(args.noise, args.classes),
        sigma_bias=args.sigma_bias,
        classifier_accuracy=args.accuracy,
        prob_temperature=args.temperature,
        noise_correlation=args.noise_corr,
        shift=args.shift,
        seed=args.oracle_seed if args.oracle_seed is not None else args.seed,
    )
    dataset, info = generate(spec)
    if args.data_out:
        save_dataset(dataset, args.data_out)
    if args.oracle_out:
        save_oracle_info(info, args.oracle_out)
    report = run_experiment(dataset, config, workers=workers)
    _emit(args, report)
    return 0


def _normalized_noise(noise: tuple, n_classes: int) -> tuple:
    if len(noise) == 1 and n_classes > 1:
        return noise * n_classes
    return noise


def _cmd_compare(args) -> int:
    table = compare_reports(load_report(args.report_a), load_report(args.report_b))
    _write(args.out, json.dumps(table, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_calibrate_sigma(args) -> int:
    dataset, _ = load_dataset(args.data, strict=args.strict)
    calibrator = fit_calibrator_arrays(
        dataset.pred, dataset.gt, dataset.sigma, dataset.gt_class, scope=args.scope
    )
    save_calibrator(calibrator, args.out)
    return 0


def _cmd_recovery(args) -> int:
    dataset, _ = load_dataset(args.data, strict=args.strict)
    rows = recovery_sweep(
        dataset,
        alphas=args.alpha_corner,
        thresholds=args.thresholds,
        calib_fraction=args.calib_frac,
        seed=args.seed,
        image_bounds=args.image_bounds,
    )
    columns = ("scaling", "alpha_corner", "iou_threshold", "recovery_rate", "n_below")
    _write(args.out, csv_text(columns, ([row[c] for c in columns] for row in rows)))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="confdet", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment on a JSONL dataset")
    p_run.add_argument("--data", required=True, help="JSONL dataset path")
    p_run.add_argument("--eval-data", default=None, help="separate evaluation dataset (transfer mode)")
    p_run.add_argument("--strict", action="store_true", help="abort on the first invalid line")
    _add_run_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sim = sub.add_parser("simulate", help="generate synthetic data, then run")
    p_sim.add_argument("--records", type=int, required=True)
    p_sim.add_argument("--classes", type=int, default=1)
    p_sim.add_argument(
        "--noise",
        type=_parse_noise,
        default=(10.0,),
        help="per-class noise scale(s), e.g. '5,50' or '2:20' for log-uniform",
    )
    p_sim.add_argument("--sigma-bias", type=_parse_bias, default=OracleSpec.sigma_bias, help="'identity', 'scale:F', or 'power:P'")
    p_sim.add_argument("--accuracy", type=float, default=OracleSpec.classifier_accuracy)
    p_sim.add_argument("--temperature", type=float, default=OracleSpec.prob_temperature)
    p_sim.add_argument("--noise-corr", type=float, default=OracleSpec.noise_correlation)
    p_sim.add_argument("--shift", type=float, default=None, help="noise multiplier marking a shifted domain")
    p_sim.add_argument("--oracle-seed", type=int, default=None, help="generator seed (default: --seed)")
    p_sim.add_argument("--data-out", default=None, help="write the generated JSONL here")
    p_sim.add_argument("--oracle-out", default=None, help="write the true-scale side channel here")
    _add_run_options(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="paired significance tests between two reports")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    p_cal = sub.add_parser("calibrate-sigma", help="fit sigma recalibration maps")
    p_cal.add_argument("--data", required=True)
    p_cal.add_argument("--scope", choices=SCOPES, default=SCOPE_GLOBAL)
    p_cal.add_argument("--strict", action="store_true")
    p_cal.add_argument("--out", required=True, help="output JSON path")
    p_cal.set_defaults(func=_cmd_calibrate_sigma)

    p_rec = sub.add_parser("recovery", help="recovery-rate sweep over IoU thresholds")
    p_rec.add_argument("--data", required=True)
    p_rec.add_argument("--alpha-corner", type=_parse_alphas, default=[0.025], help="comma-separated levels")
    p_rec.add_argument("--thresholds", type=_parse_grid, default=_parse_grid("0.1:0.9:0.1"))
    p_rec.add_argument("--calib-frac", type=float, default=0.8)
    p_rec.add_argument("--seed", type=int, required=True)
    p_rec.add_argument("--image-bounds", type=_parse_bounds, default=None, metavar="X0,Y0,X1,Y1")
    p_rec.add_argument("--strict", action="store_true")
    p_rec.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_rec.set_defaults(func=_cmd_recovery)

    return parser


def _joined_bounds(argv: list) -> list:
    """``argv`` with ``--image-bounds V`` written as ``--image-bounds=V``, so that a
    V starting with '-' (a negative first corner) reads as the value, not as an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--image-bounds":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_bounds(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"confdet: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"confdet: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - genuine bugs
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
