"""Command-line surface.

Subcommands: fit, compare, profiles, band, simulate.  Exit codes:
0 success, 2 usage/validation error, 3 non-convergence.  A plot CSV is three
``dataio.write_series`` groups: the profile matrix, the population row, the band.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import blup, dataio, estimation, inference, serialize, svg
from .basis import TimeGrid
from .errors import AbpmixError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3


def _fit_one(spec, cohort, args):
    return estimation.fit(spec, cohort, method=args.method.upper(), max_iter=args.max_iter,
                          tol=args.tol)


def _fixed_effects_rows(fitted):
    # inference refuses non-converged fits; diagnostics still get the
    # estimates and standard errors, just no p-values or R2
    tests = [res for _, _, res in inference.per_column_tests(fitted)] if fitted.converged else []
    se = np.sqrt(np.diag(fitted.cov_beta))
    rows = []
    for j, label in enumerate(fitted.column_labels):
        p_value = r2 = None
        if tests:
            res = tests[j]
            p_value = res.p_value
            # every column but the intercept is its own semi-partial term
            if j > 0:
                r2 = inference._r2_from_f(res.F, res.ndf, res.ddf)
        rows.append([label, j if j < fitted.spec.fixed.n_columns else None,
                     fitted.beta_hat[j], se[j], p_value, r2])
    return rows


def _cmd_fit(args) -> int:
    spec = serialize.load_model_spec(args.model)
    cohort = dataio.read_cohort(args.data, outcome=args.outcome)
    fitted = _fit_one(spec, cohort, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "fit.json").write_text(serialize.fitted_model_to_json(fitted), encoding="utf-8")
    dataio.write_csv(out / "fixed_effects.csv",
                     ["parameter", "degree", "estimate", "se", "p_value", "semi_partial_r2"],
                     _fixed_effects_rows(fitted))
    dataio.write_csv(out / "variance_components.csv", ["component", "estimate", "se"],
                     inference.variance_component_table(fitted))
    if not fitted.converged:
        print(f"non-convergence: gradient_norm={fitted.gradient_norm:.3e}", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_compare(args) -> int:
    if len(args.model) < 2:
        print("error: need >= 2 models to compare", file=sys.stderr)
        return EXIT_USAGE
    loaded = []
    for path in args.model:
        try:
            Path(path).stem.encode("utf-8")  # comparison.csv names each model by its file name
        except UnicodeEncodeError:
            print(f"error: model file name {path!r} is not valid UTF-8", file=sys.stderr)
            return EXIT_USAGE
        try:
            loaded.append((path, serialize.load_model_spec(path)))
        except AbpmixError as exc:
            loaded.append((path, exc))
    # comparability depends only on the specs and the method: refuse before fitting
    specs = [spec for _, spec in loaded if not isinstance(spec, AbpmixError)]
    inference.assert_comparable(specs, args.method.upper(),
                                force_reml_compare=args.force_reml_compare)
    cohort = dataio.read_cohort(args.data, outcome=args.outcome)
    results = []  # (sort key, comparison.csv row); a failed model sorts after finite AICs
    for path, spec in loaded:
        name = Path(path).stem
        try:
            if isinstance(spec, AbpmixError):
                raise spec
            fitted = _fit_one(spec, cohort, args)
            aic, bic = inference.information_criteria(fitted)
            model_r2 = (inference.r2_statistics(fitted, terms=())[0] if fitted.converged
                        else np.nan)
            results.append(((aic, fitted.n_cov_params), [
                name, aic, bic, model_r2, str(fitted.converged).lower(), fitted.n_cov_params,
                None]))
        except AbpmixError as exc:
            results.append(((np.inf, -1), [name, None, None, None, "false", None,
                                           f"{type(exc).__name__}: {exc}"]))
    if all(row[-1] for _, row in results):
        print("error: every model failed to fit", file=sys.stderr)
        return EXIT_USAGE
    results.sort(key=lambda result: result[0])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_csv(out / "comparison.csv",
                     ["model", "aic", "bic", "model_r2", "converged", "n_cov_params", "error"],
                     [row for _, row in results])
    return EXIT_OK


def _write_plot(args, fitted, grid: TimeGrid, name: str, title: str, labels: list,
                profiles: np.ndarray) -> int:
    """``name``.csv (and .svg with --svg) of the (subjects, grid) ``profiles``
    labelled ``labels``, the population curve (the band's center) and the band."""
    band = blup.prediction_band(fitted, grid, level=args.band_level,
                                multiplier=args.band_multiplier)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_series(out / f"{name}.csv", grid.points, [
        (labels, profiles[:, None]), (["population"], band[None, :1]), (["band"], band[None])])
    if args.svg:
        series = [*zip(labels, profiles), ("population", band[0])]
        text = svg.render_plot(grid.points, series, band[1:], start_hour=args.start_hour,
                               title=title)
        (out / f"{name}.svg").write_text(text, encoding="utf-8")
    return EXIT_OK


def _cmd_profiles(args) -> int:
    fitted = serialize.load_fitted_model(args.fit)
    cohort = dataio.read_cohort(args.data, outcome=args.outcome)
    grid = TimeGrid.equispaced(args.grid_points, 0.0, 24.0)
    by_id, seen = {s.id: s for s in cohort}, set()
    for sid in args.subjects:
        if sid not in by_id or sid in seen:
            what = "unknown" if sid not in by_id else "repeated"
            print(f"error: {what} subject id {sid!r}", file=sys.stderr)
            return EXIT_USAGE
        seen.add(sid)
    profiles = blup.subject_profile(fitted, [by_id[sid] for sid in args.subjects], grid)
    return _write_plot(args, fitted, grid, "profiles", "predicted profiles",
                       [f"subject:{sid}" for sid in args.subjects], profiles)


def _cmd_band(args) -> int:
    # a reused fit needs no cohort: --data is accepted with --fit but never read
    if args.fit:
        fitted = serialize.load_fitted_model(args.fit)
    else:
        if not args.thresholds or not args.model or not args.data:
            print("error: band needs either --fit or all of --model, --thresholds and --data",
                  file=sys.stderr)
            return EXIT_USAGE
        cohort = dataio.read_cohort(args.data, outcome=args.outcome)
        thresholds = serialize.load_thresholds(args.thresholds)
        normals = dataio.filter_normals(cohort, thresholds)
        spec = serialize.load_model_spec(args.model)
        fitted = _fit_one(spec, normals, args)
        if not fitted.converged:
            print(f"non-convergence: gradient_norm={fitted.gradient_norm:.3e}", file=sys.stderr)
            return EXIT_NONCONVERGED
    grid = TimeGrid.equispaced(args.grid_points, 0.0, 24.0)
    return _write_plot(args, fitted, grid, "band", "prediction band", [],
                       np.zeros((0, len(grid))))


def _cmd_simulate(args) -> int:
    config = serialize.load_simulation_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    cohort = dataio.simulate_cohort(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_cohort(out / "cohort.csv", cohort, outcome=args.outcome)
    return EXIT_OK


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite: {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


def _clock_hour(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 23:
        raise argparse.ArgumentTypeError(f"must be a clock hour from 0 to 23: {text!r}")
    return value


def _subject_ids(text: str) -> list:
    """The ids of a ``--subjects`` list, empty ones dropped.  A list that
    holds a double quote is one CSV record, so a quoted id may hold a comma;
    any other is split at its commas, so an id may hold a bare line end."""
    try:
        ids = next(csv.reader([text], strict=True)) if '"' in text else text.split(",")
    except csv.Error as exc:
        raise argparse.ArgumentTypeError(f"not one CSV record: {exc}") from None
    return [s for s in ids if s]


def _add_common(parser, data=True, fitopts=False, plot=False):
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--outcome", choices=["sbp", "dbp"], default="sbp")
    # kept for bench/run.py, which passes --workers to profiles
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="accepted for compatibility; no result depends on it")
    if data:
        parser.add_argument("--data", required=True, help="cohort CSV")
    if fitopts:
        parser.add_argument("--method", choices=["reml", "ml"], default="reml")
        parser.add_argument("--tol", type=_positive_float, default=1e-6)
        parser.add_argument("--max-iter", type=_positive_int, default=500)
    if plot:
        parser.add_argument("--band-level", type=float, default=0.90)
        parser.add_argument("--band-multiplier", type=float, default=None,
                            help="override the normal quantile (e.g. 2.0)")
        parser.add_argument("--grid-points", type=int, default=97)
        parser.add_argument("--start-hour", type=_clock_hour, default=None,
                            help="clock hour of recording start, for axis labels")
        parser.add_argument("--svg", action="store_true", help="also render an SVG")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, and it is a graph of reference cycles that only the cyclic
    garbage collector frees."""
    parser = argparse.ArgumentParser(
        prog="abpmix",
        description="Mixed-model analysis of 24-hour ambulatory blood pressure cohorts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one model and write estimates")
    p.add_argument("--model", required=True, help="model spec JSON")
    _add_common(p, fitopts=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("compare", help="fit several models and rank by AIC")
    p.add_argument("--model", action="append", required=True,
                   help="model spec JSON (repeat for each candidate)")
    p.add_argument("--force-reml-compare", action="store_true",
                   help="allow REML criteria across different fixed structures")
    _add_common(p, fitopts=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("profiles", help="subject profiles + population curve + band")
    p.add_argument("--fit", required=True, help="fit.json from a previous run")
    p.add_argument("--subjects", type=_subject_ids, default="",
                   help='comma-separated subject ids; quote an id holding a comma: \'"a,b",c\'')
    _add_common(p, plot=True)
    p.set_defaults(func=_cmd_profiles)

    p = sub.add_parser("band", help="prediction band from a reference cohort")
    p.add_argument("--fit", default=None, help="reuse an existing fit.json")
    p.add_argument("--model", default=None, help="model spec JSON (fit on normals)")
    p.add_argument("--thresholds", default=None, help="per-hour normal bounds JSON")
    p.add_argument("--data", default=None,
                   help="cohort CSV to select normals from; needed with --model, "
                        "accepted and not read with --fit")
    _add_common(p, data=False, fitopts=True, plot=True)
    p.set_defaults(func=_cmd_band)

    p = sub.add_parser("simulate", help="draw a synthetic cohort")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    _add_common(p, data=False)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except AbpmixError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: IOError: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
