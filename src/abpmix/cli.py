"""Command-line surface.

Subcommands: fit, compare, profiles, band, simulate.  Exit codes:
0 success, 2 usage/validation error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from itertools import groupby
from pathlib import Path

import numpy as np

from . import blup, dataio, estimation, inference, serialize, svg
from .basis import TimeGrid
from .errors import AbpmixError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3


def _g17(x) -> str:
    return format(float(x), ".17g")


def _fit_one(spec, cohort, args):
    return estimation.fit(spec, cohort, method=args.method.upper(), max_iter=args.max_iter,
                          tol=args.tol)


def _fixed_effects_rows(fitted):
    rows = []
    # inference refuses non-converged fits; diagnostics still get the
    # estimates and standard errors, just no p-values or R2
    if fitted.converged:
        tests = {j: res for j, _, res in inference.per_column_tests(fitted)}
        _, partials = inference.r2_statistics(fitted)
        partial_by_label = dict(partials)
    else:
        tests, partial_by_label = {}, {}
    se = np.sqrt(np.diag(fitted.cov_beta))
    degree_of = {}
    for j, label in enumerate(fitted.column_labels[: fitted.spec.fixed.n_columns]):
        degree_of[label] = j
    for j, label in enumerate(fitted.column_labels):
        deg = degree_of.get(label, "")
        r2 = partial_by_label.get(label, "")
        res = tests.get(j)
        rows.append(
            [
                label,
                deg,
                _g17(fitted.beta_hat[j]),
                _g17(se[j]),
                _g17(res.p_value) if res is not None else "",
                _g17(r2) if r2 != "" else "",
            ]
        )
    return rows


def _cmd_fit(args) -> int:
    spec = serialize.load_model_spec(args.model)
    cohort = dataio.read_cohort(args.data, outcome=args.outcome)
    fitted = _fit_one(spec, cohort, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "fit.json").write_text(serialize.fitted_model_to_json(fitted), encoding="utf-8")
    dataio.write_csv(
        out / "fixed_effects.csv",
        ["parameter", "degree", "estimate", "se", "p_value", "semi_partial_r2"],
        _fixed_effects_rows(fitted),
    )
    dataio.write_csv(
        out / "variance_components.csv",
        ["component", "estimate", "se"],
        [
            [name, _g17(est), _g17(se) if np.isfinite(se) else ""]
            for name, est, se in inference.variance_component_table(fitted)
        ],
    )
    if not fitted.converged:
        print(f"non-convergence: gradient_norm={fitted.gradient_norm:.3e}", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _failed_row(path, exc) -> dict:
    return {
        "model": Path(path).stem,
        "aic": np.inf,
        "bic": np.inf,
        "model_r2": np.nan,
        "converged": False,
        "n_cov_params": -1,
        "error": f"{type(exc).__name__}: {exc}",
    }


def _cmd_compare(args) -> int:
    if len(args.model) < 2:
        print("error: need >= 2 models to compare", file=sys.stderr)
        return EXIT_USAGE
    loaded = []
    for path in args.model:
        try:
            loaded.append((path, serialize.load_model_spec(path)))
        except AbpmixError as exc:
            loaded.append((path, exc))
    # comparability depends only on the specs and the method: refuse before fitting
    specs = [spec for _, spec in loaded if not isinstance(spec, AbpmixError)]
    inference.assert_comparable(specs, args.method.upper(),
                                force_reml_compare=args.force_reml_compare)
    cohort = dataio.read_cohort(args.data, outcome=args.outcome)
    results = []
    for path, spec in loaded:
        if isinstance(spec, AbpmixError):
            results.append(_failed_row(path, spec))
            continue
        try:
            fitted = _fit_one(spec, cohort, args)
            aic, bic = inference.information_criteria(fitted)
            model_r2 = inference.r2_statistics(fitted)[0] if fitted.converged else np.nan
            results.append(
                {
                    "model": Path(path).stem,
                    "aic": aic,
                    "bic": bic,
                    "model_r2": model_r2,
                    "converged": fitted.converged,
                    "n_cov_params": fitted.n_cov_params,
                    "error": "",
                }
            )
        except AbpmixError as exc:
            results.append(_failed_row(path, exc))
    if not any(r["error"] == "" for r in results):
        print("error: every model failed to fit", file=sys.stderr)
        return EXIT_USAGE
    results.sort(key=lambda r: (r["aic"], r["n_cov_params"]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for r in results:
        rows.append(
            [
                r["model"],
                _g17(r["aic"]) if np.isfinite(r["aic"]) else "",
                _g17(r["bic"]) if np.isfinite(r["bic"]) else "",
                _g17(r["model_r2"]) if np.isfinite(r["model_r2"]) else "",
                str(r["converged"]).lower(),
                r["n_cov_params"] if r["n_cov_params"] >= 0 else "",
                r["error"],
            ]
        )
    dataio.write_csv(
        out / "comparison.csv",
        ["model", "aic", "bic", "model_r2", "converged", "n_cov_params", "error"],
        rows,
    )
    return EXIT_OK


def _series_lines(times, block, labels, own):
    """The plot CSV lines of a block of series, as bytes in uint8 arrays,
    from one ``dataio.format_g17`` call on the times and every value."""
    n = len(times)
    numbers = dataio.format_g17(np.concatenate([times] + [c for s in block for c in s[1:]]))
    stamps = numbers[:n][:, numbers[:n].any(axis=0)]
    width, start, lines = numbers.shape[1], n, []
    for k, run in groupby(range(len(block)), lambda i: len(block[i]) - 1):
        run = list(run)  # series with k columns each, their values next in numbers
        values = numbers[start:start + len(run) * k * n].reshape(len(run), k, n, width)
        start += values.shape[0] * k * n
        columns = [np.tile(stamps, (len(run), 1)), b",",
                   (np.repeat(labels[run], n, axis=0), np.repeat(own[run], n, axis=0))]
        for j in range(k):
            columns += [b",", values[:, j].reshape(len(run) * n, width)]
        lines.append(dataio.csv_lines(columns + [b"," * (3 - k) + b"\n"]))
    return lines


def _write_series(path: Path, times, series):
    """Plot CSV, a row per series and time.  ``series`` yields (label,
    values) or (label, values, lower, upper); a series without bounds
    leaves them empty.  The numbers go out in blocks of about
    ``dataio.BLOCK_VALUES``, formatted by ``dataio.format_g17``."""
    series = list(series)
    quoted = dataio.csv_quoted([s[0] for s in series])
    sizes = [len(times) * (len(s) - 1) for s in series]
    with open(path, "wb") as fh:
        fh.write(b"time,series,value,lower,upper\n")
        labels, own = dataio.text_fields(quoted)
        for a, b in dataio.blocks(sizes):
            fh.writelines(_series_lines(times, series[a:b], labels[a:b], own[a:b]))


def _eval_grid(args) -> TimeGrid:
    return TimeGrid.equispaced(args.grid_points, 0.0, 24.0)


def _cmd_profiles(args) -> int:
    fitted = serialize.load_fitted_model(args.fit)
    cohort = dataio.read_cohort(args.data, outcome=args.outcome)
    grid = _eval_grid(args)
    subject_ids = [s for s in (args.subjects.split(",") if args.subjects else []) if s]
    by_id, seen = {s.id: s for s in cohort}, set()
    for sid in subject_ids:
        if sid not in by_id or sid in seen:
            what = "unknown" if sid not in by_id else "repeated"
            print(f"error: {what} subject id {sid!r}", file=sys.stderr)
            return EXIT_USAGE
        seen.add(sid)
    values = blup.subject_profiles(fitted, [by_id[sid] for sid in subject_ids], grid)
    pop = blup.population_curve(fitted, grid)
    band = blup.prediction_band(fitted, grid, level=args.band_level,
                                multiplier=args.band_multiplier)
    series = [(f"subject:{sid}", v) for sid, v in zip(subject_ids, values)]
    series.append(("population", pop.values))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_series(out / "profiles.csv", grid.points,
                  series + [("band", band.center, band.lower, band.upper)])
    if args.svg:
        text = svg.render_plot(
            grid.points, series, band=(band.lower, band.upper),
            start_hour=args.start_hour, title="predicted profiles",
        )
        (out / "profiles.svg").write_text(text, encoding="utf-8")
    return EXIT_OK


def _cmd_band(args) -> int:
    cohort = dataio.read_cohort(args.data, outcome=args.outcome)
    if args.fit:
        fitted = serialize.load_fitted_model(args.fit)
    else:
        if not args.thresholds or not args.model:
            print("error: band needs either --fit or both --model and --thresholds",
                  file=sys.stderr)
            return EXIT_USAGE
        thresholds = serialize.load_thresholds(args.thresholds)
        normals = dataio.filter_normals(cohort, thresholds)
        spec = serialize.load_model_spec(args.model)
        fitted = _fit_one(spec, normals, args)
        if not fitted.converged:
            print(f"non-convergence: gradient_norm={fitted.gradient_norm:.3e}", file=sys.stderr)
            return EXIT_NONCONVERGED
    grid = _eval_grid(args)
    pop = blup.population_curve(fitted, grid)
    band = blup.prediction_band(fitted, grid, level=args.band_level,
                                multiplier=args.band_multiplier)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_series(out / "band.csv", grid.points,
                  [("population", pop.values), ("band", band.center, band.lower, band.upper)])
    if args.svg:
        text = svg.render_plot(
            grid.points, [("population", pop.values)], band=(band.lower, band.upper),
            start_hour=args.start_hour, title="prediction band",
        )
        (out / "band.svg").write_text(text, encoding="utf-8")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = serialize.load_simulation_config(args.config)
    if args.seed is not None:
        import dataclasses

        config = dataclasses.replace(config, seed=args.seed)
    cohort = dataio.simulate_cohort(config, workers=args.workers)
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


def _add_common(parser, data=True, fitopts=False, plot=False):
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--outcome", choices=["sbp", "dbp"], default="sbp")
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--subjects", default="", help="comma-separated subject ids")
    _add_common(p, plot=True)
    p.set_defaults(func=_cmd_profiles)

    p = sub.add_parser("band", help="prediction band from a reference cohort")
    p.add_argument("--fit", default=None, help="reuse an existing fit.json")
    p.add_argument("--model", default=None, help="model spec JSON (fit on normals)")
    p.add_argument("--thresholds", default=None, help="per-hour normal bounds JSON")
    _add_common(p, fitopts=True, plot=True)
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


if __name__ == "__main__":
    sys.exit(main())
