"""Cohort input, hourly aggregation, reference filtering, and simulation.

Input CSV schema: header row with at least ``subject_id``, ``time`` and
the outcome column (``sbp`` or ``dbp``); any remaining columns become
static covariates, which must keep one value across a subject's rows
(a change is a SchemaError).  Times are elapsed hours since recording
start.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .basis import TimeGrid
from .design import BasisContext, Cohort, ModelSpec, Subject
from .errors import ConfigError, DuplicateError, ParseError, SchemaError, SpecError

OUTCOMES = ("sbp", "dbp")


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"row {row}: cannot parse {column}={text!r}") from None


def _covariate_value(raw: str):
    try:
        return float(raw)
    except ValueError:
        return raw


def read_cohort(path, outcome: str = "sbp", covariate_columns: Optional[Sequence[str]] = None) -> Cohort:
    """Read a cohort CSV, one Subject per id with ascending times."""
    outcome = outcome.lower()
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            column = {name: j for j, name in enumerate(header)}
            for required in ("subject_id", "time", outcome):
                if required not in column:
                    raise SchemaError(f"missing column {required!r}")
            if covariate_columns is None:
                covariate_columns = [
                    c for c in header if c not in ("subject_id", "time") and c not in OUTCOMES
                ]
            else:
                for c in covariate_columns:
                    if c not in column:
                        raise SchemaError(f"missing column {c!r}")
            i_sid, i_time, i_value = column["subject_id"], column["time"], column[outcome]
            i_covs = [column[c] for c in covariate_columns]
            width = max([i_sid, i_time, i_value] + i_covs) + 1

            per_subject = {}  # id -> (times, values, set of times, covariate cells)
            for rownum, row in enumerate(reader, start=2):
                if len(row) < width:
                    if not row:
                        continue
                    raise ParseError(f"row {rownum}: expected {width} fields, found {len(row)}")
                sid = row[i_sid]
                t = _parse_float(row[i_time], rownum, "time")
                v = _parse_float(row[i_value], rownum, outcome)
                cells = [row[j] for j in i_covs]
                rec = per_subject.get(sid)
                if rec is None:
                    rec = per_subject[sid] = ([], [], set(), cells)
                times, values, seen, first = rec
                if t in seen:
                    raise DuplicateError(f"row {rownum}: duplicate time {t} for subject {sid!r}")
                if cells != first:
                    for c, was, now in zip(covariate_columns, first, cells):
                        if _covariate_value(was) != _covariate_value(now):
                            raise SchemaError(
                                f"row {rownum}: covariate {c!r} of subject {sid!r} changes "
                                f"from {was!r} to {now!r}; covariates must be static"
                            )
                seen.add(t)
                times.append(t)
                values.append(v)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc.reason}") from None

    if not per_subject:
        raise SchemaError("no data rows")
    subjects = []
    for sid, (times, values, _, cells) in per_subject.items():
        order = np.argsort(np.asarray(times), kind="stable")
        covariates = {c: _covariate_value(raw) for c, raw in zip(covariate_columns, cells)}
        subjects.append(
            Subject(id=sid, times=TimeGrid(np.asarray(times)[order]),
                    y=np.asarray(values)[order], covariates=covariates)
        )
    return Cohort(subjects=tuple(subjects), outcome_label=outcome.upper())


def write_cohort(path, cohort: Cohort, outcome: str = "sbp"):
    """Write a cohort back out in the input CSV schema."""
    outcome = outcome.lower()
    cov_names = sorted({k for s in cohort for k in s.covariates})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "time", outcome] + cov_names)
        for s in cohort:
            for t, v in zip(s.times.points, s.y):
                row = [s.id, format(t, ".17g"), format(v, ".17g")]
                row += [str(s.covariates.get(c, "")) for c in cov_names]
                writer.writerow(row)


def hourly_aggregate(cohort: Cohort) -> Cohort:
    """Bin raw readings by floor-hour and average each nonempty bin.

    Aggregated measurements sit at the bin midpoints h + 0.5, which keeps
    them strictly inside [0, 24].  Empty bins produce no row.
    """
    subjects = []
    for s in cohort:
        bins = np.clip(np.floor(s.times.points).astype(int), 0, 23)
        times, values = [], []
        for h in range(24):
            mask = bins == h
            if np.any(mask):
                times.append(h + 0.5)
                values.append(float(np.mean(s.y[mask])))
        subjects.append(
            Subject(id=s.id, times=TimeGrid(np.asarray(times)), y=np.asarray(values),
                    covariates=s.covariates)
        )
    return Cohort(subjects=tuple(subjects), outcome_label=cohort.outcome_label)


def filter_normals(cohort: Cohort, thresholds: Mapping[int, Sequence[float]]) -> Cohort:
    """Keep subjects whose every measurement is within its hour's bounds.

    ``thresholds`` maps hour index (0-23) to (lower, upper); a threshold
    must exist for every hour at which any subject has a measurement.
    """
    kept = []
    for s in cohort:
        hours = np.clip(np.floor(s.times.points).astype(int), 0, 23)
        ok = True
        for h, v in zip(hours, s.y):
            if int(h) not in thresholds:
                raise ConfigError(f"no threshold supplied for hour {int(h)}")
            lo, hi = thresholds[int(h)]
            if not (lo <= v <= hi):
                ok = False
                break
        if ok:
            kept.append(s)
    if not kept:
        raise ConfigError("no subjects remain after filtering")
    return Cohort(subjects=tuple(kept), outcome_label=cohort.outcome_label)


@dataclass(frozen=True)
class SimulationConfig:
    """Generative description of a synthetic cohort."""

    spec: ModelSpec
    beta: np.ndarray
    sigma_d: np.ndarray
    sigma2: float
    n_subjects: int
    missing_rate: float = 0.0
    time_jitter_sd: float = 0.0
    seed: int = 0
    base_times: Optional[np.ndarray] = None

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        sigma_d = np.atleast_2d(np.asarray(self.sigma_d, dtype=float))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma_d", sigma_d)
        if self.spec.group_terms or self.spec.interaction_terms:
            raise ConfigError("the simulator does not generate covariates")
        if beta.shape != (self.spec.fixed.n_columns,):
            raise ConfigError(f"beta must have length {self.spec.fixed.n_columns}")
        m = self.spec.random.n_columns
        if sigma_d.shape != (m, m):
            raise ConfigError(f"sigma_d must be {m}x{m}")
        ev = np.linalg.eigvalsh(0.5 * (sigma_d + sigma_d.T))
        if ev[0] < -1e-10 * max(abs(ev[-1]), 1.0):
            raise ConfigError("sigma_d must be positive semidefinite")
        if self.sigma2 < 0:
            raise ConfigError("sigma2 must be nonnegative")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ConfigError("missing_rate must be in [0, 1)")
        if self.n_subjects < 1:
            raise ConfigError("need at least one subject")
        base = self.base_times
        base = np.asarray(base, dtype=float) if base is not None else np.arange(24.0) + 0.5
        object.__setattr__(self, "base_times", base)
        expected = base.size * (1.0 - self.missing_rate)
        if expected < self.spec.fixed.n_columns + 1:
            raise ConfigError("base_times and missing_rate leave too few expected observations "
                              "per subject")


def _simulate_subject(index: int, config: SimulationConfig, context: BasisContext,
                      chol_d: np.ndarray):
    rng = np.random.default_rng([config.seed, index])
    t = config.base_times.copy()
    if config.time_jitter_sd > 0:
        t = np.sort(np.clip(t + rng.normal(scale=config.time_jitter_sd, size=t.size), 0.0, 24.0))
        if np.any(np.diff(t) <= 0):
            t = np.unique(t)
    if config.missing_rate > 0:
        keep = rng.random(t.size) >= config.missing_rate
        if keep.sum() < config.spec.fixed.n_columns + 1:
            keep[:] = True  # degenerate draw: fall back to the full grid
        t = t[keep]
    grid = TimeGrid(t)
    s = context.fixed_time_matrix(grid)
    u = context.random_matrix(grid)
    d = chol_d @ rng.standard_normal(chol_d.shape[0])
    e = rng.standard_normal(len(grid)) * np.sqrt(config.sigma2)
    y = s @ config.beta + u @ d + e
    return Subject(id=f"s{index:04d}", times=grid, y=y)


def simulate_cohort(config: SimulationConfig, workers: int = 1,
                    outcome_label: str = "SBP") -> Cohort:
    """Draw a cohort from the model; deterministic in (seed, subject index).

    ``workers`` is accepted for compatibility; no draw depends on it.
    """
    context = BasisContext(config.spec)
    # PSD but possibly singular: eigen square root instead of Cholesky
    ev, vec = np.linalg.eigh(0.5 * (config.sigma_d + config.sigma_d.T))
    chol_d = vec @ np.diag(np.sqrt(np.maximum(ev, 0.0)))
    subjects = [_simulate_subject(i, config, context, chol_d) for i in range(config.n_subjects)]
    return Cohort(subjects=tuple(subjects), outcome_label=outcome_label)
