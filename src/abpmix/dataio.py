"""Cohort input, hourly aggregation, reference filtering, and simulation.

Input CSV schema: header row with at least ``subject_id``, ``time`` and
the outcome column (``sbp`` or ``dbp``); any remaining columns become
static covariates, which must keep one value across a subject's rows
(a change is a SchemaError).  Times are elapsed hours since recording
start.

Errors of ``read_cohort``.  Records are numbered from the header, row 1;
blank records are skipped but counted.  Invalid UTF-8 anywhere in the
file is a ParseError first; then a missing column is a SchemaError; then
the earliest offending record raises.  A record that ``csv`` cannot
tokenize, such as one with a field over ``csv.field_size_limit()``, is a
ParseError, the header included.  Within a record the checks run in
this order: a short row, an unparsable time, an unparsable outcome
(ParseError), a time its subject already has (DuplicateError), a
covariate whose value differs from the subject's first record
(SchemaError).  Then one vectorized pass over the sorted cohort makes
every check of ``TimeGrid`` and ``Subject``: finite times in [0, 24],
strictly increasing within each subject, finite outcomes, no subject
empty.  The first subject, in order of first appearance, that fails it
is built through the public constructors, which raise its GridError or
SpecError.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import itemgetter
from typing import Mapping, Optional, Sequence

import numpy as np

from .basis import TIME_DOMAIN, TimeGrid
from .design import BasisContext, Cohort, ModelSpec, Subject
from .errors import ConfigError, DuplicateError, ParseError, SchemaError, SpecError

OUTCOMES = ("sbp", "dbp")


_CHUNK_ROWS = 1024  # records tokenized and converted at a time: bounds the peak memory


def _covariate_value(raw: str):
    try:
        return float(raw)
    except ValueError:
        return raw


def _changed(was: str, now: str) -> bool:
    """Whether a covariate cell holds another value than the subject's first
    (``41`` and ``41.0`` are one value; the same text is never a change)."""
    return was != now and _covariate_value(was) != _covariate_value(now)


def _floats(cells: list):
    """``float()`` of the cells before the first one that does not parse,
    and that cell's index (``len(cells)`` when every cell parses)."""
    try:
        return np.array(cells, dtype=float), len(cells)
    except ValueError:
        for n, text in enumerate(cells):
            try:
                float(text)
            except ValueError:
                return np.array(cells[:n], dtype=float), n


def _records(reader, first: int, count: int):
    """Up to ``count`` records, the first numbered ``first``, and the
    ParseError of a record that ``csv`` cannot tokenize, such as one with a
    field over ``csv.field_size_limit()``, or None."""
    rows = []
    try:
        rows.extend(islice(reader, count))  # keeps the records before a failure
    except csv.Error as exc:
        return rows, ParseError(f"row {first + len(rows)}: {exc}")
    return rows, None


def _drain(fh) -> None:
    """Decode the rest of the file, so that invalid UTF-8 is found first."""
    for _ in fh:
        pass


def read_cohort(path, outcome: str = "sbp", covariate_columns: Optional[Sequence[str]] = None) -> Cohort:
    """Read a cohort CSV, one Subject per id with ascending times.

    The file is tokenized by ``csv.reader`` in chunks of ``_CHUNK_ROWS``
    records and converted column by column; one stable sort on (subject,
    time) then finds duplicate times and orders each subject's rows, and
    one pass over the sorted arrays checks the whole cohort.  The sorted
    time and outcome arrays are then made read-only, and each subject's
    ``times.points`` and ``y`` are views (slices) of them, built without a
    copy or a second check.  The errors and their precedence are in the
    module docstring.
    """
    outcome = outcome.lower()
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows, error = _records(reader, 1, 1)
            if error is not None:
                _drain(fh)
                raise error
            header = rows[0] if rows else []
            column = {name: j for j, name in enumerate(header)}
            if covariate_columns is None:
                covariate_columns = [
                    c for c in header if c not in ("subject_id", "time") and c not in OUTCOMES
                ]
            for required in ("subject_id", "time", outcome, *covariate_columns):
                if required not in column:
                    _drain(fh)
                    raise SchemaError(f"missing column {required!r}")
            columns, ids, error = _read_columns(reader, column, outcome, covariate_columns)
            _drain(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc.reason}") from None
    return _assemble(columns, ids, error, outcome, covariate_columns)


def _read_columns(reader, column: dict, outcome: str, covariate_columns: Sequence[str]):
    """Convert the records chunk by chunk, up to the first one that is short
    or holds an unparsable number.

    Returns the time, outcome, subject-code and record-number arrays and
    one object array per covariate, all in record order; the subject ids
    in order of first appearance (the codes index them); and the error of
    the first bad record, or None.
    """
    i_sid, i_time, i_value = column["subject_id"], column["time"], column[outcome]
    i_covs = [column[c] for c in covariate_columns]
    width = max([i_sid, i_time, i_value] + i_covs) + 1
    codes = {}
    parts = [[] for _ in range(4 + len(i_covs))]
    error = None
    first = 2
    while error is None:
        rows, error = _records(reader, first, _CHUNK_ROWS)
        if not rows:
            break
        start, first = first, first + len(rows)
        lengths = np.fromiter(map(len, rows), np.intp, len(rows))
        short = np.flatnonzero((lengths < width) & (lengths > 0))
        if short.size:
            s = int(short[0])
            error = ParseError(f"row {start + s}: expected {width} fields, found {lengths[s]}")
            rows, lengths = rows[:s], lengths[:s]
        rownums = np.flatnonzero(lengths) + start
        if rownums.size < len(rows):
            rows = list(compress(rows, lengths))
        t, bad_t = _floats(list(map(itemgetter(i_time), rows)))
        y, bad_y = _floats(list(map(itemgetter(i_value), rows)))
        n = min(bad_t, bad_y)
        if n < len(rows):
            name, text = ("time", rows[n][i_time]) if bad_t == n else (outcome, rows[n][i_value])
            error = ParseError(f"row {rownums[n]}: cannot parse {name}={text!r}")
            rows, t, y, rownums = rows[:n], t[:n], y[:n], rownums[:n]
        sids = list(map(itemgetter(i_sid), rows))
        for sid in dict.fromkeys(sids):
            codes.setdefault(sid, len(codes))
        code = np.fromiter(map(codes.__getitem__, sids), np.intp, len(sids))
        cells = [np.array(list(map(itemgetter(j), rows)), dtype=object) for j in i_covs]
        for part, arr in zip(parts, [t, y, code, rownums] + cells):
            part.append(arr)
    return [np.concatenate(p) for p in parts] if codes else None, list(codes), error


def _assemble(columns, ids, error, outcome, covariate_columns) -> Cohort:
    """Subjects from the converted records, after the checks that compare
    records (duplicate times, changed covariates) and one pass over the
    sorted cohort that makes every check of ``TimeGrid`` and ``Subject``;
    each subject then holds read-only views of the sorted arrays."""
    if not ids:
        raise error if error is not None else SchemaError("no data rows")
    t, y, code, rownum, *cells = columns
    order = np.lexsort((t, code))  # stable: equal (code, t) keep record order
    ts, cs = t[order], code[order]
    dup = order[1:][(cs[1:] == cs[:-1]) & (ts[1:] == ts[:-1])]
    bad_dup = int(dup.min()) if dup.size else t.size
    firsts = np.unique(code, return_index=True)[1]  # each subject's first record
    ref = firsts[code]
    bad_cov = t.size
    for col in cells:
        for i in np.flatnonzero(col != col[ref]):
            if i >= bad_cov:
                break
            if _changed(col[ref[i]], col[i]):
                bad_cov = i
                break
    if bad_dup <= bad_cov and bad_dup < t.size:
        raise DuplicateError(f"row {rownum[bad_dup]}: duplicate time {float(t[bad_dup])} "
                             f"for subject {ids[code[bad_dup]]!r}")
    if bad_cov < t.size:
        i = bad_cov
        for c, col in zip(covariate_columns, cells):
            was, now = col[ref[i]], col[i]
            if _changed(was, now):
                raise SchemaError(
                    f"row {rownum[i]}: covariate {c!r} of subject {ids[code[i]]!r} changes "
                    f"from {was!r} to {now!r}; covariates must be static"
                )
    if error is not None:
        raise error
    ys = y[order]
    lo, hi = TIME_DOMAIN
    fine = (ts >= lo) & (ts <= hi) & np.isfinite(ys)  # a non-finite time fails a bound
    fine[1:] &= (ts[1:] > ts[:-1]) | (cs[1:] != cs[:-1])
    # subject k's rows are edges[k] to edges[k + 1]; an empty range is an empty subject
    edges = np.searchsorted(cs, np.arange(len(ids) + 1)).tolist()
    bad = np.union1d(cs[~fine], np.flatnonzero(np.diff(edges) == 0))
    if bad.size:  # the public constructors raise the first such subject's error
        k = int(bad[0])
        a, b = edges[k], edges[k + 1]
        Subject(id=ids[k], times=TimeGrid(ts[a:b]), y=ys[a:b])
        raise AssertionError(f"subject {ids[k]!r} failed the cohort check but not its own")
    ts.flags.writeable = False
    ys.flags.writeable = False
    values = [[_covariate_value(col[j]) for j in firsts.tolist()] for col in cells]
    subjects = tuple(
        Subject._trusted(sid, TimeGrid._trusted(ts[a:b]), ys[a:b], dict(zip(covariate_columns, v)))
        for sid, a, b, *v in zip(ids, edges, edges[1:], *values)
    )
    return Cohort(subjects=subjects, outcome_label=outcome.upper())


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
    must exist for every hour at which any subject has a measurement (the
    lowest hour without one is named).
    """
    hours = np.clip(np.floor(np.concatenate([s.times.points for s in cohort])).astype(int), 0, 23)
    lo, hi = np.empty(24), np.empty(24)
    for h in np.unique(hours).tolist():
        if h not in thresholds:
            raise ConfigError(f"no threshold supplied for hour {h}")
        lo[h], hi[h] = thresholds[h]
    y = np.concatenate([s.y for s in cohort])
    inside = (lo[hours] <= y) & (y <= hi[hours])
    starts = np.cumsum([0] + [s.n_obs for s in cohort][:-1])
    kept = [s for s, ok in zip(cohort, np.logical_and.reduceat(inside, starts)) if ok]
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
    s, u = context.time_matrices(grid)
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
