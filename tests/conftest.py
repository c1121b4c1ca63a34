"""Shared fixtures and independent oracles.

The dense oracles below deliberately work on the stacked n-dimensional
problem with materialized covariance matrices so they share no code path
with the blockwise estimator they check.
"""

import csv
import itertools
import json
import math

import numpy as np
import pytest
import scipy.linalg as sla

import abpmix as a
from abpmix import serialize
from abpmix.basis import TimeGrid
from abpmix.design import BasisContext, build_design
from abpmix.errors import DuplicateError, GridError, ParseError, SchemaError, SpecError
from abpmix.estimation import LOG_VARIANCE_FLOOR, MixedModelProblem, sigma_d_from_theta


def dense_stacked_loglik(theta, spec, cohort, method="REML"):
    """Stacked-Gaussian (RE)ML log-likelihood with beta profiled out."""
    ctx = BasisContext(spec, cohort)
    sd = sigma_d_from_theta(spec.random_cov, spec.random.n_columns, theta)
    s2 = float(np.exp(theta[-1]))
    xs, ys, blocks = [], [], []
    for s in cohort:
        pair = build_design(spec, s, ctx)
        xs.append(pair.X)
        ys.append(s.y)
        blocks.append(pair.Z @ sd @ pair.Z.T + s2 * np.eye(s.n_obs))
    x = np.vstack(xs)
    y = np.concatenate(ys)
    sigma = sla.block_diag(*blocks)
    si = np.linalg.inv(sigma)
    xtsx = x.T @ si @ x
    beta = np.linalg.solve(xtsx, x.T @ si @ y)
    r = y - x @ beta
    n, q = x.shape
    _, logdet = np.linalg.slogdet(sigma)
    if method == "REML":
        _, logdet_x = np.linalg.slogdet(xtsx)
        return -0.5 * (logdet + logdet_x + r @ si @ r + (n - q) * np.log(2 * np.pi))
    return -0.5 * (logdet + r @ si @ r + n * np.log(2 * np.pi))


def _dense_covariance_derivatives(theta, spec, cohort):
    """Stacked X, Sigma, its first derivatives in theta and a function
    of (j, k) giving its second derivatives.

    Sigma_d and its derivatives are written out from the parameterization
    (diagonal log-variances, or a row-major lower-triangular Cholesky
    factor with log-diagonal; the last parameter is log sigma^2), not
    taken from the estimator.
    """
    ctx = BasisContext(spec, cohort)
    m = spec.random.n_columns
    k = theta.size - 1
    d2 = [[np.zeros((m, m)) for _ in range(k)] for _ in range(k)]
    if spec.random_cov == "diagonal":
        variances = np.exp(theta[:m])
        sigma_d = np.diag(variances)
        derivs = [v * np.outer(e, e) for v, e in zip(variances, np.eye(m))]
        for j in range(m):
            d2[j][j] = derivs[j]
    else:
        rows, cols = np.tril_indices(m)
        chol = np.zeros((m, m))
        chol[rows, cols] = theta[: rows.size]
        chol[np.diag_indices(m)] = np.exp(np.diag(chol))
        sigma_d = chol @ chol.T
        dls = []
        for i, j in zip(rows, cols):
            dl = np.zeros((m, m))
            dl[i, j] = chol[i, j] if i == j else 1.0
            dls.append(dl)
        derivs = [dl @ chol.T + chol @ dl.T for dl in dls]
        for u, du in enumerate(dls):
            for v, dv in enumerate(dls):
                d2[u][v] = du @ dv.T + dv @ du.T
            if rows[u] == cols[u]:  # d^2 L = d L on the log-diagonal
                d2[u][u] = d2[u][u] + derivs[u]
    s2 = float(np.exp(theta[-1]))
    pairs = [build_design(spec, s, ctx) for s in cohort]
    x = np.vstack([p.X for p in pairs])
    sigma = sla.block_diag(*[p.Z @ sigma_d @ p.Z.T + s2 * np.eye(len(p.Z)) for p in pairs])
    n = x.shape[0]

    def stacked(d):
        return sla.block_diag(*[p.Z @ d @ p.Z.T for p in pairs])

    def d2v(j, l):  # built when asked for: k^2 stacked n x n matrices do not fit a large cohort
        if j == k or l == k:
            return s2 * np.eye(n) if j == l else np.zeros((n, n))
        return stacked(d2[j][l])

    dvs = [stacked(d) for d in derivs] + [s2 * np.eye(n)]
    return x, sigma, dvs, d2v


def dense_expected_information(theta, spec, cohort, method="REML"):
    """Stacked 1/2 tr(P dV_j P dV_k) over the covariance parameters."""
    x, sigma, dvs, _ = _dense_covariance_derivatives(theta, spec, cohort)
    si = np.linalg.inv(sigma)
    proj = si
    if method == "REML":
        proj = si - si @ x @ np.linalg.solve(x.T @ si @ x, x.T @ si)
    pdv = [proj @ dv for dv in dvs]
    return np.array([[0.5 * np.trace(u @ v) for v in pdv] for u in pdv])


def dense_observed_information(theta, spec, cohort, method="REML"):
    """Minus the stacked Hessian of the (RE)ML log-likelihood in theta.

    With P = V^-1 - V^-1 X (X'V^-1 X)^-1 X'V^-1, r = P y and T = P for
    REML (V^-1 for ML), the Hessian is 1/2 tr(T dV_j T dV_k)
    - 1/2 tr(T d2V_jk) - r'dV_j P dV_k r + 1/2 r'd2V_jk r.  A trace tr(A B)
    is taken as the sum of A * B', so only the k products T dV_j cost n^3.
    """
    x, sigma, dvs, d2v = _dense_covariance_derivatives(theta, spec, cohort)
    y = np.concatenate([s.y for s in cohort])
    si = np.linalg.inv(sigma)
    proj = si - si @ x @ np.linalg.solve(x.T @ si @ x, x.T @ si)
    t = proj if method == "REML" else si
    r = proj @ y
    k = len(dvs)
    tdv = [t @ dv for dv in dvs]
    hess = np.empty((k, k))
    for j in range(k):
        for l in range(k):
            d2 = d2v(j, l)
            hess[j, l] = (0.5 * np.sum(tdv[j] * tdv[l].T) - 0.5 * np.sum(t * d2.T)
                          - r @ dvs[j] @ proj @ dvs[l] @ r + 0.5 * r @ d2 @ r)
    return -hess


def fd_observed_information(problem, theta, method="REML", step=1e-4):
    """Central differences of the analytic gradient, symmetrized."""
    k = theta.size
    h = np.zeros((k, k))
    for j in range(k):
        e = np.zeros(k)
        e[j] = step
        h[j] = -(problem.loglik_and_grad(theta + e, method).grad
                 - problem.loglik_and_grad(theta - e, method).grad) / (2.0 * step)
    return 0.5 * (h + h.T)


def conditional_mean_blup_oracle(z, sigma_d, sigma2, resid):
    """E[d | y] from the joint normal of (d, y - X beta)."""
    cov_dy = sigma_d @ z.T
    var_y = z @ sigma_d @ z.T + sigma2 * np.eye(z.shape[0])
    return cov_dy @ np.linalg.solve(var_y, resid)


def random_tiny_problem(rng, structure="diagonal"):
    """A random tiny mixed-model instance (N <= 3, p <= 5)."""
    n_subjects = int(rng.integers(1, 4))
    degree = int(rng.integers(0, 2))
    spec = a.ModelSpec(
        fixed=a.BasisDescriptor("orthonormal_poly", degree),
        random=a.BasisDescriptor("orthonormal_poly", degree),
        random_cov=structure,
    )
    subjects = []
    for i in range(n_subjects):
        p = int(rng.integers(degree + 2, 6))
        times = np.sort(rng.uniform(0.0, 24.0, size=p))
        while np.any(np.diff(times) <= 1e-6):
            times = np.sort(rng.uniform(0.0, 24.0, size=p))
        subjects.append(
            a.Subject(id=f"t{i}", times=a.TimeGrid(times), y=rng.normal(50.0, 10.0, size=p))
        )
    cohort = a.Cohort(subjects=tuple(subjects))
    m = degree + 1
    k = (m if structure == "diagonal" else m * (m + 1) // 2) + 1
    theta = rng.normal(scale=0.8, size=k)
    return spec, cohort, theta


def edge_case_problems(rng, structure="diagonal"):
    """Tiny instances of the design patterns the grouped estimator treats
    specially: several subjects sharing a design next to singleton
    designs, subjects with fewer observations than random effects,
    covariates (same Z, different X), and a variance at its floor."""

    def subject(sid, times, **covariates):
        times = np.asarray(times, dtype=float)
        return a.Subject(id=sid, times=a.TimeGrid(times),
                         y=rng.normal(50.0, 10.0, size=times.size), covariates=covariates)

    def theta_for(m, floor_first=False):
        k = (m if structure == "diagonal" else m * (m + 1) // 2) + 1
        theta = rng.normal(scale=0.8, size=k)
        if floor_first:
            theta[0] = LOG_VARIANCE_FLOOR if structure == "diagonal" else LOG_VARIANCE_FLOOR / 2
        return theta

    shared = [2.0, 7.0, 12.0, 17.0, 22.0]
    mixed = a.Cohort(subjects=(
        subject("a", shared), subject("b", shared), subject("c", shared),
        subject("d", [1.0, 9.0, 15.0]), subject("e", [4.0, 11.0, 19.0, 23.0]),
    ))
    short = a.Cohort(subjects=(
        subject("a", [3.0, 8.0, 13.0, 18.0, 21.0]), subject("b", [5.0, 16.0]),
        subject("c", [10.0]), subject("d", [2.0, 6.0, 14.0, 20.0]),
    ))
    with_covariates = a.Cohort(subjects=tuple(
        subject(f"s{i}", shared, diet=("salt", "control")[i % 2], age=30.0 + 7.0 * i)
        for i in range(5)
    ))
    return [
        (poly_spec(1, structure), mixed, theta_for(2)),
        (poly_spec(2, structure), short, theta_for(3)),
        (a.ModelSpec(fixed=a.BasisDescriptor("orthonormal_poly", 1),
                     random=a.BasisDescriptor("orthonormal_poly", 1),
                     random_cov=structure, group_terms=("diet",),
                     interaction_terms=("age",)),
         with_covariates, theta_for(2)),
        (poly_spec(1, structure), mixed, theta_for(2, floor_first=True)),
    ]


def row_loop_read_cohort(path, outcome="sbp"):
    """Reference reader: ``dataio.read_cohort`` as one loop over the
    records, each checked as it is read; the first bad record raises, a
    record that ``csv`` cannot tokenize included.  Then each subject in
    order of first appearance is checked, one check at a time, over its
    records in order."""

    def numbered(reader):
        for rownum in itertools.count(1):
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                raise ParseError(f"row {rownum}: {exc}") from None
            yield rownum, row

    def parse_float(text, row, column):
        try:
            return float(text)
        except ValueError:
            raise ParseError(f"row {row}: cannot parse {column}={text!r}") from None

    def covariate_value(raw):
        try:
            return float(raw)
        except ValueError:
            return raw

    outcome = outcome.lower()
    with open(path, newline="", encoding="utf-8") as fh:
        records = numbered(csv.reader(fh))
        header = next(records, (1, []))[1]
        column = {name: j for j, name in enumerate(header)}
        for required in ("subject_id", "time", outcome):
            if required not in column:
                raise SchemaError(f"missing column {required!r}")
        covariate_columns = [c for c in header
                             if c not in ("subject_id", "time") and c not in ("sbp", "dbp")]
        i_sid, i_time, i_value = column["subject_id"], column["time"], column[outcome]
        i_covs = [column[c] for c in covariate_columns]
        width = max([i_sid, i_time, i_value] + i_covs) + 1
        per_subject = {}  # id -> (times, values, record numbers, set of times, covariate cells)
        for rownum, row in records:
            if len(row) < width:
                if not row:
                    continue
                raise ParseError(f"row {rownum}: expected {width} fields, found {len(row)}")
            sid = row[i_sid]
            t = parse_float(row[i_time], rownum, "time")
            v = parse_float(row[i_value], rownum, outcome)
            cells = [row[j] for j in i_covs]
            rec = per_subject.get(sid)
            if rec is None:
                rec = per_subject[sid] = ([], [], [], set(), cells)
            times, values, rows, seen, first = rec
            if t in seen:
                raise DuplicateError(f"row {rownum}: duplicate time {t} for subject {sid!r}")
            if cells != first:
                for c, was, now in zip(covariate_columns, first, cells):
                    if was != now and covariate_value(was) != covariate_value(now):
                        raise SchemaError(
                            f"row {rownum}: covariate {c!r} of subject {sid!r} changes "
                            f"from {was!r} to {now!r}; covariates must be static"
                        )
            seen.add(t)
            times.append(t)
            values.append(v)
            rows.append(rownum)
    if not per_subject:
        raise SchemaError("no data rows")
    checks = [  # what TimeGrid and then Subject check, in their order
        (lambda t, v: not math.isfinite(t), GridError, "time grid contains non-finite values"),
        (lambda t, v: not 0.0 <= t <= 24.0, GridError, "time points must lie in [0.0, 24.0]"),
        (lambda t, v: not math.isfinite(v), SpecError, "non-finite outcome values"),
    ]
    subjects = []
    for sid, (times, values, rows, _, cells) in per_subject.items():
        for fails, kind, what in checks:
            for row, t, v in zip(rows, times, values):  # in record order
                if fails(t, v):
                    raise kind(f"row {row}: subject {sid!r}: {what}")
        order = np.argsort(np.asarray(times), kind="stable")
        covariates = {c: covariate_value(raw) for c, raw in zip(covariate_columns, cells)}
        subjects.append(a.Subject(id=sid, times=TimeGrid(np.asarray(times)[order]),
                                  y=np.asarray(values)[order], covariates=covariates))
    return a.Cohort(subjects=tuple(subjects), outcome_label=outcome.upper())


def row_loop_covariate_design(spec, cohort, subjects):
    """Reference covariate coding: (the coding table of ``cohort``, the
    group- and interaction-term values of ``subjects``, the fixed column
    labels of a polynomial ``spec``), built one term and one subject at a
    time.  A term whose every value in the cohort is a number (not a bool)
    is one column; any other has one indicator per level, compared as
    ``str``, but its reference: the pinned one or the alphabetically first."""
    coding = {}
    for term in dict.fromkeys(spec.group_terms + spec.interaction_terms):
        values = [s.covariates[term] for s in cohort]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            coding[term] = ((term, None),)
            continue
        levels = sorted({str(v) for v in values})
        reference = spec.reference_levels.get(term, levels[0])
        coding[term] = tuple((f"{term}={level}", level) for level in levels if level != reference)

    def values_of(terms):
        rows = []
        for s in subjects:
            row = []
            for term in terms:
                v = s.covariates[term]
                for _, level in coding[term]:
                    row.append(float(v) if level is None else float(str(v) == level))
            rows.append(row)
        return np.array(rows, dtype=float).reshape(len(subjects),
                                                   sum(len(coding[t]) for t in terms))

    time = ["intercept"] + [f"time^{j}" for j in range(1, spec.fixed.degree + 1)]
    labels = time + [label for t in spec.group_terms for label, _ in coding[t]]
    for term in spec.interaction_terms:
        labels += [f"{label}:{tl}" for label, _ in coding[term] for tl in time[1:]]
    return coding, values_of(spec.group_terms), values_of(spec.interaction_terms), labels


def poly_spec(degree, random_cov="diagonal"):
    return a.ModelSpec(
        fixed=a.BasisDescriptor("orthonormal_poly", degree),
        random=a.BasisDescriptor("orthonormal_poly", degree),
        random_cov=random_cov,
    )


def spec_object(spec):
    """The spec's JSON object as fit.json and a simulation config hold it."""
    d = json.loads(serialize.model_spec_to_json(spec))
    del d["schema_version"]
    return d


def simulate(spec, beta, sigma_d, sigma2, n_subjects, seed, **kw):
    cfg = a.SimulationConfig(
        spec=spec,
        beta=np.asarray(beta, dtype=float),
        sigma_d=np.asarray(sigma_d, dtype=float),
        sigma2=sigma2,
        n_subjects=n_subjects,
        seed=seed,
        **kw,
    )
    return a.simulate_cohort(cfg)


def record_problem_calls(monkeypatch, names):
    """A list that receives (name, inside the ascent) for every call of the
    named ``MixedModelProblem`` methods; "inside" means within ``_optimize``,
    whose Newton steps use information matrices of their own."""
    calls, depth = [], []

    def recording(name, orig):
        def wrapper(self, *args, **kwargs):
            calls.append((name, bool(depth)))
            return orig(self, *args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(MixedModelProblem, name,
                            recording(name, getattr(MixedModelProblem, name)))
    optimize = MixedModelProblem._optimize

    def optimizing(self, *args, **kwargs):
        depth.append(True)
        try:
            return optimize(self, *args, **kwargs)
        finally:
            depth.pop()

    monkeypatch.setattr(MixedModelProblem, "_optimize", optimizing)
    return calls


@pytest.fixture(scope="session")
def small_fit():
    """A converged degree-2 fit reused by inference/blup tests."""
    spec = poly_spec(2)
    cohort = simulate(spec, [500.0, -20.0, 10.0], np.diag([80.0, 50.0, 30.0]), 25.0,
                      n_subjects=60, seed=314)
    fitted = a.fit(spec, cohort)
    assert fitted.converged
    return spec, cohort, fitted
