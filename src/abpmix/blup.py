"""Subject-specific prediction: BLUPs, profiles, and prediction bands.

A batch of profiles is array work on the design pipeline of ``design``: the time
bases are evaluated once on the union of the batch's times and once on the grid.
The observations' mean X beta comes from ``fixed_mean``, which builds no X, and
the grid's from ``fixed_design`` once per distinct covariate encoding.  Each
distinct time pattern factors one k x k matrix, k = min(p, m) (see ``_blups``),
and all patterns of one length are factored in one stacked Cholesky call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Optional

import numpy as np

from .basis import TimeGrid
from .design import (Subject, build_design, covariate_values, distinct_rows, fixed_design,
                     fixed_mean, group_patterns)
from .errors import ConditioningError, ConfigError, SpecError
from .estimation import FittedModel


@dataclass(frozen=True)
class ProfileCurve:
    times: TimeGrid
    values: np.ndarray
    kind: str
    subject_id: Optional[str] = None


@dataclass(frozen=True)
class PredictionBand:
    times: TimeGrid
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float


# kept for bench/spans.py, which times it by name
def random_effects_blup(fitted: FittedModel, subject: Subject) -> np.ndarray:
    """d = Sigma_d Z' V^-1 (y - X beta) at the fitted parameters, V = Z Sigma_d Z' + sigma^2 I."""
    return _blups(fitted, [subject])[0][0]


def subject_profile(fitted: FittedModel, subject, eval_times: Optional[TimeGrid] = None
                    ) -> ProfileCurve:
    """Smoothed predicted curve y = X beta + Z d for one subject, or for a
    sequence of subjects on ``eval_times``: then one row of values each."""
    one = isinstance(subject, Subject)
    batch = [subject] if one else list(subject)
    times = subject.times if eval_times is None else eval_times
    values = np.zeros((0, len(times)))
    if batch:
        d, group, interaction = _blups(fitted, batch)
        s, z = _time_matrices(fitted, batch[0], times)
        # the mean once per distinct covariate encoding
        first, encoding = distinct_rows(np.hstack([group, interaction]))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            mean = fixed_design(np.broadcast_to(s, (len(first),) + s.shape), group[first],
                                interaction[first]) @ fitted.beta_hat
            values = mean[encoding] + d @ z.T
        _refuse_non_finite(values, batch)
    return ProfileCurve(times=times, values=values[0] if one else values, kind="subject",
                        subject_id=subject.id if one else None)


def _time_matrices(fitted: FittedModel, carrier: Subject, times: TimeGrid):
    """(S, Z) on ``times`` via ``build_design``: S, the time basis, leads its X."""
    # through build_design, which bench/spans.py times as a blup child span
    pair = build_design(fitted.spec, replace(carrier, times=times, y=np.zeros(len(times))),
                        fitted.context)
    return pair.X[:, : fitted.spec.fixed.n_columns], pair.Z


def _blups(fitted: FittedModel, subjects: list):
    """(n, m) BLUPs d = Sigma_d Z' V^-1 r of a batch, then its group- and
    interaction-term values.  Each distinct design factors one k x k
    matrix, k = min(p, m): V = Z Sigma_d Z' + sigma^2 I itself when p <= m,
    else B = sigma^2 I + (ZL)'(ZL) for LL' = Sigma_d, as Sigma_d Z' V^-1 =
    L B^-1 (ZL)' (push-through).  B's eigenvalues are sigma^2 plus the m
    largest of Z Sigma_d Z'; without sigma^2 a V of p > m rows is singular."""
    group, interaction = covariate_values(fitted.spec, subjects, fitted.context)
    union, patterns = group_patterns(subjects)
    basis, z = _time_matrices(fitted, subjects[0], union)
    y = np.concatenate([s.y for s in subjects])
    sigma_d, s2, m = fitted.sigma_d_hat, fitted.sigma2_hat, z.shape[1]
    ev, vec = np.linalg.eigh(sigma_d)
    root = vec * np.sqrt(np.maximum(ev, 0.0))  # L, as Sigma_d is PSD up to roundoff
    d = np.empty((len(subjects), m))
    # the first subject of each length whose V is not PD
    failed = [members[0] for members, obs, *_ in patterns if s2 <= 0.0 and obs.shape[1] > m]
    for members, obs, which, rows in patterns:
        zk = z[rows]
        p = zk.shape[1]
        if p <= m:
            w = zk @ sigma_d
            kk = w @ zk.transpose(0, 2, 1) + s2 * np.eye(p)
        else:
            w = zk @ root
            kk = w.transpose(0, 2, 1) @ w + s2 * np.eye(m)
        try:
            np.linalg.cholesky(kk)
        except np.linalg.LinAlgError:
            for i, one in zip(members, kk[which]):
                try:
                    np.linalg.cholesky(one)
                except np.linalg.LinAlgError:
                    failed.append(i)
                    break
            continue
        # V^-1 Z Sigma_d of each pattern, its gain transposed.  Each right-hand
        # side is a stack of matrices as deep as kk: numpy 2 broadcasts one
        # vector per matrix otherwise than numpy 1 did
        gain = (np.linalg.solve(kk, w) if p <= m
                else w @ np.linalg.solve(kk, np.broadcast_to(root.T, kk.shape)))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            resid = y[obs] - fixed_mean(basis, rows[which], group[members],
                                        interaction[members], fitted.beta_hat)
        _refuse_non_finite(resid, [subjects[i] for i in members])
        d[members] = np.einsum("kpm,kp->km", gain[which], resid)
    if failed:
        raise ConditioningError("marginal covariance not factorizable for subject "
                                f"{subjects[min(failed)].id!r}")
    return d, group, interaction


def _refuse_non_finite(rows, subjects):
    """SpecError for the first subject whose row overflowed (a numeric covariate's term)."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise SpecError(f"the fitted curve of subject {subjects[bad[0]].id!r} is not finite")


def population_curve(fitted: FittedModel, eval_times: TimeGrid) -> ProfileCurve:
    """Fixed-effect curve at the reference covariate level."""
    s = fitted.context.fixed_time_matrix(eval_times)
    values = s @ fitted.beta_hat[: s.shape[1]]
    return ProfileCurve(times=eval_times, values=values, kind="population")


def prediction_band(fitted: FittedModel, eval_times: TimeGrid, level: float = 0.90,
                    multiplier: Optional[float] = None) -> PredictionBand:
    """Pointwise band for a new subject's outcome.

    Half-width combines fixed-effect estimation variance, random-effect
    variance, and the residual: z * sqrt(s'Phi s + u'Sigma_d u + sigma^2).
    ``multiplier`` overrides the normal quantile (e.g. 2.0 for the
    mean +/- 2 SD convention).
    """
    if multiplier is None:
        if not 0.0 < level < 1.0:
            raise ConfigError("band level must be in (0, 1)")
        z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    else:
        if not 0.0 <= multiplier < np.inf:
            raise ConfigError("band multiplier must be finite and nonnegative")
        z = float(multiplier)
    s, u = fitted.context.time_matrices(eval_times)
    phi_tt = fitted.cov_beta[: s.shape[1], : s.shape[1]]
    var = (
        np.einsum("ij,jk,ik->i", s, phi_tt, s)
        + np.einsum("ij,jk,ik->i", u, fitted.sigma_d_hat, u)
        + fitted.sigma2_hat
    )
    center = s @ fitted.beta_hat[: s.shape[1]]
    half = z * np.sqrt(var)
    upper = center + half
    lower = 2.0 * center - upper  # exactly symmetric about the center
    return PredictionBand(times=eval_times, center=center, lower=lower, upper=upper, level=level)
