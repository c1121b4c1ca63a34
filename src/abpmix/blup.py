"""Subject-specific prediction: BLUPs, profiles, and prediction bands."""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from .basis import TimeGrid
from .design import Subject, build_design, design_key
from .errors import ConditioningError, ConfigError
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


def _design_on(fitted: FittedModel, subject: Subject, times: TimeGrid, memo: dict):
    """X beta and Z on ``times`` for ``subject``'s covariates.

    ``build_design`` runs once per distinct (times, covariate encoding) in
    ``memo``; Z, which carries no covariates, is kept once per times.
    """
    at, code = design_key(fitted.spec, subject, fitted.context, times)
    mean, z = memo.get(("mean", at, code)), memo.get(("z", at))
    if mean is None:
        pair = build_design(fitted.spec, Subject(id=subject.id, times=times,
                                                 y=np.zeros(len(times)),
                                                 covariates=subject.covariates),
                            fitted.context)
        mean = memo[("mean", at, code)] = pair.X @ fitted.beta_hat
        z = memo.setdefault(("z", at), pair.Z)
    return mean, z


def random_effects_blup(fitted: FittedModel, subject: Subject,
                        memo: Optional[dict] = None) -> np.ndarray:
    """d = Sigma_d Z' V^-1 (y - X beta) at the fitted parameters, V = Z Sigma_d Z' + sigma^2 I.

    V depends only on the observation times: ``memo`` (one dict shared by
    calls on the same fit) keeps the gain V^-1 Z Sigma_d once per distinct
    times.  A missing gain is factored together with every pattern of the
    same length registered by ``subject_profiles``.
    """
    memo = {} if memo is None else memo
    mean, _ = _design_on(fitted, subject, subject.times, memo)
    key = subject.times.points.tobytes()
    gain = memo.get(("gain", key))
    if gain is None:
        batch = memo.pop(("pending", len(subject.times)), {})
        batch.setdefault(key, subject)
        _factor_gains(fitted, batch, memo)
        gain = memo[("gain", key)]
    return (subject.y - mean) @ gain


def _factor_gains(fitted: FittedModel, batch: dict, memo: dict) -> None:
    """Gains of equal-length time patterns (bytes -> a subject observed at
    them) from one stacked Cholesky factorization and inverse."""
    z = np.stack([_design_on(fitted, s, s.times, memo)[1] for s in batch.values()])
    zs = z @ fitted.sigma_d_hat
    v = zs @ z.transpose(0, 2, 1) + fitted.sigma2_hat * np.eye(z.shape[1])
    try:
        li = np.linalg.inv(np.linalg.cholesky(v))
    except np.linalg.LinAlgError:
        for s, one in zip(batch.values(), v):  # name the first subject that fails
            try:
                np.linalg.cholesky(one)
            except np.linalg.LinAlgError as exc:
                raise ConditioningError(
                    f"marginal covariance not factorizable for subject {s.id!r}"
                ) from exc
        raise
    for key, gain in zip(batch, li.transpose(0, 2, 1) @ (li @ zs)):
        memo[("gain", key)] = gain


def subject_profile(fitted: FittedModel, subject: Subject,
                    eval_times: Optional[TimeGrid] = None,
                    memo: Optional[dict] = None) -> ProfileCurve:
    """Smoothed predicted curve y = X beta + Z d for one subject.

    ``memo`` shares designs and factorizations across calls on one fit.
    """
    memo = {} if memo is None else memo
    d_hat = random_effects_blup(fitted, subject, memo)
    if eval_times is None:
        eval_times = subject.times
    mean, z = _design_on(fitted, subject, eval_times, memo)
    values = mean + z @ d_hat
    return ProfileCurve(times=eval_times, values=values, kind="subject", subject_id=subject.id)


def subject_profiles(fitted: FittedModel, subjects, eval_times: TimeGrid) -> np.ndarray:
    """(n, len(eval_times)) smoothed curves, one row per subject.

    One memo serves the whole batch: each distinct design is built once,
    the grid once per distinct covariate encoding, and the gains of all
    time patterns of one length come from one stacked factorization.
    """
    memo = {}
    for s in subjects:
        memo.setdefault(("pending", len(s.times)), {}).setdefault(s.times.points.tobytes(), s)
    rows = [subject_profile(fitted, s, eval_times, memo).values for s in subjects]
    return np.array(rows).reshape(len(rows), len(eval_times))


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
    s = fitted.context.fixed_time_matrix(eval_times)
    u = fitted.context.random_matrix(eval_times)
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
