"""Subject-specific prediction: BLUPs, profiles, and prediction bands."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
from scipy import stats

from .basis import TimeGrid
from .design import Subject, build_design
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


def random_effects_blup(fitted: FittedModel, subject: Subject) -> np.ndarray:
    """d_i = Sigma_d Z' Sigma^-1 (y - X beta) at the fitted parameters."""
    pair = build_design(fitted.spec, subject, fitted.context)
    resid = subject.y - pair.X @ fitted.beta_hat
    sigma = pair.Z @ fitted.sigma_d_hat @ pair.Z.T + fitted.sigma2_hat * np.eye(len(resid))
    try:
        cho = sla.cho_factor(sigma, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"marginal covariance not factorizable for subject {subject.id!r}"
        ) from exc
    return fitted.sigma_d_hat @ pair.Z.T @ sla.cho_solve(cho, resid)


def subject_profile(fitted: FittedModel, subject: Subject,
                    eval_times: Optional[TimeGrid] = None) -> ProfileCurve:
    """Smoothed predicted curve y = X beta + Z d for one subject."""
    d_hat = random_effects_blup(fitted, subject)
    if eval_times is None:
        eval_times = subject.times
    eval_subject = Subject(
        id=subject.id,
        times=eval_times,
        y=np.zeros(len(eval_times)),
        covariates=subject.covariates,
    )
    pair = build_design(fitted.spec, eval_subject, fitted.context)
    values = pair.X @ fitted.beta_hat + pair.Z @ d_hat
    return ProfileCurve(times=eval_times, values=values, kind="subject", subject_id=subject.id)


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
        z = float(stats.norm.ppf(0.5 * (1.0 + level)))
    else:
        if multiplier < 0:
            raise ConfigError("band multiplier must be nonnegative")
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
