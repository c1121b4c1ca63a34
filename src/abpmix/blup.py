"""Subject-specific prediction: BLUPs, profiles, and prediction bands.

Profiles and curves are plain arrays: ``subject_profile`` gives a batch's
(subjects, times) matrix, ``population_curve`` one (times,) row.  A batch
is array work on the design pipeline of ``design``: the time bases are
evaluated once on the union of the batch's times and once on the grid, and
the mean X beta on both comes from ``fixed_mean``, which builds no X.
Each distinct time pattern factors one k x k matrix, k = min(p, m), once
(see ``_blups``): all patterns of one length in one stacked Cholesky call,
whose factors then serve the solves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Optional

import numpy as np

from .basis import TimeGrid
from .design import Subject, build_design, covariate_values, fixed_mean, group_patterns
from .errors import ConditioningError, ConfigError, SpecError
from .estimation import FittedModel


@dataclass(frozen=True)
class PredictionBand:
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


# kept for bench/spans.py, which times it by name
def random_effects_blup(fitted: FittedModel, subject: Subject) -> np.ndarray:
    """d = Sigma_d Z' V^-1 (y - X beta) at the fitted parameters, V = Z Sigma_d Z' + sigma^2 I."""
    return _blups(fitted, [subject])[0][0]


def subject_profile(fitted: FittedModel, subjects, times: TimeGrid) -> np.ndarray:
    """The (subjects, times) smoothed predicted curves X beta + Z d of a
    sequence of subjects on ``times``."""
    if not subjects:
        return np.zeros((0, len(times)))
    d, group, interaction = _blups(fitted, subjects)
    s, z = _time_matrices(fitted, subjects[0], times)
    # every subject's rows are the whole grid: one index row broadcast over the subjects
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        values = (fixed_mean(s, np.arange(len(times)), group, interaction, fitted.beta_hat)
                  + d @ z.T)
    _refuse_non_finite(values, subjects)
    return values


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
    largest of Z Sigma_d Z'; without sigma^2 a V of p > m rows is singular.
    Its Cholesky factor is the only one: d = (Z Sigma_d)' V^-1 r per length
    p <= m, and d = L B^-1 (ZL)'r for every subject of p > m in one stacked
    substitution over the batch, with no LU solve or inverse."""
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
    pushed = []  # (subjects, factors of B, (ZL)'r) of each length p > m
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
            factor = np.linalg.cholesky(kk)[which]
        except np.linalg.LinAlgError:
            for i, one in zip(members, kk[which]):
                try:
                    np.linalg.cholesky(one)
                except np.linalg.LinAlgError:
                    failed.append(i)
                    break
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            resid = y[obs] - fixed_mean(basis, rows[which], group[members],
                                        interaction[members], fitted.beta_hat)
        _refuse_non_finite(resid, [subjects[i] for i in members])
        if p <= m:
            d[members] = np.einsum("kpm,kp->km", w[which], _cholesky_solve(factor, resid))
        else:
            pushed.append((members, factor, np.einsum("kpm,kp->km", w[which], resid)))
    if failed:
        raise ConditioningError("marginal covariance not factorizable for subject "
                                f"{subjects[min(failed)].id!r}")
    if pushed:
        members, factors, rhs = map(np.concatenate, zip(*pushed))
        d[members] = _cholesky_solve(factors, rhs) @ root.T
    return d, group, interaction


def _cholesky_solve(factor, b):
    """x with LL' x = b for a stack of lower triangular L, (k, n, n), and b,
    (k, n): a forward then a back substitution, n steps each over the stack."""
    x = np.empty_like(b)
    for i in range(b.shape[1]):
        x[:, i] = (b[:, i] - np.einsum("kj,kj->k", factor[:, i, :i], x[:, :i])) / factor[:, i, i]
    for i in reversed(range(b.shape[1])):
        x[:, i] -= np.einsum("kj,kj->k", factor[:, i + 1:, i], x[:, i + 1:])
        x[:, i] /= factor[:, i, i]
    return x


def _refuse_non_finite(rows, subjects):
    """SpecError for the first subject whose row overflowed (a numeric covariate's term)."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise SpecError(f"the fitted curve of subject {subjects[bad[0]].id!r} is not finite")


def population_curve(fitted: FittedModel, times: TimeGrid) -> np.ndarray:
    """The (times,) fixed-effect curve at the reference covariate level."""
    s = fitted.context.fixed_time_matrix(times)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        values = s @ fitted.beta_hat[: s.shape[1]]
    if not np.isfinite(values).all():
        raise SpecError("the population curve is not finite")
    return values


def prediction_band(fitted: FittedModel, eval_times: TimeGrid, level: float = 0.90,
                    multiplier: Optional[float] = None) -> PredictionBand:
    """Pointwise band for a new subject's outcome.

    Half-width combines fixed-effect estimation variance, random-effect
    variance, and the residual: z * sqrt(s'Phi s + u'Sigma_d u + sigma^2).
    ``multiplier`` overrides the normal quantile (e.g. 2.0 for the
    mean +/- 2 SD convention).  A band that overflows is refused.
    """
    if multiplier is None:
        # 0.5 * (1 + level) rounds to 1 at the largest double below 1, 1 - 2**-53
        if not 0.0 < level <= 1.0 - 2.0 ** -52:
            raise ConfigError("band level must be in (0, 1), at most 1 - 2**-52")
        z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    else:
        if not 0.0 <= multiplier < np.inf:
            raise ConfigError("band multiplier must be finite and nonnegative")
        z = float(multiplier)
    s, u = fitted.context.time_matrices(eval_times)
    phi_tt = fitted.cov_beta[: s.shape[1], : s.shape[1]]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        var = (np.einsum("ij,jk,ik->i", s, phi_tt, s)
               + np.einsum("ij,jk,ik->i", u, fitted.sigma_d_hat, u) + fitted.sigma2_hat)
        center = s @ fitted.beta_hat[: s.shape[1]]
        half = z * np.sqrt(var)
        upper = center + half
        lower = 2.0 * center - upper  # exactly symmetric about the center
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise SpecError("the prediction band is not finite")
    return PredictionBand(center=center, lower=lower, upper=upper)
