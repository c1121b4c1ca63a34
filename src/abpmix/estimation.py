"""REML / ML estimation of the mixed model.

The marginal covariance of subject i is Sigma_i = Z_i Sigma_d Z_i' +
sigma^2 I.  Fixed effects are profiled out by generalized least squares.
The covariance parameters are maximized by one projected, Levenberg-
Marquardt-damped ascent within bounds relative to the OLS residual
variance s0^2: Fisher scoring on the expected information while the
projected gradient is above 1e-2, Newton steps on the observed
information below it.  It steps on theta, the log-Cholesky entries of
Sigma_d and log sigma^2, or on a diagonal (v_1..v_m, sigma^2) itself,
damped by the information's diagonal; a v at its bound 0 is an exact
zero, whose projected gradient is s0^2 dl/dv (v dl/dv elsewhere).  The
fit reports theta (log-variances, a zero at its floor), the observed
information of theta inverted over the components not at zero, and
d cov_beta / d theta: the Satterthwaite and variance-component SEs.

Every derivative is taken on the natural scale phi = (Sigma_d flattened,
sigma^2) and reaches theta through the one Jacobian J = d phi / d theta
(``covariance_jacobian``): the gradient and F_j = X' V^-1 dV_j V^-1 X
are J' times theirs on phi, an information is J' I J, and the observed
one loses the curvature sum_phi (d loglik / d phi) d^2 phi / d theta^2,
which the diagonal ascent's J, a constant selection of phi, does not have.

Subjects are grouped per observation count by distinct (times,
covariate encoding) with ``design.group_patterns``, and each distinct
design is reduced once to small sufficient statistics, filled by array
reductions into stacks allocated up front.  A complete QR, Z = Q R, in
one stacked call per observation count, rotates the design so that
Sigma^-1 = Q M^-1 Q' + (I - QQ') / sigma^2 and log|Sigma| = log|M| +
(p - m) log sigma^2, with the m x m M = R Sigma_d R' + sigma^2 I.  The
statistics are cross-products of the rotated X and of the OLS residuals
y - X beta_0 (the likelihood does not change under this shift, and
residual cross-products keep roundoff small).  One evaluation is then a
single batched m x m Cholesky over the distinct designs plus array
algebra on (designs, m, m), (designs, m, q) and q x q arrays, its sums
over designs 2-D matrix products.  With M = L L' and u = L^-1 R, the
Sigma_d block of an information on phi is H = sum_g C_g (x) B_g, B_g =
u'u and C_g = u'T_g u.  Designs and their subjects are accumulated in a
canonical order, so results do not depend on subject ordering.  An
evaluation is a read-only value, J, L^-1 Q'X and M^-1 among its products:
the ascent passes the one it accepted to the information at that point,
and returns its last to the fit's end.

This module needs numpy alone: every factorization is numpy's and the
ascent is its own.  Like ``inference``, whose F tail is computed with
``math``, it imports no scipy, which would otherwise dominate the start-up
of a fresh ``abpmix fit``.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Optional

import numpy as np

from .design import (BasisContext, Cohort, ModelSpec, build_design, covariate_values,
                     fixed_design, group_patterns, n_cov_params)
from .errors import ConditioningError, RankError, SpecError

LOG_VARIANCE_FLOOR = -30.0
# the largest log s0^2 at which the ascent's bound sigma^2 <= e^30 s0^2 keeps
# sigma^6, the highest power of sigma^2 that the information takes, finite
_LOG_S2_MAX = float(np.log(np.finfo(float).max)) / 3.0 - 30.0
_LOG2PI = float(np.log(2.0 * np.pi))
_NEWTON_GATE = 1e-2  # projected gradient below which scoring hands over to Newton steps
_LL_ROUNDOFF = 1e-14  # relative log-likelihood change that roundoff can account for


# ---------------------------------------------------------------------------
# covariance parameterization


@dataclass(frozen=True)
class CovarianceParams:
    """Unconstrained covariance parameterization.

    diagonal: theta = (m log-variances, log sigma^2), a fitted zero at the floor
    unstructured: theta = (lower-triangular Cholesky of Sigma_d packed
    row-major with log-diagonal, log sigma^2)
    """

    structure: str
    m: int
    theta: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        if th.shape != (n_cov_params(self.structure, self.m),):
            raise SpecError("theta length does not match the covariance structure")
        object.__setattr__(self, "theta", th.copy())


@functools.cache
def index_plan(structure: str, m: int) -> tuple:
    """(rows, cols, diag, at, eye), read-only and built once: the row and
    column of Sigma_d (or its Cholesky factor) that each parameter but sigma^2
    sets, which of them are on the diagonal, their positions 0..P-1, eye(m)."""
    rows, cols = np.diag_indices(m) if structure == "diagonal" else np.tril_indices(m)
    plan = (rows, cols, rows == cols, np.arange(rows.size), np.eye(m))
    for a in plan:
        a.flags.writeable = False
    return plan


def sigma_d_from_theta(structure: str, m: int, theta: np.ndarray) -> np.ndarray:
    if structure == "diagonal":
        return np.diag(np.exp(theta[:m]))
    chol = _chol_from_theta(m, theta)
    return chol @ chol.T


def _chol_from_theta(m: int, theta: np.ndarray) -> np.ndarray:
    rows, cols, *_ = index_plan("unstructured", m)
    chol = np.zeros((m, m))
    chol[rows, cols] = theta[: rows.size]
    np.fill_diagonal(chol, np.exp(chol.diagonal()))
    return chol


def covariance_jacobian(structure: str, m: int, theta: np.ndarray) -> np.ndarray:
    """J' for J = d phi / d theta and the natural scale phi = (Sigma_d
    flattened row-major, sigma^2): row j of the (parameters, m^2 + 1)
    array is d phi / d theta_j."""
    rows, cols, diag, at, _ = index_plan(structure, m)
    jac = np.zeros((theta.size, m * m + 1))
    jac[-1, -1] = np.exp(theta[-1])
    if structure == "diagonal":
        jac[at, at * (m + 1)] = np.exp(theta[:m])
        return jac
    chol = _chol_from_theta(m, theta)
    # d L / d theta_a = scale_a e_i e_j', so d Sigma_d = d L L' + L d L'
    half = np.zeros((rows.size, m, m))
    half[at, rows] = (np.where(diag, chol[rows, cols], 1.0) * chol[:, cols]).T
    jac[:-1, :-1] = (half + half.transpose(0, 2, 1)).reshape(rows.size, m * m)
    return jac


def _curvature(structure: str, m: int, theta: np.ndarray, g: np.ndarray,
               grad: np.ndarray) -> np.ndarray:
    """sum(d loglik / d phi * d^2 phi / d theta_j d theta_k) for g = d loglik /
    d Sigma_d and the gradient ``grad`` in theta.  A log-scale parameter's
    second derivative repeats its first, which puts its gradient on the
    diagonal."""
    if structure == "diagonal":
        return np.diag(grad)
    rows, cols, diag, _, _ = index_plan(structure, m)
    chol = _chol_from_theta(m, theta)
    scale = np.where(diag, chol[rows, cols], 1.0)
    out = np.diag(np.where(np.append(diag, True), grad, 0.0))
    # d L / d theta_a = scale_a e_i e_j' adds d L_a d L_b' + d L_b d L_a' for a
    # shared column j, which at a boundary optimum lets a Newton step shrink
    # the Cholesky column of a vanishing variance
    same_column = cols[:, None] == cols[None, :]
    out[:-1, :-1] += 2.0 * np.outer(scale, scale) * g[rows[:, None], rows[None, :]] * same_column
    return out


# ---------------------------------------------------------------------------
# fitted model


@dataclass
class FittedModel:
    spec: ModelSpec
    method: str
    beta_hat: np.ndarray
    cov_beta: np.ndarray
    sigma_d_hat: np.ndarray
    sigma2_hat: float
    loglik: float
    converged: bool
    iterations: int
    gradient_norm: float
    params: CovarianceParams
    n_subjects: int
    n_obs: int
    column_labels: list
    context: BasisContext = field(repr=False)
    # log-likelihood after each accepted ascent step; never serialized
    ascent_history: list = field(default_factory=list, repr=False, compare=False)
    # the inputs of inference, computed at the end of the fit and never
    # serialized: the inverse observed information of theta and d cov_beta /
    # d theta_k; None on a fit read from fit.json
    vcov_theta: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    cov_beta_derivatives: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def q(self) -> int:
        return self.beta_hat.size

    @property
    def n_cov_params(self) -> int:
        return self.params.theta.size


# ---------------------------------------------------------------------------
# the estimation problem


# the method, whether the point is a diagonal's (v_1..v_m, sigma^2), loglik, sigma^2,
# the point, grad = J' dphi, dphi = d loglik / d phi, J', beta, cov_beta and, per design
# with M = L L', L^-1, the GLS residual cross-products, L^-1 Q'X and M^-1 = L^-T L^-1
_Evaluation = namedtuple("_Evaluation", "method natural loglik sigma2 theta grad dphi jac beta "
                                        "cov_beta li resid wx minv")


class MixedModelProblem:
    """Per-design sufficient statistics, likelihood and gradient."""

    @np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
    def __init__(self, spec: ModelSpec, cohort: Cohort, context: Optional[BasisContext] = None):
        self.spec = spec
        self.context = context if context is not None else BasisContext(spec, cohort)
        # subjects in id order; per observation count, one design per distinct
        # (times, covariate encoding), with X and Z rows of those on the union
        subjects = sorted(cohort, key=attrgetter("id"))
        group, interaction = covariate_values(spec, subjects, self.context)
        union, patterns = group_patterns(subjects, np.hstack([group, interaction]))
        # through build_design, which bench/spans.py times within problem_init
        pair = build_design(spec, replace(subjects[0], times=union, y=np.zeros(len(union))),
                            self.context)
        y = np.concatenate([s.y for s in subjects])
        designs = []  # per count: X, Z, y sorted by design, the designs, their sizes and starts
        for members, obs, design, rows in patterns:
            by = np.argsort(design, kind="stable")
            count = np.bincount(design)
            starts = np.cumsum(count) - count
            lead = members[by[starts]]  # each design's first member
            x = fixed_design(pair.X[rows, : spec.fixed.n_columns], group[lead], interaction[lead])
            designs.append((x, pair.Z[rows], y[obs[by]], design[by], count, starts))
        self.N, self.n = len(subjects), y.size
        self.q, self.m = q, m = pair.X.shape[1], pair.Z.shape[1]
        self.structure = spec.random_cov
        self.n_params = n_cov_params(self.structure, m)
        _, _, self._diag, _, self._eye = index_plan(self.structure, m)
        self._select = np.eye(m * m + 1)[np.append(np.arange(m) * (m + 1), m * m)]

        # sums over designs and rows as products of (designs x rows, columns) matrices
        xtx = sum((c[:, None, None] * x).reshape(-1, q).T @ x.reshape(-1, q)
                  for x, _, _, _, c, _ in designs)
        if not np.isfinite(xtx).all():
            raise ConditioningError("the fixed-effect cross-products X'X overflow")
        ev = np.linalg.eigvalsh(xtx)
        if ev[0] <= 1e-10 * max(ev[-1], 1.0):
            raise RankError("pooled fixed-effect design is rank deficient")
        # the statistics are built from OLS residuals; the likelihood is
        # invariant to this shift and its cross-products stay small
        xty = sum(x.reshape(-1, q).T @ np.add.reduceat(y, starts).ravel()
                  for x, _, y, _, _, starts in designs)
        self._beta0 = np.linalg.solve(xtx, xty)

        # Z = Q R by a complete QR.  Rotated by Q', the first m rows of a
        # design carry the random effects and the other p - m rows only the
        # residual variance, so Sigma^-1 = Q M^-1 Q' + (I - QQ')/sigma^2 with
        # M = R Sigma_d R' + sigma^2 I.  The statistics are stacked over the G
        # distinct designs, with zeros past row k = min(p, m)
        n_designs = sum(len(d[4]) for d in designs)
        self._count = np.zeros(n_designs)       # (G,) subjects
        self._r = np.zeros((n_designs, m, m))   # (G, m, m) R
        self._x = np.zeros((n_designs, m, q))   # (G, m, q) Q'X
        self._ee = np.zeros((n_designs, m, m))  # (G, m, m) sum of Q'e e'Q
        self._e = np.zeros((n_designs, m))      # (G, m) sum of Q'e
        self._xx_out = np.zeros((q, q))
        self._xe_out = np.zeros(q)
        self._ee_out = 0.0
        self._p_minus_m = self.n - m * self.N  # sum of (p - m) over subjects
        g = 0
        for x, z, y, design, count, starts in designs:
            qf, r = np.linalg.qr(z, mode="complete")  # one stacked QR per count
            k = min(z.shape[1:])
            at = slice(g, g + len(count))
            g = at.stop
            xt = qf.transpose(0, 2, 1) @ x
            # each member's residuals rotated by its design's Q, which one
            # design alone broadcasts rather than copies per member
            et = np.matmul((y - (x @ self._beta0)[design])[:, None, :],
                           qf if len(qf) == 1 else qf[design])[:, 0]
            e_sum = np.add.reduceat(et, starts)
            self._count[at] = count
            self._r[at, :k] = r[:, :k]
            self._x[at, :k] = xt[:, :k]
            self._ee[at, :k, :k] = np.add.reduceat(
                np.einsum("ki,kj->kij", et[:, :k], et[:, :k]), starts)
            self._e[at, :k] = e_sum[:, :k]
            self._xx_out += ((count[:, None, None] * xt[:, k:]).reshape(-1, q).T
                             @ xt[:, k:].reshape(-1, q))
            self._xe_out += xt[:, k:].reshape(-1, q).T @ e_sum[:, k:].ravel()
            self._ee_out += float(np.sum(et[:, k:] ** 2))
        # log s0^2, the OLS residual variance: the ascent starts from it and
        # its bounds are measured from it, so that both scale with the outcome
        rss = float(np.trace(self._ee, axis1=1, axis2=2).sum()) + self._ee_out
        self._log_s2 = float(np.log((rss or 1.0) / max(self.n - q, 1)))
        if not self._log_s2 <= _LOG_S2_MAX:  # NaN included
            raise ConditioningError(
                f"the OLS residual variance {np.exp(self._log_s2):.3g} exceeds "
                f"{np.exp(_LOG_S2_MAX):.3g}, beyond which the fitted variances could overflow")

    # -- likelihood ---------------------------------------------------------

    def _evaluate(self, theta: np.ndarray, method: str, natural: bool = False) -> _Evaluation:
        """The read-only evaluation at theta, or with ``natural`` at a diagonal
        (v_1..v_m, sigma^2)."""
        theta = np.array(theta, dtype=float)
        m, q, eye = self.m, self.q, self._eye
        count = self._count
        sigma_d = np.diag(theta[:m]) if natural else sigma_d_from_theta(self.structure, m, theta)
        sigma2 = float(theta[-1] if natural else np.exp(theta[-1]))
        r = self._r
        mm = r @ sigma_d @ r.transpose(0, 2, 1) + sigma2 * eye
        try:
            chol = np.linalg.cholesky(mm)
        except np.linalg.LinAlgError:
            # jitter once, then give up
            mm = mm + (1e-10 * np.trace(mm, axis1=1, axis2=2) / m)[:, None, None] * eye
            try:
                chol = np.linalg.cholesky(mm)
            except np.linalg.LinAlgError:
                raise ConditioningError("marginal covariance not factorizable") from None
        li = np.linalg.inv(chol)
        wx = li @ self._x
        we = (li @ self._e[:, :, None])[:, :, 0]
        xtsx = ((count[:, None, None] * wx).reshape(-1, q).T @ wx.reshape(-1, q)
                + self._xx_out / sigma2)
        xtse = wx.reshape(-1, q).T @ we.reshape(-1) + self._xe_out / sigma2
        try:
            lx = np.linalg.cholesky(xtsx)
        except np.linalg.LinAlgError as exc:
            raise RankError("singular GLS normal matrix") from exc
        lxi = np.linalg.inv(lx)
        cov_beta = lxi.T @ lxi
        delta = cov_beta @ xtse
        quad = (float(np.sum((li @ self._ee) * li)) + self._ee_out / sigma2
                - float(delta @ xtse))
        logdet = (2.0 * float(count @ np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1))
                  + self._p_minus_m * float(np.log(sigma2) if natural else theta[-1]))
        reml = method == "REML"
        if reml:
            logdet_x = 2.0 * float(np.sum(np.log(np.diag(lx))))
            ll = -0.5 * (logdet + logdet_x + quad + (self.n - q) * _LOG2PI)
        else:
            ll = -0.5 * (logdet + quad + self.n * _LOG2PI)
        # d ll / d Sigma_d = -1/2 sum_g R'(n K - K S K - n K A cov_beta A' K)R
        # with K = M^-1 and S the summed rotated GLS residual cross-products
        minv = li.transpose(0, 2, 1) @ li
        xd = self._x @ delta
        ed = self._e[:, :, None] * xd[:, None, :]
        s = (self._ee - ed - ed.transpose(0, 2, 1)
             + count[:, None, None] * xd[:, :, None] * xd[:, None, :])
        inner = count[:, None, None] * minv - minv @ s @ minv
        if reml:
            kx = li.transpose(0, 2, 1) @ wx
            inner -= count[:, None, None] * (kx @ cov_beta @ kx.transpose(0, 2, 1))
        g = -0.5 * (r.transpose(0, 2, 1) @ inner @ r).sum(axis=0)
        # ll(c Sigma) has derivative -(n - q_reml - quad)/2 in c at c = 1;
        # what Sigma_d does not account for belongs to sigma^2
        dphi = np.append(g, (-0.5 * (self.n - (q if reml else 0) - quad)
                             - float(np.sum(g * sigma_d))) / sigma2)
        jac = self._select if natural else covariance_jacobian(self.structure, m, theta)
        out = _Evaluation(method, natural, ll, sigma2, theta, jac @ dphi, dphi, jac,
                          self._beta0 + delta, cov_beta, li, s, wx, minv)
        for a in out[4:]:
            a.flags.writeable = False
        return out

    # kept for bench/run.py and bench/spans.py, which call and time it by name
    def loglikelihood(self, theta: np.ndarray, method: str = "REML") -> float:
        return self._evaluate(theta, method).loglik

    # kept for bench/spans.py, which times it by name
    def gls(self, theta: np.ndarray):
        """(beta_hat, cov_beta) at theta, the same for either method."""
        ev = self._evaluate(theta, "REML")
        return ev.beta.copy(), 0.5 * (ev.cov_beta + ev.cov_beta.T)

    def loglik_and_grad(self, theta: np.ndarray, method: str = "REML", natural=False):
        """The evaluation at theta, for its ``loglik`` and ``grad`` and the informations."""
        return self._evaluate(theta, method, natural)

    def cov_beta_derivatives(self, ev: _Evaluation):
        """d cov_beta / d theta_k = cov_beta F_k cov_beta at ev (delta-method ingredient)."""
        return ev.cov_beta @ self._f(ev) @ ev.cov_beta

    def _f(self, ev: _Evaluation):
        """F_k = X' V^-1 dV_k V^-1 X for every k of theta, chained from phi."""
        kx = ev.minv @ self._x  # M^-1 Q'X per design
        f = self._sandwich(self._count[:, None, None] * kx, kx, self._xx_out / ev.sigma2**2)
        return (ev.jac @ f.reshape(len(f), -1)).reshape(-1, self.q, self.q)

    def _sandwich(self, left, right, outside):
        """sum_g left_g' dM_j right_g for every j of phi, dM_j = R dSigma_d_j R'
        or I, plus ``outside`` on the sigma^2 row.  With M^-1 Q'X as ``left``
        it is X' V^-1 dV_j V^-1 (X or the GLS residuals)."""
        m, n_designs, ql, width = self.m, len(left), left.shape[2], right.shape[2]
        a = left.transpose(0, 2, 1) @ self._r
        c = self._r.transpose(0, 2, 1) @ right
        out = np.empty((m * m + 1, ql, width))
        out[:-1] = ((a.reshape(n_designs, -1).T @ c.reshape(n_designs, -1))
                    .reshape(ql, m, m, width).transpose(1, 2, 0, 3).reshape(m * m, ql, width))
        out[-1] = left.reshape(-1, ql).T @ right.reshape(-1, width) + outside
        return out

    def expected_information(self, ev: _Evaluation):
        """Expected information 1/2 tr(P dV_j P dV_k) of theta at ev, P the
        REML projection V^-1 - V^-1 X cov_beta X' V^-1, or V^-1 for ML."""
        return self._information(ev, False)

    def observed_information(self, ev: _Evaluation):
        """Observed information at ev: minus the Hessian of the log-likelihood in theta."""
        return self._information(ev, True)

    def _information(self, ev: _Evaluation, observed: bool):
        """J' I J plus, for REML, +-1/2 tr(cov_beta F_j cov_beta F_k), for I
        the expected or observed information on phi; the observed one less
        the curvature.

        On phi, I_e = sum_g tr(T_g S_j S_k) + rest with S_j = L^-1 dM_j L^-T
        and T_g = K_g: n_g I / 2 for ML, n_g (I - 2 H_g) / 2 for REML, H_g =
        L^-1 Q'X cov_beta X'Q L^-T, and ``rest`` from the rotated rows
        outside M.  The observed one is 2 AI - I_e, AI the average
        information 1/2 (dV_j r)' P (dV_k r) with r = P y: the same sum for
        T_g = W_g - K_g, W = L^-1 (GLS residual cross-products) L^-T, less
        rest, plus the outside rows' residual sum of squares, minus
        b cov_beta b' with b_j = X' V^-1 dV_j r.
        """
        sigma2, theta, grad, dphi, jac, beta, cov_beta, li, resid, wx, minv = ev[3:]
        m, t = self.m, self._eye
        rest = 0.5 * self._p_minus_m / sigma2**2
        if ev.method == "REML":
            t = t - 2.0 * wx @ cov_beta @ wx.transpose(0, 2, 1)
            rest -= float(np.sum(cov_beta * self._xx_out)) / sigma2**3
        t = 0.5 * self._count[:, None, None] * t
        if observed:
            t = li @ resid @ li.transpose(0, 2, 1) - t
        # sum_g tr(T_g S_j S_k), with S = L^-1 L^-T for sigma^2
        u = li @ self._r
        ut = u.transpose(0, 2, 1)
        p = li @ li.transpose(0, 2, 1)
        tp = t @ p
        info = np.empty((m * m + 1, m * m + 1))
        c, b = (ut @ t @ u).reshape(len(u), -1), (ut @ u).reshape(len(u), -1)  # C_g, B_g
        info[:-1, :-1] = (c.T @ b).reshape(m, m, m, m).transpose(1, 2, 3, 0).reshape(m * m, m * m)
        info[-1, :-1] = info[:-1, -1] = (ut @ tp @ u).sum(axis=0).reshape(-1)
        info[-1, -1] = float(np.sum(tp * p)) + (-rest if observed else rest)
        if observed:
            delta = beta - self._beta0
            info[-1, -1] += (self._ee_out - 2.0 * float(delta @ self._xe_out)
                             + float(delta @ self._xx_out @ delta)) / sigma2**3
            # M^-1 times the rotated GLS residual sums per design
            kr = minv @ (self._e - self._count[:, None] * (self._x @ delta))[:, :, None]
            b = self._sandwich(li.transpose(0, 2, 1) @ wx, kr,
                               (self._xe_out - self._xx_out @ delta)[:, None] / sigma2**2)
            info -= b[..., 0] @ cov_beta @ b[..., 0].T
        info = jac @ info @ jac.T
        if ev.method == "REML":
            cf = cov_beta @ self._f(ev)
            cfcf = 0.5 * (cf.reshape(len(cf), -1) @ cf.transpose(2, 1, 0).reshape(-1, len(cf)))
            info += -cfcf if observed else cfcf
        if observed and not ev.natural:
            info -= _curvature(self.structure, m, theta, dphi[:-1].reshape(m, m), grad)
        return 0.5 * (info + info.T)

    # -- initialization and fitting -----------------------------------------

    def _initial_theta(self) -> np.ndarray:
        """Half of s0^2 to sigma^2, the other half spread over Sigma_d's diagonal."""
        per_component = self._log_s2 + np.log(0.5 / self.m)
        theta = np.full(self.n_params - 1, per_component)
        if self.structure == "unstructured":
            theta = np.where(self._diag, 0.5 * per_component, 0.0)
        return np.append(theta, self._log_s2 + np.log(0.5))

    def _bounds(self):
        """(lo, hi) arrays of theta: variances within [e^-30, e^30] s0^2;
        off-diagonal Cholesky entries are unbounded."""
        lo = np.full(self.n_params, LOG_VARIANCE_FLOOR + self._log_s2)
        hi = np.full(self.n_params, 30.0 + self._log_s2)
        if self.structure == "unstructured":
            lo[:-1] = np.where(self._diag, lo[:-1] / 2.0, -np.inf)
            hi[:-1] = np.where(self._diag, hi[:-1] / 2.0, np.inf)
        return lo, hi

    def fit(self, method: str = "REML", max_iter: int = 500, tol: float = 1e-6) -> FittedModel:
        ev, zero, converged, iterations, grad_norm, history = self._optimize(method, max_iter, tol)
        x = theta = ev.theta
        info = self.observed_information(ev)
        derivatives = self.cov_beta_derivatives(ev)
        if ev.natural:  # to theta = log x, whose second derivative x adds the gradient
            info = np.outer(x, x) * info - np.diag(x * ev.grad)
            derivatives = x[:, None, None] * derivatives
            with np.errstate(divide="ignore"):  # an exact zero's log-variance is the floor
                theta = np.maximum(np.log(x), self._bounds()[0])
            sigma_d, sigma2 = np.diag(x[:-1]), float(x[-1])
        else:
            zero[:-1] = False  # a Cholesky diagonal at its floor leaves a variance
            sigma_d, sigma2 = sigma_d_from_theta(self.structure, self.m, x), float(np.exp(x[-1]))
        # variances at their floor are reported as exact zeros and held fixed:
        # vcov_theta inverts the observed information over the other parameters,
        # floored where the Hessian is indefinite at the boundary
        free = np.ix_(~zero, ~zero)
        eigenvalues, vec = np.linalg.eigh(info[free])
        eigenvalues = np.maximum(eigenvalues, 1e-12 * max(eigenvalues.max(initial=0.0), 1.0))
        vcov_theta = np.zeros((theta.size, theta.size))
        vcov_theta[free] = (vec / eigenvalues) @ vec.T
        return FittedModel(
            spec=self.spec, method=method, beta_hat=ev.beta.copy(),
            cov_beta=0.5 * (ev.cov_beta + ev.cov_beta.T), sigma_d_hat=sigma_d,
            sigma2_hat=0.0 if zero[-1] else sigma2, loglik=ev.loglik, converged=converged,
            iterations=iterations, gradient_norm=grad_norm,
            params=CovarianceParams(structure=self.structure, m=self.m, theta=theta),
            n_subjects=self.N, n_obs=self.n, column_labels=self.context.fixed_column_labels(),
            context=self.context, ascent_history=history, vcov_theta=vcov_theta,
            cov_beta_derivatives=derivatives)

    def _optimize(self, method: str, max_iter: int, tol: float):
        """(the last accepted evaluation, components at their lower bound,
        converged, iterations, gradient norm, ascent history)."""
        lo, hi = self._bounds()
        x = np.clip(self._initial_theta(), lo, hi)
        natural = self.structure == "diagonal"
        if natural:
            x, lo, hi = np.exp(x), np.append(np.zeros(self.m), np.exp(lo[-1])), np.exp(hi)
        s0sq = np.exp(self._log_s2) if natural else None
        ev = self.loglik_and_grad(x, method, natural)
        damping = 1e-3  # lambda relative to the largest |eigenvalue|
        history = []
        while True:
            grad_norm, blocked = _projected(ev.theta, ev.grad, lo, hi, s0sq)
            if grad_norm <= tol or len(history) >= max_iter:
                break
            free = ~blocked
            # scoring far from the optimum, Newton steps near it
            information = (self.expected_information if grad_norm > _NEWTON_GATE
                           else self.observed_information)
            info = information(ev)[np.ix_(free, free)]
            # variances span orders of magnitude: damp each by its own information (Marquardt)
            diag = np.abs(np.diag(info))
            d = np.where(diag > 0.0, diag, 1.0) ** -0.5 if natural else 1.0
            eig, vec = np.linalg.eigh(np.outer(d, d) * info)
            top = float(np.abs(eig).max()) or 1.0
            eig = np.maximum(eig, 0.0)
            rotated = vec.T @ (d * ev.grad[free])
            for _ in range(40):
                x = ev.theta.copy()
                x[free] += d * (vec @ (rotated / (eig + damping * top)))
                trial = self.loglik_and_grad(np.clip(x, lo, hi), method, natural)
                # where roundoff hides the gain, a smaller gradient decides
                if trial.loglik >= ev.loglik or (
                        trial.loglik >= ev.loglik - _LL_ROUNDOFF * abs(ev.loglik)
                        and _projected(trial.theta, trial.grad, lo, hi, s0sq)[0] < grad_norm):
                    break
                damping *= 4.0
            else:
                break  # no damping of the step improves
            damping = max(damping / 3.0, 1e-10)
            ev = trial
            history.append(ev.loglik)
        return ev, ev.theta <= lo, grad_norm <= tol, len(history), grad_norm, history


def _projected(x, grad, lo, hi, s0sq=None):
    """(max |gradient| over the free components, the components at a bound it pushes
    outward); with s0sq = s0^2, x are variances and it is v dl/dv, s0^2 dl/dv at 0."""
    blocked = ((x <= lo) & (grad < 0)) | ((x >= hi) & (grad > 0))
    if s0sq is not None:
        grad = np.where(x > 0.0, x, s0sq) * grad
    return float(np.max(np.abs(np.where(blocked, 0.0, grad)))), blocked


# ---------------------------------------------------------------------------
# public operations


def fit(spec: ModelSpec, cohort: Cohort, method: str = "REML", max_iter: int = 500,
        tol: float = 1e-6) -> FittedModel:
    """Maximize the REML (or ML) log-likelihood and return a FittedModel.

    Hitting the iteration cap is reported through ``converged=False`` on
    the result, not as an exception.
    """
    return MixedModelProblem(spec, cohort).fit(method=method, max_iter=max_iter, tol=tol)
