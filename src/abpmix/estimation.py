"""REML / ML estimation of the mixed model.

The marginal covariance of subject i is Sigma_i = Z_i Sigma_d Z_i' +
sigma^2 I.  Fixed effects are profiled out by generalized least squares.
The covariance parameters theta (log-variances, or log-Cholesky entries
of Sigma_d, then log sigma^2) are maximized by one projected, Levenberg-
Marquardt-damped ascent, within bounds relative to the OLS residual
variance: Fisher scoring on the expected information while the projected
gradient is above 1e-2, Newton steps on the observed information below
it.  The observed information also gives the Satterthwaite degrees of
freedom and the variance-component SEs.

Every derivative is taken on the natural scale phi = (Sigma_d flattened,
sigma^2) and reaches theta through the one Jacobian J = d phi / d theta
(``covariance_jacobian``): the gradient and F_j = X' V^-1 dV_j V^-1 X
are J' times theirs on phi, an information is J' I J, and the observed
one loses the curvature sum_phi (d loglik / d phi) d^2 phi / d theta^2.

Subjects sharing identical (X, Z) designs are grouped, and each distinct
design is reduced once to small sufficient statistics.  A complete QR,
Z = Q R, rotates the design so that Sigma^-1 = Q M^-1 Q' + (I - QQ') /
sigma^2 and log|Sigma| = log|M| + (p - m) log sigma^2, with the m x m
M = R Sigma_d R' + sigma^2 I.  The statistics are cross-products of the
rotated X and of the OLS residuals y - X beta_0 (the likelihood does not
change under this shift, and residual cross-products keep roundoff
small).  One evaluation is then a single batched m x m Cholesky over the
distinct designs plus array algebra on (designs, m, m), (designs, m, q)
and q x q arrays.  With M = L L' and u = L^-1 R, the Sigma_d block of an
information on phi is one tensordot over the designs, H = sum_g C_g (x)
B_g with B_g = u'u and C_g = u'T_g u.  Designs and the subjects within
them are accumulated in a canonical order, so results do not depend on
subject ordering.

This module needs numpy alone: every factorization is numpy's and the
ascent is its own, so fitting never loads ``scipy.optimize``, which would
otherwise dominate interpreter start-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .design import BasisContext, Cohort, ModelSpec, build_design, design_key
from .errors import ConditioningError, RankError, SpecError

LOG_VARIANCE_FLOOR = -30.0
_LOG2PI = float(np.log(2.0 * np.pi))
_NEWTON_GATE = 1e-2  # projected gradient below which scoring hands over to Newton steps
_LL_ROUNDOFF = 1e-14  # relative log-likelihood change that roundoff can account for


# ---------------------------------------------------------------------------
# covariance parameterization


@dataclass(frozen=True)
class CovarianceParams:
    """Unconstrained covariance parameterization.

    diagonal: theta = (m log-variances, log sigma^2)
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

    def sigma2(self) -> float:
        return float(np.exp(self.theta[-1]))

    def sigma_d(self) -> np.ndarray:
        return sigma_d_from_theta(self.structure, self.m, self.theta)

    @classmethod
    def from_moments(cls, structure: str, sigma_d: np.ndarray, sigma2: float) -> "CovarianceParams":
        sigma_d = np.atleast_2d(np.asarray(sigma_d, dtype=float))
        m = sigma_d.shape[0]
        sigma2 = max(float(sigma2), np.exp(LOG_VARIANCE_FLOOR))
        if structure == "diagonal":
            d = np.diag(sigma_d).copy()
            d[d <= 0] = np.exp(LOG_VARIANCE_FLOOR)
            theta = np.append(np.log(d), np.log(sigma2))
        else:
            jitter = np.exp(LOG_VARIANCE_FLOOR)
            chol = np.linalg.cholesky(sigma_d + jitter * np.eye(m))
            rows, cols = np.tril_indices(m)
            packed = chol[rows, cols]
            packed[rows == cols] = np.log(packed[rows == cols])
            theta = np.append(packed, np.log(sigma2))
        return cls(structure=structure, m=m, theta=theta)


def n_cov_params(structure: str, m: int) -> int:
    return (m if structure == "diagonal" else m * (m + 1) // 2) + 1


def sigma_d_from_theta(structure: str, m: int, theta: np.ndarray) -> np.ndarray:
    if structure == "diagonal":
        return np.diag(np.exp(theta[:m]))
    chol = _chol_from_theta(m, theta)
    return chol @ chol.T


def _chol_from_theta(m: int, theta: np.ndarray) -> np.ndarray:
    chol = np.zeros((m, m))
    rows, cols = np.tril_indices(m)
    chol[rows, cols] = theta[: rows.size]
    di = np.diag_indices(m)
    chol[di] = np.exp(chol[di])
    return chol


def covariance_jacobian(structure: str, m: int, theta: np.ndarray) -> np.ndarray:
    """J' for J = d phi / d theta and the natural scale phi = (Sigma_d
    flattened row-major, sigma^2): row j of the (parameters, m^2 + 1)
    array is d phi / d theta_j."""
    jac = np.zeros((theta.size, m * m + 1))
    jac[-1, -1] = np.exp(theta[-1])
    if structure == "diagonal":
        jac[np.arange(m), np.arange(m) * (m + 1)] = np.exp(theta[:m])
        return jac
    chol = _chol_from_theta(m, theta)
    rows, cols = np.tril_indices(m)
    # d L / d theta_a = scale_a e_i e_j', so d Sigma_d = d L L' + L d L'
    half = np.zeros((rows.size, m, m))
    half[np.arange(rows.size), rows] = (np.where(rows == cols, chol[rows, cols], 1.0)
                                        * chol[:, cols]).T
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
    chol = _chol_from_theta(m, theta)
    rows, cols = np.tril_indices(m)
    scale = np.where(rows == cols, chol[rows, cols], 1.0)
    out = np.diag(np.where(np.append(rows == cols, True), grad, 0.0))
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
    problem: Optional["MixedModelProblem"] = field(default=None, repr=False)
    # log-likelihood after each accepted ascent step; never serialized
    ascent_history: list = field(default_factory=list, repr=False, compare=False)
    # inference quantities of this fit, filled on first use by ``inference``;
    # never serialized, and a ``dataclasses.replace`` copy begins empty
    inference_cache: dict = field(default_factory=dict, init=False, repr=False,
                                  compare=False)

    @property
    def q(self) -> int:
        return self.beta_hat.size

    @property
    def n_cov_params(self) -> int:
        return self.params.theta.size

    def attach_data(self, cohort: Cohort) -> "MixedModelProblem":
        """Rebuild the estimation problem for a deserialized fit."""
        if self.problem is None:
            self.problem = MixedModelProblem(self.spec, cohort, context=self.context)
        return self.problem


# ---------------------------------------------------------------------------
# the estimation problem


class MixedModelProblem:
    """Per-design sufficient statistics, likelihood and gradient."""

    def __init__(self, spec: ModelSpec, cohort: Cohort, context: Optional[BasisContext] = None):
        self.spec = spec
        self.cohort = cohort
        self.context = context if context is not None else BasisContext(spec, cohort)
        # one build per distinct (times, covariate encoding); designs are
        # then grouped by their bytes, which also merges equal designs
        # reached from different keys
        built, designs = {}, {}
        for subject in cohort:
            k = design_key(spec, subject, self.context)
            if k not in built:
                pair = build_design(spec, subject, self.context)
                built[k] = (pair.X, pair.Z, (pair.X.shape, pair.X.tobytes(), pair.Z.tobytes()))
            x, z, key = built[k]
            designs.setdefault(key, (x, z, []))[2].append(subject)
        groups = []
        for key in sorted(designs):
            x, z, subjects = designs[key]
            subjects.sort(key=lambda s: s.id)
            groups.append((x, z, np.array([s.y for s in subjects])))
        self.N = len(cohort)
        self.n = sum(y.size for _, _, y in groups)
        self.q = q = groups[0][0].shape[1]
        self.m = m = groups[0][1].shape[1]
        self.structure = spec.random_cov
        self.n_params = n_cov_params(self.structure, m)

        xtx = sum(len(y) * (x.T @ x) for x, _, y in groups)
        ev = np.linalg.eigvalsh(xtx)
        if ev[0] <= 1e-10 * max(ev[-1], 1.0):
            raise RankError("pooled fixed-effect design is rank deficient")
        # the statistics are built from OLS residuals; the likelihood is
        # invariant to this shift and its cross-products stay small
        self._beta0 = np.linalg.solve(xtx, sum(x.T @ y.sum(axis=0) for x, _, y in groups))

        # Z = Q R by a complete QR.  Rotated by Q', the first m rows of a
        # design (zero-padded when p < m) carry the random effects and the
        # other p - m rows only the residual variance, so Sigma^-1 =
        # Q M^-1 Q' + (I - QQ')/sigma^2 with M = R Sigma_d R' + sigma^2 I
        count, r_in, x_in, ee_in, e_in = [], [], [], [], []
        self._xx_out = np.zeros((q, q))
        self._xe_out = np.zeros(q)
        self._ee_out = 0.0
        self._p_minus_m = 0
        for x, z, y in groups:
            qf, r = np.linalg.qr(z, mode="complete")
            k = min(z.shape)
            xt = qf.T @ x
            et = (y - x @ self._beta0) @ qf
            u = np.pad(et[:, :k], ((0, 0), (0, m - k)))
            count.append(len(y))
            r_in.append(np.pad(r[:k], ((0, m - k), (0, 0))))
            x_in.append(np.pad(xt[:k], ((0, m - k), (0, 0))))
            ee_in.append(u.T @ u)
            e_in.append(u.sum(axis=0))
            self._xx_out += len(y) * (xt[k:].T @ xt[k:])
            self._xe_out += xt[k:].T @ et[:, k:].sum(axis=0)
            self._ee_out += float(np.sum(et[:, k:] ** 2))
            self._p_minus_m += len(y) * (x.shape[0] - m)
        # stacked over the G distinct designs
        self._count = np.asarray(count, dtype=float)  # (G,) subjects
        self._r = np.asarray(r_in)                     # (G, m, m) R
        self._x = np.asarray(x_in)                     # (G, m, q) Q'X
        self._ee = np.asarray(ee_in)                   # (G, m, m) sum of Q'e e'Q
        self._e = np.asarray(e_in)                     # (G, m) sum of Q'e
        # log s0^2, the OLS residual variance: the ascent starts from it and
        # its bounds are measured from it, so that both scale with the outcome
        rss = float(np.trace(self._ee, axis1=1, axis2=2).sum()) + self._ee_out
        self._log_s2 = float(np.log((rss or 1.0) / max(self.n - q, 1)))

    # -- likelihood ---------------------------------------------------------

    def _evaluate(self, theta: np.ndarray, method: str, want_grad: bool):
        """(loglik, d loglik / d phi, beta, cov_beta, L^-1 and GLS residual
        cross-products per design); M = L L', and the derivative and
        cross-products are None unless ``want_grad``."""
        m, q = self.m, self.q
        count = self._count
        sigma_d = sigma_d_from_theta(self.structure, m, theta)
        sigma2 = float(np.exp(theta[-1]))
        r = self._r
        mm = r @ sigma_d @ r.transpose(0, 2, 1) + sigma2 * np.eye(m)
        try:
            chol = np.linalg.cholesky(mm)
        except np.linalg.LinAlgError:
            # jitter once, then give up
            mm = mm + (1e-10 * np.trace(mm, axis1=1, axis2=2) / m)[:, None, None] * np.eye(m)
            try:
                chol = np.linalg.cholesky(mm)
            except np.linalg.LinAlgError:
                raise ConditioningError("marginal covariance not factorizable") from None
        li = np.linalg.inv(chol)
        wx = li @ self._x
        we = (li @ self._e[:, :, None])[:, :, 0]
        xtsx = (np.tensordot(count[:, None, None] * wx, wx, axes=([0, 1], [0, 1]))
                + self._xx_out / sigma2)
        xtse = np.tensordot(wx, we, axes=([0, 1], [0, 1])) + self._xe_out / sigma2
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
                  + self._p_minus_m * float(theta[-1]))
        reml = method == "REML"
        if reml:
            logdet_x = 2.0 * float(np.sum(np.log(np.diag(lx))))
            ll = -0.5 * (logdet + logdet_x + quad + (self.n - q) * _LOG2PI)
        else:
            ll = -0.5 * (logdet + quad + self.n * _LOG2PI)
        dphi = s = None
        if want_grad:
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
        return ll, dphi, self._beta0 + delta, cov_beta, li, s

    def loglikelihood(self, theta: np.ndarray, method: str = "REML") -> float:
        return self._evaluate(theta, method, want_grad=False)[0]

    def gls(self, theta: np.ndarray):
        """(beta_hat, cov_beta) at the given covariance parameters."""
        _, _, beta, cov_beta, _, _ = self._evaluate(theta, "REML", want_grad=False)
        return beta, 0.5 * (cov_beta + cov_beta.T)

    def loglik_and_grad(self, theta: np.ndarray, method: str = "REML"):
        ll, dphi, _, _, _, _ = self._evaluate(theta, method, want_grad=True)
        return ll, covariance_jacobian(self.structure, self.m, theta) @ dphi

    def cov_beta_derivatives(self, theta: np.ndarray, method: str = "REML"):
        """d cov_beta / d theta_k = cov_beta F_k cov_beta at theta (delta-method ingredient)."""
        _, _, _, cov_beta, li, _ = self._evaluate(theta, method, want_grad=False)
        return cov_beta @ self._f(theta, li) @ cov_beta

    def _f(self, theta, li):
        """F_k = X' V^-1 dV_k V^-1 X for every k of theta, chained from phi."""
        kx = li.transpose(0, 2, 1) @ li @ self._x  # M^-1 Q'X per design
        f = self._sandwich(self._count[:, None, None] * kx, kx,
                           self._xx_out / float(np.exp(theta[-1]))**2)
        return np.tensordot(covariance_jacobian(self.structure, self.m, theta), f, axes=1)

    def _sandwich(self, left, right, outside):
        """sum_g left_g' dM_j right_g for every j of phi, dM_j = R dSigma_d_j R'
        or I, plus ``outside`` on the sigma^2 row.  With M^-1 Q'X as ``left``
        it is X' V^-1 dV_j V^-1 (X or the GLS residuals)."""
        m = self.m
        a = left.transpose(0, 2, 1) @ self._r
        c = self._r.transpose(0, 2, 1) @ right
        out = np.empty((m * m + 1, a.shape[1], c.shape[2]))
        out[:-1] = (np.tensordot(a, c, axes=([0], [0]))
                    .transpose(1, 2, 0, 3).reshape(m * m, a.shape[1], c.shape[2]))
        out[-1] = np.tensordot(left, right, axes=([0, 1], [0, 1])) + outside
        return out

    def expected_information(self, theta: np.ndarray, method: str = "REML") -> np.ndarray:
        """Expected information 1/2 tr(P dV_j P dV_k) of theta, P the REML
        projection V^-1 - V^-1 X cov_beta X' V^-1, or V^-1 for ML."""
        return self._information(theta, method, observed=False)

    def observed_information(self, theta: np.ndarray, method: str = "REML") -> np.ndarray:
        """Observed information: minus the Hessian of the log-likelihood in theta."""
        return self._information(theta, method, observed=True)

    def _information(self, theta, method, observed):
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
        _, dphi, beta, cov_beta, li, resid = self._evaluate(theta, method, want_grad=observed)
        m = self.m
        sigma2 = float(np.exp(theta[-1]))
        wx = li @ self._x
        t = np.eye(m)
        rest = 0.5 * self._p_minus_m / sigma2**2
        if method == "REML":
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
        info[:-1, :-1] = (np.tensordot(ut @ t @ u, ut @ u, axes=([0], [0]))
                          .transpose(1, 2, 3, 0).reshape(m * m, m * m))
        info[-1, :-1] = info[:-1, -1] = (ut @ tp @ u).sum(axis=0).reshape(-1)
        info[-1, -1] = float(np.sum(tp * p)) + (-rest if observed else rest)
        if observed:
            delta = beta - self._beta0
            info[-1, -1] += (self._ee_out - 2.0 * float(delta @ self._xe_out)
                             + float(delta @ self._xx_out @ delta)) / sigma2**3
            # M^-1 times the rotated GLS residual sums per design
            kr = li.transpose(0, 2, 1) @ li @ (self._e - self._count[:, None]
                                               * (self._x @ delta))[:, :, None]
            b = self._sandwich(li.transpose(0, 2, 1) @ wx, kr,
                               (self._xe_out - self._xx_out @ delta)[:, None] / sigma2**2)
            info -= b[..., 0] @ cov_beta @ b[..., 0].T
        jac = covariance_jacobian(self.structure, m, theta)
        info = jac @ info @ jac.T
        if method == "REML":
            cf = cov_beta @ self._f(theta, li)
            cfcf = 0.5 * np.tensordot(cf, cf.transpose(0, 2, 1), axes=([1, 2], [1, 2]))
            info += -cfcf if observed else cfcf
        if observed:
            info -= _curvature(self.structure, m, theta, dphi[:-1].reshape(m, m), jac @ dphi)
        return 0.5 * (info + info.T)

    # -- initialization and fitting -----------------------------------------

    def _initial_theta(self) -> np.ndarray:
        """Half of s0^2 to sigma^2, the other half spread over Sigma_d's diagonal."""
        per_component = self._log_s2 + np.log(0.5 / self.m)
        theta = np.full(self.n_params - 1, per_component)
        if self.structure == "unstructured":
            rows, cols = np.tril_indices(self.m)
            theta = np.where(rows == cols, 0.5 * per_component, 0.0)
        return np.append(theta, self._log_s2 + np.log(0.5))

    def _bounds(self):
        """(lo, hi) arrays of theta: variances within [e^-30, e^30] s0^2;
        off-diagonal Cholesky entries are unbounded."""
        lo = np.full(self.n_params, LOG_VARIANCE_FLOOR + self._log_s2)
        hi = np.full(self.n_params, 30.0 + self._log_s2)
        if self.structure == "unstructured":
            rows, cols = np.tril_indices(self.m)
            lo[:-1] = np.where(rows == cols, lo[:-1] / 2.0, -np.inf)
            hi[:-1] = np.where(rows == cols, hi[:-1] / 2.0, np.inf)
        return lo, hi

    def fit(self, method: str = "REML", max_iter: int = 500, tol: float = 1e-6) -> FittedModel:
        ll, theta, converged, iterations, grad_norm, history = self._optimize(
            self._initial_theta(), method, max_iter, tol)
        params = CovarianceParams(structure=self.structure, m=self.m, theta=theta)
        beta, cov_beta = self.gls(theta)
        sigma_d = params.sigma_d()
        # log-variances at the floor are reported as exact zeros
        at_floor = theta <= self._bounds()[0] + 1e-8
        if self.structure == "diagonal":
            sigma_d = np.diag(np.where(at_floor[:-1], 0.0, np.diag(sigma_d)))
        sigma2 = 0.0 if at_floor[-1] else params.sigma2()
        return FittedModel(
            spec=self.spec, method=method, beta_hat=beta, cov_beta=cov_beta,
            sigma_d_hat=sigma_d, sigma2_hat=sigma2, loglik=ll, converged=converged,
            iterations=iterations, gradient_norm=grad_norm, params=params,
            n_subjects=self.N, n_obs=self.n, column_labels=self.context.fixed_column_labels(),
            context=self.context, problem=self, ascent_history=history)

    def _optimize(self, theta0: np.ndarray, method: str, max_iter: int, tol: float):
        """(loglik, theta, converged, iterations, gradient norm, ascent history)."""
        lo, hi = self._bounds()
        theta = np.clip(theta0, lo, hi)
        ll, grad = self.loglik_and_grad(theta, method)
        damping = 1e-3  # lambda relative to the largest |eigenvalue|
        history = []
        while True:
            grad_norm, blocked = _projected(theta, grad, lo, hi)
            if grad_norm <= tol or len(history) >= max_iter:
                break
            free = ~blocked
            # scoring far from the optimum, Newton steps near it
            information = (self.expected_information if grad_norm > _NEWTON_GATE
                           else self.observed_information)
            ev, vec = np.linalg.eigh(information(theta, method)[np.ix_(free, free)])
            top = float(np.abs(ev).max()) or 1.0
            ev = np.maximum(ev, 0.0)
            rotated = vec.T @ grad[free]
            for _ in range(40):
                trial = theta.copy()
                trial[free] += vec @ (rotated / (ev + damping * top))
                trial = np.clip(trial, lo, hi)
                ll_t, grad_t = self.loglik_and_grad(trial, method)
                # where roundoff hides the gain, a smaller gradient decides
                if ll_t >= ll or (ll_t >= ll - _LL_ROUNDOFF * abs(ll)
                                  and _projected(trial, grad_t, lo, hi)[0] < grad_norm):
                    break
                damping *= 4.0
            else:
                break  # no damping of the step improves
            damping = max(damping / 3.0, 1e-10)
            theta, ll, grad = trial, ll_t, grad_t
            if self.structure == "diagonal":
                # the log scale cannot reach a zero variance: put fading ones
                # at the floor when the likelihood does not object
                log_v = theta[: self.m]
                fading = ((grad[: self.m] < 0) & (log_v > lo[: self.m])
                          & (np.exp(log_v) < 1e-4 * np.exp(theta[-1])))
                if fading.any():
                    trial = np.append(np.where(fading, lo[: self.m], log_v), theta[-1])
                    ll_t, grad_t = self.loglik_and_grad(trial, method)
                    if ll_t >= ll:
                        theta, ll, grad = trial, ll_t, grad_t
            history.append(ll)
        return ll, theta, grad_norm <= tol, len(history), grad_norm, history


def _projected(theta, grad, lo, hi):
    """(max |gradient| over the other components, the components at a bound
    whose gradient pushes outward)."""
    blocked = ((theta <= lo + 1e-12) & (grad < 0)) | ((theta >= hi - 1e-12) & (grad > 0))
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
