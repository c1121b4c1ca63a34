"""Fixed-effect inference: F-tests, Satterthwaite ddf, AIC/BIC, R2.

Denominator degrees of freedom follow the Satterthwaite moment match.
For a single-row contrast c, ddf = 2 (c' Phi c)^2 / Var(c' Phi c), with
the variance obtained by the delta method through the inverse analytic
observed information of the covariance parameters, which also gives the
variance-component SEs.  One vectorized pass, three einsums, gives the
ddf of every row of a stack of single-df contrasts: all q columns at once
for the per-column tests, whose results are also the default semi-partial
R2 terms, and all the pieces into which a multi-row contrast is
eigen-split before their sum is moment-matched.

The R2 statistics convert an F and its ddf into the proportion-of-
variation scale: R2 = c F / (ddf + c F).

The p-value is the upper F tail, I_x(ddf/2, ndf/2) at x = ddf / (ddf +
ndf F), computed with ``math`` alone, so that no command loads scipy.
The incomplete beta I_x(a, b) is x^a (1-x)^b / B(a, b) times the
continued fraction of DiDonato & Morris (1992, ACM TOMS 18, Algorithm
708, its ``bfrac``), evaluated by the modified Lentz method (Press et
al., Numerical Recipes, 3rd ed., sections 5.2 and 6.4).  The prefactor is
formed in log space, with log B(a, b) for large a from Stirling's series
with its large terms cancelled (TOMS 708's ``algdiv``), so nothing
underflows before the final exp.  Below x = (a + 1) / (a + b + 2) the
fraction gives the tail itself; above it, the fraction gives I_(1-x)(b,
a), and the tail is its complement, which there is at least 0.083 for
ndf >= 1.
Numerical Recipes' own fraction for I_x is not used: its partial
denominators cancel as x nears 1, losing digits in proportion to ddf
(3e-12 relative at ddf 3e5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComparisonError, ContrastError, StateError
from .estimation import FittedModel, covariance_jacobian, index_plan


@dataclass(frozen=True)
class Contrast:
    C: np.ndarray
    label: str = ""

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.C, dtype=float))
        if c.size == 0 or not np.all(np.isfinite(c)):
            raise ContrastError("contrast matrix must be finite and nonempty")
        object.__setattr__(self, "C", c)

    @classmethod
    def for_columns(cls, indices, q: int, label: str = "") -> "Contrast":
        return cls(C=np.eye(q)[list(indices)], label=label)


@dataclass(frozen=True)
class TestResult:
    F: float
    ndf: int
    ddf: float
    p_value: float
    label: str = ""


# B_2k / (2k (2k - 1)), k = 1..6: Stirling's series of log Gamma, whose
# truncation error is below 1e-15 from 10 on
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_CF_EPS = 1e-15
# no tail needs more than about 60 terms (ndf <= 30, any ddf); the cap only
# bounds the loop for every finite input
_CF_MAX_TERMS = 1000
_TINY = 1e-300


def _stirling_rest(z: float) -> float:
    """log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2, for z >= 10."""
    t = 1.0 / (z * z)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * t + c
    return s / z


def _log_beta(a: float, b: float) -> float:
    """log B(a, b)."""
    s, l = min(a, b), max(a, b)
    if l < 10.0:
        return math.lgamma(s) + math.lgamma(l) - math.lgamma(s + l)
    # log Gamma(l) - log Gamma(l + s) without the l log l terms that cancel
    return (math.lgamma(s) + s - s * math.log(l) - (l + s - 0.5) * math.log1p(s / l)
            + _stirling_rest(l) - _stirling_rest(l + s))


def _beta_fraction(a: float, b: float, x: float, y: float, c1: float) -> float:
    """The TOMS 708 continued fraction f, I_x(a, b) = x^a y^b / (B(a, b) f).

    y = 1 - x and c1 = 1 + a - (a + b) x are passed in, computed by the
    caller without cancellation.
    """
    f = a * c1 / (a + 1.0) or _TINY
    c, d = f, 0.0
    for n in range(1, _CF_MAX_TERMS + 1):
        s = a + (2 * n - 1)
        w = n * (b - n) * x
        alpha = (a + (n - 1)) / s * ((a + b + (n - 1)) / s) * w * x
        beta = n + w / s + (a + n) / (s + 2.0) * (c1 + n * (1.0 + y))
        d = 1.0 / (beta + alpha * d or _TINY)
        c = beta + alpha / c or _TINY
        f *= c * d
        if abs(c * d - 1.0) <= _CF_EPS:
            break
    return f


def _f_tail(ndf: float, ddf: float, F: float) -> float:
    """P(F(ndf, ddf) > F), NaN outside 0 < ndf, ddf < inf and F >= 0."""
    if not (0.0 < ndf < math.inf and 0.0 < ddf < math.inf and F >= 0.0):
        return math.nan
    a, b, r = 0.5 * ddf, 0.5 * ndf, ndf * F / ddf  # r = (1 - x) / x
    if r == 0.0 or r == math.inf:
        return float(r == 0.0)
    x, y = 1.0 / (1.0 + r), r / (1.0 + r)
    pre = math.exp(-a * math.log1p(r) - b * math.log1p(1.0 / r) - _log_beta(a, b))
    if (a + 1.0) * r > b + 1.0:
        return pre / _beta_fraction(a, b, x, y, ((a + 1.0) * r + 1.0 - b) / (1.0 + r))
    return 1.0 - pre / _beta_fraction(b, a, y, x, (b + 1.0 - (a - 1.0) * r) / (1.0 + r))


def _satterthwaite(fitted: FittedModel, rows: np.ndarray) -> np.ndarray:
    """The ddf 2 (c' Phi c)^2 / Var(c' Phi c) of every single-df row c of ``rows``.

    A delta-method variance <= 0 gives n_obs - q; a NaN one gives NaN.
    """
    var = np.einsum("ri,ij,rj->r", rows, fitted.cov_beta, rows)
    g = np.einsum("ri,kij,rj->rk", rows, fitted.cov_beta_derivatives, rows)
    vv = np.einsum("rk,kl,rl->r", g, fitted.vcov_theta, g)
    return np.divide(2.0 * var**2, vv, out=np.full(vv.shape, float(fitted.n_obs - fitted.q)),
                     where=~(vv <= 0))


def _require_inference_inputs(fitted: FittedModel) -> None:
    if not fitted.converged:
        raise StateError("cannot test a non-converged fit")
    if fitted.vcov_theta is None:
        raise StateError("a fit read from fit.json has no inference inputs; refit to test")


def f_test(fitted: FittedModel, contrast: Contrast) -> TestResult:
    """F-test of C beta = 0 with Satterthwaite denominator df."""
    _require_inference_inputs(fitted)
    c = contrast.C
    if c.shape[1] != fitted.q:
        raise ContrastError(f"contrast has {c.shape[1]} columns, model has {fitted.q}")
    if np.linalg.matrix_rank(c) < c.shape[0]:
        raise ContrastError("contrast matrix is rank deficient")
    ndf = c.shape[0]
    mid = c @ fitted.cov_beta @ c.T
    # mid is positive definite: |L^-1 C beta|^2 = beta'C' mid^-1 C beta
    w = np.linalg.solve(np.linalg.cholesky(mid), c @ fitted.beta_hat)
    f_stat = float(w @ w) / ndf
    if ndf == 1:
        ddf = float(_satterthwaite(fitted, c)[0])
    else:
        # split into orthogonal single-df pieces, at least one of which passes
        # the cut, and moment-match their sum; a NaN piece makes the ddf NaN
        ev, vec = np.linalg.eigh(mid)
        nu = _satterthwaite(fitted, (vec.T @ c)[ev > 1e-12 * ev.max()])
        e_sum = np.sum(np.divide(nu, nu - 2.0, out=np.zeros_like(nu), where=~(nu <= 2.0)))
        ddf = float(2.0 * e_sum / (e_sum - ndf) if e_sum > ndf else np.min(nu))
    return TestResult(F=f_stat, ndf=ndf, ddf=ddf, p_value=_f_tail(ndf, ddf, f_stat),
                      label=contrast.label)


def information_criteria(fitted: FittedModel):
    """(AIC, BIC) counting covariance parameters only, N = subjects."""
    r = fitted.n_cov_params
    neg2ll = -2.0 * fitted.loglik
    aic = neg2ll + 2.0 * r
    bic = neg2ll + r * np.log(fitted.n_subjects)
    return float(aic), float(bic)


def _r2_from_f(f_stat: float, ndf: int, ddf: float) -> float:
    x = ndf * f_stat
    return float(x / (ddf + x))


def r2_statistics(fitted: FittedModel, terms=None):
    """Model R2 plus per-term semi-partial R2 values.

    The model term is every fixed effect except the intercept; by default
    each non-intercept column is its own semi-partial term, read from
    ``per_column_tests``.  An intercept-only model has no model term: its
    model R2 is NaN and it has no default semi-partials.
    """
    q = fitted.q
    model_r2 = float("nan")
    if q > 1:
        tr = f_test(fitted, Contrast.for_columns(range(1, q), q, label="model"))
        model_r2 = _r2_from_f(tr.F, tr.ndf, tr.ddf)
    if terms is None:
        tests = [res for _, _, res in per_column_tests(fitted)[1:]] if q > 1 else []
    else:
        tests = [f_test(fitted, term) for term in terms]
    return model_r2, [(res.label, _r2_from_f(res.F, res.ndf, res.ddf)) for res in tests]


def per_column_tests(fitted: FittedModel):
    """Single-column F-tests for every fixed effect (Table-1-style rows).

    The tests ``f_test`` makes of each column alone, in one pass: F =
    beta_j^2 / Phi_jj, and every column's ddf from one ``_satterthwaite``.
    """
    _require_inference_inputs(fitted)
    labels = fitted.column_labels
    f_stats = fitted.beta_hat**2 / np.diag(fitted.cov_beta)
    ddfs = _satterthwaite(fitted, np.eye(fitted.q))
    out = []
    for j, (f_stat, ddf) in enumerate(zip(f_stats.tolist(), ddfs.tolist())):
        label = labels[j] if j < len(labels) else f"b{j}"
        out.append((j, label, TestResult(F=f_stat, ndf=1, ddf=ddf,
                                         p_value=_f_tail(1, ddf, f_stat), label=label)))
    return out


def assert_comparable(specs, method: str, force_reml_compare: bool = False):
    """Refuse REML AIC/BIC comparison across different fixed structures.

    REML likelihoods from different fixed-effect structures are not on a
    common scale; pass ``force_reml_compare=True`` to compare anyway.  The
    decision needs only the model specs and the method, so it is made
    before any fit.
    """
    if force_reml_compare or method != "REML":
        return
    sigs = {(spec.fixed, spec.group_terms, spec.interaction_terms) for spec in specs}
    if len(sigs) > 1:
        raise ComparisonError(
            "REML criteria are not comparable across fixed-effect structures; "
            "pass --force-reml-compare to compare anyway"
        )


def variance_component_table(fitted: FittedModel):
    """(name, estimate, se) rows for the covariance parameters.

    Standard errors come from the delta method: the rows of the Jacobian
    of (Sigma_d, sigma^2) in theta around the inverse analytic observed
    information.  A fit read from fit.json carries no such inverse, and its
    standard errors are NaN.  So is the SE of a component reported as an
    exact zero: on the boundary a Wald SE is undefined.
    """
    m = fitted.params.m
    se = np.full(m * m + 1, np.nan)
    if fitted.vcov_theta is not None:
        jac = covariance_jacobian(fitted.params.structure, m, fitted.params.theta)
        se = np.sqrt(np.maximum(np.sum(jac * (fitted.vcov_theta @ jac), axis=0), 0.0))
        se[np.append(fitted.sigma_d_hat, fitted.sigma2_hat) == 0.0] = np.nan
    r, c, *_ = index_plan(fitted.params.structure, m)
    rows = [(f"var(d{a})" if a == b else f"cov(d{a},d{b})", float(fitted.sigma_d_hat[a, b]),
             float(se[a * m + b])) for a, b in zip(r.tolist(), c.tolist())]
    rows.append(("sigma2", float(fitted.sigma2_hat), float(se[-1])))
    return rows
