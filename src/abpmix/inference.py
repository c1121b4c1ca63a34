"""Fixed-effect inference: F-tests, Satterthwaite ddf, AIC/BIC, R2.

Denominator degrees of freedom follow the Satterthwaite moment match.
For a single-row contrast c, ddf = 2 (c' Phi c)^2 / Var(c' Phi c), with
the variance obtained by the delta method through the inverse analytic
observed information of the covariance parameters, which also gives the
variance-component SEs.  Multi-row contrasts eigen-split the contrast
into single-df components and moment-match the sum.

The R2 statistics convert an F and its ddf into the proportion-of-
variation scale: R2 = c F / (ddf + c F).
"""

from __future__ import annotations

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


def _satterthwaite_single(fitted: FittedModel, c: np.ndarray) -> float:
    phi = fitted.cov_beta
    var_c = float(c @ phi @ c)
    g = np.array([float(c @ dp @ c) for dp in fitted.cov_beta_derivatives])
    vv = float(g @ fitted.vcov_theta @ g)
    if vv <= 0:
        return float(fitted.n_obs - fitted.q)
    return 2.0 * var_c**2 / vv


def f_test(fitted: FittedModel, contrast: Contrast) -> TestResult:
    """F-test of C beta = 0 with Satterthwaite denominator df."""
    if not fitted.converged:
        raise StateError("cannot test a non-converged fit")
    if fitted.vcov_theta is None:
        raise StateError("a fit read from fit.json has no inference inputs; refit to test")
    c = contrast.C
    if c.shape[1] != fitted.q:
        raise ContrastError(
            f"contrast has {c.shape[1]} columns, model has {fitted.q}"
        )
    rank = np.linalg.matrix_rank(c)
    if rank < c.shape[0]:
        raise ContrastError("contrast matrix is rank deficient")
    ndf = c.shape[0]
    mid = c @ fitted.cov_beta @ c.T
    cb = c @ fitted.beta_hat
    # mid is positive definite: |L^-1 C beta|^2 = beta'C' mid^-1 C beta
    w = np.linalg.solve(np.linalg.cholesky(mid), cb)
    f_stat = float(w @ w) / ndf

    if ndf == 1:
        ddf = _satterthwaite_single(fitted, c[0])
    else:
        # spectral construction: split into orthogonal single-df pieces
        ev, vec = np.linalg.eigh(mid)
        ctil = vec.T @ c
        parts = []
        for lam, row in zip(ev, ctil):
            if lam <= 1e-12 * ev.max():
                continue
            parts.append(_satterthwaite_single(fitted, row))
        e_sum = sum(nu / (nu - 2.0) for nu in parts if nu > 2.0)
        if e_sum > ndf:
            ddf = 2.0 * e_sum / (e_sum - ndf)
        else:
            ddf = float(min(parts)) if parts else 1.0
    # imported here so that the commands which never test start without scipy
    from scipy.special import fdtrc

    p = float(fdtrc(ndf, ddf, f_stat))
    return TestResult(F=f_stat, ndf=ndf, ddf=float(ddf), p_value=p, label=contrast.label)


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
    each non-intercept column is its own semi-partial term.  An
    intercept-only model has no model term: its model R2 is NaN and it
    has no default semi-partials.
    """
    q = fitted.q
    model_r2 = float("nan")
    if q > 1:
        tr = f_test(fitted, Contrast.for_columns(range(1, q), q, label="model"))
        model_r2 = _r2_from_f(tr.F, tr.ndf, tr.ddf)
    if terms is None:
        labels = fitted.column_labels
        terms = [
            Contrast.for_columns([j], q, label=labels[j] if j < len(labels) else f"b{j}")
            for j in range(1, q)
        ]
    partials = []
    for term in terms:
        res = f_test(fitted, term)
        partials.append((res.label, _r2_from_f(res.F, res.ndf, res.ddf)))
    return model_r2, partials


def per_column_tests(fitted: FittedModel):
    """Single-column F-tests for every fixed effect (Table-1-style rows)."""
    out = []
    labels = fitted.column_labels
    for j in range(fitted.q):
        label = labels[j] if j < len(labels) else f"b{j}"
        out.append((j, label, f_test(fitted, Contrast.for_columns([j], fitted.q, label=label))))
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
