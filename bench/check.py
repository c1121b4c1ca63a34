"""Independent checks of the CLI outputs.

Nothing here calls abpmix: the designs come from the generator's own QR
basis (the package's orthonormal polynomials up to column signs), the
likelihood is the dense per-subject REML formula, and the normal
quantile comes from the standard library.  Column signs are recovered by
comparing this module's GLS fixed effects with the fit's ``beta_hat``.
Each check raises ``CheckError`` naming what disagreed.
"""

from __future__ import annotations

import csv
import json
import math
from statistics import NormalDist

import numpy as np

import gen

LOGLIK_RTOL = 1e-8
VALUE_RTOL = 1e-8


class CheckError(Exception):
    pass


def _close(a, b, rtol, what):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(b))), 1e-300)
    err = float(np.max(np.abs(a - b))) / scale
    if not err <= rtol:
        raise CheckError(f"{what}: relative error {err:.3e} > {rtol:.0e}")


class PolyFit:
    """A degree-k diagonal polynomial fit read from fit.json."""

    def __init__(self, path, subjects):
        self.path = path
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        spec = d["spec"]
        fixed, random = spec["fixed"], spec["random"]
        if (fixed["kind"], random["kind"], spec["random_cov"]) != (
                "orthonormal_poly", "orthonormal_poly", "diagonal") or spec["group_terms"]:
            raise CheckError(f"{path}: only covariate-free diagonal polynomial fits are checked")
        self.q = fixed["degree"] + 1
        self.m = random["degree"] + 1
        self.ref_points = spec["reference_grid_points"]
        self.theta = np.asarray(d["theta"], dtype=float)
        self.beta = np.asarray(d["beta_hat"], dtype=float)
        self.cov_beta = np.asarray(d["cov_beta"], dtype=float)
        self.sigma_d = np.asarray(d["sigma_d_hat"], dtype=float)
        self.sigma2 = float(d["sigma2_hat"])
        self.loglik = float(d["loglik"])
        # the dense formulas at the fit's theta, in this module's signs
        self.dense = reml(self, subjects)
        self.signs = np.where(self.dense[1] * self.beta < 0, -1.0, 1.0)

    def basis(self, t):
        """Fixed design at times t in the fit's own column signs."""
        b = gen.orthonormal_basis(np.asarray(t, dtype=float), self.q - 1, self.ref_points)
        return b * self.signs


def reml(fit: PolyFit, subjects):
    """Dense per-subject REML log-likelihood and GLS (beta, cov) at theta."""
    sd = np.diag(np.exp(fit.theta[: fit.m]))
    s2 = math.exp(fit.theta[-1])
    q = fit.q
    xvx, xvy = np.zeros((q, q)), np.zeros(q)
    yvy = logdet = 0.0
    n = 0
    for s in subjects:
        x = gen.orthonormal_basis(s.times, q - 1, fit.ref_points)
        z = x[:, : fit.m]
        v = z @ sd @ z.T + s2 * np.eye(s.times.size)
        vi = np.linalg.inv(v)
        logdet += np.linalg.slogdet(v)[1]
        xvx += x.T @ vi @ x
        xvy += x.T @ vi @ s.y
        yvy += s.y @ vi @ s.y
        n += s.times.size
    beta = np.linalg.solve(xvx, xvy)
    quad = yvy - xvy @ beta
    ll = -0.5 * (logdet + np.linalg.slogdet(xvx)[1] + quad + (n - q) * math.log(2 * math.pi))
    return ll, beta, np.linalg.inv(xvx)


def check_fit(fit: PolyFit) -> None:
    """fit.json's loglik, |beta| and cov_beta against the dense formulas."""
    ll, beta, cov = fit.dense
    _close(ll, fit.loglik, LOGLIK_RTOL, f"{fit.path}: REML loglik")
    _close(np.abs(beta), np.abs(fit.beta), 1e-7, f"{fit.path}: |beta_hat|")
    _close(cov * np.outer(fit.signs, fit.signs), fit.cov_beta, 1e-6, f"{fit.path}: cov_beta")


def read_series(path) -> dict:
    """series -> (times, value, lower, upper) arrays from a plot CSV."""
    cols = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            c = cols.setdefault(row["series"], ([], [], [], []))
            c[0].append(float(row["time"]))
            c[1].append(float(row["value"]))
            c[2].append(float(row["lower"]) if row["lower"] else math.nan)
            c[3].append(float(row["upper"]) if row["upper"] else math.nan)
    return {k: tuple(np.asarray(v) for v in c) for k, c in cols.items()}


def check_band(path, fit: PolyFit, level: float = 0.90) -> None:
    """Population curve and half-widths z*sqrt(s'Phi s + u'Sd u + s2)."""
    series = read_series(path)
    t, center, lower, upper = series["band"]
    s = fit.basis(t)
    u = s[:, : fit.m]
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    var = (np.einsum("ij,jk,ik->i", s, fit.cov_beta, s)
           + np.einsum("ij,jk,ik->i", u, fit.sigma_d, u) + fit.sigma2)
    _close(center, s @ fit.beta, VALUE_RTOL, f"{path}: band center")
    _close(upper - center, z * np.sqrt(var), VALUE_RTOL, f"{path}: band half-width")
    _close(center - lower, z * np.sqrt(var), VALUE_RTOL, f"{path}: band lower half-width")
    _close(series["population"][1], s @ fit.beta, VALUE_RTOL, f"{path}: population curve")


def check_profiles(path, fit: PolyFit, subjects) -> None:
    """Each listed subject's curve against X beta + Z Sd Z' V^-1 (y - X beta)."""
    series = read_series(path)
    for s in subjects:
        t, values, _, _ = series[f"subject:{s.id}"]
        x = fit.basis(s.times)
        z = x[:, : fit.m]
        v = z @ fit.sigma_d @ z.T + fit.sigma2 * np.eye(s.times.size)
        d = fit.sigma_d @ z.T @ np.linalg.solve(v, s.y - x @ fit.beta)
        g = fit.basis(t)
        _close(values, g @ fit.beta + g[:, : fit.m] @ d, VALUE_RTOL,
               f"{path}: profile of {s.id}")


def check_comparison(path, n_subjects: int, models) -> dict:
    """Rows sorted by AIC, BIC consistent with AIC, all converged.
    Returns each model's REML log-likelihood, k - AIC / 2."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if sorted(r["model"] for r in rows) != sorted(models):
        raise CheckError(f"{path}: models {[r['model'] for r in rows]}")
    aics = [float(r["aic"]) for r in rows]
    if aics != sorted(aics):
        raise CheckError(f"{path}: not sorted by AIC")
    logliks = {}
    for r in rows:
        if r["converged"] != "true" or r["error"]:
            raise CheckError(f"{path}: {r['model']} did not fit")
        k = int(r["n_cov_params"])
        _close(float(r["bic"]) - float(r["aic"]), k * (math.log(n_subjects) - 2.0), 1e-9,
               f"{path}: BIC - AIC of {r['model']}")
        logliks[r["model"]] = k - 0.5 * float(r["aic"])
    return logliks


def check_optimum(what, loglik: float, reference: float) -> None:
    """A fitted REML log-likelihood against the recorded optimum of the
    same cohort and model: a fit that stops short of the optimum, for
    instance on a wrong gradient, falls below it."""
    _close(loglik, reference, LOGLIK_RTOL, f"{what}: loglik vs the recorded optimum")


def check_fixed_effects(path, fit: PolyFit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        est = [float(r["estimate"]) for r in csv.DictReader(fh)]
    if est != fit.beta.tolist():
        raise CheckError(f"{path}: estimates differ from fit.json beta_hat")


def normals(subjects, thresholds: dict):
    """Subjects whose every reading lies within its hour's bounds."""
    keep = []
    for s in subjects:
        hours = np.clip(np.floor(s.times).astype(int), 0, 23)
        bounds = np.array([thresholds[str(h)] for h in hours])
        if np.all((bounds[:, 0] <= s.y) & (s.y <= bounds[:, 1])):
            keep.append(s)
    return keep
