"""Acceptance suite: twelve numbered end-to-end checks.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live).  Tolerances are pinned in the assertions.
"""

import json
import time

import numpy as np

import abpmix as a
from abpmix.basis import (
    DEFAULT_SPLINE_CLOCK_KNOTS,
    TimeGrid,
    clock_knots_to_elapsed,
    evaluate_polynomial_basis,
    orthonormal_polynomial_basis,
    orthonormality_deviation,
    restricted_cubic_spline_basis,
)
from abpmix.cli import main
from abpmix.estimation import CovarianceParams, MixedModelProblem
from abpmix.inference import Contrast, f_test, information_criteria

from conftest import (
    conditional_mean_blup_oracle,
    dense_stacked_loglik,
    poly_spec,
    random_tiny_problem,
    simulate,
    spec_object,
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {name}{('  ' + detail) if detail else ''}")
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_orthonormality():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (12, 24, 49):
        grid = TimeGrid.equispaced(p)
        for degree in range(10):
            basis, _ = orthonormal_polynomial_basis(grid, degree)
            worst = max(worst, orthonormality_deviation(basis))
    elapsed = time.perf_counter() - t0
    report(1, "orthonormality <= 1e-10 for p in {12,24,49}, degree <= 9",
           worst <= 1e-10 and elapsed < 1.0,
           f"max deviation {worst:.3e}, {elapsed:.3f}s")


def test_criterion_02_coefficient_round_trip():
    rng = np.random.default_rng(2)
    grid = TimeGrid.equispaced(49)
    worst = 0.0
    for degree in (3, 6, 9):
        basis, coeffs = orthonormal_polynomial_basis(grid, degree)
        again = evaluate_polynomial_basis(coeffs, grid)
        worst = max(worst, float(np.max(np.abs(again - basis))))
    # deviation diagnostic on a random 80% subgrid: finite, reported
    _, coeffs9 = orthonormal_polynomial_basis(grid, 9)
    keep = np.sort(rng.choice(49, size=39, replace=False))
    sub = TimeGrid(grid.points[keep])
    dev = orthonormality_deviation(evaluate_polynomial_basis(coeffs9, sub))
    report(2, "coefficient round-trip <= 1e-12; subgrid diagnostic finite",
           worst <= 1e-12 and np.isfinite(dev),
           f"round-trip {worst:.3e}, 80%-subgrid deviation {dev:.3e}")


def test_criterion_03_spline_restriction():
    rng = np.random.default_rng(3)
    knots = clock_knots_to_elapsed(DEFAULT_SPLINE_CLOCK_KNOTS, start_hour=12.0)

    def f(t, coef):
        vals = restricted_cubic_spline_basis(TimeGrid(np.atleast_1d(float(t))), knots)
        return float((vals @ coef)[0])

    def second(t, coef, h):
        return (f(t + h, coef) - 2 * f(t, coef) + f(t - h, coef)) / h**2

    h = 1e-3
    worst_outer, worst_jump = 0.0, 0.0
    for _ in range(5):
        coef = rng.normal(size=8)
        scale = max(abs(f(t, coef)) for t in np.linspace(h, 24 - h, 25))
        for t in np.linspace(h, knots[0] - 2 * h, 5).tolist() + np.linspace(
            knots[-1] + 2 * h, 24 - h, 5
        ).tolist():
            worst_outer = max(worst_outer, abs(second(t, coef, h)) / scale)
        # f'' of a cubic spline is piecewise linear and central differences
        # are exact for cubics, so extrapolating the one-sided estimates to
        # the knot recovers the one-sided limits exactly
        for tk in knots[1:-1]:
            left = 2 * second(tk - h, coef, h) - second(tk - 2 * h, coef, h)
            right = 2 * second(tk + h, coef, h) - second(tk + 2 * h, coef, h)
            jump = abs(right - left) / max(abs(left), abs(right), 1.0)
            worst_jump = max(worst_jump, jump)
    ok = worst_outer <= 1e-6 and worst_jump <= 1e-6
    report(3, "spline linear beyond boundary knots, C2 at interior knots",
           ok, f"outer |f''|/scale {worst_outer:.2e}, interior jump {worst_jump:.2e}")


def test_criterion_04_likelihood_oracle():
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(50):
        structure = "diagonal" if i % 2 == 0 else "unstructured"
        spec, cohort, theta = random_tiny_problem(rng, structure)
        params = CovarianceParams(structure=structure, m=spec.random.n_columns, theta=theta)
        got = MixedModelProblem(spec, cohort).loglikelihood(params.theta, "REML")
        want = dense_stacked_loglik(theta, spec, cohort)
        worst = max(worst, abs(got - want))
    report(4, "REML log-likelihood matches dense stacked oracle (50 instances)",
           worst <= 1e-8, f"max |delta| {worst:.3e}")


def test_criterion_05_gradient_check():
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(20):
        structure = "diagonal" if i % 2 == 0 else "unstructured"
        spec, cohort, theta = random_tiny_problem(rng, structure)
        problem = MixedModelProblem(spec, cohort)
        grad = problem.loglik_and_grad(theta).grad
        h = 1e-5
        for j in range(theta.size):
            e = np.zeros_like(theta)
            e[j] = h
            fd = (problem.loglikelihood(theta + e) - problem.loglikelihood(theta - e)) / (2 * h)
            denom = max(abs(fd), abs(grad[j]))
            if denom < 1e-6:  # flat direction: finite differences are pure roundoff
                continue
            worst = max(worst, abs(grad[j] - fd) / denom)
    report(5, "analytic REML gradient vs central differences (20 instances)",
           worst <= 1e-5, f"max relative error {worst:.3e}")


def test_criterion_06_parameter_recovery():
    t0 = time.perf_counter()
    spec = poly_spec(3)
    true_beta = np.array([600.0, -50.0, 30.0, 15.0])
    true_diag = np.array([100.0, 80.0, 60.0, 40.0])
    true_sigma2 = 25.0
    betas, diags, sigma2s = [], [], []
    for rep in range(20):
        cohort = simulate(spec, true_beta, np.diag(true_diag), true_sigma2,
                          n_subjects=100, seed=6000 + rep)
        fitted = a.fit(spec, cohort)
        betas.append(fitted.beta_hat)
        diags.append(np.diag(fitted.sigma_d_hat))
        sigma2s.append(fitted.sigma2_hat)
    elapsed = time.perf_counter() - t0
    betas = np.asarray(betas)
    mean_diag = np.mean(diags, axis=0)
    mean_sigma2 = float(np.mean(sigma2s))
    rel_diag = np.max(np.abs(mean_diag - true_diag) / true_diag)
    rel_s2 = abs(mean_sigma2 - true_sigma2) / true_sigma2
    mc_se = betas.std(axis=0, ddof=1) / np.sqrt(len(betas))
    beta_z = np.abs(betas.mean(axis=0) - true_beta) / mc_se
    ok = rel_diag <= 0.10 and rel_s2 <= 0.05 and np.all(beta_z <= 2.0) and elapsed < 60.0
    report(6, "degree-3 diagonal recovery over 20 replicates",
           ok,
           f"var comps {rel_diag:.1%}, sigma2 {rel_s2:.1%}, "
           f"max |beta z| {beta_z.max():.2f}, {elapsed:.1f}s")


def test_criterion_07_blup_oracle():
    rng = np.random.default_rng(7)
    spec = poly_spec(1)
    cohort = simulate(spec, [450.0, -20.0], np.diag([70.0, 30.0]), 16.0,
                      n_subjects=30, seed=70)
    fitted = a.fit(spec, cohort)
    worst = 0.0
    for i in range(50):
        p = int(rng.integers(3, 7))
        times = TimeGrid(np.sort(rng.uniform(0.5, 23.5, size=p)))
        s = a.Subject(id=f"o{i}", times=times, y=rng.normal(100.0, 12.0, size=p))
        pair = a.build_design(spec, s, fitted.context)
        resid = s.y - pair.X @ fitted.beta_hat
        want = conditional_mean_blup_oracle(pair.Z, fitted.sigma_d_hat,
                                            fitted.sigma2_hat, resid)
        got = a.random_effects_blup(fitted, s)
        worst = max(worst, float(np.max(np.abs(got - want))))
    report(7, "BLUP matches conditional-mean oracle (50 instances)",
           worst <= 1e-8, f"max |delta| {worst:.3e}")


def test_criterion_08_satterthwaite_one_way():
    worst = 0.0
    rng = np.random.default_rng(8)
    for n in (5, 20, 50):
        times = TimeGrid.hourly_midpoints().points[:10]
        subs = []
        for i in range(n):
            b = rng.normal(0.0, 6.0)
            subs.append(a.Subject(id=f"s{i}", times=TimeGrid(times),
                                  y=100.0 + b + rng.normal(0.0, 3.0, size=10)))
        fitted = a.fit(poly_spec(0), a.Cohort(subjects=tuple(subs)), tol=1e-8)
        res = f_test(fitted, Contrast.for_columns([0], 1))
        worst = max(worst, abs(res.ddf - (n - 1)))
    report(8, "balanced one-way intercept ddf = N-1 (N in {5,20,50})",
           worst <= 1e-6, f"max |ddf - (N-1)| {worst:.3e}")


def test_criterion_09_band_coverage():
    spec = poly_spec(2)
    cohort = simulate(spec, [520.0, -25.0, 12.0], np.diag([90.0, 45.0, 25.0]), 25.0,
                      n_subjects=80, seed=90)
    fitted = a.fit(spec, cohort)
    grid = TimeGrid.hourly_midpoints()
    band = a.prediction_band(fitted, grid, level=0.90)
    rng = np.random.default_rng(900)
    n_sim = 10_000
    u = fitted.context.time_matrices(grid)[1]
    s = fitted.context.fixed_time_matrix(grid)
    # new subjects drawn from the fitted model, including uncertainty in
    # the estimated fixed effects
    beta_draw = rng.multivariate_normal(fitted.beta_hat, fitted.cov_beta, size=n_sim)
    d = rng.multivariate_normal(np.zeros(u.shape[1]), fitted.sigma_d_hat, size=n_sim)
    e = rng.normal(scale=np.sqrt(fitted.sigma2_hat), size=(n_sim, len(grid)))
    y = beta_draw @ s.T + d @ u.T + e
    inside = (y >= band.lower) & (y <= band.upper)
    coverage = inside.mean(axis=0)
    ok = np.all(np.abs(coverage - 0.90) <= 0.02)
    report(9, "90% band pointwise coverage within 0.90 +/- 0.02 (10,000 sims)",
           ok, f"coverage range [{coverage.min():.3f}, {coverage.max():.3f}]")


def test_criterion_10_model_selection_pattern():
    t0 = time.perf_counter()
    spec9 = poly_spec(9)
    knots = tuple(clock_knots_to_elapsed(DEFAULT_SPLINE_CLOCK_KNOTS, start_hour=12.0))
    spec_rcs = a.ModelSpec(
        fixed=a.BasisDescriptor("restricted_cubic_spline", knots=knots),
        random=a.BasisDescriptor("natural_poly", 3),
        random_cov="unstructured",
    )
    true_beta = np.array([700.0, -60.0, 45.0, -35.0, 28.0, -22.0, 18.0, -14.0, 11.0, -9.0])
    true_diag = np.array([120.0, 70.0, 45.0, 30.0, 20.0, 14.0, 10.0, 7.0, 5.0, 4.0])
    wins_vs_spline = 0
    wins_deg6_vs_deg4 = 0
    reps = 20
    for rep in range(reps):
        cohort = simulate(spec9, true_beta, np.diag(true_diag), 16.0,
                          n_subjects=357, seed=10_000 + rep)
        aic9 = information_criteria(a.fit(spec9, cohort))[0]
        aic_rcs = information_criteria(a.fit(spec_rcs, cohort))[0]
        aic6 = information_criteria(a.fit(poly_spec(6), cohort))[0]
        aic4 = information_criteria(a.fit(poly_spec(4), cohort))[0]
        if aic9 < aic_rcs:
            wins_vs_spline += 1
        if min(aic6, aic9) < aic4:
            wins_deg6_vs_deg4 += 1
    elapsed = time.perf_counter() - t0
    ok = wins_vs_spline >= 18 and wins_deg6_vs_deg4 >= 19 and elapsed < 900.0
    report(10, "degree-9 beats 9-knot spline on AIC; AIC prefers degree >= 6 over 4",
           ok,
           f"vs spline {wins_vs_spline}/{reps}, deg>=6 vs deg4 {wins_deg6_vs_deg4}/{reps}, "
           f"{elapsed:.0f}s")


def test_criterion_11_parameter_counts():
    knots = tuple(clock_knots_to_elapsed(DEFAULT_SPLINE_CLOCK_KNOTS, start_hour=12.0))
    spline_spec = a.ModelSpec(
        fixed=a.BasisDescriptor("restricted_cubic_spline", knots=knots),
        random=a.BasisDescriptor("natural_poly", 3),
        random_cov="unstructured",
    )
    c1 = a.parameter_count(poly_spec(9)) == (10, 11)
    c2 = a.parameter_count(poly_spec(9, "unstructured"))[1] == 56
    c3 = a.parameter_count(spline_spec) == (9, 11)
    report(11, "parameter counts: (10,11) diagonal, 56 unstructured, (9,11) spline",
           c1 and c2 and c3)


def test_criterion_12_end_to_end_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "spec": spec_object(poly_spec(2)),
        "beta": [500.0, -15.0, 8.0],
        "sigma_d": [60.0, 30.0, 15.0],
        "sigma2": 16.0,
        "n_subjects": 20,
        "seed": 12,
        "missing_rate": 0.1,
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    from abpmix import serialize

    model_path = tmp_path / "model.json"
    model_path.write_text(serialize.model_spec_to_json(poly_spec(2)))

    sim_bytes = []
    for name, workers in (("s1", "1"), ("s2", "4"), ("s3", "1")):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--workers", workers]) == 0
        sim_bytes.append((out / "cohort.csv").read_bytes())
    data = str(tmp_path / "s1" / "cohort.csv")

    fit_bytes = []
    for name in ("f1", "f2"):
        out = tmp_path / name
        assert main(["fit", "--model", str(model_path), "--data", data,
                     "--out", str(out)]) == 0
        fit_bytes.append(tuple(
            (out / f).read_bytes()
            for f in ("fit.json", "fixed_effects.csv", "variance_components.csv")
        ))

    prof_bytes = []
    for name, workers in (("p1", "1"), ("p2", "4")):
        out = tmp_path / name
        assert main(["profiles", "--fit", str(tmp_path / "f1" / "fit.json"),
                     "--data", data, "--subjects", "s0000,s0001",
                     "--out", str(out), "--workers", workers]) == 0
        prof_bytes.append((out / "profiles.csv").read_bytes())

    ok = (sim_bytes[0] == sim_bytes[1] == sim_bytes[2]
          and fit_bytes[0] == fit_bytes[1]
          and prof_bytes[0] == prof_bytes[1])
    report(12, "byte-identical outputs across repeated runs and 1 vs 4 workers", ok)
