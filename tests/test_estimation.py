import dataclasses
import pickle

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import abpmix as a
from abpmix import basis, estimation, inference, serialize
from abpmix.basis import DEFAULT_SPLINE_CLOCK_KNOTS, TimeGrid, clock_knots_to_elapsed
from abpmix.cli import main
from abpmix.dataio import write_cohort
from abpmix.errors import ConditioningError, RankError
from abpmix.estimation import (
    LOG_VARIANCE_FLOOR,
    CovarianceParams,
    MixedModelProblem,
    n_cov_params,
    sigma_d_from_theta,
)

from conftest import (
    dense_expected_information,
    dense_observed_information,
    dense_stacked_loglik,
    edge_case_problems,
    fd_observed_information,
    poly_spec,
    random_tiny_problem,
    record_problem_calls,
    simulate,
)


class TestCovarianceParams:
    def test_diagonal_round_trip(self):
        sd = np.diag([4.0, 9.0])
        p = CovarianceParams.from_moments("diagonal", sd, 2.5)
        np.testing.assert_allclose(p.sigma_d(), sd, rtol=1e-12)
        assert abs(p.sigma2() - 2.5) < 1e-12

    def test_unstructured_round_trip(self):
        sd = np.array([[4.0, 1.0], [1.0, 3.0]])
        p = CovarianceParams.from_moments("unstructured", sd, 1.0)
        np.testing.assert_allclose(p.sigma_d(), sd, rtol=1e-10)

    def test_zero_variance_floors(self):
        p = CovarianceParams.from_moments("diagonal", np.zeros((1, 1)), 0.0)
        assert np.all(np.isfinite(p.theta))

    def test_counts(self):
        assert n_cov_params("diagonal", 10) == 11
        assert n_cov_params("unstructured", 10) == 56


class TestLoglikelihoodOracle:
    @pytest.mark.parametrize("structure", ["diagonal", "unstructured"])
    @pytest.mark.parametrize("method", ["REML", "ML"])
    def test_matches_dense_oracle(self, structure, method):
        rng = np.random.default_rng(42)
        cases = [random_tiny_problem(rng, structure) for _ in range(10)]
        for spec, cohort, theta in cases + edge_case_problems(rng, structure):
            params = CovarianceParams(structure=structure, m=spec.random.n_columns, theta=theta)
            got = MixedModelProblem(spec, cohort).loglikelihood(params.theta, method)
            want = dense_stacked_loglik(theta, spec, cohort, method=method)
            assert abs(got - want) <= 1e-8

    def test_reml_invariant_to_fixed_basis_change(self):
        # two fixed bases spanning the same column space shift the REML
        # log-likelihood by a constant that does not depend on theta
        spec_a = a.ModelSpec(
            fixed=a.BasisDescriptor("orthonormal_poly", 2),
            random=a.BasisDescriptor("orthonormal_poly", 1),
        )
        spec_b = a.ModelSpec(
            fixed=a.BasisDescriptor("natural_poly", 2),
            random=a.BasisDescriptor("orthonormal_poly", 1),
        )
        cohort = simulate(poly_spec(2), [400.0, -15.0, 8.0], np.diag([60.0, 20.0, 10.0]),
                          16.0, n_subjects=12, seed=9)
        t1 = np.array([1.0, 0.5, -0.2])
        t2 = np.array([-0.3, 1.2, 0.8])
        deltas = []
        for th in (t1, t2):
            p = CovarianceParams(structure="diagonal", m=2, theta=th)
            deltas.append(
                MixedModelProblem(spec_a, cohort).loglikelihood(p.theta, "REML")
                - MixedModelProblem(spec_b, cohort).loglikelihood(p.theta, "REML")
            )
        assert abs(deltas[0] - deltas[1]) < 1e-8

    def test_ml_differs_from_reml(self):
        rng = np.random.default_rng(1)
        spec, cohort, theta = random_tiny_problem(rng)
        p = CovarianceParams(structure="diagonal", m=spec.random.n_columns, theta=theta)
        assert (MixedModelProblem(spec, cohort).loglikelihood(p.theta, "REML")
                != MixedModelProblem(spec, cohort).loglikelihood(p.theta, "ML"))


_HOURS = np.arange(8) * 3.0 + 1.5


@st.composite
def incomplete_covariate_problems(draw):
    """A random incomplete cohort with a group (diet) and an interaction
    (age) term, and covariance parameters to evaluate it at.  Past the first
    four subjects, a subject may have fewer observations than random effects;
    any may have jittered, off-grid times."""
    fixed_degree = draw(st.integers(1, 2))
    random_degree = draw(st.integers(0, fixed_degree))
    structure = draw(st.sampled_from(["diagonal", "unstructured"]))
    spec = a.ModelSpec(fixed=a.BasisDescriptor("orthonormal_poly", fixed_degree),
                       random=a.BasisDescriptor("orthonormal_poly", random_degree),
                       random_cov=structure, group_terms=("diet",),
                       interaction_terms=("age",))
    m = spec.random.n_columns
    rows = draw(st.lists(st.tuples(st.lists(st.booleans(), min_size=8, max_size=8),
                                   st.booleans(), st.booleans()),
                         min_size=4, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subjects = []
    for i, (mask, short, jittered) in enumerate(rows):
        keep = np.array(mask)
        if short and i >= 4:  # p < m, with at least one observation
            keep[np.flatnonzero(keep)[max(m - 1, 1):]] = False
            keep[0] |= not keep.any()
        else:  # enough points to span X
            keep[: fixed_degree + 2] |= keep.sum() < fixed_degree + 2
        times = _HOURS[keep]
        if jittered:  # within +-1 h of hours 3 h apart: still increasing and within the day
            times = times + rng.uniform(-1.0, 1.0, size=times.size)
        subjects.append(a.Subject(id=f"h{i}", times=TimeGrid(times),
                                  y=rng.normal(120.0, 15.0, size=times.size),
                                  covariates={"diet": ("salt", "control")[i % 2],
                                              "age": 30.0 + 5.0 * i + rng.uniform(0.0, 4.0)}))
    theta = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n_cov_params(structure, m),
                                   max_size=n_cov_params(structure, m))))
    return spec, a.Cohort(subjects=tuple(subjects)), theta


def dense_gls(theta, spec, cohort):
    """(beta, cov_beta) from the stacked X, y and block-diagonal Sigma."""
    ctx = a.BasisContext(spec, cohort)
    sd = sigma_d_from_theta(spec.random_cov, spec.random.n_columns, theta)
    pairs = [a.build_design(spec, s, ctx) for s in cohort]
    x = np.vstack([p.X for p in pairs])
    y = np.concatenate([s.y for s in cohort])
    sigma = sla.block_diag(*[p.Z @ sd @ p.Z.T + np.exp(theta[-1]) * np.eye(len(p.Z))
                             for p in pairs])
    si = np.linalg.inv(sigma)
    cov_beta = np.linalg.inv(x.T @ si @ x)
    return cov_beta @ (x.T @ si @ y), cov_beta


def assert_matches_dense_information(got, want):
    assert np.array_equal(got, got.T)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def assert_matches_observed_information_oracles(problem, spec, cohort, theta, method):
    got = problem.observed_information(problem.loglik_and_grad(theta, method))
    assert_matches_dense_information(got, dense_observed_information(theta, spec, cohort, method))
    fd = fd_observed_information(problem, theta, method)
    assert np.max(np.abs(got - fd)) <= 1e-6 * np.max(np.abs(fd))


class TestOracleProperty:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(incomplete_covariate_problems())
    def test_incomplete_covariate_designs_match_dense_oracles(self, problem_case):
        spec, cohort, theta = problem_case
        problem = MixedModelProblem(spec, cohort)
        for method in ("REML", "ML"):
            want = dense_stacked_loglik(theta, spec, cohort, method=method)
            assert abs(problem.loglikelihood(theta, method) - want) <= 1e-8
        beta, cov_beta = problem.gls(theta)
        want_beta, want_cov = dense_gls(theta, spec, cohort)
        assert np.max(np.abs(beta - want_beta)) <= 1e-8 * np.max(np.abs(want_beta))
        assert np.max(np.abs(cov_beta - want_cov)) <= 1e-8 * np.max(np.abs(want_cov))
        for method in ("REML", "ML"):
            assert_matches_observed_information_oracles(problem, spec, cohort, theta, method)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(incomplete_covariate_problems())
    def test_expected_information_matches_dense_oracle(self, problem_case):
        spec, cohort, theta = problem_case
        problem = MixedModelProblem(spec, cohort)
        for method in ("REML", "ML"):
            assert_matches_dense_information(
                problem.expected_information(problem.loglik_and_grad(theta, method)),
                dense_expected_information(theta, spec, cohort, method))

    def test_singular_gls_matrix_is_rank_error(self):
        spec, cohort = shared_and_jittered_cohort()
        problem = MixedModelProblem(spec, cohort)
        # zero rotated designs leave X' Sigma^-1 X = 0, which has no Cholesky factor
        problem._x = np.zeros_like(problem._x)
        problem._xx_out = np.zeros_like(problem._xx_out)
        with pytest.raises(RankError, match="GLS"):
            problem.loglikelihood(problem._initial_theta())

class TestGradient:
    @pytest.mark.parametrize("structure", ["diagonal", "unstructured"])
    def test_matches_central_differences(self, structure):
        rng = np.random.default_rng(77)
        cases = [random_tiny_problem(rng, structure) for _ in range(10)]
        for spec, cohort, theta in cases + edge_case_problems(rng, structure):
            problem = MixedModelProblem(spec, cohort)
            grad = problem.loglik_and_grad(theta).grad
            h = 1e-5
            for j in range(theta.size):
                e = np.zeros_like(theta)
                e[j] = h
                fd = (problem.loglikelihood(theta + e) - problem.loglikelihood(theta - e)) / (2 * h)
                # flat directions compare absolutely (finite differencing
                # cannot resolve a zero gradient beyond roundoff)
                if max(abs(fd), abs(grad[j])) < 1e-6:
                    assert abs(grad[j] - fd) <= 1e-7
                else:
                    assert abs(grad[j] - fd) / max(abs(fd), abs(grad[j])) <= 1e-5


class TestExpectedInformation:
    @pytest.mark.parametrize("structure", ["diagonal", "unstructured"])
    @pytest.mark.parametrize("method", ["REML", "ML"])
    def test_matches_dense_oracle_on_edge_cases(self, structure, method):
        rng = np.random.default_rng(23)
        for spec, cohort, theta in edge_case_problems(rng, structure):
            problem = MixedModelProblem(spec, cohort)
            got = problem.expected_information(problem.loglik_and_grad(theta, method))
            assert_matches_dense_information(
                got, dense_expected_information(theta, spec, cohort, method))

    def test_cholesky_curvature_matches_second_differences(self):
        # the observed information, Cholesky curvature included, is minus
        # the second differences of the log-likelihood itself
        rng = np.random.default_rng(29)
        spec, cohort, theta = edge_case_problems(rng, "unstructured")[1]
        problem = MixedModelProblem(spec, cohort)
        ll = problem.loglikelihood
        k, h = theta.size, 1e-4
        steps = h * np.eye(k)
        fd = -np.array([[(ll(theta + steps[j] + steps[l]) - ll(theta + steps[j] - steps[l])
                          - ll(theta - steps[j] + steps[l]) + ll(theta - steps[j] - steps[l]))
                         / (4.0 * h * h) for l in range(k)] for j in range(k)])
        want = problem.observed_information(problem.loglik_and_grad(theta, "REML"))
        assert np.max(np.abs(fd - want)) <= 1e-6 * np.max(np.abs(want))


class TestObservedInformation:
    @pytest.mark.parametrize("structure", ["diagonal", "unstructured"])
    @pytest.mark.parametrize("method", ["REML", "ML"])
    def test_matches_dense_and_difference_oracles_on_edge_cases(self, structure, method):
        rng = np.random.default_rng(31)
        for spec, cohort, theta in edge_case_problems(rng, structure):
            assert_matches_observed_information_oracles(MixedModelProblem(spec, cohort), spec,
                                                        cohort, theta, method)


class TestGLS:
    @pytest.mark.parametrize("structure", ["diagonal", "unstructured"])
    def test_cov_beta_derivatives_match_central_differences(self, structure):
        rng = np.random.default_rng(91)
        cases = [random_tiny_problem(rng, structure) for _ in range(5)]
        for spec, cohort, theta in cases + edge_case_problems(rng, structure):
            problem = MixedModelProblem(spec, cohort)
            dphis = problem.cov_beta_derivatives(problem.loglik_and_grad(theta))
            assert len(dphis) == theta.size
            h = 1e-5
            for j in range(theta.size):
                e = np.zeros_like(theta)
                e[j] = h
                fd = (problem.gls(theta + e)[1] - problem.gls(theta - e)[1]) / (2 * h)
                size = max(np.max(np.abs(fd)), np.max(np.abs(dphis[j])))
                err = np.max(np.abs(dphis[j] - fd))
                if size < 1e-6:
                    assert err <= 1e-7
                else:
                    assert err / size <= 1e-5

    def test_reduces_to_ols_with_zero_random_variance(self):
        spec = poly_spec(2)
        cohort = simulate(spec, [300.0, 10.0, -5.0], np.diag([40.0, 20.0, 10.0]),
                          9.0, n_subjects=8, seed=3)
        params = CovarianceParams.from_moments("diagonal", np.zeros((3, 3)), 1.0)
        beta, _ = MixedModelProblem(spec, cohort).gls(params.theta)
        ctx = a.BasisContext(spec, cohort)
        xs = np.vstack([a.build_design(spec, s, ctx).X for s in cohort])
        ys = np.concatenate([s.y for s in cohort])
        ols = np.linalg.lstsq(xs, ys, rcond=None)[0]
        np.testing.assert_allclose(beta, ols, atol=1e-8)

    def test_balanced_orthonormal_projection(self):
        # with S = Z orthonormal and shared across subjects, GLS is the
        # average of the per-subject basis projections S'y_i
        spec = a.ModelSpec(
            fixed=a.BasisDescriptor("orthonormal_poly", 2),
            random=a.BasisDescriptor("orthonormal_poly", 2),
            reference_grid_points=24,
        )
        cfg = a.SimulationConfig(
            spec=spec, beta=np.array([500.0, -10.0, 5.0]),
            sigma_d=np.diag([50.0, 30.0, 10.0]), sigma2=16.0, n_subjects=15, seed=21,
            base_times=TimeGrid.equispaced(24).points,
        )
        cohort = a.simulate_cohort(cfg)
        params = CovarianceParams.from_moments("diagonal", np.diag([50.0, 30.0, 10.0]), 16.0)
        beta, _ = MixedModelProblem(spec, cohort).gls(params.theta)
        ctx = a.BasisContext(spec, cohort)
        s0 = ctx.fixed_time_matrix(cohort.subjects[0].times)
        proj = np.mean([s0.T @ s.y for s in cohort], axis=0)
        np.testing.assert_allclose(beta, proj, atol=1e-8)

    def test_saturated_single_subject_interpolates(self):
        spec = poly_spec(3)
        times = TimeGrid(np.array([2.0, 8.0, 14.0, 20.0]))
        y = np.array([100.0, 130.0, 90.0, 110.0])
        cohort = a.Cohort(subjects=(a.Subject(id="s", times=times, y=y),))
        params = CovarianceParams.from_moments("diagonal", np.diag([1.0] * 4), 1.0)
        beta, _ = MixedModelProblem(spec, cohort).gls(params.theta)
        ctx = a.BasisContext(spec, cohort)
        x = a.build_design(spec, cohort.subjects[0], ctx).X
        np.testing.assert_allclose(x @ beta, y, atol=1e-7)


def tight_lbfgsb_loglik(problem, method="REML"):
    """One L-BFGS-B run from the fit's start to a projected gradient of 1e-9,
    polished by projected Newton steps on the finite-difference observed
    information.  L-BFGS-B's ``ftol`` stop can end it short of the optimum
    by an amount that moves with the gradient's last bits; the polished
    value is kept only if it is not lower."""
    from scipy.optimize import Bounds, minimize

    lo, hi = problem._bounds()

    def negated(th):
        ev = problem.loglik_and_grad(th, method)
        return -ev.loglik, -ev.grad

    res = minimize(negated, np.clip(problem._initial_theta(), lo, hi), jac=True,
                   method="L-BFGS-B", bounds=Bounds(lo, hi),
                   options={"maxiter": 20_000, "ftol": 1e-15, "gtol": 1e-9})
    ev = problem.loglik_and_grad(res.x, method)
    for _ in range(10):
        theta, grad = ev.theta, ev.grad
        # components at a bound whose gradient pushes outward stay there
        free = ~(((theta <= lo + 1e-12) & (grad < 0)) | ((theta >= hi - 1e-12) & (grad > 0)))
        info = fd_observed_information(problem, theta, method)[np.ix_(free, free)]
        eig, vec = np.linalg.eigh(info)
        step = vec @ ((vec.T @ grad[free]) / np.maximum(eig, 1e-8 * max(eig.max(), 1.0)))
        for shrink in 0.5 ** np.arange(30):
            trial = theta.copy()
            trial[free] += shrink * step
            trial = problem.loglik_and_grad(np.clip(trial, lo, hi), method)
            if trial.loglik > ev.loglik:
                break
        else:
            break  # no step along the Newton direction gains
        ev = trial
    return max(-float(res.fun), ev.loglik)


@st.composite
def cohorts_and_permutations(draw):
    """A simulated cohort, possibly incomplete, and the same subjects in
    another order."""
    degree = draw(st.integers(1, 2))
    spec = poly_spec(degree, draw(st.sampled_from(["diagonal", "unstructured"])))
    n_subjects = draw(st.integers(6, 20))
    cohort = simulate(spec, [450.0, -12.0, 6.0][: degree + 1],
                      np.diag([70.0, 40.0, 20.0][: degree + 1]), 25.0,
                      n_subjects=n_subjects, seed=draw(st.integers(0, 2**16)),
                      missing_rate=draw(st.sampled_from([0.0, 0.1, 0.25])))
    order = draw(st.permutations(range(n_subjects)))
    return spec, cohort, a.Cohort(subjects=tuple(cohort.subjects[i] for i in order))


def sweep_cohorts(count):
    """The first ``count`` cohorts of a sweep over boundary optima: degree
    2-4, each variance U(1, 100) zeroed with probability 0.6, sigma^2 =
    10^U(-2, 0), 8-60 subjects and a missing rate U(0, 0.3)."""
    rng = np.random.default_rng(2026)
    for seed in range(count):
        degree = int(rng.integers(2, 5))
        variances = rng.uniform(1.0, 100.0, degree + 1)
        variances[rng.random(degree + 1) < 0.6] = 0.0
        sigma2 = 10.0 ** rng.uniform(-2.0, 0.0)
        n_subjects, missing_rate = int(rng.integers(8, 61)), rng.uniform(0.0, 0.3)
        spec = poly_spec(degree)
        yield spec, simulate(spec, np.linspace(100.0, 10.0, degree + 1), np.diag(variances),
                             sigma2, n_subjects=n_subjects, seed=seed, missing_rate=missing_rate)


class TestFit:
    def test_intercept_only_sigma2_is_sample_variance(self):
        # one subject, random intercept: REML leaves sigma2 identified as
        # the (n-1)-denominator sample variance
        rng = np.random.default_rng(4)
        y = rng.normal(100.0, 8.0, size=40)
        times = TimeGrid(np.linspace(0.2, 23.8, 40))
        cohort = a.Cohort(subjects=(a.Subject(id="only", times=times, y=y),))
        fitted = a.fit(poly_spec(0), cohort, tol=1e-10)
        assert abs(fitted.sigma2_hat - np.var(y, ddof=1)) <= 1e-8

    def test_identical_subjects_floor_random_variances(self):
        times = TimeGrid.hourly_midpoints()
        y = 110.0 + 5.0 * np.sin(times.points / 4.0)
        subjects = tuple(a.Subject(id=f"s{i}", times=times, y=y) for i in range(6))
        fitted = a.fit(poly_spec(1), a.Cohort(subjects=subjects))
        assert np.all(np.diag(fitted.sigma_d_hat) <= 1e-10)

    def test_permutation_invariance(self):
        spec = poly_spec(2)
        cohort = simulate(spec, [450.0, -12.0, 6.0], np.diag([70.0, 40.0, 20.0]),
                          25.0, n_subjects=20, seed=8, missing_rate=0.15)
        f1 = a.fit(spec, cohort)
        shuffled = a.Cohort(subjects=tuple(reversed(cohort.subjects)))
        f2 = a.fit(spec, shuffled)
        np.testing.assert_allclose(f1.beta_hat, f2.beta_hat, atol=1e-10)
        np.testing.assert_allclose(f1.sigma_d_hat, f2.sigma_d_hat, atol=1e-10)
        assert abs(f1.loglik - f2.loglik) <= 1e-10

    def test_ascent_history_nondecreasing(self, monkeypatch):
        calls = record_problem_calls(monkeypatch, ["observed_information"])
        # degree 2 at a coarse tolerance converges on Fisher scoring steps
        # alone; degree 4 at the default tolerance ends in Newton steps on the
        # observed information, which count as iterations too
        for degree, seed, tol, scored in ((2, 13, 1e-2, False), (4, 14, 1e-6, True)):
            spec = poly_spec(degree)
            cohort = simulate(spec, [450.0, -12.0, 6.0, 3.0, -2.0][: degree + 1],
                              np.diag([70.0, 40.0, 20.0, 10.0, 5.0][: degree + 1]),
                              25.0, n_subjects=25, seed=seed)
            calls.clear()
            fitted = a.fit(spec, cohort, tol=tol)
            assert fitted.converged
            # the Newton steps' information matrices are those inside the
            # ascent; the fit computes one more for inference at its end
            assert any(inside for _, inside in calls) == scored
            assert [inside for _, inside in calls].count(False) == 1
            hist = np.asarray(fitted.ascent_history)
            assert hist.size == fitted.iterations >= 2
            drops = np.diff(hist)
            # accepted steps never lose more than roundoff
            assert np.all(drops >= -1e-7 * np.maximum(np.abs(hist[:-1]), 1.0))

    def test_ascent_history_is_neither_shown_nor_written(self, small_fit):
        _, _, fitted = small_fit
        assert len(fitted.ascent_history) == fitted.iterations
        text = serialize.fitted_model_to_json(fitted)
        assert "ascent_history" not in text
        assert "ascent_history" not in repr(fitted)
        assert serialize.fitted_model_from_json(text).ascent_history == []

    def test_iteration_cap_reports_nonconvergence(self):
        spec = poly_spec(2)
        cohort = simulate(spec, [450.0, -12.0, 6.0], np.diag([70.0, 40.0, 20.0]),
                          25.0, n_subjects=25, seed=14)
        fitted = a.fit(spec, cohort, max_iter=1)
        assert not fitted.converged
        assert np.all(np.isfinite(fitted.beta_hat))

    def test_converged_gradient_below_tolerance(self, small_fit):
        _, _, fitted = small_fit
        assert fitted.converged
        assert fitted.gradient_norm <= 1e-6

    def test_unstructured_recovers_cross_covariance(self):
        spec = poly_spec(1, "unstructured")
        sd = np.array([[60.0, 15.0], [15.0, 30.0]])
        cohort = simulate(spec, [400.0, -18.0], sd, 9.0, n_subjects=400, seed=5)
        fitted = a.fit(spec, cohort)
        assert fitted.converged
        np.testing.assert_allclose(fitted.sigma_d_hat, sd, rtol=0.25, atol=3.0)

    def test_diagonal_converges_in_fewer_iterations_than_unstructured(self):
        spec_d = poly_spec(2, "diagonal")
        spec_u = poly_spec(2, "unstructured")
        wins = 0
        for rep in range(20):
            cohort = simulate(spec_d, [450.0, -15.0, 8.0], np.diag([80.0, 40.0, 20.0]),
                              16.0, n_subjects=30, seed=1000 + rep)
            fd = a.fit(spec_d, cohort)
            fu = a.fit(spec_u, cohort)
            if fd.iterations <= fu.iterations:
                wins += 1
        assert wins >= 16

    @pytest.mark.parametrize("structure, seed",
                             [("diagonal", 21), ("unstructured", 28), ("unstructured", 37)])
    def test_zero_variance_component_reaches_reference_optimum(self, structure, seed):
        # the middle random variance is zero, so the optimum is on the
        # boundary; second-phase steps without the Cholesky curvature left
        # both unstructured fits at the iteration cap
        spec = poly_spec(2, structure)
        cohort = simulate(spec, [450.0, -12.0, 6.0], np.diag([70.0, 0.0, 20.0]), 25.0,
                          n_subjects=40, seed=seed)
        problem = MixedModelProblem(spec, cohort)
        fitted = problem.fit()
        assert fitted.converged
        if structure == "diagonal":
            assert fitted.sigma_d_hat[1, 1] == 0.0
        want = tight_lbfgsb_loglik(problem)
        assert abs(fitted.loglik - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("method", ["REML", "ML"])
    def test_diagonal_boundary_optima_meet_kkt_and_the_reference(self, method):
        # the first 12 cohorts of a sweep with most variances zero and a
        # small sigma^2: each exact zero must have a gradient that does not
        # push inward, s0^2 d loglik / dv <= tol, and no fit may end below
        # the polished L-BFGS-B optimum on the log scale
        zeros = 0
        for spec, cohort in sweep_cohorts(12):
            problem = MixedModelProblem(spec, cohort)
            fitted = problem.fit(method=method)
            assert fitted.converged
            v = np.diag(fitted.sigma_d_hat)
            grad = problem.loglik_and_grad(np.append(v, fitted.sigma2_hat), method,
                                           natural=True).grad
            assert np.all(np.exp(problem._log_s2) * grad[:-1][v == 0.0] <= 1e-6)
            zeros += int(np.sum(v == 0.0))
            want = tight_lbfgsb_loglik(problem, method)
            assert fitted.loglik >= want - 1e-10 * abs(want)
        assert zeros >= 9  # REML has 9 exact zeros on these cohorts, ML 10

    def test_degree_nine_unstructured_converges_at_default_cap(self):
        # the paper's 56-parameter model on a complete paper-scale cohort
        # with the criterion-10 variances; its optimum is near the boundary
        spec = poly_spec(9, "unstructured")
        cohort = simulate(spec, [700.0, -60.0, 45.0, -35.0, 28.0, -22.0, 18.0, -14.0, 11.0, -9.0],
                          np.diag([120.0, 70.0, 45.0, 30.0, 20.0, 14.0, 10.0, 7.0, 5.0, 4.0]),
                          16.0, n_subjects=357, seed=3)
        problem = MixedModelProblem(spec, cohort)
        fitted = problem.fit()
        assert fitted.converged
        want = tight_lbfgsb_loglik(problem)
        assert abs(fitted.loglik - want) <= 1e-10 * abs(want)

    def test_degree_nine_unstructured_incomplete_converges_at_default_cap(self):
        # 400 subjects with 10% missing: 279 distinct designs and an optimum
        # near the boundary, where a quasi-Newton first phase stopped at the
        # cap with a projected gradient of 4.7e-2
        spec = poly_spec(9, "unstructured")
        cohort = simulate(spec, [700.0, -60.0, 45.0, -35.0, 28.0, -22.0, 18.0, -14.0, 11.0, -9.0],
                          np.diag([120.0, 70.0, 45.0, 30.0, 20.0, 14.0, 10.0, 7.0, 5.0, 4.0]),
                          16.0, n_subjects=400, seed=3, missing_rate=0.1)
        fitted = a.fit(spec, cohort)
        assert fitted.converged and fitted.gradient_norm <= 1e-6
        assert fitted.iterations < 500
        hist = np.asarray(fitted.ascent_history)
        assert np.all(np.diff(hist) >= 0.0)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(cohorts_and_permutations())
    def test_subject_order_invariance(self, case):
        spec, cohort, permuted = case
        f1, f2 = a.fit(spec, cohort), a.fit(spec, permuted)
        assert f1.params.theta.tobytes() == f2.params.theta.tobytes()
        assert f1.loglik == f2.loglik
        assert f1.iterations == f2.iterations
        for name in ("beta_hat", "cov_beta", "vcov_theta", "cov_beta_derivatives"):
            assert getattr(f1, name).tobytes() == getattr(f2, name).tobytes(), name

    def test_pooled_rank_deficiency_detected(self):
        # one observation per subject cannot support a slope
        subs = tuple(
            a.Subject(id=f"s{i}", times=TimeGrid(np.array([12.0])), y=np.array([100.0 + i]))
            for i in range(4)
        )
        with pytest.raises(RankError, match="pooled fixed-effect design is rank deficient"):
            a.fit(poly_spec(1), a.Cohort(subjects=subs))


def incomplete_cohort(structure):
    spec = poly_spec(3, structure)
    cohort = simulate(spec, [450.0, -12.0, 6.0, 3.0], np.diag([70.0, 40.0, 20.0, 10.0]), 25.0,
                      n_subjects=30, seed=16, missing_rate=0.1)
    return spec, cohort


def flat_bytes(result):
    """The bytes of a float, an array or a tuple of them."""
    parts = result if isinstance(result, tuple) else (result,)
    return b"".join(np.asarray(part, dtype=float).tobytes() for part in parts)


class TestCholeskyJitter:
    """``_evaluate`` factorizes the stacked marginal covariances once; if
    that fails it adds a 1e-10 relative jitter and tries once more."""

    @staticmethod
    def failing_batched_cholesky(monkeypatch, failures):
        """Make the first ``failures`` stacked (3-D) ``np.linalg.cholesky``
        calls raise ``LinAlgError``; the other calls factorize as before.
        Returns the list holding the number of failures still to come."""
        cholesky, left = np.linalg.cholesky, [failures]

        def failing(a):
            if np.ndim(a) == 3 and left[0] > 0:
                left[0] -= 1
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        return left

    @staticmethod
    def problem(structure):
        spec = poly_spec(3, structure)
        sigma_d = np.diag([60.0, 30.0, 15.0, 8.0])
        cohort = simulate(spec, [120.0, -8.0, 4.0, -2.0], sigma_d, 16.0, 40, seed=9)
        theta = CovarianceParams.from_moments(structure, sigma_d, 16.0).theta
        return spec, cohort, theta

    @pytest.mark.parametrize("structure", ["diagonal", "unstructured"])
    def test_one_failure_is_jittered_away(self, structure, monkeypatch):
        spec, cohort, theta = self.problem(structure)
        want = MixedModelProblem(spec, cohort).loglikelihood(theta, "REML")
        problem = MixedModelProblem(spec, cohort)
        left = self.failing_batched_cholesky(monkeypatch, 1)
        got = problem.loglikelihood(theta, "REML")
        assert left == [0]
        assert abs(got - want) <= 1e-8 * abs(want)

    @pytest.mark.parametrize("structure", ["diagonal", "unstructured"])
    def test_a_second_failure_is_a_conditioning_error(self, structure, monkeypatch, tmp_path,
                                                       capsys):
        spec, cohort, theta = self.problem(structure)
        problem = MixedModelProblem(spec, cohort)
        self.failing_batched_cholesky(monkeypatch, np.inf)
        with pytest.raises(ConditioningError, match="not factorizable"):
            problem._evaluate(theta, "REML")
        write_cohort(tmp_path / "cohort.csv", cohort)
        (tmp_path / "spec.json").write_text(serialize.model_spec_to_json(spec))
        code = main(["fit", "--model", str(tmp_path / "spec.json"),
                     "--data", str(tmp_path / "cohort.csv"), "--out", str(tmp_path / "fit")])
        assert code == 2
        assert "error: ConditioningError: marginal covariance not factorizable" in (
            capsys.readouterr().err)


class TestEvaluationReuse:
    @staticmethod
    def record_evaluations(monkeypatch):
        """A list that receives ((method, natural, theta bytes), result) for
        every ``_evaluate`` call."""
        calls = []
        evaluate = MixedModelProblem._evaluate

        def recording(self, theta, method, natural=False):
            out = evaluate(self, theta, method, natural)
            calls.append(((method, natural, np.asarray(theta, dtype=float).tobytes()), out))
            return out

        monkeypatch.setattr(MixedModelProblem, "_evaluate", recording)
        return calls

    @pytest.mark.parametrize("method", ["REML", "ML"])
    @pytest.mark.parametrize("structure", ["diagonal", "unstructured"])
    def test_each_theta_evaluated_once_per_fit(self, structure, method, monkeypatch):
        spec, cohort = incomplete_cohort(structure)
        assert MixedModelProblem(spec, cohort)._count.size > 1
        calls = self.record_evaluations(monkeypatch)
        optimize, returned, passed = MixedModelProblem._optimize, [], []

        def optimizing(self, *args, **kwargs):
            out = optimize(self, *args, **kwargs)
            returned.append(len(calls))
            return out

        def passing(name):
            orig = getattr(MixedModelProblem, name)

            def wrapper(self, ev):
                passed.append(ev)
                return orig(self, ev)
            return wrapper

        monkeypatch.setattr(MixedModelProblem, "_optimize", optimizing)
        for name in ("expected_information", "observed_information", "cov_beta_derivatives"):
            monkeypatch.setattr(MixedModelProblem, name, passing(name))
        fitted = a.fit(spec, cohort, method=method)
        assert fitted.converged
        keys = [key for key, _ in calls]
        assert len(keys) == len(set(keys)) > fitted.iterations
        # nothing is evaluated after the ascent: the information at each
        # accepted point and the fit's end take evaluations the ascent made
        assert returned == [len(calls)]
        made = {id(out) for _, out in calls}
        assert len(passed) == fitted.iterations + 2
        assert all(id(ev) in made for ev in passed)

    @pytest.mark.parametrize("method", ["REML", "ML"])
    @pytest.mark.parametrize("structure", ["diagonal", "unstructured"])
    def test_jacobian_built_once_per_theta(self, structure, method, monkeypatch):
        spec, cohort = incomplete_cohort(structure)
        calls = self.record_evaluations(monkeypatch)
        jacobians = []
        jacobian = estimation.covariance_jacobian

        def recording(structure, m, theta):
            jacobians.append(np.asarray(theta, dtype=float).tobytes())
            return jacobian(structure, m, theta)

        monkeypatch.setattr(estimation, "covariance_jacobian", recording)
        assert a.fit(spec, cohort, method=method).converged
        # the gradient, the informations and d cov_beta / d theta reuse the
        # Jacobian kept with the evaluation; the diagonal ascent's is a constant
        built = len({key for key, _ in calls}) if structure == "unstructured" else 0
        assert len(jacobians) == len(set(jacobians)) == built

    @pytest.mark.parametrize("structure", ["diagonal", "unstructured"])
    def test_no_tril_indices_after_problem_setup(self, structure, monkeypatch):
        spec, cohort = incomplete_cohort(structure)
        estimation.index_plan.cache_clear()
        calls, set_up = [], []
        tril_indices, init = np.tril_indices, MixedModelProblem.__init__

        def recording(*args, **kwargs):
            calls.append(bool(set_up))
            return tril_indices(*args, **kwargs)

        def initializing(self, *args, **kwargs):
            init(self, *args, **kwargs)
            set_up.append(True)

        monkeypatch.setattr(np, "tril_indices", recording)
        monkeypatch.setattr(MixedModelProblem, "__init__", initializing)
        fitted = a.fit(spec, cohort)
        inference.variance_component_table(fitted)
        # the unstructured index plan is built once, while the problem is set up
        assert calls == ([False] if structure == "unstructured" else [])

    @pytest.mark.parametrize("structure", ["diagonal", "unstructured"])
    def test_interleaved_calls_match_a_fresh_problem(self, structure):
        spec, cohort = incomplete_cohort(structure)
        problem = MixedModelProblem(spec, cohort)
        theta1 = problem._initial_theta()
        theta2 = theta1 + 0.3

        def call(problem, name, theta, method):
            if name == "gls":
                return problem.gls(theta)
            if name == "loglikelihood":
                return problem.loglikelihood(theta, method)
            ev = problem.loglik_and_grad(theta, method)
            return (ev.loglik, ev.grad) if name == "loglik_and_grad" else getattr(problem, name)(ev)

        for name, theta, method in [
                ("loglik_and_grad", theta1, "REML"), ("gls", theta1, "REML"),
                ("observed_information", theta2, "REML"), ("expected_information", theta1, "REML"),
                ("loglik_and_grad", theta1, "ML"), ("cov_beta_derivatives", theta1, "ML"),
                ("loglikelihood", theta1, "REML"), ("gls", theta2, "ML"),
                ("observed_information", theta1, "ML"), ("observed_information", theta1, "REML"),
                # a Jacobian or product left over from another theta or method shows here
                ("expected_information", theta2, "REML"), ("loglik_and_grad", theta1, "REML"),
                ("cov_beta_derivatives", theta2, "REML"), ("observed_information", theta1, "ML")]:
            got = call(problem, name, theta, method)
            want = call(MixedModelProblem(spec, cohort), name, theta, method)
            assert flat_bytes(got) == flat_bytes(want), (name, method)

    @pytest.mark.parametrize("structure", ["diagonal", "unstructured"])
    def test_fit_leaves_the_problem_as_set_up(self, structure):
        spec, cohort = incomplete_cohort(structure)
        problem = MixedModelProblem(spec, cohort)
        state = dict(vars(problem))
        contents = {k: v.tobytes() for k, v in state.items() if isinstance(v, np.ndarray)}
        assert problem.fit().converged
        assert vars(problem).keys() == state.keys()
        assert all(vars(problem)[k] is v for k, v in state.items())
        assert all(state[k].tobytes() == v for k, v in contents.items())

    def test_kept_evaluation_is_read_only(self):
        spec, cohort = incomplete_cohort("diagonal")
        problem = MixedModelProblem(spec, cohort)
        theta = problem._initial_theta()
        ev = problem._evaluate(theta, "REML")
        assert not np.shares_memory(ev.theta, theta)
        for array in ev[4:]:  # past the method, natural, loglik and sigma^2
            with pytest.raises(ValueError):
                array[...] = 0.0
        # gls hands out arrays of its own, so writing to them changes no later call
        want = flat_bytes(problem.gls(theta))
        for array in problem.gls(theta):
            array[...] = 0.0
        assert flat_bytes(problem.gls(theta)) == want


def test_sigma_d_from_theta_unstructured_is_cholesky_square():
    theta = np.array([0.2, 0.5, -0.1, 0.3])  # lower triangle + log sigma2
    sd = sigma_d_from_theta("unstructured", 2, theta)
    l = np.array([[np.exp(0.2), 0.0], [0.5, np.exp(-0.1)]])
    np.testing.assert_allclose(sd, l @ l.T, atol=1e-12)


def test_variance_floor_reported_as_zero():
    theta = np.array([LOG_VARIANCE_FLOOR, 0.0])
    sd = sigma_d_from_theta("diagonal", 1, theta)
    assert sd[0, 0] <= np.exp(LOG_VARIANCE_FLOOR) * 1.0000001


@pytest.mark.parametrize("fixed, random, orthonormalize_random", [
    (a.BasisDescriptor("orthonormal_poly", 2), a.BasisDescriptor("orthonormal_poly", 1), True),
    (a.BasisDescriptor("restricted_cubic_spline",
                       knots=tuple(clock_knots_to_elapsed(DEFAULT_SPLINE_CLOCK_KNOTS, 12.0))),
     a.BasisDescriptor("natural_poly", 1), True),
    (a.BasisDescriptor("natural_poly", 2), a.BasisDescriptor("natural_poly", 1), False),
])
def test_fitted_model_survives_a_pickle_round_trip(fixed, random, orthonormalize_random):
    spec = a.ModelSpec(fixed=fixed, random=random, orthonormalize_random=orthonormalize_random)
    cohort = simulate(poly_spec(2), [400.0, -15.0, 8.0], np.diag([60.0, 20.0, 10.0]), 16.0,
                      n_subjects=12, seed=9)
    fitted = a.fit(spec, cohort)
    back = pickle.loads(pickle.dumps(fitted))
    grid = TimeGrid.hourly_midpoints()
    for got, want in zip(back.context.time_matrices(grid), fitted.context.time_matrices(grid)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert back.beta_hat.tobytes() == fitted.beta_hat.tobytes()


def test_unpickled_grid_and_coefficient_table_stay_read_only():
    # numpy unpickles arrays writeable; the basis dataclasses promise read-only ones
    spec = poly_spec(2)
    fitted = a.fit(spec, simulate(spec, [400.0, -15.0, 8.0], np.diag([60.0, 20.0, 10.0]), 16.0,
                                  n_subjects=12, seed=9))
    want = fitted.context._fixed.args[0]
    for back in (pickle.loads(pickle.dumps(fitted.context)),
                 pickle.loads(pickle.dumps(fitted)).context):
        coeffs = back._fixed.args[0]
        assert (coeffs.degree, coeffs.offset, coeffs.scale) == (want.degree, want.offset,
                                                                want.scale)
        for got, was in ((back.reference_grid.points, fitted.context.reference_grid.points),
                         (coeffs.coeffs, want.coeffs)):
            assert got.tobytes() == was.tobytes()
            with pytest.raises(ValueError):
                got[...] = 0.0


def shared_and_jittered_cohort():
    """36 subjects with a group (diet) and an interaction (age) term:
    12 complete hourly subjects over six (diet, age) encodings, 12 with
    10% of the hours missing, 12 with jittered times and 10% missing."""
    rng = np.random.default_rng(77)
    hours = np.arange(24.0) + 0.5
    subjects = []
    for i in range(36):
        times = hours if i < 12 else hours[rng.random(24) >= 0.1]
        if i >= 24:
            times = times + rng.uniform(-0.25, 0.25, size=times.size)
        diet = ("salt", "control", "dash")[i % 3]
        age = 30.0 + 6.0 * (i % 2)
        y = (120.0 + 5.0 * (diet == "salt") + 0.2 * age
             + 8.0 * np.sin(2.0 * np.pi * times / 24.0) + rng.normal(0.0, 5.0)
             + rng.normal(0.0, 3.0, size=times.size))
        subjects.append(a.Subject(id=f"j{i:02d}", times=TimeGrid(times), y=y,
                                  covariates={"diet": diet, "age": age}))
    spec = a.ModelSpec(fixed=a.BasisDescriptor("orthonormal_poly", 2),
                       random=a.BasisDescriptor("orthonormal_poly", 1),
                       group_terms=("diet",), interaction_terms=("age",))
    return spec, a.Cohort(subjects=tuple(subjects))


class TestDesignSharing:
    @pytest.mark.parametrize("method", ["REML", "ML"])
    def test_shared_and_jittered_designs_match_dense_oracles(self, method):
        spec, cohort = shared_and_jittered_cohort()
        problem = MixedModelProblem(spec, cohort)
        distinct = {(s.times.points.tobytes(), s.covariates["diet"], s.covariates["age"])
                    for s in cohort}
        assert problem._count.size == len(distinct) < len(cohort)
        theta = problem._initial_theta() + 0.1
        want = dense_stacked_loglik(theta, spec, cohort, method=method)
        assert abs(problem.loglikelihood(theta, method) - want) <= 1e-8
        beta, cov_beta = problem.gls(theta)
        want_beta, want_cov = dense_gls(theta, spec, cohort)
        assert np.max(np.abs(beta - want_beta)) <= 1e-8 * np.max(np.abs(want_beta))
        assert np.max(np.abs(cov_beta - want_cov)) <= 1e-8 * np.max(np.abs(want_cov))
        assert_matches_dense_information(
            problem.expected_information(problem.loglik_and_grad(theta, method)),
            dense_expected_information(theta, spec, cohort, method))
        assert_matches_observed_information_oracles(problem, spec, cohort, theta, method)

    def test_one_build_and_one_qr_per_observation_count(self, monkeypatch):
        spec, cohort = shared_and_jittered_cohort()
        builds, factored = [], []
        build, qr = estimation.build_design, np.linalg.qr
        monkeypatch.setattr(estimation, "build_design",
                            lambda *args: builds.append(args[1].n_obs) or build(*args))
        monkeypatch.setattr(np.linalg, "qr",
                            lambda z, **kw: factored.append(z.shape) or qr(z, **kw))
        problem = MixedModelProblem(spec, cohort)
        # one design on the union of the observation times
        assert builds == [np.unique(np.concatenate([s.times.points for s in cohort])).size]
        # one stacked QR per observation count, each distinct design in exactly one
        assert sorted(shape[1] for shape in factored) == sorted({s.n_obs for s in cohort})
        assert sum(shape[0] for shape in factored) == problem._count.size

    @pytest.mark.parametrize("random_degree", [2, 1])
    def test_a_basis_shared_by_x_and_z_is_evaluated_once_per_problem(self, random_degree,
                                                                    monkeypatch):
        spec, cohort = shared_and_jittered_cohort()
        spec = dataclasses.replace(spec, random=a.BasisDescriptor("orthonormal_poly",
                                                                  random_degree))
        per_design = 1 if spec.random == spec.fixed else 2
        calls = []
        evaluate = basis.evaluate_polynomial_basis
        monkeypatch.setattr(basis, "evaluate_polynomial_basis",
                            lambda *args: calls.append(args[1]) or evaluate(*args))
        MixedModelProblem(spec, cohort)
        assert len(calls) == per_design
        calls.clear()
        config = a.SimulationConfig(spec=dataclasses.replace(spec, group_terms=(),
                                                             interaction_terms=()),
                                    beta=np.array([120.0, -5.0, 2.0]),
                                    sigma_d=np.eye(random_degree + 1), sigma2=4.0,
                                    n_subjects=5, seed=3, missing_rate=0.1)
        a.simulate_cohort(config)
        assert len(calls) == per_design * 5
