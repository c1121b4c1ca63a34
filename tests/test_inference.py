import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import abpmix as a
from abpmix import serialize
from abpmix.basis import TimeGrid
from abpmix.errors import ComparisonError, ContrastError, StateError
from abpmix.estimation import MixedModelProblem, sigma_d_from_theta
from abpmix.inference import (
    Contrast,
    _r2_from_f,
    assert_comparable,
    f_test,
    information_criteria,
    per_column_tests,
    r2_statistics,
    variance_component_table,
)

from conftest import dense_observed_information, poly_spec, simulate


def one_way_cohort(n_subjects, p, seed, mu=100.0, tau2=25.0, sigma2=9.0):
    """Balanced random-intercept data: y_it = mu + b_i + e_it."""
    rng = np.random.default_rng(seed)
    times = TimeGrid.hourly_midpoints().points[:p]
    subs = []
    for i in range(n_subjects):
        b = rng.normal(0.0, np.sqrt(tau2))
        y = mu + b + rng.normal(0.0, np.sqrt(sigma2), size=p)
        subs.append(a.Subject(id=f"s{i}", times=TimeGrid(times), y=y))
    return a.Cohort(subjects=tuple(subs))


class TestSatterthwaite:
    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_balanced_one_way_intercept_ddf_is_n_minus_one(self, n):
        cohort = one_way_cohort(n, 12, seed=100 + n)
        fitted = a.fit(poly_spec(0), cohort)
        assert fitted.converged
        res = f_test(fitted, Contrast.for_columns([0], 1, label="intercept"))
        assert abs(res.ddf - (n - 1)) <= 1e-6

    def test_multi_row_ddf_positive(self, small_fit):
        _, _, fitted = small_fit
        res = f_test(fitted, Contrast.for_columns([1, 2], fitted.q))
        assert res.ddf > 0 and res.ndf == 2
        assert 0.0 <= res.p_value <= 1.0


class TestFTest:
    def test_multi_row_f_is_the_wald_quadratic_form(self, small_fit):
        _, _, fitted = small_fit
        rng = np.random.default_rng(5)
        for c in (Contrast.for_columns([1, 2], fitted.q).C, rng.normal(size=(2, fitted.q))):
            cb = c @ fitted.beta_hat
            want = float(cb @ np.linalg.inv(c @ fitted.cov_beta @ c.T) @ cb) / 2
            assert abs(f_test(fitted, Contrast(c)).F - want) <= 1e-10 * want

    def test_zero_contrast_rejected(self, small_fit):
        _, _, fitted = small_fit
        with pytest.raises(ContrastError):
            f_test(fitted, Contrast(np.zeros((1, fitted.q))))

    def test_rank_deficient_contrast_rejected(self, small_fit):
        _, _, fitted = small_fit
        c = np.zeros((2, fitted.q))
        c[0, 1] = 1.0
        c[1, 1] = 2.0
        with pytest.raises(ContrastError):
            f_test(fitted, Contrast(c))

    def test_wrong_width_rejected(self, small_fit):
        _, _, fitted = small_fit
        with pytest.raises(ContrastError):
            f_test(fitted, Contrast(np.eye(fitted.q + 3)))

    def test_non_converged_fit_rejected(self):
        spec = poly_spec(1)
        cohort = simulate(spec, [400.0, -10.0], np.diag([50.0, 20.0]), 16.0,
                          n_subjects=15, seed=2)
        fitted = a.fit(spec, cohort, max_iter=1)
        assert not fitted.converged
        with pytest.raises(StateError):
            f_test(fitted, Contrast.for_columns([0], fitted.q))

    def test_p_value_monotone_in_f(self, small_fit):
        # holding dfs fixed, a larger F must give a smaller p
        p1 = stats.f.sf(2.0, 3, 40.0)
        p2 = stats.f.sf(5.0, 3, 40.0)
        assert p2 < p1
        _, _, fitted = small_fit
        for columns in ([1], [1, 2]):
            contrast = Contrast.for_columns(columns, fitted.q)
            res = f_test(fitted, contrast)
            assert res.p_value == pytest.approx(stats.f.sf(res.F, res.ndf, res.ddf), rel=1e-10)
            # a smaller effect under the same covariance: same dfs, smaller F, larger p
            smaller = f_test(dataclasses.replace(fitted, beta_hat=0.1 * fitted.beta_hat),
                             contrast)
            assert smaller.ddf == pytest.approx(res.ddf, rel=1e-12)
            assert smaller.F < res.F and smaller.p_value > res.p_value

    def test_strong_effect_has_small_p(self, small_fit):
        _, _, fitted = small_fit
        res = f_test(fitted, Contrast.for_columns([0], fitted.q))
        assert res.p_value < 1e-6


class TestInformationCriteria:
    def test_arithmetic(self, small_fit):
        _, _, fitted = small_fit
        aic, bic = information_criteria(fitted)
        r = fitted.n_cov_params
        assert abs(aic - (-2 * fitted.loglik + 2 * r)) < 1e-12
        assert abs(bic - (-2 * fitted.loglik + r * np.log(fitted.n_subjects))) < 1e-12

    def test_worked_example_values(self, small_fit):
        _, _, fitted = small_fit
        # force the documented arithmetic: loglik -100, 3 params, 50 subjects
        import copy

        f2 = copy.copy(fitted)
        f2.loglik = -100.0
        f2.n_subjects = 50
        f2.params = a.CovarianceParams(structure="diagonal", m=2, theta=np.zeros(3))
        aic, bic = information_criteria(f2)
        assert abs(aic - 206.0) < 1e-12
        assert abs(bic - (200.0 + 3 * np.log(50.0))) < 1e-12
        assert abs(bic - 211.7359) < 1e-3

    def test_scale_equivariant_ranking(self):
        # scaling y shifts both logliks by the same model-independent
        # constant, so F, p, R2, and the AIC gap are all unchanged
        spec1 = poly_spec(2)
        spec2 = poly_spec(1)
        cohort = simulate(spec1, [450.0, -20.0, 10.0], np.diag([60.0, 40.0, 20.0]),
                          16.0, n_subjects=40, seed=6)
        k = 3.0
        scaled = a.Cohort(
            subjects=tuple(
                a.Subject(id=s.id, times=s.times, y=k * s.y, covariates=s.covariates)
                for s in cohort
            )
        )
        rankings, fstats, r2s = [], [], []
        for data in (cohort, scaled):
            f1 = a.fit(spec1, data)
            f2 = a.fit(spec2, data)
            a1, b1 = information_criteria(f1)
            a2, b2 = information_criteria(f2)
            rankings.append((a1 < a2, b1 < b2))
            res = f_test(f1, Contrast.for_columns([1, 2], f1.q))
            fstats.append(res.F)
            r2s.append(r2_statistics(f1)[0])
        assert rankings[0] == rankings[1]
        assert abs(fstats[0] - fstats[1]) / fstats[0] < 1e-6
        assert abs(r2s[0] - r2s[1]) < 1e-6


class TestR2:
    def test_zero_f_gives_zero(self):
        assert _r2_from_f(0.0, 1, 30.0) == 0.0

    def test_midpoint_identity(self):
        # one numerator df with F equal to the ddf sits exactly at 1/2
        assert abs(_r2_from_f(35.0, 1, 35.0) - 0.5) < 1e-15

    def test_bounds_and_monotonicity(self):
        vals = [_r2_from_f(f, 2, 50.0) for f in (0.5, 1.0, 4.0, 100.0)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert vals == sorted(vals)

    def test_semi_partial_ordering_tracks_beta_magnitude(self):
        spec = poly_spec(3)
        beta = np.array([300.0, 80.0, 20.0, 5.0])  # geometric decay past intercept
        hits = 0
        for rep in range(20):
            cohort = simulate(spec, beta, np.diag([50.0, 10.0, 10.0, 10.0]), 9.0,
                              n_subjects=50, seed=4000 + rep)
            fitted = a.fit(spec, cohort)
            _, partials = r2_statistics(fitted)
            order = np.argsort([-r for _, r in partials])
            if list(order) == [0, 1, 2]:
                hits += 1
        assert hits >= 18

    def test_model_r2_between_zero_and_one(self, small_fit):
        _, _, fitted = small_fit
        model_r2, partials = r2_statistics(fitted)
        assert 0.0 <= model_r2 < 1.0
        assert len(partials) == fitted.q - 1

    def test_intercept_only_model_has_no_model_term(self):
        fitted = a.fit(poly_spec(0), one_way_cohort(20, 12, seed=7))
        assert fitted.converged and fitted.q == 1
        model_r2, partials = r2_statistics(fitted)
        assert np.isnan(model_r2)
        assert partials == []


class TestComparability:
    def test_same_fixed_structure_allowed(self, small_fit):
        _, cohort, fitted = small_fit
        other = a.fit(poly_spec(2, "unstructured"), cohort)
        assert_comparable([fitted.spec, other.spec], "REML")  # no error: random structure differs

    def test_cross_fixed_structure_refused(self, small_fit):
        _, cohort, fitted = small_fit
        other = a.fit(poly_spec(1), cohort)
        with pytest.raises(ComparisonError):
            assert_comparable([fitted.spec, other.spec], "REML")
        assert_comparable([fitted.spec, other.spec], "REML", force_reml_compare=True)


class TestTables:
    def test_per_column_tests_cover_every_column(self, small_fit):
        _, _, fitted = small_fit
        rows = per_column_tests(fitted)
        assert len(rows) == fitted.q
        assert rows[0][1] == "intercept"

    def test_variance_component_table(self, small_fit):
        _, _, fitted = small_fit
        rows = variance_component_table(fitted)
        names = [r[0] for r in rows]
        assert names == ["var(d0)", "var(d1)", "var(d2)", "sigma2"]
        for _, est, se in rows:
            assert est >= 0.0
            assert np.isfinite(se) and se >= 0.0

    def test_unstructured_ses_match_delta_method(self):
        # an interior fit, so the observed information is positive definite;
        # the oracle is the dense observed information around a central-
        # difference Jacobian of (lower triangle of Sigma_d, sigma^2) in theta
        spec = poly_spec(2, "unstructured")
        sigma_d = np.array([[1200.0, 240.0, -120.0], [240.0, 600.0, 100.0],
                            [-120.0, 100.0, 300.0]])
        cohort = simulate(spec, [450.0, -12.0, 6.0], sigma_d, 4.0, n_subjects=20, seed=17,
                          base_times=np.arange(8) * 3.0 + 1.5)
        fitted = a.fit(spec, cohort)
        assert fitted.converged
        theta = fitted.params.theta
        assert np.linalg.eigvalsh(fitted.sigma_d_hat)[0] > 100.0

        def components(th):
            return np.append(sigma_d_from_theta("unstructured", 3, th)[np.tril_indices(3)],
                             np.exp(th[-1]))

        h = 1e-5
        jac = np.array([(components(theta + e) - components(theta - e)) / (2.0 * h)
                        for e in h * np.eye(theta.size)]).T
        vcov = np.linalg.inv(dense_observed_information(theta, spec, cohort))
        want = np.sqrt(np.diag(jac @ vcov @ jac.T))
        rows = variance_component_table(fitted)
        assert [r[0] for r in rows] == ["var(d0)", "cov(d1,d0)", "var(d1)", "cov(d2,d0)",
                                        "cov(d2,d1)", "var(d2)", "sigma2"]
        np.testing.assert_allclose([se for _, _, se in rows], want, rtol=1e-6)


class TestInferenceCache:
    def test_derivatives_and_information_computed_once_per_fit(self, small_fit,
                                                                monkeypatch):
        fitted = dataclasses.replace(small_fit[2])  # a copy with an empty cache
        calls = []

        def count(name):
            orig = getattr(MixedModelProblem, name)

            def counting(self, *args, **kwargs):
                calls.append(name)
                return orig(self, *args, **kwargs)

            monkeypatch.setattr(MixedModelProblem, name, counting)

        count("cov_beta_derivatives")
        count("observed_information")
        per_column_tests(fitted)
        r2_statistics(fitted)
        variance_component_table(fitted)
        assert sorted(calls) == ["cov_beta_derivatives", "observed_information"]

    def test_cache_is_per_fit_and_never_carried_or_written(self, small_fit):
        fitted = dataclasses.replace(small_fit[2])
        before = per_column_tests(fitted)
        assert fitted.inference_cache
        copy = dataclasses.replace(fitted)
        assert copy.inference_cache == {}
        assert per_column_tests(copy) == before
        assert "inference_cache" not in repr(fitted)
        assert "inference_cache" not in serialize.fitted_model_to_json(fitted)


class TestAffineEquivariance:
    # the extreme scales check that the variance bounds move with the data's
    # scale, so that no bound binds on the scaled fit that does not on the
    # unscaled one
    @pytest.mark.parametrize("scale, shift", [(-2.5, 130.0), (1e12, 1.3e14), (1e-12, 1.3e-10)])
    @settings(max_examples=16, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**16), st.booleans())
    def test_fit_and_inference_under_affine_outcome_change(self, scale, shift, seed,
                                                          zero_variance):
        # y -> a y + b scales every variance by a^2, shifts the REML
        # log-likelihood by -(n - q) log|a| and leaves the tests alone;
        # the fits run to a tight tolerance so that optimizer precision
        # does not hide a difference
        spec = poly_spec(3)
        cohort = simulate(spec, [450.0, -12.0, 6.0, 3.0],
                          np.diag([70.0, 40.0, 0.0 if zero_variance else 20.0, 10.0]), 25.0,
                          n_subjects=40, seed=seed, missing_rate=0.1)
        moved = a.Cohort(subjects=tuple(dataclasses.replace(s, y=scale * s.y + shift)
                                        for s in cohort))
        f1, f2 = a.fit(spec, cohort, tol=1e-9), a.fit(spec, moved, tol=1e-9)
        assert f1.converged and f2.converged
        a2 = scale * scale
        assert f2.sigma2_hat == pytest.approx(a2 * f1.sigma2_hat, rel=1e-7)
        assert np.array_equal(f1.sigma_d_hat == 0.0, f2.sigma_d_hat == 0.0)
        np.testing.assert_allclose(f2.sigma_d_hat, a2 * f1.sigma_d_hat, rtol=1e-7, atol=0.0)
        shift_ll = -(f1.n_obs - f1.q) * np.log(abs(scale))
        assert f2.loglik - f1.loglik == pytest.approx(shift_ll, abs=1e-10 * abs(f1.loglik))
        tests1 = [r for _, _, r in per_column_tests(f1)]
        tests2 = [r for _, _, r in per_column_tests(f2)]
        model = Contrast.for_columns([1, 2, 3], f1.q)
        for r1, r2 in zip(tests1 + [f_test(f1, model)], tests2 + [f_test(f2, model)]):
            assert r2.ddf == pytest.approx(r1.ddf, rel=1e-7)
            assert r2.p_value == pytest.approx(r1.p_value, rel=1e-7, abs=1e-9)
        for (name, est1, se1), (_, est2, se2) in zip(variance_component_table(f1),
                                                     variance_component_table(f2)):
            if est1 == 0.0:
                # a boundary component's SE is roundoff and is not compared
                assert est2 == 0.0, name
            else:
                assert se2 == pytest.approx(a2 * se1, rel=1e-7), name
