import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import fdtrc

import abpmix as a
from abpmix import inference, serialize
from abpmix.basis import TimeGrid
from abpmix.cli import main
from abpmix.dataio import write_cohort
from abpmix.errors import ComparisonError, ContrastError, StateError
from abpmix.estimation import MixedModelProblem, sigma_d_from_theta
from abpmix.inference import (
    Contrast,
    _f_tail,
    _r2_from_f,
    assert_comparable,
    f_test,
    information_criteria,
    per_column_tests,
    r2_statistics,
    variance_component_table,
)

from conftest import (dense_observed_information, hourly_midpoints, poly_spec,
                      record_problem_calls, simulate)


def one_way_cohort(n_subjects, p, seed, mu=100.0, tau2=25.0, sigma2=9.0):
    """Balanced random-intercept data: y_it = mu + b_i + e_it."""
    rng = np.random.default_rng(seed)
    times = hourly_midpoints().points[:p]
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


@pytest.fixture(scope="module")
def inference_fits():
    """Two converged fits for the one-pass Satterthwaite tests: a diagonal
    fit with exact-zero variances, whose vcov_theta has zero rows, and an
    unstructured fit on a cohort with 10% missing data."""
    spec = poly_spec(3)
    cohort = simulate(spec, np.linspace(100.0, 10.0, 4), np.diag([0.0, 0.0, 0.0, 75.99611989]),
                      0.15483824435134766, n_subjects=52, seed=50,
                      missing_rate=0.032228505938987705)
    boundary = a.fit(spec, cohort)
    assert not boundary.vcov_theta[0].any()
    spec = poly_spec(2, "unstructured")
    sigma_d = np.array([[900.0, 200.0, -100.0], [200.0, 400.0, 60.0], [-100.0, 60.0, 200.0]])
    cohort = simulate(spec, [480.0, -15.0, 8.0], sigma_d, 16.0, n_subjects=40, seed=21,
                      missing_rate=0.1)
    interior = a.fit(spec, cohort)
    assert boundary.converged and interior.converged
    return boundary, interior


class TestOnePassSatterthwaite:
    def test_per_column_tests_match_f_test_on_each_column(self, inference_fits):
        for fitted in inference_fits:
            q, labels = fitted.q, fitted.column_labels
            rows = per_column_tests(fitted)
            assert [(j, label) for j, label, _ in rows] == list(enumerate(labels))
            for j, label, res in rows:
                one = f_test(fitted, Contrast.for_columns([j], q, label=label))
                assert res.ndf == one.ndf == 1 and res.label == one.label == label
                assert res.F == pytest.approx(one.F, rel=1e-12, abs=0.0)
                assert res.ddf == pytest.approx(one.ddf, rel=1e-12, abs=0.0)
                assert res.p_value == pytest.approx(one.p_value, rel=1e-12, abs=0.0)
                # the moment match written out for the one column
                g = fitted.cov_beta_derivatives[:, j, j]
                want = 2.0 * fitted.cov_beta[j, j] ** 2 / (g @ fitted.vcov_theta @ g)
                assert res.ddf == pytest.approx(want, rel=1e-12)
            _, partials = r2_statistics(fitted)
            assert partials == [(label, _r2_from_f(res.F, 1, res.ddf))
                                for _, label, res in rows[1:]]

    def test_zero_delta_method_variance_falls_back_to_n_obs_minus_q(self, small_fit):
        _, _, fitted = small_fit
        known = dataclasses.replace(fitted, vcov_theta=np.zeros_like(fitted.vcov_theta))
        want = float(fitted.n_obs - fitted.q)
        assert f_test(known, Contrast.for_columns([1], known.q)).ddf == want
        assert [res.ddf for _, _, res in per_column_tests(known)] == [want] * known.q
        # every piece of the split at n - q moment-matches to n - q
        many = f_test(known, Contrast.for_columns([1, 2], known.q))
        assert many.ddf == pytest.approx(want, rel=1e-12)
        assert many.p_value == pytest.approx(stats.f.sf(many.F, 2, want), rel=1e-10)

    def test_nan_delta_method_variance_gives_nan_ddf_on_every_path(self, small_fit,
                                                                   monkeypatch):
        _, _, fitted = small_fit
        unknown = dataclasses.replace(fitted, vcov_theta=np.full_like(fitted.vcov_theta, np.nan))
        results = [f_test(unknown, Contrast.for_columns([1], unknown.q)),
                   f_test(unknown, Contrast.for_columns([1, 2], unknown.q))]
        results += [res for _, _, res in per_column_tests(unknown)]
        assert all(math.isnan(res.ddf) and math.isnan(res.p_value) for res in results)
        # one NaN piece of a multi-row split makes the ddf NaN, in either order,
        # though the other piece alone would moment-match to 6
        for pieces in ([np.nan, 3.0], [3.0, np.nan]):
            monkeypatch.setattr(inference, "_satterthwaite",
                                lambda fitted, rows, nu=np.array(pieces): nu)
            assert math.isnan(f_test(fitted, Contrast.for_columns([1, 2], fitted.q)).ddf)

    def test_per_column_and_default_partials_make_no_per_test_calls(self, small_fit,
                                                                    monkeypatch):
        _, _, fitted = small_fit
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].label)
            return f_test(*args, **kwargs)

        monkeypatch.setattr(inference, "f_test", counting)
        inference.per_column_tests(fitted)
        assert calls == []
        inference.r2_statistics(fitted)
        assert calls == ["model"]


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
        with pytest.raises(StateError):
            per_column_tests(fitted)

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


def _f_at_tail(ndf, ddf, tail):
    """The F whose upper tail is about ``tail``: bisection on log F, by scipy."""
    lo, hi = math.log(1e-300), math.log(1e300)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fdtrc(ndf, ddf, math.exp(mid)) > tail else (lo, mid)
    return math.exp(lo)


# (ndf, ddf, F, upper tail): mpmath 1.3.0 betainc(ddf/2, ndf/2, 0, x) at 40
# digits, x = ddf / (ddf + ndf F) from the exact floats, rounded to 17 digits.
# Against these, scipy 1.17.1's fdtrc returns 0.0 for the three rows of ndf 29
# and 30, and is 1.7e-8 off at ndf 27 and 5.1e-4 off at ndf 26.
_F_TAIL_TABLE = [
    # small ddf, tails below those of the scipy property
    (1, 0.7302, 5.913408012885749e+163, 1.0000000000000078e-60),
    (4, 3.318, 3.897070237649473e+90, 1.0000000000000167e-150),
    (8, 9406.12, 75.1707059240401, 1.0000000000000997e-120),
    (11, 27.61, 4.05821984357031e+16, 1.000000000000037e-220),
    (17, 357.73, 890.5500696401816, 1.0000000000001636e-280),
    (26, 2811.39, 75.55676902181536, 1.000000000000536e-299),
    # ddf from 1e4 to 1e6
    (1, 20721.52939735855, 0.1484759763593109, 7.0000000000000009e-1),
    (1, 309244.7171673664, 0.4549374933151464, 5.0e-1),
    (1, 353572.9826594997, 0.01579079677634991, 9.0000000000000011e-1),
    (2, 432584.2352089082, 1.203976155241403, 2.9999999999999904e-1),
    (3, 26622.75960341191, 2.08400173879419, 1.0000000000000005e-1),
    (4, 13326.86288321201, 3.320580666392035, 1.0000000000000036e-2),
    (5, 523164.2323641012, 6.171402286392967, 9.9999999999999768e-6),
    (6, 860462.0848818161, 3.742997559410825, 9.9999999999999538e-4),
    (7, 97817.68096669919, 8.701799556503437, 1.0000000000000112e-10),
    (9, 19771.88091349854, 12.89374027077724, 1.0000000000000381e-20),
    (10, 44165.61672544964, 21.58652796122526, 1.0000000000000603e-40),
    (12, 25540.20553363426, 26.61580816755791, 1.0000000000000372e-60),
    (15, 31070.21877611549, 34.79724065131719, 9.9999999999995805e-101),
    (18, 15156.13698577738, 43.5528367719827, 1.000000000000018e-150),
    (20, 27851.80303320673, 51.27847880245757, 1.0000000000001925e-200),
    (24, 219473.7508450089, 52.56854762329692, 9.9999999999984875e-251),
    (27, 26750.87129671231, 55.46443892661657, 1.0000000000005817e-290),
    (29, 369432.0251473927, 51.96613882249034, 7.6256257096968454e-299),
    (30, 12616.93880860799, 53.48905792094887, 1.0000000000002048e-299),
    (30, 305526.3123024894, 50.63879548256712, 2.0000000000006587e-300),
]


class TestFTail:
    # Against mpmath, scipy 1.17.1's fdtrc is itself off by up to 7e-13
    # relative in this range, by 9e-13 near a tail of 1e-275 and by 9e-7
    # below 1e-285, while _f_tail stays within 2.5e-13 throughout.  So the
    # property stops at 1e-60, and the mpmath table holds the deeper tails.
    @settings(max_examples=200, deadline=None)
    @given(ndf=st.integers(1, 30),
           ddf=st.floats(0.5, 1e4).filter(lambda v: not v.is_integer()),
           log_tail=st.floats(-60.0, 0.0))
    def test_matches_scipy(self, ndf, ddf, log_tail):
        f = _f_at_tail(ndf, ddf, 10.0 ** log_tail)
        assert _f_tail(ndf, ddf, f) == pytest.approx(fdtrc(ndf, ddf, f), rel=1e-12, abs=0)

    @pytest.mark.parametrize("ndf, ddf, f, tail", _F_TAIL_TABLE)
    def test_matches_mpmath(self, ndf, ddf, f, tail):
        assert _f_tail(ndf, ddf, f) == pytest.approx(tail, rel=1e-12, abs=0)

    @pytest.mark.parametrize("ndf, ddf", [(1, 0.5), (3, 12.5), (30, 1e6)])
    def test_zero_f_has_tail_exactly_one(self, ndf, ddf):
        assert _f_tail(ndf, ddf, 0.0) == 1.0

    @pytest.mark.parametrize("ndf, ddf", [(1, 0.5), (1, 27.3), (2, 4.0), (5, 357.7),
                                          (30, 7851.2), (1, 1e6)])
    def test_decreases_in_f(self, ndf, ddf):
        tails = [_f_tail(ndf, ddf, f) for f in np.geomspace(1e-4, 1e4, 400)]
        assert all(0.0 <= t <= 1.0 for t in tails)
        assert all(later <= earlier for earlier, later in zip(tails, tails[1:]))
        assert tails[0] > tails[-1]
        # across the switch between the fraction for the tail and the one for
        # its complement, at (ddf/2 + 1) r = ndf/2 + 1 with r = ndf F / ddf
        switch = (0.5 * ndf + 1.0) / (0.5 * ddf + 1.0) * ddf / ndf
        near = [_f_tail(ndf, ddf, switch * (1.0 + k * 1e-9)) for k in range(-5, 6)]
        assert all(later < earlier for earlier, later in zip(near, near[1:]))

    def test_huge_ddf_returns_in_bounded_time(self):
        start = time.perf_counter()
        for ddf in (1e7, 1e300):
            tails = [_f_tail(ndf, ddf, f) for ndf in (1, 2, 30)
                     for f in np.geomspace(1e-3, 1e3, 60)]
            assert all(0.0 <= t <= 1.0 for t in tails)
        assert time.perf_counter() - start < 5.0

    def test_outside_the_domain(self):
        assert _f_tail(2, 10.0, math.inf) == 0.0
        for ndf, ddf, f in [(2, 10.0, math.nan), (2, 10.0, -1.0), (0, 10.0, 1.0),
                            (2, 0.0, 1.0), (2, math.inf, 1.0)]:
            assert math.isnan(_f_tail(ndf, ddf, f))


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

    def test_exact_zero_components_have_no_se_and_hold_still(self, tmp_path):
        # a diagonal fit with two variances at exact zeros: they are held
        # fixed, and the SEs of the others come from the inverse of the
        # observed information over the free parameters alone
        spec = poly_spec(3)
        cohort = simulate(spec, np.linspace(100.0, 10.0, 4), np.diag([0.0, 0.0, 0.0, 75.99611989]),
                          0.15483824435134766, n_subjects=52, seed=50,
                          missing_rate=0.032228505938987705)
        fitted = a.fit(spec, cohort)
        assert fitted.converged
        theta = fitted.params.theta
        free = np.append(np.diag(fitted.sigma_d_hat) != 0.0, True)
        assert free.tolist() == [False, True, False, True, True]
        assert not fitted.vcov_theta[~free].any() and not fitted.vcov_theta[:, ~free].any()
        vcov = np.linalg.inv(dense_observed_information(theta, spec, cohort)[np.ix_(free, free)])
        # a variance's derivative in its log is the variance itself
        want = np.exp(theta[free]) * np.sqrt(np.diag(vcov))
        rows = variance_component_table(fitted)
        assert [name for name, _, se in rows if np.isnan(se)] == ["var(d0)", "var(d2)"]
        np.testing.assert_allclose([se for _, _, se in rows if np.isfinite(se)], want,
                                   rtol=1e-10)
        # variance_components.csv leaves their SE fields empty
        write_cohort(tmp_path / "cohort.csv", cohort)
        (tmp_path / "m3.json").write_text(serialize.model_spec_to_json(spec))
        assert main(["fit", "--model", str(tmp_path / "m3.json"), "--data",
                     str(tmp_path / "cohort.csv"), "--out", str(tmp_path / "fit")]) == 0
        table = (tmp_path / "fit" / "variance_components.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in table if line.endswith(",")] == ["var(d0)",
                                                                               "var(d2)"]

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


class TestInferenceInputs:
    def test_derivatives_and_information_computed_once_per_fit(self, small_fit,
                                                                monkeypatch):
        spec, cohort, _ = small_fit
        calls = record_problem_calls(monkeypatch,
                                     ["cov_beta_derivatives", "observed_information"])
        fitted = a.fit(spec, cohort)
        per_column_tests(fitted)
        r2_statistics(fitted)
        variance_component_table(fitted)
        outside = sorted(name for name, inside in calls if not inside)
        assert outside == ["cov_beta_derivatives", "observed_information"]

    def test_inputs_never_shown_or_written_and_absent_from_a_loaded_fit(self, small_fit):
        _, _, fitted = small_fit
        r, q = fitted.n_cov_params, fitted.q
        assert fitted.vcov_theta.shape == (r, r)
        assert fitted.cov_beta_derivatives.shape == (r, q, q)
        text = serialize.fitted_model_to_json(fitted)
        for name in ("vcov_theta", "cov_beta_derivatives"):
            assert name not in repr(fitted)
            assert name not in text
        loaded = serialize.fitted_model_from_json(text)
        assert loaded.vcov_theta is None and loaded.cov_beta_derivatives is None
        with pytest.raises(StateError):
            f_test(loaded, Contrast.for_columns([0], q))
        with pytest.raises(StateError):
            per_column_tests(loaded)
        rows = variance_component_table(loaded)
        assert [row[:2] for row in rows] == [row[:2] for row in variance_component_table(fitted)]
        assert all(np.isnan(se) for _, _, se in rows)


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
                # a component on the boundary has no Wald SE
                assert est2 == 0.0 and np.isnan(se1) and np.isnan(se2), name
            else:
                assert se2 == pytest.approx(a2 * se1, rel=1e-7), name
