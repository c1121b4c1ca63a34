import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abpmix as a
from abpmix import basis
from abpmix import blup as blup_module
from abpmix import design
from abpmix import serialize
from abpmix.basis import TimeGrid
from abpmix.cli import main
from abpmix.dataio import write_cohort
from abpmix.errors import ConditioningError, ConfigError, SpecError

from conftest import conditional_mean_blup_oracle, poly_spec, simulate


def design_for(fitted, subject):
    return a.build_design(fitted.spec, subject, fitted.context)


class TestRandomEffectsBlup:
    def test_zero_residual_gives_zero(self, small_fit):
        _, cohort, fitted = small_fit
        s = cohort.subjects[0]
        pair = design_for(fitted, s)
        exact = a.Subject(id="zero", times=s.times, y=pair.X @ fitted.beta_hat)
        d = a.random_effects_blup(fitted, exact)
        np.testing.assert_allclose(d, 0.0, atol=1e-10)

    def test_zero_prior_shrinks_fully(self, small_fit):
        _, cohort, fitted = small_fit
        degenerate = dataclasses.replace(fitted, sigma_d_hat=np.zeros_like(fitted.sigma_d_hat))
        d = a.random_effects_blup(degenerate, cohort.subjects[0])
        np.testing.assert_array_equal(d, 0.0)

    def test_matches_conditional_mean_oracle(self, small_fit):
        _, cohort, fitted = small_fit
        for s in cohort.subjects[:10]:
            pair = design_for(fitted, s)
            resid = s.y - pair.X @ fitted.beta_hat
            want = conditional_mean_blup_oracle(pair.Z, fitted.sigma_d_hat,
                                                fitted.sigma2_hat, resid)
            got = a.random_effects_blup(fitted, s)
            assert np.max(np.abs(got - want)) <= 1e-8

    def test_linear_in_y(self, small_fit):
        _, cohort, fitted = small_fit
        s = cohort.subjects[0]
        pair = design_for(fitted, s)
        base = pair.X @ fitted.beta_hat
        rng = np.random.default_rng(0)
        r1, r2 = rng.normal(size=s.n_obs), rng.normal(size=s.n_obs)

        def blup_of_resid(r):
            return a.random_effects_blup(
                fitted, a.Subject(id="t", times=s.times, y=base + r)
            )

        lhs = blup_of_resid(2.0 * r1 + 3.0 * r2)
        rhs = 2.0 * blup_of_resid(r1) + 3.0 * blup_of_resid(r2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_shrinkage_monotone_in_sigma2(self, small_fit):
        _, cohort, fitted = small_fit
        iso = dataclasses.replace(fitted, sigma_d_hat=10.0 * np.eye(fitted.sigma_d_hat.shape[0]))
        s = cohort.subjects[1]
        norms = []
        for k in (1.0, 2.0, 5.0, 25.0):
            f = dataclasses.replace(iso, sigma2_hat=fitted.sigma2_hat * k)
            norms.append(np.linalg.norm(a.random_effects_blup(f, s)))
        assert all(n1 >= n2 - 1e-12 for n1, n2 in zip(norms, norms[1:]))

    def test_balanced_orthonormal_closed_form(self):
        # complete data with S = U orthonormal on the observation grid and
        # diagonal Sigma_d: component j shrinks u_j'(y - S beta) by
        # sigma_dj^2 / (sigma_dj^2 + sigma^2)
        spec = a.ModelSpec(
            fixed=a.BasisDescriptor("orthonormal_poly", 2),
            random=a.BasisDescriptor("orthonormal_poly", 2),
            reference_grid_points=24,
        )
        cfg = a.SimulationConfig(
            spec=spec, beta=np.array([500.0, -10.0, 5.0]),
            sigma_d=np.diag([60.0, 30.0, 15.0]), sigma2=9.0, n_subjects=30, seed=77,
            base_times=TimeGrid.equispaced(24).points,
        )
        cohort = a.simulate_cohort(cfg)
        fitted = a.fit(spec, cohort)
        assert fitted.converged
        s = cohort.subjects[0]
        pair = design_for(fitted, s)
        resid = s.y - pair.X @ fitted.beta_hat
        dj = np.diag(fitted.sigma_d_hat)
        want = dj / (dj + fitted.sigma2_hat) * (pair.Z.T @ resid)
        got = a.random_effects_blup(fitted, s)
        np.testing.assert_allclose(got, want, atol=1e-10)


class TestSubjectProfile:
    def test_definition_at_observed_grid(self, small_fit):
        _, cohort, fitted = small_fit
        s = cohort.subjects[2]
        prof = a.subject_profile(fitted, [s], s.times)[0]
        pair = design_for(fitted, s)
        d = a.random_effects_blup(fitted, s)
        np.testing.assert_array_equal(prof, pair.X @ fitted.beta_hat + pair.Z @ d)

    def test_zero_blup_equals_population_curve(self, small_fit):
        _, cohort, fitted = small_fit
        s = cohort.subjects[0]
        pair = design_for(fitted, s)
        exact = a.Subject(id="onpop", times=s.times, y=pair.X @ fitted.beta_hat)
        grid = TimeGrid(np.linspace(0.5, 23.5, 40))
        prof = a.subject_profile(fitted, [exact], grid)[0]
        pop = a.population_curve(fitted, grid)
        np.testing.assert_allclose(prof, pop, atol=1e-8)

    def test_interpolates_as_residual_variance_vanishes(self):
        spec = poly_spec(3)
        cohort = simulate(spec, [400.0, -15.0, 8.0, 3.0], np.diag([50.0, 25.0, 12.0, 6.0]),
                          9.0, n_subjects=20, seed=55)
        fitted = a.fit(spec, cohort)
        times = TimeGrid(np.array([3.0, 9.0, 15.0, 21.0]))  # p = m = 4: saturated
        rng = np.random.default_rng(1)
        s = a.Subject(id="sat", times=times, y=rng.normal(110, 10, size=4))
        tiny = dataclasses.replace(fitted, sigma2_hat=1e-10)
        prof = a.subject_profile(tiny, [s], s.times)[0]
        np.testing.assert_allclose(prof, s.y, atol=1e-6)


class TestPopulationCurve:
    def test_intercept_only_is_flat_grand_mean(self):
        cohort = simulate(poly_spec(0), [700.0], [[50.0]], 16.0, n_subjects=25, seed=42)
        fitted = a.fit(poly_spec(0), cohort)
        grid = TimeGrid(np.linspace(1.0, 23.0, 12))
        curve = a.population_curve(fitted, grid)
        assert np.ptp(curve) <= 1e-10
        # flat at the scaled intercept estimate
        s = fitted.context.fixed_time_matrix(grid)
        assert abs(curve[0] - s[0, 0] * fitted.beta_hat[0]) <= 1e-12

    def test_training_grid_equals_s_beta(self, small_fit):
        _, cohort, fitted = small_fit
        times = cohort.subjects[0].times
        curve = a.population_curve(fitted, times)
        s = fitted.context.fixed_time_matrix(times)
        np.testing.assert_array_equal(curve, s @ fitted.beta_hat)

    def test_off_grid_matches_polynomial_interpolation(self, small_fit):
        # a degree-2 curve is determined by any 3 points; Lagrange
        # interpolation of on-grid values is an independent oracle
        _, _, fitted = small_fit
        anchors = np.array([2.0, 10.0, 20.0])
        vals = a.population_curve(fitted, TimeGrid(anchors))
        poly = np.polynomial.Polynomial.fit(anchors, vals, deg=2)
        t = 12.5
        got = a.population_curve(fitted, TimeGrid(np.array([t])))[0]
        assert abs(got - poly(t)) <= 1e-8

    def test_curve_that_is_not_finite_is_refused(self, small_fit):
        _, _, fitted = small_fit
        unbounded = dataclasses.replace(fitted, beta_hat=np.array([np.inf, -np.inf, 1.0]))
        with pytest.raises(SpecError, match="the population curve is not finite"):
            a.population_curve(unbounded, TimeGrid.equispaced(9))


class TestPredictionBand:
    def test_symmetry_exact(self, small_fit):
        _, _, fitted = small_fit
        band = a.prediction_band(fitted, TimeGrid(np.linspace(0.5, 23.5, 24)))
        np.testing.assert_array_equal(band[2] - band[0], band[0] - band[1])

    def test_half_width_vanishes_with_level(self, small_fit):
        _, _, fitted = small_fit
        grid = TimeGrid(np.array([6.0, 12.0, 18.0]))
        band = a.prediction_band(fitted, grid, level=1e-12)
        assert np.max(band[2] - band[1]) <= 1e-9

    def test_nesting(self, small_fit):
        _, _, fitted = small_fit
        grid = TimeGrid(np.linspace(0.5, 23.5, 24))
        b90 = a.prediction_band(fitted, grid, level=0.90)
        b95 = a.prediction_band(fitted, grid, level=0.95)
        assert np.all(b95[1] <= b90[1]) and np.all(b95[2] >= b90[2])

    def test_multiplier_override(self, small_fit):
        _, _, fitted = small_fit
        grid = TimeGrid(np.array([12.0]))
        b = a.prediction_band(fitted, grid, multiplier=2.0)
        z = a.prediction_band(fitted, grid, level=0.90)
        ratio = (b[2] - b[0]) / (z[2] - z[0])
        assert abs(ratio[0] - 2.0 / 1.6448536269514722) <= 1e-9

    @pytest.mark.parametrize("multiplier", [np.nan, np.inf, -1.0])
    def test_multiplier_validated(self, small_fit, multiplier):
        _, _, fitted = small_fit
        grid = TimeGrid(np.array([12.0]))
        with pytest.raises(ConfigError):
            a.prediction_band(fitted, grid, multiplier=multiplier)

    def test_level_validated(self, small_fit):
        _, _, fitted = small_fit
        grid = TimeGrid(np.array([12.0]))
        with pytest.raises(ConfigError):
            a.prediction_band(fitted, grid, level=1.2)

    def test_center_is_the_population_curve(self, small_fit):
        _, _, fitted = small_fit
        grid = TimeGrid(np.linspace(0.0, 24.0, 97))
        band = a.prediction_band(fitted, grid, multiplier=2.0)
        assert band.shape == (3, 97)
        np.testing.assert_array_equal(band[0], a.population_curve(fitted, grid))

    def test_center_that_is_not_finite_is_refused(self, small_fit):
        _, _, fitted = small_fit
        # refused by population_curve, as the profiles and band commands refused it
        unbounded = dataclasses.replace(fitted, beta_hat=np.array([np.inf, -np.inf, 1.0]))
        with pytest.raises(SpecError, match="the population curve is not finite"):
            a.prediction_band(unbounded, TimeGrid.equispaced(9))

    def test_each_plot_computes_one_band_and_one_curve(self, small_fit, monkeypatch,
                                                       tmp_path):
        # the population group of a plot CSV is the band's center, not a second curve
        _, cohort, fitted = small_fit
        (tmp_path / "fit.json").write_text(serialize.fitted_model_to_json(fitted),
                                           encoding="utf-8")
        write_cohort(tmp_path / "cohort.csv", cohort)
        calls = []

        def recording(name):
            orig = getattr(blup_module, name)
            return lambda *args, **kwargs: calls.append(name) or orig(*args, **kwargs)

        for name in ("population_curve", "prediction_band"):
            monkeypatch.setattr(blup_module, name, recording(name))
        fit_json = str(tmp_path / "fit.json")
        runs = [["profiles", "--fit", fit_json, "--data", str(tmp_path / "cohort.csv"),
                 "--subjects", cohort.subjects[0].id, "--out", str(tmp_path / "p"), "--svg"],
                ["band", "--fit", fit_json, "--out", str(tmp_path / "b"), "--svg"]]
        for argv in runs:
            calls.clear()
            assert main(argv) == 0
            assert sorted(calls) == ["population_curve", "prediction_band"]


def incomplete_covariate_fit(irregular=False):
    """A fit on 10% missing data with a group and an interaction term.

    Subjects 0-11 share the complete hourly design, split over three diet
    levels (so one time pattern carries several X); subject 12 has fewer
    observations than random effects; the rest have their own patterns.
    ``irregular`` jitters every time and draws a continuous age per
    subject, so no two subjects share a design or a covariate encoding.
    """
    spec = a.ModelSpec(
        fixed=a.BasisDescriptor("orthonormal_poly", 2),
        random=a.BasisDescriptor("orthonormal_poly", 2),
        group_terms=("diet",),
        interaction_terms=("age",),
    )
    rng = np.random.default_rng(2024)
    hours = np.arange(24.0) + 0.5
    subjects = []
    for i in range(40):
        if i < 12:
            times = hours
        elif i == 12:
            times = hours[[3, 15]]
        else:
            times = hours[rng.random(24) >= 0.1]
        diet = ("salt", "control", "dash")[i % 3]
        age = 30.0 + 6.0 * (i % 2)
        if irregular:
            times = times + rng.uniform(-0.25, 0.25, size=times.size)
            age = rng.uniform(25.0, 60.0)
        u = (times - 12.0) / 12.0
        b0, b1, b2 = rng.normal(0.0, (6.0, 5.0, 4.0))
        y = (120.0 + 5.0 * (diet == "salt") + 0.2 * age
             + 8.0 * np.sin(2.0 * np.pi * times / 24.0) * (1.0 + 0.01 * age)
             + b0 + b1 * u + b2 * u**2 + rng.normal(0.0, 3.0, size=times.size))
        subjects.append(a.Subject(id=f"c{i:02d}", times=TimeGrid(times), y=y,
                                  covariates={"diet": diet, "age": age}))
    cohort = a.Cohort(subjects=tuple(subjects))
    return cohort, a.fit(spec, cohort)


def oracle_profile(fitted, s, grid):
    """(BLUP, profile on ``grid``) of subject ``s`` from the dense
    conditional mean and designs built for it alone."""
    pair = design_for(fitted, s)
    d = conditional_mean_blup_oracle(pair.Z, fitted.sigma_d_hat, fitted.sigma2_hat,
                                     s.y - pair.X @ fitted.beta_hat)
    on_grid = design_for(fitted, a.Subject(id=s.id, times=grid, y=np.zeros(len(grid)),
                                           covariates=s.covariates))
    return d, on_grid.X @ fitted.beta_hat + on_grid.Z @ d


_HOURS = np.arange(24.0) + 0.5


@st.composite
def profile_batches(draw):
    """(subjects, a permutation of their indices) for ``incomplete_covariate_fit``:
    patterns of several lengths (one shorter than the random effects),
    repeated or not, every diet level with fitted, unseen and continuous
    ages, and jittered times that no other subject shares."""
    mask = np.array(draw(st.lists(st.booleans(), min_size=24, max_size=24)))
    pool = [_HOURS, _HOURS[::2], _HOURS[[3, 15]], _HOURS[mask | (np.arange(24) == 7)]]
    rows = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans(),
                                   st.sampled_from(["salt", "control", "dash"]),
                                   st.one_of(st.sampled_from([30.0, 36.0, 47.5]),
                                             st.floats(25.0, 60.0))),
                         min_size=1, max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subjects = []
    for i, (k, jitter, diet, age) in enumerate(rows):
        times = pool[k] + (rng.uniform(-0.25, 0.25, size=pool[k].size) if jitter else 0.0)
        subjects.append(a.Subject(id=f"b{i}", times=TimeGrid(times),
                                  y=rng.normal(130.0, 12.0, size=times.size),
                                  covariates={"diet": diet, "age": age}))
    return subjects, draw(st.permutations(range(len(subjects))))


def count_calls(monkeypatch, owner, name):
    """One entry per call of ``owner.name``: the leading batch size of its
    first argument (1 for anything but a stack of matrices)."""
    calls = []
    orig = getattr(owner, name)

    def counting(*args, **kwargs):
        first = args[0] if args else None
        calls.append(first.shape[0] if isinstance(first, np.ndarray) and first.ndim == 3 else 1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestBatchedProfiles:
    @pytest.fixture(scope="class")
    def incomplete(self):
        return incomplete_covariate_fit()

    @pytest.fixture(scope="class")
    def irregular(self):
        return incomplete_covariate_fit(irregular=True)

    @pytest.mark.parametrize("which", ["incomplete", "irregular"])
    def test_matches_conditional_mean_oracle(self, which, request):
        cohort, fitted = request.getfixturevalue(which)
        grid = TimeGrid.equispaced(49)
        got = a.subject_profile(fitted, cohort.subjects, grid)
        assert got.shape == (len(cohort), len(grid))
        for i, s in enumerate(cohort.subjects):
            want_d, want = oracle_profile(fitted, s, grid)
            got_d = a.random_effects_blup(fitted, s)
            assert np.max(np.abs(got_d - want_d)) <= 1e-10 * np.max(np.abs(want_d))
            assert np.max(np.abs(got[i] - want)) <= 1e-10 * np.max(np.abs(want))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(batch=profile_batches())
    def test_batch_rows_are_single_profiles_in_any_order(self, incomplete, batch):
        _, fitted = incomplete
        subjects, order = batch
        grid = TimeGrid.equispaced(13)
        got = a.subject_profile(fitted, subjects, grid)
        permuted = a.subject_profile(fitted, [subjects[i] for i in order], grid)
        for i, s in enumerate(subjects):
            want = oracle_profile(fitted, s, grid)[1]
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got[i] - want)) <= 1e-10 * scale
            one = a.subject_profile(fitted, [s], grid)[0]
            assert np.max(np.abs(got[i] - one)) <= 1e-12 * scale
            assert np.max(np.abs(permuted[order.index(i)] - got[i])) <= 1e-12 * scale

    @staticmethod
    def count_builds(monkeypatch):
        """The number of observation times of each ``build_design`` call
        made by blup, and of each evaluation of a polynomial basis."""
        builds, evaluations = [], []
        build, evaluate = blup_module.build_design, basis.evaluate_polynomial_basis
        monkeypatch.setattr(blup_module, "build_design",
                            lambda *args: builds.append(args[1].n_obs) or build(*args))
        monkeypatch.setattr(basis, "evaluate_polynomial_basis",
                            lambda *args: evaluations.append(len(args[1])) or evaluate(*args))
        return builds, evaluations

    def test_each_batch_builds_one_design_and_factorizes_each_pattern_once(self, incomplete,
                                                                          monkeypatch):
        cohort, fitted = incomplete
        builds, evaluations = self.count_builds(monkeypatch)
        factors = count_calls(monkeypatch, np.linalg, "cholesky")
        solves = [count_calls(monkeypatch, np.linalg, name) for name in ("solve", "inv")]
        a.subject_profile(fitted, cohort.subjects, TimeGrid.equispaced(25))
        patterns = {s.times.points.tobytes() for s in cohort.subjects}
        lengths = {len(s.times) for s in cohort.subjects}
        union = np.unique(np.concatenate([s.times.points for s in cohort.subjects]))
        # one stacked factorization per pattern length, each pattern in exactly
        # one, and the factors serve every solve
        assert sum(factors) == len(patterns) < len(cohort)
        assert len(factors) == len(lengths) < len(patterns)
        assert solves == [[], []]
        # whatever the covariate encodings: one design on the union of the
        # observation times, and the shared basis evaluated once there and once on the grid
        assert builds == [union.size]
        assert sorted(evaluations) == sorted([25, union.size])

    def test_irregular_designs_cost_one_build_linear_in_observations(self, irregular,
                                                                     monkeypatch):
        # no two subjects share a time or a covariate encoding: the designs
        # still come from one build whose rows are the observations, and the
        # basis is evaluated there and on the grid
        cohort, fitted = irregular
        builds, evaluations = self.count_builds(monkeypatch)
        factors = count_calls(monkeypatch, np.linalg, "cholesky")
        solves = [count_calls(monkeypatch, np.linalg, name) for name in ("solve", "inv")]
        a.subject_profile(fitted, cohort.subjects, TimeGrid.equispaced(25))
        assert len({s.covariates["age"] for s in cohort.subjects}) == len(cohort)
        assert sum(factors) == len(cohort)
        assert solves == [[], []]
        assert len(factors) == len({len(s.times) for s in cohort.subjects}) < len(cohort)
        assert builds == [cohort.n_obs]
        assert sorted(evaluations) == sorted([25, cohort.n_obs])

    def test_lengths_on_both_sides_of_m_match_the_oracle(self, incomplete):
        # p < m and p = m factor V per length; p > m at several lengths, one
        # pattern shared by two subjects, go through one stacked substitution
        cohort, fitted = incomplete
        m = fitted.sigma_d_hat.shape[0]
        lengths = (m - 1, m, m + 1, 11, 11, 24)
        batch = [dataclasses.replace(s, id=f"p{p}-{i}", times=TimeGrid(s.times.points[:p]),
                                     y=s.y[:p])
                 for i, (p, s) in enumerate(zip(lengths, cohort.subjects))]
        grid = TimeGrid.equispaced(13)
        d, *_ = blup_module._blups(fitted, batch)
        got = a.subject_profile(fitted, batch, grid)
        for i, s in enumerate(batch):
            want_d, want = oracle_profile(fitted, s, grid)
            assert np.max(np.abs(d[i] - want_d)) <= 1e-10 * np.max(np.abs(want_d))
            assert np.max(np.abs(got[i] - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("k, m, s2", [(1, 3, 1.0), (1, 10, 1e-10), (50, 10, 1.0),
                                          (50, 10, 1e-10)])
    def test_stacked_substitution_matches_solve(self, k, m, s2):
        # B = sigma^2 I + W'W, as for the push-through subjects
        rng = np.random.default_rng(1000 * k + m)
        w = rng.normal(size=(k, 24, m)) * rng.uniform(0.1, 10.0, size=m)
        b = s2 * np.eye(m) + w.transpose(0, 2, 1) @ w
        rhs = rng.normal(size=(k, m))
        got = blup_module._cholesky_solve(np.linalg.cholesky(b), rhs)
        want = np.linalg.solve(b, rhs[..., None])[..., 0]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rows_do_not_depend_on_the_batch(self, incomplete):
        cohort, fitted = incomplete
        grid = TimeGrid.equispaced(25)
        batch = a.subject_profile(fitted, cohort.subjects[::-1], grid)[::-1]
        for i in (0, 12, 39):
            one = a.subject_profile(fitted, [cohort.subjects[i]], grid)[0]
            np.testing.assert_allclose(batch[i], one, rtol=1e-12)

    def test_batch_runs_inside_one_subject_profile_call(self, incomplete, monkeypatch,
                                                        tmp_path):
        # bench/spans.py wraps the module-level subject_profile: the whole
        # batch of the profiles command, its design builds and factorizations
        # included, runs in one call
        cohort, fitted = incomplete
        (tmp_path / "fit.json").write_text(serialize.fitted_model_to_json(fitted),
                                           encoding="utf-8")
        write_cohort(tmp_path / "cohort.csv", cohort)
        inside, events, got = [], [], []  # subject_profile's argument, then None once it returns
        profile = blup_module.subject_profile

        def wrapped(*args, **kwargs):
            inside.append(args[1])
            try:
                got.append(profile(*args, **kwargs))
                return got[-1]
            finally:
                inside.append(None)

        def seen(orig):  # records whether each call falls inside subject_profile
            return lambda *args: events.append(inside[-1:] != [None]) or orig(*args)

        monkeypatch.setattr(blup_module, "subject_profile", wrapped)
        monkeypatch.setattr(blup_module, "build_design", seen(blup_module.build_design))
        monkeypatch.setattr(np.linalg, "cholesky", seen(np.linalg.cholesky))
        assert main(["profiles", "--fit", str(tmp_path / "fit.json"),
                     "--data", str(tmp_path / "cohort.csv"), "--grid-points", "25",
                     "--subjects", ",".join(s.id for s in cohort), "--out",
                     str(tmp_path / "p")]) == 0
        assert len(inside) == 2 and [s.id for s in inside[0]] == [s.id for s in cohort]
        lengths = {len(s.times) for s in cohort.subjects}
        assert events == [True] * (1 + len(lengths))
        loaded = serialize.load_fitted_model(tmp_path / "fit.json")
        want = profile(loaded, list(cohort.subjects), TimeGrid.equispaced(25))
        assert got[0].shape == (len(cohort), 25)
        np.testing.assert_array_equal(got[0], want)

    def test_empty_batch(self, incomplete):
        _, fitted = incomplete
        assert a.subject_profile(fitted, [], TimeGrid.equispaced(7)).shape == (0, 7)

    def test_unfactorizable_covariance(self, small_fit):
        _, cohort, fitted = small_fit
        degenerate = dataclasses.replace(fitted, sigma_d_hat=np.zeros_like(fitted.sigma_d_hat),
                                         sigma2_hat=0.0)
        with pytest.raises(ConditioningError, match="subject"):
            a.subject_profile(degenerate, cohort.subjects[:5], TimeGrid.equispaced(9))

    def test_names_the_first_subject_whose_covariance_is_singular(self, small_fit):
        # without residual variance V = Z Sigma_d Z' is singular beyond m = 3
        # times, whatever the length of the patterns factored first
        _, cohort, fitted = small_fit
        noiseless = dataclasses.replace(fitted, sigma2_hat=0.0)
        s = cohort.subjects[0]
        few = [a.Subject(id=f"few{k}", times=TimeGrid(s.times.points[k:k + 3]), y=s.y[k:k + 3])
               for k in range(2)]
        batch = [few[0], cohort.subjects[1], few[1], cohort.subjects[2]]
        with pytest.raises(ConditioningError, match=repr(cohort.subjects[1].id)):
            a.subject_profile(noiseless, batch, TimeGrid.equispaced(9))
        assert a.subject_profile(noiseless, few, TimeGrid.equispaced(9)).shape == (2, 9)

    def test_few_observations_without_residual_variance_match_the_oracle(self, small_fit):
        # sigma^2 = 0 and p < m: V = Z Sigma_d Z' itself is PD and is factored
        _, cohort, fitted = small_fit
        noiseless = dataclasses.replace(fitted, sigma2_hat=0.0)
        s = cohort.subjects[3]
        few = a.Subject(id="few", times=TimeGrid(s.times.points[[4, 17]]), y=s.y[[4, 17]])
        pair = design_for(noiseless, few)
        assert pair.Z.shape[0] < pair.Z.shape[1]
        want = conditional_mean_blup_oracle(pair.Z, noiseless.sigma_d_hat, 0.0,
                                            few.y - pair.X @ noiseless.beta_hat)
        got = a.random_effects_blup(noiseless, few)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_singular_unstructured_covariance_matches_the_oracle(self, small_fit):
        # a rank-2 PSD Sigma_d of an unstructured fit: B = sigma^2 I + (ZL)'(ZL)
        # for p > m and V itself for p <= m give the dense conditional mean
        spec, cohort, _ = small_fit
        fitted = a.fit(a.ModelSpec(fixed=spec.fixed, random=spec.random,
                                   random_cov="unstructured"), a.Cohort(cohort.subjects[:30]))
        ev, vec = np.linalg.eigh(fitted.sigma_d_hat)
        ev[0] = 0.0
        singular = dataclasses.replace(fitted, sigma_d_hat=(vec * ev) @ vec.T)
        assert np.linalg.matrix_rank(singular.sigma_d_hat) == 2
        assert np.count_nonzero(singular.sigma_d_hat) == 9
        batch = [cohort.subjects[0]] + [
            a.Subject(id=f"p{p}", times=TimeGrid(s.times.points[:p]), y=s.y[:p])
            for p, s in zip((2, 3, 4, 11), cohort.subjects[1:])]
        d, *_ = blup_module._blups(singular, batch)
        for got, s in zip(d, batch):
            pair = design_for(singular, s)
            want = conditional_mean_blup_oracle(pair.Z, singular.sigma_d_hat,
                                                singular.sigma2_hat,
                                                s.y - pair.X @ singular.beta_hat)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_unfactorizable_covariance_exits_2(self, small_fit, tmp_path, capsys):
        _, cohort, fitted = small_fit
        degenerate = dataclasses.replace(fitted, sigma_d_hat=np.zeros_like(fitted.sigma_d_hat),
                                         sigma2_hat=0.0)
        fit_json = tmp_path / "fit.json"
        fit_json.write_text(serialize.fitted_model_to_json(degenerate), encoding="utf-8")
        write_cohort(tmp_path / "cohort.csv", cohort)
        code = main(["profiles", "--fit", str(fit_json), "--data", str(tmp_path / "cohort.csv"),
                     "--subjects", cohort.subjects[0].id, "--out", str(tmp_path / "p")])
        assert code == 2
        assert "ConditioningError" in capsys.readouterr().err


class TestFixedMean:
    def test_equals_the_design_times_beta(self):
        # the means of each observation count's subjects, from S on the union of their times
        cohort, fitted = incomplete_covariate_fit()
        subjects = list(cohort.subjects)
        group, interaction = design.covariate_values(fitted.spec, subjects, fitted.context)
        assert group.shape[1] and interaction.shape[1]
        union, patterns = design.group_patterns(subjects)
        time_basis = fitted.context.fixed_time_matrix(union)
        for members, _, which, rows in patterns:
            want = (design.fixed_design(time_basis[rows[which]], group[members],
                                        interaction[members]) @ fitted.beta_hat)
            got = design.fixed_mean(time_basis, rows[which], group[members],
                                    interaction[members], fitted.beta_hat)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
