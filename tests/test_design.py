import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import abpmix as a
from abpmix import serialize
from abpmix.basis import DEFAULT_SPLINE_CLOCK_KNOTS, TimeGrid, clock_knots_to_elapsed
from abpmix.design import (covariate_coding, covariate_values, distinct_rows, fixed_design,
                           group_patterns)
from abpmix.errors import SpecError

from conftest import poly_spec, row_loop_covariate_design


def complete_subject(sid="a", covariates=None, seed=0):
    grid = TimeGrid.hourly_midpoints()
    rng = np.random.default_rng(seed)
    return a.Subject(id=sid, times=grid, y=rng.normal(120, 10, size=24),
                     covariates=covariates or {})


class TestModelSpec:
    def test_random_degree_bounded_by_fixed(self):
        with pytest.raises(SpecError):
            a.ModelSpec(
                fixed=a.BasisDescriptor("orthonormal_poly", 2),
                random=a.BasisDescriptor("orthonormal_poly", 3),
            )

    def test_json_round_trip(self):
        spec = a.ModelSpec(
            fixed=a.BasisDescriptor("orthonormal_poly", 4),
            random=a.BasisDescriptor("orthonormal_poly", 2),
            random_cov="unstructured",
            group_terms=("diet",),
            interaction_terms=("diet",),
            reference_levels={"diet": "control"},
        )
        assert serialize.model_spec_from_json(serialize.model_spec_to_json(spec)) == spec

    def test_unknown_field_rejected(self):
        d = json.loads(serialize.model_spec_to_json(poly_spec(2)))
        d["surprise"] = 1
        with pytest.raises(SpecError, match=r"model spec: unknown fields \['surprise'\]"):
            serialize.model_spec_from_json(json.dumps(d))


class TestBuildDesign:
    def test_degree_nine_complete_subject(self):
        spec = poly_spec(9)
        subject = complete_subject()
        ctx = a.BasisContext(spec)
        pair = a.build_design(spec, subject, ctx)
        assert pair.X.shape == (24, 10)
        assert pair.Z.shape == (24, 10)
        np.testing.assert_array_equal(pair.X, pair.Z)

    def test_diet_groups_and_interactions(self):
        spec = a.ModelSpec(
            fixed=a.BasisDescriptor("orthonormal_poly", 9),
            random=a.BasisDescriptor("orthonormal_poly", 9),
            group_terms=("diet",),
            interaction_terms=("diet",),
            reference_levels={"diet": "control"},
        )
        subjects = tuple(
            complete_subject(sid=f"s{i}", covariates={"diet": diet}, seed=i)
            for i, diet in enumerate(["control", "fruitveg", "combination"])
        )
        cohort = a.Cohort(subjects=subjects)
        ctx = a.BasisContext(spec, cohort)
        pair = a.build_design(spec, cohort.subjects[1], ctx)
        # 10 time columns + 2 indicators + 2*9 interactions
        assert pair.X.shape == (24, 30)
        assert pair.Z.shape == (24, 10)
        labels = ctx.fixed_column_labels()
        assert len(labels) == 30
        # reference level carries no indicator column
        assert "diet=control" not in labels
        assert "diet=fruitveg" in labels

    def test_dropping_interactions_reduces_q_by_interaction_count(self):
        base = dict(
            fixed=a.BasisDescriptor("orthonormal_poly", 9),
            random=a.BasisDescriptor("orthonormal_poly", 9),
            group_terms=("diet",),
            reference_levels={"diet": "control"},
        )
        full = a.ModelSpec(interaction_terms=("diet",), **base)
        reduced = a.ModelSpec(**base)
        subjects = tuple(
            complete_subject(sid=f"s{i}", covariates={"diet": d}, seed=i)
            for i, d in enumerate(["control", "fruitveg", "combination"])
        )
        cohort = a.Cohort(subjects=subjects)
        enc = a.BasisContext(full, cohort).encoder
        q_full, _ = a.parameter_count(full, enc)
        q_red, _ = a.parameter_count(reduced, enc)
        assert q_full - q_red == 2 * 9

    def test_missing_covariate_is_spec_error(self):
        spec = a.ModelSpec(
            fixed=a.BasisDescriptor("orthonormal_poly", 2),
            random=a.BasisDescriptor("orthonormal_poly", 2),
            group_terms=("age",),
        )
        good = complete_subject(covariates={"age": 50.0})
        cohort = a.Cohort(subjects=(good,))
        ctx = a.BasisContext(spec, cohort)
        bad = complete_subject(sid="b")
        with pytest.raises(SpecError, match="age"):
            a.build_design(spec, bad, ctx)

    def test_empty_subject_rejected(self):
        with pytest.raises(SpecError):
            a.Subject(id="x", times=TimeGrid(np.array([])), y=np.array([]))

    def test_determinism(self):
        spec = poly_spec(5)
        subject = complete_subject()
        p1 = a.build_design(spec, subject, a.BasisContext(spec))
        p2 = a.build_design(spec, subject, a.BasisContext(spec))
        assert np.array_equal(p1.X, p2.X) and np.array_equal(p1.Z, p2.Z)

    def test_pooled_gram_is_n_times_identity(self):
        # complete balanced subjects on the reference grid itself
        spec = a.ModelSpec(
            fixed=a.BasisDescriptor("orthonormal_poly", 4),
            random=a.BasisDescriptor("orthonormal_poly", 4),
            reference_grid_points=24,
        )
        grid = TimeGrid.equispaced(24)
        ctx = a.BasisContext(spec)
        n = 7
        gram = np.zeros((5, 5))
        for i in range(n):
            s = a.Subject(id=f"s{i}", times=grid, y=np.zeros(24))
            pair = a.build_design(spec, s, ctx)
            gram += pair.X.T @ pair.X
        np.testing.assert_allclose(gram, n * np.eye(5), atol=1e-8)

    def test_spline_fixed_design_shares_one_linear_map(self):
        knots = clock_knots_to_elapsed(DEFAULT_SPLINE_CLOCK_KNOTS, start_hour=8.0)
        spec = a.ModelSpec(
            fixed=a.BasisDescriptor("restricted_cubic_spline", knots=tuple(knots)),
            random=a.BasisDescriptor("natural_poly", 3),
            random_cov="unstructured",
        )
        ctx = a.BasisContext(spec)
        full = ctx.fixed_time_matrix(TimeGrid.hourly_midpoints())
        sub = ctx.fixed_time_matrix(TimeGrid(TimeGrid.hourly_midpoints().points[5:9]))
        # evaluating a subset of times gives the corresponding rows
        np.testing.assert_allclose(sub, full[5:9], atol=1e-12)


class TestGroupPatterns:
    @staticmethod
    def grouped(times, ids=None, codes=None):
        """group_patterns on subjects with the given times, as plain lists."""
        ids = ids or [f"s{i}" for i in range(len(times))]
        subjects = [a.Subject(id=sid, times=TimeGrid(np.array(t, dtype=float)), y=np.zeros(len(t)))
                    for sid, t in zip(ids, times)]
        union, groups = group_patterns(subjects, None if codes is None else np.array(codes))
        for members, obs, design, rows in groups:
            # one index per member on every numpy version, never a column
            assert design.shape == members.shape == (len(obs),)
            for i, o, g in zip(members, obs, design):
                assert np.array_equal(union.points[rows[g]], subjects[i].times.points)
        return union.points.tolist(), [tuple(a.tolist() for a in g) for g in groups]

    def test_one_subject(self):
        assert self.grouped([[1.0, 5.0, 9.0]]) == (
            [1.0, 5.0, 9.0], [([0], [[0, 1, 2]], [0], [[0, 1, 2]])])

    def test_duplicate_patterns_share_one_design_numbered_in_lexicographic_order(self):
        union, groups = self.grouped([[2, 4], [1, 3, 5], [2, 4], [1, 3, 5], [2, 3]])
        assert union == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert groups == [([0, 2, 4], [[0, 1], [5, 6], [10, 11]], [1, 1, 0], [[1, 2], [1, 3]]),
                          ([1, 3], [[2, 3, 4], [7, 8, 9]], [0, 0], [[0, 2, 4]])]

    def test_codes_split_equal_times(self):
        _, groups = self.grouped([[2, 4], [2, 4], [2, 3]], codes=[[0.0], [1.0], [0.0]])
        assert groups == [([0, 1, 2], [[0, 1], [2, 3], [4, 5]], [1, 2, 0],
                           [[0, 1], [0, 2], [0, 2]])]

    def test_all_distinct_patterns(self):
        _, groups = self.grouped([[1, 3], [1, 2], [2, 3]])
        assert groups == [([0, 1, 2], [[0, 1], [2, 3], [4, 5]], [1, 0, 2],
                           [[0, 1], [0, 2], [1, 2]])]

    def test_ids_out_of_order_keep_the_given_order(self):
        # grouping reads times alone: members are positions in the given list
        assert self.grouped([[1, 2], [3], [1, 2]], ids=["z", "m", "a"]) == (
            [1.0, 2.0, 3.0], [([1], [[2]], [0], [[2]]), ([0, 2], [[0, 1], [3, 4]], [0, 0],
                                                         [[0, 1]])])

    def test_distinct_rows_without_columns_is_one_row(self):
        first, inverse = distinct_rows(np.zeros((3, 0)))
        assert first.tolist() == [0] and inverse.tolist() == [0, 0, 0]


def test_fixed_design_stacks_the_one_subject_design():
    spec = a.ModelSpec(fixed=a.BasisDescriptor("orthonormal_poly", 3),
                       random=a.BasisDescriptor("orthonormal_poly", 1),
                       group_terms=("diet",), interaction_terms=("diet", "age"))
    subjects = [complete_subject(sid=f"s{i}", covariates={"diet": diet, "age": 30.0 + i},
                                 seed=i)
                for i, diet in enumerate(["control", "salt", "dash", "salt"])]
    ctx = a.BasisContext(spec, a.Cohort(subjects=tuple(subjects)))
    s, _ = ctx.time_matrices(subjects[0].times)
    group, interaction = covariate_values(spec, subjects, ctx)
    stacked = fixed_design(np.broadcast_to(s, (4,) + s.shape), group, interaction)
    assert stacked.shape == (4, 24, 4 + 2 + 3 * 3)
    for x, subject in zip(stacked, subjects):
        assert np.array_equal(x, a.build_design(spec, subject, ctx).X)


class TestParameterCount:
    def test_degree_nine_diagonal(self):
        assert a.parameter_count(poly_spec(9)) == (10, 11)

    def test_degree_nine_unstructured(self):
        assert a.parameter_count(poly_spec(9, "unstructured")) == (10, 56)

    def test_spline_competitor(self):
        knots = tuple(clock_knots_to_elapsed(DEFAULT_SPLINE_CLOCK_KNOTS, 8.0))
        spec = a.ModelSpec(
            fixed=a.BasisDescriptor("restricted_cubic_spline", knots=knots),
            random=a.BasisDescriptor("natural_poly", 3),
            random_cov="unstructured",
        )
        assert a.parameter_count(spec) == (9, 11)


class TestCovariateCoding:
    def test_numeric_passthrough(self):
        spec = a.ModelSpec(fixed=a.BasisDescriptor("orthonormal_poly", 1),
                           random=a.BasisDescriptor("orthonormal_poly", 0), group_terms=("age",))
        cohort = a.Cohort(subjects=(complete_subject(covariates={"age": 41.0}),))
        ctx = a.BasisContext(spec, cohort)
        assert ctx.encoder == {"age": (("age", None),)}
        group, _ = covariate_values(spec, cohort.subjects, ctx)
        np.testing.assert_array_equal(group, [[41.0]])

    def test_alphabetical_reference_default(self):
        subs = tuple(
            complete_subject(sid=f"s{i}", covariates={"diet": d}, seed=i)
            for i, d in enumerate(["b", "a", "c"])
        )
        coding = covariate_coding(a.Cohort(subjects=subs), ("diet",), {})
        assert coding == {"diet": (("diet=b", "b"), ("diet=c", "c"))}

    def test_unobserved_pinned_reference_is_spec_error(self):
        subs = tuple(complete_subject(sid=f"s{i}", covariates={"diet": d}, seed=i)
                     for i, d in enumerate(["dash", "control"]))
        with pytest.raises(SpecError, match="reference level 'fruit' not observed for 'diet'"):
            covariate_coding(a.Cohort(subjects=subs), ("diet",), {"diet": "fruit"})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["group_terms", "interaction_terms"])
    def test_non_finite_number_names_the_term_and_subject(self, value, where):
        spec = a.ModelSpec(fixed=a.BasisDescriptor("orthonormal_poly", 1),
                           random=a.BasisDescriptor("orthonormal_poly", 0), **{where: ("age",)})
        subjects = tuple(complete_subject(sid=f"s{i}", covariates={"age": age}, seed=i)
                         for i, age in enumerate([40.0, value, 50.0]))
        ctx = a.BasisContext(spec, a.Cohort(subjects=subjects))
        assert ctx.encoder == {"age": (("age", None),)}
        with pytest.raises(SpecError, match=r"covariate 'age' of subject 's1' is not finite"):
            covariate_values(spec, subjects, ctx)

    @staticmethod
    @st.composite
    def covariate_tables(draw):
        """(spec, cohort, subjects to encode): up to three terms of one to six
        subjects, each term all numbers or any mix of numbers and strings,
        some with a pinned reference level, and a batch drawn from the cohort."""
        numbers = st.one_of(st.integers(-3, 50), st.sampled_from([41, 41.0, -0.0]),
                            st.floats(allow_nan=False, allow_infinity=False))
        strings = st.sampled_from(["a", "b", "c", "41", "41.0", "diet=x"])
        n = draw(st.integers(1, 6))
        terms = draw(st.lists(st.sampled_from(["age", "diet", "site"]), min_size=1,
                              max_size=3, unique=True))
        columns, pins = {}, {}
        for term in terms:
            kind = numbers if draw(st.booleans()) else st.one_of(numbers, strings)
            columns[term] = draw(st.lists(kind, min_size=n, max_size=n))
            if draw(st.booleans()):
                pins[term] = str(draw(st.sampled_from(columns[term])))
        spec = a.ModelSpec(
            fixed=a.BasisDescriptor("orthonormal_poly", draw(st.integers(0, 2))),
            random=a.BasisDescriptor("orthonormal_poly", 0),
            group_terms=draw(st.lists(st.sampled_from(terms), unique=True)),
            interaction_terms=draw(st.lists(st.sampled_from(terms), unique=True)),
            reference_levels=pins)
        cohort = a.Cohort(subjects=tuple(
            complete_subject(sid=f"s{i}", covariates={t: columns[t][i] for t in terms}, seed=i)
            for i in range(n)))
        batch = draw(st.lists(st.sampled_from(cohort.subjects), min_size=1, max_size=8))
        return spec, cohort, batch

    # 41 and 41.0 among strings are two levels; the pin is the second
    PINNED_41 = (a.ModelSpec(fixed=a.BasisDescriptor("orthonormal_poly", 1),
                             random=a.BasisDescriptor("orthonormal_poly", 0),
                             group_terms=("diet",), interaction_terms=("diet", "age"),
                             reference_levels={"diet": "41.0"}),
                 a.Cohort(subjects=tuple(
                     complete_subject(sid=f"s{i}", covariates={"diet": d, "age": age}, seed=i)
                     for i, (d, age) in enumerate([(41, 30), (41.0, 41.0), ("b", 52)]))))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(table=covariate_tables())
    @example(table=PINNED_41 + (list(PINNED_41[1]),))
    def test_encoding_matches_the_row_loop_reference(self, table):
        spec, cohort, batch = table
        coding, group, interaction, labels = row_loop_covariate_design(spec, cohort, batch)
        ctx = a.BasisContext(spec, cohort)
        assert ctx.encoder == (coding or None)
        got = covariate_values(spec, batch, ctx)
        for values, expected in zip(got, (group, interaction)):
            assert values.dtype == float and values.shape == expected.shape
            np.testing.assert_array_equal(values, expected)
        assert ctx.fixed_column_labels() == labels
        assert a.parameter_count(spec, ctx.encoder)[0] == len(labels)
        # the coding table survives a fit.json round trip as it is
        q = len(labels)
        fitted = a.FittedModel(
            spec=spec, method="REML", beta_hat=np.zeros(q), cov_beta=np.eye(q),
            sigma_d_hat=np.eye(1), sigma2_hat=1.0, loglik=0.0, converged=True, iterations=1,
            gradient_norm=0.0, params=a.CovarianceParams("diagonal", 1, np.zeros(2)),
            n_subjects=len(cohort), n_obs=cohort.n_obs, column_labels=labels, context=ctx)
        text = serialize.fitted_model_to_json(fitted)
        back = serialize.fitted_model_from_json(text)
        assert back.context.encoder == ctx.encoder
        assert serialize.fitted_model_to_json(back) == text


def test_cohort_requires_unique_ids():
    s = complete_subject()
    with pytest.raises(SpecError):
        a.Cohort(subjects=(s, s))


def test_subject_leaves_the_callers_arrays_writeable_and_unshared():
    t, y = np.arange(24.0) + 0.5, np.linspace(110.0, 130.0, 24)
    s = a.Subject(id="a", times=TimeGrid(t), y=y)
    for caller, stored in ((t, s.times.points), (y, s.y)):
        assert caller.flags.writeable and not np.shares_memory(caller, stored)
        assert not stored.flags.writeable
    y[0] = 0.0
    assert s.y[0] == 110.0
