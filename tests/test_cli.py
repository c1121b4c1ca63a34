import contextlib
import csv
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abpmix as a
from abpmix import blup, dataio, serialize
from abpmix.basis import TimeGrid
from abpmix.cli import build_parser, main
from abpmix.dataio import write_cohort, write_series
from abpmix.errors import AbpmixError, SchemaError
from abpmix.estimation import MixedModelProblem

from conftest import hourly_midpoints, poly_spec, spec_object


def write_spec(path, degree, random_cov="diagonal", random_degree=None):
    spec = a.ModelSpec(
        fixed=a.BasisDescriptor("orthonormal_poly", degree),
        random=a.BasisDescriptor(
            "orthonormal_poly", degree if random_degree is None else random_degree
        ),
        random_cov=random_cov,
    )
    path.write_text(serialize.model_spec_to_json(spec))
    return str(path)


def write_sim_config(path, degree=2, n_subjects=25, seed=5, **kw):
    d = {
        "schema_version": 1,
        "spec": spec_object(poly_spec(degree)),
        "beta": [500.0, -15.0, 8.0][: degree + 1],
        "sigma_d": [60.0, 30.0, 15.0][: degree + 1],
        "sigma2": 16.0,
        "n_subjects": n_subjects,
        "seed": seed,
    }
    d.update(kw)
    path.write_text(json.dumps(d))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A simulated cohort plus a completed fit, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_sim_config(root / "sim.json")
    assert main(["simulate", "--config", cfg, "--out", str(root / "sim")]) == 0
    data = str(root / "sim" / "cohort.csv")
    model = write_spec(root / "m2.json", 2)
    assert main(["fit", "--model", model, "--data", data, "--out", str(root / "fit")]) == 0
    return root, data, model


class TestFitCommand:
    def test_writes_all_three_files(self, workspace):
        root, _, _ = workspace
        for name in ("fit.json", "fixed_effects.csv", "variance_components.csv"):
            assert (root / "fit" / name).exists()

    def test_fixed_effects_table_shape(self, workspace):
        root, _, _ = workspace
        lines = (root / "fit" / "fixed_effects.csv").read_text().strip().splitlines()
        assert lines[0] == "parameter,degree,estimate,se,p_value,semi_partial_r2"
        assert len(lines) == 4  # header + 3 coefficients

    def test_intercept_only_model_writes_its_tables(self, workspace, tmp_path):
        _, data, _ = workspace
        model = write_spec(tmp_path / "m0.json", 0)
        out = tmp_path / "fit0"
        assert main(["fit", "--model", model, "--data", data, "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO((out / "fixed_effects.csv").read_text())))
        assert len(rows) == 2 and rows[1][0] == "intercept"
        assert rows[1][4] != "" and rows[1][5] == ""  # a p-value; no semi-partial R2
        assert (out / "variance_components.csv").exists()

    def test_unknown_flag_is_usage_error(self, workspace):
        root, data, model = workspace
        code = main(["fit", "--model", model, "--data", data, "--out", str(root / "x"),
                     "--frobnicate"])
        assert code == 2

    def test_degree_exceeding_time_count_is_usage_error(self, tmp_path, workspace):
        _, data, _ = workspace
        big = write_spec(tmp_path / "m30.json", 30)
        code = main(["fit", "--model", big, "--data", data, "--out", str(tmp_path / "o")])
        assert code == 2

    def test_malformed_spec_json_is_usage_error(self, tmp_path, workspace, capsys):
        _, data, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "fixed": ')
        code = main(["fit", "--model", str(bad), "--data", data,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "SchemaError" in capsys.readouterr().err

    def test_field_over_csv_limit_is_usage_error(self, tmp_path, workspace, capsys):
        _, _, model = workspace
        data = tmp_path / "huge.csv"
        data.write_text('subject_id,time,sbp\n"' + "s" * 200_000 + '",0.5,120\n')
        code = main(["fit", "--model", model, "--data", str(data),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "ParseError: row 2: field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"schema_version": 1}',
        '{"schema_version": 1, "fixed": {"degree": 2},'
        ' "random": {"kind": "orthonormal_poly", "degree": 2}}',
        '{"schema_version": 1, "fixed": 2, "random": 2}',
    ], ids=["no-bases", "no-kind", "bases-not-objects"])
    def test_spec_missing_required_field_is_usage_error(self, tmp_path, workspace, capsys,
                                                         text):
        _, data, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["fit", "--model", str(bad), "--data", data,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "SchemaError" in capsys.readouterr().err

    @pytest.mark.parametrize("path,value", [
        (("fixed", "degree"), "3"),
        (("fixed", "degree"), 2.0),
        (("random", "degree"), True),
        (("fixed", "kind"), 3),
        (("fixed", "knots"), "1,2,3"),
        (("fixed", "knots"), [1.0, "2", 3.0]),
        (("random_cov",), ["diagonal"]),
        (("group_terms",), "diet"),
        (("interaction_terms",), [1]),
        (("reference_grid_points",), "49"),
        (("orthonormalize_random",), "false"),
        (("reference_levels",), ["diet"]),
    ], ids=lambda v: "-".join(v) if isinstance(v, tuple) else repr(v))
    def test_spec_value_of_wrong_type_is_usage_error(self, tmp_path, workspace, capsys,
                                                      path, value):
        _, data, model = workspace
        d = json.loads(Path(model).read_text())
        owner = d
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        code = main(["fit", "--model", str(bad), "--data", data,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "SchemaError" in capsys.readouterr().err

    def test_blank_covariate_of_a_term_is_usage_error(self, tmp_path, workspace, capsys):
        _, data, model = workspace
        rows = Path(data).read_text().splitlines()
        blank = rows[1].split(",")[0]
        lines = [rows[0] + ",sex,site"]
        for row in rows[1:]:
            sid = row.split(",")[0]
            lines.append(row + ("," if sid == blank else ",F" if sid[-1] in "02468" else ",M")
                         + ",")
        cohort = tmp_path / "blank.csv"
        cohort.write_text("\n".join(lines) + "\n")
        d = json.loads(Path(model).read_text())
        d["group_terms"] = ["sex"]
        spec = tmp_path / "sex.json"
        spec.write_text(json.dumps(d))
        code = main(["fit", "--model", str(spec), "--data", str(cohort),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "SpecError" in err and repr(blank) in err and "'sex'" in err
        # the blank 'site' column is used by no term, so the plain model still fits
        assert main(["fit", "--model", model, "--data", str(cohort),
                     "--out", str(tmp_path / "plain")]) == 0

    def test_spec_not_utf8_is_usage_error(self, tmp_path, workspace, capsys):
        _, data, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"schema_version": 1}')
        code = main(["fit", "--model", str(bad), "--data", data,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "SchemaError" in capsys.readouterr().err

    def test_cohort_not_utf8_is_usage_error(self, tmp_path, workspace, capsys):
        _, _, model = workspace
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"subject_id,time,sbp\na\xff,0.5,120\n")
        code = main(["fit", "--model", model, "--data", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "ParseError" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, workspace):
        _, _, model = workspace
        code = main(["fit", "--model", model, "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_nonconvergence_exit_code_with_diagnostics(self, tmp_path, workspace):
        _, data, model = workspace
        out = tmp_path / "nc"
        code = main(["fit", "--model", model, "--data", data, "--out", str(out),
                     "--max-iter", "1"])
        assert code == 3
        assert (out / "fit.json").exists()

    @pytest.mark.parametrize("option, value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"), ("--tol", "0"), ("--tol", "abc"),
        ("--max-iter", "0"), ("--max-iter", "-3"), ("--max-iter", "1.5"),
    ])
    def test_bad_tolerance_or_iteration_cap_is_usage_error(self, tmp_path, workspace, capsys,
                                                            option, value):
        _, data, model = workspace
        out = tmp_path / "bad"
        code = main(["fit", "--model", model, "--data", data, "--out", str(out),
                     option, value])
        assert code == 2
        assert option in capsys.readouterr().err
        assert not out.exists()

    def test_fit_json_round_trips_predictions(self, workspace):
        root, data, _ = workspace
        fitted = serialize.load_fitted_model(root / "fit" / "fit.json")
        cohort = a.read_cohort(data)
        refit = serialize.fitted_model_from_json(
            serialize.fitted_model_to_json(fitted)
        )
        grid = TimeGrid(np.linspace(0.5, 23.5, 30))
        v1 = a.population_curve(fitted, grid)
        v2 = a.population_curve(refit, grid)
        np.testing.assert_allclose(v1, v2, atol=1e-12)
        s = cohort.subjects[0]
        np.testing.assert_allclose(
            a.subject_profile(fitted, [s], grid),
            a.subject_profile(refit, [s], grid),
            atol=1e-12,
        )


class TestCompareCommand:
    def test_ranked_by_aic(self, workspace, tmp_path):
        root, data, model = workspace
        m1 = write_spec(tmp_path / "m1.json", 1)
        out = tmp_path / "cmp"
        code = main(["compare", "--model", model, "--model", m1,
                     "--data", data, "--out", str(out), "--force-reml-compare"])
        assert code == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[:5] == ["model", "aic", "bic", "model_r2", "converged"]
        aics = [float(l.split(",")[1]) for l in lines[1:]]
        assert aics == sorted(aics)

    def test_intercept_only_model_converges_with_empty_r2(self, workspace, tmp_path):
        _, data, model = workspace
        m0 = write_spec(tmp_path / "m0.json", 0)
        out = tmp_path / "cmp0"
        code = main(["compare", "--model", model, "--model", m0,
                     "--data", data, "--out", str(out), "--force-reml-compare"])
        assert code == 0
        rows = {r["model"]: r for r in csv.DictReader(io.StringIO(
            (out / "comparison.csv").read_text()))}
        assert rows["m0"]["converged"] == "true"
        assert rows["m0"]["model_r2"] == "" and rows["m0"]["error"] == ""
        assert rows["m2"]["model_r2"] != ""

    def test_single_model_is_usage_error(self, workspace, tmp_path):
        _, data, model = workspace
        code = main(["compare", "--model", model, "--data", data,
                     "--out", str(tmp_path / "c")])
        assert code == 2

    def test_cross_fixed_structure_needs_acknowledgment(self, workspace, tmp_path):
        _, data, model = workspace
        m1 = write_spec(tmp_path / "m1.json", 1)
        code = main(["compare", "--model", model, "--model", m1,
                     "--data", data, "--out", str(tmp_path / "c2")])
        assert code == 2

    def test_incomparable_specs_refused_before_any_fit(self, workspace, tmp_path,
                                                       monkeypatch):
        _, data, model = workspace
        m1 = write_spec(tmp_path / "m1.json", 1)
        fits = []
        monkeypatch.setattr(MixedModelProblem, "fit", lambda self, **kw: fits.append(kw))
        code = main(["compare", "--model", model, "--model", m1,
                     "--data", data, "--out", str(tmp_path / "c5")])
        assert code == 2
        assert fits == []

    def test_spline_fixed_basis_refused_without_traceback(self, workspace, tmp_path,
                                                          capsys):
        _, data, model = workspace
        spline = a.ModelSpec(
            fixed=a.BasisDescriptor("restricted_cubic_spline", knots=(2.0, 8.0, 14.0, 20.0)),
            random=a.BasisDescriptor("orthonormal_poly", 1),
        )
        rcs = tmp_path / "rcs.json"
        rcs.write_text(serialize.model_spec_to_json(spline))
        code = main(["compare", "--model", model, "--model", str(rcs),
                     "--data", data, "--out", str(tmp_path / "c6")])
        assert code == 2
        assert "ComparisonError" in capsys.readouterr().err

    def test_identical_model_twice_gives_identical_rows(self, workspace, tmp_path):
        _, data, model = workspace
        copy = tmp_path / "m2copy.json"
        shutil.copy(model, copy)
        out = tmp_path / "c3"
        code = main(["compare", "--model", model, "--model", str(copy),
                     "--data", data, "--out", str(out)])
        assert code == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()[1:]
        a1, a2 = (float(l.split(",")[1]) for l in lines)
        assert abs(a1 - a2) <= 1e-9

    def test_failing_model_reported_in_row(self, workspace, tmp_path):
        _, data, model = workspace
        bad = write_spec(tmp_path / "mbad.json", 30)
        out = tmp_path / "c4"
        code = main(["compare", "--model", model, "--model", bad,
                     "--data", data, "--out", str(out), "--force-reml-compare"])
        assert code == 0
        text = (out / "comparison.csv").read_text()
        assert "RankError" in text

    def test_unreadable_spec_reported_in_row(self, workspace, tmp_path):
        _, data, model = workspace
        m1 = write_spec(tmp_path / "m1.json", 1)
        junk = tmp_path / "mjunk.json"
        junk.write_text('{"schema_version": 1,')
        out = tmp_path / "c7"
        code = main(["compare", "--model", model, "--model", str(junk), "--model", m1,
                     "--data", data, "--out", str(out), "--force-reml-compare"])
        assert code == 0
        rows = {r["model"]: r for r in csv.DictReader(io.StringIO(
            (out / "comparison.csv").read_text()))}
        assert rows["mjunk"]["error"].startswith("SchemaError")
        assert rows["mjunk"]["aic"] == "" and rows["mjunk"]["converged"] == "false"
        assert all(rows[m]["error"] == "" and rows[m]["converged"] == "true"
                   for m in ("m1", "m2"))

    def test_every_model_failing_is_usage_error(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        junk = tmp_path / "mjunk.json"
        junk.write_text('{"schema_version": 1,')
        out = tmp_path / "c8"
        code = main(["compare", "--model", str(junk),
                     "--model", write_spec(tmp_path / "mbad.json", 30),
                     "--data", data, "--out", str(out), "--force-reml-compare"])
        assert code == 2
        assert "every model failed" in capsys.readouterr().err
        assert not out.exists()


def boundary_cohort(case, n_subjects, seed):
    """A cohort at an edge of the parameter space: constant or
    near-constant outcomes, no between-subject variation, or one subject."""
    rng = np.random.default_rng(seed)
    times = np.arange(24.0) + 0.5
    curve = 120.0 + 10.0 * np.sin(2.0 * np.pi * times / 24.0)
    if case == "single subject":
        n_subjects = 1
    subjects = []
    for i in range(n_subjects):
        y = {"constant y": np.full(times.size, 120.0),
             "near-constant y": 120.0 + 1e-9 * rng.normal(size=times.size),
             "no between-subject variation": curve + rng.normal(0.0, 3.0, size=times.size),
             "single subject": curve + rng.normal(0.0, 3.0, size=times.size)}[case]
        subjects.append(a.Subject(id=f"e{i}", times=TimeGrid(times), y=y))
    return a.Cohort(subjects=tuple(subjects))


class TestBoundaryFits:
    # unstructured fits of constant outcomes run to the iteration cap: keep it small
    @pytest.mark.parametrize("structure", ["diagonal", "unstructured"])
    @pytest.mark.parametrize("case", ["constant y", "near-constant y",
                                      "no between-subject variation", "single subject"])
    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(degree=st.integers(0, 2), n_subjects=st.integers(2, 6), seed=st.integers(0, 2**16))
    def test_end_in_an_estimate_or_a_typed_error(self, tmp_path_factory, case, structure, degree,
                                                 n_subjects, seed):
        cohort = boundary_cohort(case, n_subjects, seed)
        spec = a.ModelSpec(fixed=a.BasisDescriptor("orthonormal_poly", degree),
                           random=a.BasisDescriptor("orthonormal_poly", degree),
                           random_cov=structure)
        try:
            result = a.fit(spec, cohort, max_iter=20)
        except AbpmixError as exc:
            result = exc
        assert isinstance(result, (a.FittedModel, AbpmixError))

        root = tmp_path_factory.mktemp("boundary")
        data = root / "cohort.csv"
        write_cohort(data, cohort)
        model = write_spec(root / "model.json", degree, random_cov=structure)
        code = main(["fit", "--model", model, "--data", str(data), "--max-iter", "20",
                     "--out", str(root / "fit")])
        assert code in (0, 2, 3)
        if code != 2:
            code = main(["profiles", "--fit", str(root / "fit" / "fit.json"),
                         "--data", str(data), "--subjects", cohort.subjects[0].id,
                         "--out", str(root / "profiles")])
            assert code in (0, 2)


def cohort_with_age(data, path, bad_sid=None, bad_age=None, outlier=None):
    """A copy of the cohort CSV ``data`` at ``path`` with an ``age`` column,
    40 to 46 by subject: ``bad_age`` is the text of subject ``bad_sid``'s
    age, and ``outlier`` the text of the sixth record's outcome."""
    rows = Path(data).read_text().splitlines()
    lines = [rows[0] + ",age"]
    for i, row in enumerate(rows[1:]):
        sid, time, y = row.split(",")
        age = bad_age if sid == bad_sid else str(40 + int(sid[1:]) % 7)
        lines.append(",".join([sid, time, outlier if outlier and i == 5 else y, age]))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def spec_with_terms(model, path, **terms):
    d = json.loads(Path(model).read_text())
    d.update(terms)
    path.write_text(json.dumps(d))
    return str(path)


class TestNumericLimits:
    """Numbers that a fit cannot carry are usage errors (exit 2), never tracebacks."""

    @pytest.fixture(scope="class")
    def age_fit(self, workspace, tmp_path_factory):
        """(a spec with the numeric group term age, its fit.json on a good cohort)."""
        _, data, model = workspace
        root = tmp_path_factory.mktemp("age")
        spec = spec_with_terms(model, root / "age.json", group_terms=["age"])
        good = cohort_with_age(data, root / "good.csv")
        assert main(["fit", "--model", spec, "--data", good, "--out", str(root / "fit")]) == 0
        return spec, str(root / "fit" / "fit.json")

    @pytest.mark.parametrize("age", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("command", ["fit", "band", "profiles"])
    def test_non_finite_numeric_covariate_is_usage_error(self, workspace, age_fit, tmp_path,
                                                         capsys, command, age):
        _, data, _ = workspace
        spec, fit = age_fit
        cohort = cohort_with_age(data, tmp_path / "c.csv", "s0003", age)
        th = tmp_path / "th.json"
        th.write_text(json.dumps({"all": [-1e6, 1e6]}))
        argv = {"fit": ["fit", "--model", spec],
                "band": ["band", "--model", spec, "--thresholds", str(th)],
                "profiles": ["profiles", "--fit", fit, "--subjects", "s0002,s0003"]}[command]
        code = main(argv + ["--data", cohort, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: SpecError: covariate 'age' of subject 's0003' is not finite\n"

    @pytest.mark.parametrize("age", ["nan", "inf", "-inf", "1e400"])
    def test_compare_reports_a_non_finite_covariate_as_the_models_error(
            self, workspace, tmp_path, capsys, age):
        _, data, model = workspace
        cohort = cohort_with_age(data, tmp_path / "c.csv", "s0003", age)
        group = spec_with_terms(model, tmp_path / "group.json", group_terms=["age"])
        inter = spec_with_terms(model, tmp_path / "inter.json", interaction_terms=["age"])
        out = tmp_path / "o"
        argv = ["compare", "--data", cohort, "--out", str(out), "--force-reml-compare"]
        assert main(argv + ["--model", group, "--model", model]) == 0
        rows = list(csv.DictReader(io.StringIO((out / "comparison.csv").read_text())))
        assert [(r["model"], r["error"]) for r in rows] == [
            ("m2", ""), ("group", "SpecError: covariate 'age' of subject 's0003' is not finite")]
        # every model failing is a usage error
        assert main(argv + ["--model", group, "--model", inter]) == 2
        assert capsys.readouterr().err == "error: every model failed to fit\n"

    @pytest.mark.parametrize("outlier", ["1e50", "1e60", "-1e60", "1e160", "1e300"])
    def test_outcome_too_large_to_fit_is_usage_error(self, workspace, tmp_path, capsys,
                                                     outlier):
        _, data, model = workspace
        cohort = cohort_with_age(data, tmp_path / "c.csv", outlier=outlier)
        code = main(["fit", "--model", model, "--data", cohort, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ConditioningError: the OLS residual variance ")
        assert "beyond which the fitted variances could overflow" in err

    def test_outcomes_on_a_large_scale_still_fit(self, workspace, tmp_path):
        _, data, model = workspace
        rows = Path(data).read_text().splitlines()
        scaled = tmp_path / "scaled.csv"
        scaled.write_text("\n".join([rows[0]] + [
            f"{row.rsplit(',', 1)[0]},{float(row.rsplit(',', 1)[1]) * 1e40!r}"
            for row in rows[1:]]) + "\n")
        out = tmp_path / "o"
        assert main(["fit", "--model", model, "--data", str(scaled), "--out", str(out)]) == 0
        assert json.loads((out / "fit.json").read_text())["converged"] is True

    def test_numeric_covariate_whose_cross_products_overflow_is_usage_error(
            self, workspace, age_fit, tmp_path, capsys):
        _, data, _ = workspace
        spec, _ = age_fit
        cohort = cohort_with_age(data, tmp_path / "c.csv", "s0003", "1e308")
        code = main(["fit", "--model", spec, "--data", cohort, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ConditioningError: the fixed-effect cross-products X'X overflow\n")

    def test_profile_whose_mean_overflows_is_usage_error(self, workspace, age_fit, tmp_path,
                                                         capsys):
        _, data, _ = workspace
        _, fit = age_fit
        d = json.loads(Path(fit).read_text())
        d["beta_hat"][d["column_labels"].index("age")] = 10.0
        big = tmp_path / "fit.json"
        big.write_text(json.dumps(d))
        # 1e308 is a finite age, but ten times it is not
        cohort = cohort_with_age(data, tmp_path / "c.csv", "s0003", "1e308")
        out = tmp_path / "o"
        code = main(["profiles", "--fit", str(big), "--data", cohort,
                     "--subjects", "s0002,s0003", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: SpecError: the fitted curve of subject 's0003' is not finite\n")
        assert not (out / "profiles.csv").exists()

    @pytest.mark.parametrize("coding", [
        [["age", None], ["age2", None]],  # two columns of a numeric term
        [["age=a", "a"], ["age=b", None]],  # a null level among string levels
    ], ids=["two-numeric-columns", "null-among-strings"])
    def test_fit_json_encoder_breaking_the_coding_is_usage_error(
            self, workspace, age_fit, tmp_path, capsys, coding):
        _, data, _ = workspace
        _, fit = age_fit
        cohort = cohort_with_age(data, tmp_path / "c.csv")
        d = json.loads(Path(fit).read_text())
        assert d["encoder"] == {"age": [["age", None]]}
        q = len(d["beta_hat"]) - 1 + len(coding)
        d.update(encoder={"age": coding}, beta_hat=[1.0] * q, cov_beta=np.eye(q).tolist(),
                 column_labels=[f"c{j}" for j in range(q)])
        bad = tmp_path / "fit.json"
        bad.write_text(json.dumps(d))
        code = main(["profiles", "--fit", str(bad), "--data", cohort, "--subjects", "s0003",
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: SchemaError: fitted model: encoder must be ")


class TestProfilesCommand:
    def test_three_subjects_give_five_series(self, workspace, tmp_path):
        root, data, _ = workspace
        out = tmp_path / "p"
        code = main(["profiles", "--fit", str(root / "fit" / "fit.json"),
                     "--data", data, "--subjects", "s0000,s0001,s0002",
                     "--out", str(out), "--svg"])
        assert code == 0
        lines = (out / "profiles.csv").read_text().strip().splitlines()[1:]
        series = {l.split(",")[1] for l in lines}
        assert series == {"subject:s0000", "subject:s0001", "subject:s0002",
                          "population", "band"}
        assert (out / "profiles.svg").read_text()[:4] == "<svg"

    def test_svg_escapes_subject_labels(self, workspace, tmp_path):
        root, data, _ = workspace
        cohort = dataio.read_cohort(data)
        first = cohort.subjects[0]
        renamed = a.Cohort(subjects=(a.Subject(id="a<b&c", times=first.times, y=first.y),)
                           + cohort.subjects[1:])
        write_cohort(tmp_path / "c.csv", renamed)
        out = tmp_path / "svg"
        assert main(["profiles", "--fit", str(root / "fit" / "fit.json"),
                     "--data", str(tmp_path / "c.csv"), "--subjects", "a<b&c",
                     "--out", str(out), "--svg"]) == 0
        texts = ElementTree.parse(out / "profiles.svg").getroot().iter(
            "{http://www.w3.org/2000/svg}text")
        assert "subject:a<b&c" in [t.text for t in texts]

    def test_svg_replaces_characters_xml_cannot_hold(self, workspace, tmp_path):
        # a C0 control in an id survives the cohort CSV and the profiles CSV;
        # in the SVG it becomes U+FFFD, so that an XML parser reads the file
        root, data, _ = workspace
        cohort = dataio.read_cohort(data)
        first = cohort.subjects[0]
        renamed = a.Cohort(subjects=(a.Subject(id="a\x01b", times=first.times, y=first.y),)
                           + cohort.subjects[1:])
        write_cohort(tmp_path / "c.csv", renamed)
        assert dataio.read_cohort(tmp_path / "c.csv").subjects[0].id == "a\x01b"
        out = tmp_path / "svg"
        assert main(["profiles", "--fit", str(root / "fit" / "fit.json"),
                     "--data", str(tmp_path / "c.csv"), "--subjects", "a\x01b",
                     "--out", str(out), "--svg"]) == 0
        svg_root = ElementTree.fromstring((out / "profiles.svg").read_text(encoding="utf-8"))
        texts = [t.text for t in svg_root.iter("{http://www.w3.org/2000/svg}text")]
        assert "subject:a\ufffdb" in texts
        with open(out / "profiles.csv", encoding="utf-8", newline="") as fh:
            assert "subject:a\x01b" in {row[1] for row in csv.reader(fh)}

    def test_out_of_memory_is_usage_error(self, workspace, tmp_path, capsys):
        # what numpy raises for a grid of subject profiles too large to allocate
        root, data, _ = workspace
        out = tmp_path / "pmem"
        with mock.patch.object(blup, "subject_profile",
                               side_effect=MemoryError("Unable to allocate 1.93 GiB")):
            code = main(["profiles", "--fit", str(root / "fit" / "fit.json"), "--data", data,
                         "--subjects", "s0000", "--grid-points", "86401", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: MemoryError: Unable to allocate 1.93 GiB\n"
        assert not out.exists()

    def test_empty_subject_list(self, workspace, tmp_path):
        root, data, _ = workspace
        out = tmp_path / "p0"
        code = main(["profiles", "--fit", str(root / "fit" / "fit.json"),
                     "--data", data, "--out", str(out)])
        assert code == 0
        series = {
            l.split(",")[1]
            for l in (out / "profiles.csv").read_text().strip().splitlines()[1:]
        }
        assert series == {"population", "band"}

    def test_unknown_subject_is_usage_error(self, workspace, tmp_path):
        root, data, _ = workspace
        code = main(["profiles", "--fit", str(root / "fit" / "fit.json"),
                     "--data", data, "--subjects", "ghost",
                     "--out", str(tmp_path / "pg")])
        assert code == 2

    def test_repeated_subject_is_usage_error(self, workspace, tmp_path, capsys):
        root, data, _ = workspace
        out = tmp_path / "pdup"
        code = main(["profiles", "--fit", str(root / "fit" / "fit.json"),
                     "--data", data, "--subjects", "s0000,s0001,s0000", "--out", str(out)])
        assert code == 2
        assert "repeated subject id 's0000'" in capsys.readouterr().err
        assert not out.exists()

    def test_quoted_subject_id_may_hold_a_comma(self, workspace, tmp_path):
        # --subjects is one CSV record: the profile of the quoted id is that
        # of the same subject under its plain id in the original cohort
        root, data, _ = workspace
        cohort = dataio.read_cohort(data)
        first = cohort.subjects[0]
        renamed = a.Cohort(subjects=(a.Subject(id=f"{first.id},x", times=first.times,
                                               y=first.y),) + cohort.subjects[1:])
        write_cohort(tmp_path / "c.csv", renamed)
        fit = str(root / "fit" / "fit.json")
        assert main(["profiles", "--fit", fit, "--data", str(tmp_path / "c.csv"),
                     "--subjects", f'"{first.id},x",s0001', "--out", str(tmp_path / "q")]) == 0
        assert main(["profiles", "--fit", fit, "--data", data,
                     "--subjects", f"{first.id},s0001", "--out", str(tmp_path / "p")]) == 0
        quoted = (tmp_path / "q" / "profiles.csv").read_text(encoding="utf-8")
        plain = (tmp_path / "p" / "profiles.csv").read_text(encoding="utf-8")
        assert quoted == plain.replace(f",subject:{first.id},", f',"subject:{first.id},x",')
        assert quoted != plain

    def test_unterminated_quote_in_subjects_is_usage_error(self, workspace, tmp_path, capsys):
        root, data, _ = workspace
        out = tmp_path / "pq"
        code = main(["profiles", "--fit", str(root / "fit" / "fit.json"), "--data", data,
                     "--subjects", '"s0000,s0001', "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "argument --subjects: not one CSV record: unexpected end of data" in err
        assert not out.exists()

    def test_carriage_return_in_subject_id_reads_back(self, workspace, tmp_path):
        # an unquoted carriage return ends a record for the reader, so the
        # cohort and the plot CSV must quote it like a line feed
        root, data, _ = workspace
        cohort = dataio.read_cohort(data)
        first = cohort.subjects[0]
        renamed = a.Cohort(subjects=(a.Subject(id="a\rb", times=first.times, y=first.y),)
                           + cohort.subjects[1:])
        write_cohort(tmp_path / "c.csv", renamed)
        back = dataio.read_cohort(tmp_path / "c.csv")
        assert [s.id for s in back] == [s.id for s in renamed]
        out = tmp_path / "pcr"
        assert main(["profiles", "--fit", str(root / "fit" / "fit.json"),
                     "--data", str(tmp_path / "c.csv"), "--subjects", "a\rb",
                     "--out", str(out)]) == 0
        with open(out / "profiles.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {5}
        assert {row[1] for row in rows[1:]} == {"subject:a\rb", "population", "band"}

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_usage_error(self, workspace, tmp_path, capsys, workers):
        root, data, _ = workspace
        out = tmp_path / "pw"
        code = main(["profiles", "--fit", str(root / "fit" / "fit.json"), "--data", data,
                     "--subjects", "s0000", "--out", str(out), "--workers", workers])
        assert code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


    def test_fit_json_missing_field_is_usage_error(self, workspace, tmp_path, capsys):
        root, data, _ = workspace
        d = json.loads((root / "fit" / "fit.json").read_text())
        del d["beta_hat"]
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps(d))
        code = main(["profiles", "--fit", str(fit), "--data", data,
                     "--subjects", "s0000", "--out", str(tmp_path / "pm")])
        assert code == 2
        assert "SchemaError" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("beta_hat", "x"),
        ("beta_hat", [1.0, "a", 2.0]),
        ("beta_hat", [1.0, 2.0]),
        ("cov_beta", [[1.0]]),
        ("cov_beta", [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]),
        ("cov_beta", [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        ("sigma_d_hat", [[1.0, 0.0], [0.0, 1.0]]),
        ("sigma_d_hat", None),
        ("theta", [0.0]),
        ("theta", [True, False, True, False]),
        ("sigma2_hat", "x"),
        ("iterations", 3.5),
        ("column_labels", "intercept"),
        ("encoder", {"diet": 3}),
        ("encoder", {"diet": [["diet=a", 1]]}),  # a level neither a string nor null
        ("encoder", {"diet": [["diet=a", "a", "b"]]}),
        ("method", 1),
        ("loglik", "x"),
        ("converged", "true"),
        ("gradient_norm", None),
        ("n_subjects", 2.5),
        ("n_obs", "72"),
        ("spec", "m2"),
        # impossible values: json.dumps writes NaN and Infinity, and json.loads reads them
        ("beta_hat", [np.nan, 1.0, 2.0]),
        ("cov_beta", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.inf]]),
        ("cov_beta", [[1.0, 1e-6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # asymmetric
        ("cov_beta", [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # eigenvalue -1
        ("sigma_d_hat", [[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ("sigma_d_hat", [[1.0, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 1.0]]),
        ("sigma_d_hat", [[1.0, 1e-6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # asymmetric
        ("sigma_d_hat", [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # eigenvalue -1
        ("sigma2_hat", np.nan),
        ("sigma2_hat", np.inf),
        ("sigma2_hat", -1.0),
        ("theta", [0.0, 0.0, 0.0, -np.inf]),
    ], ids=lambda v: v if isinstance(v, str) else repr(v)[:20])
    def test_fit_json_value_of_wrong_type_or_shape_is_usage_error(self, workspace, tmp_path,
                                                                   capsys, key, value):
        root, data, _ = workspace
        d = json.loads((root / "fit" / "fit.json").read_text())
        d[key] = value
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps(d))
        code = main(["profiles", "--fit", str(fit), "--data", data,
                     "--subjects", "s0000", "--out", str(tmp_path / "pm")])
        assert code == 2
        assert "SchemaError" in capsys.readouterr().err

    def test_fit_json_encoder_lacking_a_term_is_usage_error(self, workspace, tmp_path, capsys):
        root, data, _ = workspace
        d = json.loads((root / "fit" / "fit.json").read_text())
        d["spec"]["group_terms"] = ["diet"]
        d["encoder"] = {"age": [["age", None]]}
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps(d))
        code = main(["profiles", "--fit", str(fit), "--data", data,
                     "--subjects", "s0000", "--out", str(tmp_path / "pm")])
        assert code == 2
        assert "SchemaError" in capsys.readouterr().err

    def test_plot_csv_quotes_labels_like_csv_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        times = np.linspace(0.0, 24.0, 97)
        # every branch of format_g17; 100 + 2**-15 is a tie at the 17th digit
        special = [-130.25, 0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-5, 123.0, 1e16,
                   100.000030517578125]
        labels = ['subject:o"b,1%s', "subject:100%", "band", "line\nbreak", '"', ""]
        if sys.version_info >= (3, 11):  # csv.writer writes NUL from 3.11 on
            labels.append("nul\x00id")
        series = []
        for i in range(90):  # more numbers than one default block holds
            columns = rng.normal(120.0, 40.0, size=(3 if i % 7 == 3 else 1, times.size))
            columns[:, i % 80:i % 80 + len(special)] = special
            series.append((f"{labels[i % len(labels)]}:{i}", *columns))

        def expected(series):
            def g17(x):
                return format(float(x), ".17g")

            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["time", "series", "value", "lower", "upper"])
            for label, values, *bounds in series:
                for i, t in enumerate(times):
                    writer.writerow([g17(t), label, g17(values[i])]
                                    + [g17(b[i]) for b in bounds] + [""] * (2 - len(bounds)))
            return buf.getvalue().encode("utf-8")

        def groups(series):  # one group each, interleaving plain and banded series
            return [([label], np.stack(columns)[None]) for label, *columns in series]

        def runs(series):  # a group per run of series with as many columns
            return [([label for label, *_ in run], np.array([columns for _, *columns in run]))
                    for run in (list(run) for _, run in itertools.groupby(series, len))]

        # 7 numbers a block: each series alone; 300: three plain series or one banded
        for block in (7, 300, dataio.BLOCK_VALUES):
            for layout in (groups, runs):
                with mock.patch.object(dataio, "BLOCK_VALUES", block):
                    write_series(tmp_path / "p.csv", times, layout(series))
                assert (tmp_path / "p.csv").read_bytes() == expected(series)
        # a small file, such as band's, in one call
        few = series[3:7]  # a banded series, and a line break, a quote and NUL in labels
        write_series(tmp_path / "f.csv", times, groups(few))
        assert (tmp_path / "f.csv").read_bytes() == expected(few)


# NaN, the infinities, subnormals and the neighbours of 0 and 1, then any float
band_floats = st.sampled_from([
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
    1.0 - 2.0 ** -52, 1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, 1e308, 1.7976931348623157e308,
]) | st.floats()


class TestBandCommand:
    def band_values(self, path):
        rows = [l.split(",") for l in path.read_text().strip().splitlines()[1:]]
        lo = [float(r[3]) for r in rows if r[1] == "band"]
        hi = [float(r[4]) for r in rows if r[1] == "band"]
        return np.asarray(lo), np.asarray(hi)

    def test_band_from_thresholded_refit(self, workspace, tmp_path):
        _, data, model = workspace
        th = tmp_path / "th.json"
        th.write_text(json.dumps({"all": [-1e6, 1e6]}))
        out = tmp_path / "b"
        code = main(["band", "--model", model, "--thresholds", str(th),
                     "--data", data, "--out", str(out)])
        assert code == 0
        lo, hi = self.band_values(out / "band.csv")
        assert np.all(lo < hi)

    def test_band_nesting_surfaces_end_to_end(self, workspace, tmp_path):
        root, data, _ = workspace
        fit = str(root / "fit" / "fit.json")
        o90, o95 = tmp_path / "b90", tmp_path / "b95"
        assert main(["band", "--fit", fit, "--data", data, "--out", str(o90),
                     "--band-level", "0.90"]) == 0
        assert main(["band", "--fit", fit, "--data", data, "--out", str(o95),
                     "--band-level", "0.95"]) == 0
        lo90, hi90 = self.band_values(o90 / "band.csv")
        lo95, hi95 = self.band_values(o95 / "band.csv")
        assert np.all(lo95 <= lo90) and np.all(hi95 >= hi90)

    @pytest.mark.parametrize("text", ['{"all": [100, ', '{"noon": [100, 140]}',
                                      '[[100, 140]]', '{"all": [90, 140], "3": [100, 120]}',
                                      '{"24": [90, 140]}', '{"all": [true, 140]}',
                                      '{"5": ["90", 140]}'])
    def test_malformed_thresholds_is_usage_error(self, workspace, tmp_path, capsys, text):
        _, data, model = workspace
        th = tmp_path / "th.json"
        th.write_text(text)
        code = main(["band", "--model", model, "--thresholds", str(th),
                     "--data", data, "--out", str(tmp_path / "bm")])
        assert code == 2
        assert "SchemaError" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [{"all": [150, 90]}, {"3": [150, 90]}])
    def test_inverted_thresholds_are_usage_error(self, workspace, tmp_path, capsys, bounds):
        _, data, model = workspace
        th = tmp_path / "th.json"
        th.write_text(json.dumps(bounds))
        code = main(["band", "--model", model, "--thresholds", str(th),
                     "--data", data, "--out", str(tmp_path / "bi")])
        assert code == 2
        assert "SchemaError" in capsys.readouterr().err
        with pytest.raises(SchemaError, match="hour"):
            serialize.load_thresholds(th)

    @pytest.mark.parametrize("command", ["band", "profiles"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_band_multiplier_is_usage_error(self, workspace, tmp_path, capsys,
                                                       command, value):
        root, data, _ = workspace
        out = tmp_path / "bad"
        code = main([command, "--fit", str(root / "fit" / "fit.json"), "--data", data,
                     "--out", str(out), "--band-multiplier", value])
        assert code == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["band", "profiles"])
    @pytest.mark.parametrize("value", ["0", "1", "1.5", "-0.1", "nan"])
    def test_band_level_outside_unit_interval_is_usage_error(self, workspace, tmp_path,
                                                            capsys, command, value):
        root, data, _ = workspace
        out = tmp_path / "bl"
        code = main([command, "--fit", str(root / "fit" / "fit.json"), "--data", data,
                     "--out", str(out), "--band-level", value])
        assert code == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["band", "profiles"])
    def test_band_level_whose_quantile_rounds_to_one_is_usage_error(self, workspace, tmp_path,
                                                                    capsys, command):
        # the largest double below 1: 0.5 * (1 + level) rounds to 1, whose quantile is infinite
        root, data, _ = workspace
        out = tmp_path / "bl"
        code = main([command, "--fit", str(root / "fit" / "fit.json"), "--data", data,
                     "--out", str(out), "--band-level", "0.99999999999999989"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ConfigError: band level must be in (0, 1), at most 1 - 2**-52\n")
        assert not out.exists()

    def test_band_whose_half_width_overflows_is_usage_error(self, workspace, tmp_path, capsys):
        root, _, _ = workspace
        out = tmp_path / "wide"
        code = main(["band", "--fit", str(root / "fit" / "fit.json"), "--out", str(out),
                     "--band-multiplier", "1e308"])
        assert code == 2
        assert capsys.readouterr().err == "error: SpecError: the prediction band is not finite\n"
        assert not out.exists()

    def test_band_whose_lower_bound_overflows_is_usage_error(self, workspace, tmp_path, capsys):
        # a finite center and upper bound, but 2 * center overflows: lower was inf, above upper
        root, _, _ = workspace
        d = json.loads((root / "fit" / "fit.json").read_text())
        d["beta_hat"] = [1.7e308] * 3
        big = tmp_path / "fit.json"
        big.write_text(json.dumps(d))
        out = tmp_path / "high"
        assert main(["band", "--fit", str(big), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: SpecError: the prediction band is not finite\n"
        assert not out.exists()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(level=st.none() | band_floats, multiplier=st.none() | band_floats)
    def test_any_band_level_or_multiplier_gives_a_finite_ordered_band_or_exit_2(
            self, workspace, level, multiplier):
        root, _, _ = workspace
        out = root / "band_property"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["band", "--fit", str(root / "fit" / "fit.json"), "--out", str(out)]
        argv += [] if level is None else [f"--band-level={level!r}"]
        argv += [] if multiplier is None else [f"--band-multiplier={multiplier!r}"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().count("\n") == 1 and not out.exists()
            return
        with open(out / "band.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        numbers = [float(v) for r in rows for k, v in r.items() if k != "series" and v]
        assert np.isfinite(numbers).all()
        band = [r for r in rows if r["series"] == "band"]
        assert band and all(float(r["lower"]) <= float(r["value"]) <= float(r["upper"])
                            for r in band)

    @pytest.mark.parametrize("command", ["band", "profiles"])
    @pytest.mark.parametrize("value", ["99", "24", "-3", "1.5", "noon"])
    def test_start_hour_outside_the_clock_is_usage_error(self, workspace, tmp_path, capsys,
                                                         command, value):
        root, data, _ = workspace
        out = tmp_path / "sh"
        code = main([command, "--fit", str(root / "fit" / "fit.json"), "--data", data,
                     "--out", str(out), "--svg", "--start-hour", value])
        assert code == 2
        assert "--start-hour" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["band", "profiles"])
    def test_start_hour_labels_the_clock_axis(self, workspace, tmp_path, command):
        root, data, _ = workspace
        out = tmp_path / "sh"
        code = main([command, "--fit", str(root / "fit" / "fit.json"), "--data", data,
                     "--out", str(out), "--svg", "--start-hour", "23"])
        assert code == 0
        text = (out / f"{command}.svg").read_text()
        assert "clock hour" in text and ">23<" in text

    def test_band_requires_fit_or_model(self, workspace, tmp_path):
        _, data, _ = workspace
        code = main(["band", "--data", data, "--out", str(tmp_path / "bx")])
        assert code == 2

    def test_band_from_fit_reads_no_data(self, workspace, tmp_path):
        root, data, _ = workspace
        fit = str(root / "fit" / "fit.json")
        read, unread = tmp_path / "bd", tmp_path / "bn"
        assert main(["band", "--fit", fit, "--data", data, "--out", str(read)]) == 0
        assert main(["band", "--fit", fit, "--data", str(tmp_path / "nope.csv"),
                     "--out", str(unread)]) == 0
        assert (unread / "band.csv").read_bytes() == (read / "band.csv").read_bytes()

    def test_band_from_model_needs_data(self, workspace, tmp_path, capsys):
        _, _, model = workspace
        th = tmp_path / "th.json"
        th.write_text(json.dumps({"all": [-1e6, 1e6]}))
        out = tmp_path / "bnd"
        code = main(["band", "--model", model, "--thresholds", str(th), "--out", str(out)])
        assert code == 2
        assert "--data" in capsys.readouterr().err
        assert not out.exists()

    def test_band_from_fit_with_negative_cov_beta_is_usage_error(self, workspace, tmp_path,
                                                                  capsys):
        # without the check, every band bound is the square root of a negative variance
        root, _, _ = workspace
        d = json.loads((root / "fit" / "fit.json").read_text())
        d["cov_beta"][0][0] = -1e6
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps(d))
        out = tmp_path / "bcov"
        code = main(["band", "--fit", str(fit), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "SchemaError" in err and "cov_beta" in err
        assert not out.exists()

    def test_band_nonconvergence_exit_code(self, workspace, tmp_path, capsys):
        _, data, model = workspace
        th = tmp_path / "th.json"
        th.write_text(json.dumps({"all": [-1e6, 1e6]}))
        out = tmp_path / "bnc"
        code = main(["band", "--model", model, "--thresholds", str(th), "--data", data,
                     "--out", str(out), "--max-iter", "1"])
        assert code == 3
        assert "non-convergence" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_sim_config(tmp_path / "sim.json", n_subjects=5)
        o1, o2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--config", cfg, "--out", str(o1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(o2), "--seed", "99"]) == 0
        assert (o1 / "cohort.csv").read_bytes() != (o2 / "cohort.csv").read_bytes()

    def test_config_missing_field_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.json"
        d = json.loads(Path(write_sim_config(cfg, n_subjects=5)).read_text())
        del d["sigma2"]
        cfg.write_text(json.dumps(d))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
        assert "SchemaError" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("sigma2", "x"), ("beta", "x"), ("missing_rate", None),
        ("sigma_d", [[60.0, 0.0, 0.0], [0.0, 30.0]]), ("base_times", "abc"),
        ("n_subjects", "5"), ("seed", 1.5), ("time_jitter_sd", "0.1"), ("spec", [2]),
    ])
    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, capsys, field, value):
        cfg = write_sim_config(tmp_path / "sim.json", **{"n_subjects": 5, field: value})
        out = tmp_path / "s"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "SchemaError" in err and field in err
        assert not out.exists()

    @pytest.mark.parametrize("config_seed, option", [(-1, []), (5, ["--seed", "-1"])])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, config_seed, option):
        cfg = write_sim_config(tmp_path / "sim.json", n_subjects=5, seed=config_seed)
        out = tmp_path / "s"
        assert main(["simulate", "--config", cfg, "--out", str(out)] + option) == 2
        assert "ConfigError: seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        cfg = write_sim_config(tmp_path / "sim.json", n_subjects=5)
        out = tmp_path / "s"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identity_across_runs_and_workers(self, tmp_path):
        cfg = write_sim_config(tmp_path / "sim.json", n_subjects=15, missing_rate=0.1)
        outs = []
        for name, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--out", str(out),
                         "--workers", workers]) == 0
            outs.append((out / "cohort.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("fmt, error", [
    ("model spec", "SpecError"), ("basis descriptor", "SpecError"),
    ("fitted model", "SchemaError"), ("simulation config", "SchemaError"),
])
def test_unknown_field_is_usage_error_of_its_format(workspace, tmp_path, capsys, fmt, error):
    root, data, model = workspace
    bad = tmp_path / "bad.json"
    if fmt == "simulation config":
        d = json.loads(Path(write_sim_config(bad, n_subjects=5)).read_text())
        argv = ["simulate", "--config", str(bad)]
    elif fmt == "fitted model":
        d = json.loads((root / "fit" / "fit.json").read_text())
        argv = ["band", "--fit", str(bad)]
    else:
        d = json.loads(Path(model).read_text())
        argv = ["fit", "--model", str(bad), "--data", data]
    (d["fixed"] if fmt == "basis descriptor" else d)["surprise"] = 1
    bad.write_text(json.dumps(d))
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert f"{error}: {fmt}: unknown fields ['surprise']" in capsys.readouterr().err



BEYOND_FLOAT = 10 ** 400  # a JSON integer that no float holds


@pytest.mark.parametrize("fmt, field, value", [
    ("fitted model", "loglik", BEYOND_FLOAT), ("fitted model", "sigma2_hat", BEYOND_FLOAT),
    ("fitted model", "loglik", float("nan")), ("fitted model", "gradient_norm", float("inf")),
    ("basis descriptor", "knots", BEYOND_FLOAT),
    ("simulation config", "sigma2", BEYOND_FLOAT), ("simulation config", "sigma2", float("nan")),
    ("simulation config", "time_jitter_sd", BEYOND_FLOAT),
    ("simulation config", "time_jitter_sd", -float("inf")),
])
def test_number_that_is_no_finite_float_is_usage_error(workspace, tmp_path, capsys, fmt, field,
                                                        value):
    root, data, model = workspace
    bad = tmp_path / "bad.json"
    if fmt == "fitted model":
        d = json.loads((root / "fit" / "fit.json").read_text())
        d[field] = value
        argv = ["band", "--fit", str(bad), "--data", data]
    elif fmt == "basis descriptor":  # of a model spec
        d = {"schema_version": 1,
             "fixed": {"kind": "restricted_cubic_spline", "knots": [6.0, 12.0, value]},
             "random": {"kind": "natural_poly", "degree": 1}}
        argv = ["fit", "--model", str(bad), "--data", data]
    else:
        d = json.loads(Path(write_sim_config(bad, n_subjects=5)).read_text())
        d[field] = value
        argv = ["simulate", "--config", str(bad)]
    bad.write_text(json.dumps(d))  # NaN, Infinity and -Infinity as Python's json writes them
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"SchemaError: {fmt}: {field} must be" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("fmt, field", [
    ("model spec", "reference_grid_points"), ("fitted model", "iterations"),
    ("simulation config", "seed"), ("simulation config", "n_subjects"),
])
def test_integer_beyond_int64_is_usage_error(workspace, tmp_path, capsys, fmt, field):
    # a reference grid of 10^400 points once reached np.linspace and a traceback
    root, data, model = workspace
    bad = tmp_path / "bad.json"
    if fmt == "fitted model":
        d = json.loads((root / "fit" / "fit.json").read_text())
        argv = ["band", "--fit", str(bad), "--data", data]
    elif fmt == "model spec":
        d = json.loads(Path(model).read_text())
        argv = ["fit", "--model", str(bad), "--data", data]
    else:
        d = json.loads(Path(write_sim_config(bad, n_subjects=5)).read_text())
        argv = ["simulate", "--config", str(bad)]
    d[field] = BEYOND_FLOAT
    bad.write_text(json.dumps(d))
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"SchemaError: {fmt}: {field} must be an integer" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["model spec", "fitted model"])
def test_oversized_reference_grid_is_usage_error(workspace, tmp_path, capsys, fmt):
    # 10^12 points once reached np.linspace, whose failed 7.28 TiB allocation was a traceback
    root, data, model = workspace
    bad = tmp_path / "bad.json"
    if fmt == "fitted model":
        d = json.loads((root / "fit" / "fit.json").read_text())
        d["spec"]["reference_grid_points"] = 10 ** 12
        argv = ["band", "--fit", str(bad)]
    else:
        d = json.loads(Path(model).read_text())
        d["reference_grid_points"] = 10 ** 12
        argv = ["fit", "--model", str(bad), "--data", data]
    bad.write_text(json.dumps(d))
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "GridError: at most 86401 grid points, not 1000000000000" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["profiles", "band"])
def test_oversized_plot_grid_is_usage_error(workspace, tmp_path, capsys, command):
    root, data, _ = workspace
    out = tmp_path / "o"
    assert main([command, "--fit", str(root / "fit" / "fit.json"), "--data", data,
                 "--grid-points", str(10 ** 12), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "GridError: at most 86401 grid points, not 1000000000000" in err
    assert "Traceback" not in err and not out.exists()


def hand_built_fit(group_terms=()):
    """A FittedModel made without fitting: a degree-1 mean, a random
    intercept and the given terms of three subjects' covariates, diet
    (categorical, reference level "control") and age (numeric)."""
    subjects = tuple(
        a.Subject(id=f"s{i}", times=hourly_midpoints(), y=np.full(24, 120.0),
                  covariates={"diet": diet, "age": 40.0 + i})
        for i, diet in enumerate(["salt", "control", "dash"]))
    spec = a.ModelSpec(fixed=a.BasisDescriptor("orthonormal_poly", 1),
                       random=a.BasisDescriptor("orthonormal_poly", 0),
                       group_terms=group_terms, reference_levels={"diet": "control"})
    context = a.BasisContext(spec, a.Cohort(subjects=subjects))
    labels = context.fixed_column_labels()
    q = len(labels)
    return a.FittedModel(
        spec=spec, method="REML", beta_hat=np.arange(1.0, q + 1.0) / 4.0,
        cov_beta=np.eye(q) / 8.0, sigma_d_hat=np.array([[2.5]]), sigma2_hat=16.0,
        loglik=-123.25, converged=True, iterations=7, gradient_norm=1e-9,
        params=a.CovarianceParams("diagonal", 1, np.array([0.5, 2.0])), n_subjects=3,
        n_obs=72, column_labels=labels, context=context)


class TestFitJson:
    def test_text_is_pinned(self):
        text = serialize.fitted_model_to_json(hand_built_fit(("diet", "age")))
        expected = {
            "schema_version": 1,
            "spec": {"fixed": {"kind": "orthonormal_poly", "degree": 1},
                     "random": {"kind": "orthonormal_poly", "degree": 0},
                     "random_cov": "diagonal", "group_terms": ["diet", "age"],
                     "interaction_terms": [], "reference_grid_points": 49,
                     "orthonormalize_random": True, "reference_levels": {"diet": "control"}},
            "method": "REML",
            "beta_hat": [0.25, 0.5, 0.75, 1.0, 1.25],
            "cov_beta": [[0.125 if i == j else 0.0 for j in range(5)] for i in range(5)],
            "sigma_d_hat": [[2.5]],
            "sigma2_hat": 16.0,
            "loglik": -123.25,
            "converged": True,
            "iterations": 7,
            "gradient_norm": 1e-9,
            "theta": [0.5, 2.0],
            "n_subjects": 3,
            "n_obs": 72,
            "column_labels": ["intercept", "time^1", "diet=dash", "diet=salt", "age"],
            "encoder": {"diet": [["diet=dash", "dash"], ["diet=salt", "salt"]],
                        "age": [["age", None]]},
        }
        assert text == json.dumps(expected, indent=2)
        assert text.startswith('{\n  "schema_version": 1,\n  "spec": {\n    "fixed": {\n')
        assert '\n    "age": [\n      [\n        "age",\n        null\n      ]' in text
        plain = serialize.fitted_model_to_json(hand_built_fit())
        assert plain.endswith('    "time^1"\n  ],\n  "encoder": null\n}')

    def test_numbers_are_read_as_floats(self):
        d = json.loads(serialize.fitted_model_to_json(hand_built_fit()))
        d.update(sigma2_hat=16, loglik=-123, gradient_norm=0)
        back = serialize.fitted_model_from_json(json.dumps(d))
        assert [type(v) for v in (back.sigma2_hat, back.loglik, back.gradient_norm)] == [float] * 3

    def test_round_trip_with_covariates(self, workspace):
        _, data, _ = workspace
        levels = ["control", "salt", "dash"]
        cohort = a.Cohort(subjects=tuple(
            a.Subject(id=s.id, times=s.times, y=s.y + 4.0 * (i % 3),
                      covariates={"diet": levels[i % 3], "age": 40.0 + i % 7})
            for i, s in enumerate(a.read_cohort(data))))
        spec = a.ModelSpec(fixed=a.BasisDescriptor("orthonormal_poly", 2),
                           random=a.BasisDescriptor("orthonormal_poly", 1),
                           random_cov="unstructured", group_terms=("diet", "age"),
                           interaction_terms=("diet",), reference_levels={"diet": "control"})
        fitted = a.fit(spec, cohort)
        text = serialize.fitted_model_to_json(fitted)
        back = serialize.fitted_model_from_json(text)
        assert back.context.encoder == fitted.context.encoder == {
            "diet": (("diet=dash", "dash"), ("diet=salt", "salt")), "age": (("age", None),)}
        assert list(back.context.encoder) == ["diet", "age"]
        assert back.column_labels == fitted.column_labels and back.spec == spec
        assert serialize.fitted_model_to_json(back) == text
        grid = TimeGrid(np.linspace(0.0, 24.0, 9))
        for s in cohort.subjects[:3]:  # one subject of each diet
            np.testing.assert_array_equal(a.subject_profile(back, [s], grid),
                                          a.subject_profile(fitted, [s], grid))

    def test_roundoff_in_sigma_d_still_loads(self, workspace):
        root, _, _ = workspace
        d = json.loads((root / "fit" / "fit.json").read_text())
        sd = np.array(d["sigma_d_hat"])
        tiny = 1e-14 * np.abs(sd).max()
        sd[0, 1] += tiny  # asymmetric by roundoff
        sd[1, 1] = sd[2, 2] = 0.0  # a zero variance, then a -tiny eigenvalue
        sd[1, 2] = sd[2, 1] = tiny
        d["sigma_d_hat"] = sd.tolist()
        back = serialize.fitted_model_from_json(json.dumps(d))
        np.testing.assert_array_equal(back.sigma_d_hat, sd)

    @pytest.mark.parametrize("max_iter, code", [("500", 0), ("1", 3)])
    @pytest.mark.parametrize("structure", ["diagonal", "unstructured"])
    def test_fit_json_written_by_fit_loads(self, workspace, tmp_path, structure, max_iter, code):
        _, data, _ = workspace
        model = write_spec(tmp_path / "m.json", 2, random_cov=structure)
        out = tmp_path / "f"
        assert main(["fit", "--model", model, "--data", data, "--out", str(out),
                     "--max-iter", max_iter]) == code
        text = (out / "fit.json").read_text()
        assert serialize.fitted_model_to_json(serialize.fitted_model_from_json(text)) == text
        assert main(["band", "--fit", str(out / "fit.json"), "--out", str(tmp_path / "b")]) == 0


_NO_SCIPY_SCRIPT = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from abpmix.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(name for name in sys.modules if name.startswith("scipy"))}))
"""


def _every_command(out):
    data, fit = f"{out}/sim/cohort.csv", f"{out}/fit/fit.json"
    return [
        ["simulate", "--config", "sim.json", "--out", f"{out}/sim"],
        ["fit", "--model", "m2.json", "--data", data, "--out", f"{out}/fit"],
        ["compare", "--model", "m2.json", "--model", "m1.json", "--data", data,
         "--out", f"{out}/compare", "--force-reml-compare"],
        ["profiles", "--fit", fit, "--data", data, "--subjects", "s0000,s0001",
         "--out", f"{out}/profiles", "--svg"],
        ["band", "--fit", fit, "--data", data, "--out", f"{out}/band_fit", "--svg"],
        ["band", "--model", "m2.json", "--thresholds", "th.json", "--data", data,
         "--out", f"{out}/band_model"],
    ]


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_every_command_runs_with_scipy_blocked(tmp_path, monkeypatch):
    """Every command, in one fresh interpreter whose imports of scipy fail,
    exits 0, loads no scipy module and writes the files of a run that could
    import it."""
    write_sim_config(tmp_path / "sim.json")
    write_spec(tmp_path / "m1.json", 1)
    write_spec(tmp_path / "m2.json", 2)
    (tmp_path / "th.json").write_text(json.dumps({"all": [-1e6, 1e6]}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(a.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(_every_command("blocked"))],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(run.stdout) == {"codes": [0] * 6, "scipy": []}
    monkeypatch.chdir(tmp_path)
    assert [main(argv) for argv in _every_command("open")] == [0] * 6
    blocked = _files(tmp_path / "blocked")
    assert sorted(blocked) == [
        "band_fit/band.csv", "band_fit/band.svg", "band_model/band.csv",
        "compare/comparison.csv", "fit/fit.json", "fit/fixed_effects.csv",
        "fit/variance_components.csv", "profiles/profiles.csv", "profiles/profiles.svg",
        "sim/cohort.csv"]
    assert blocked == _files(tmp_path / "open")


def test_one_parser_per_process_and_parsing_leaves_it_unchanged():
    parser = build_parser()
    assert build_parser() is parser
    argv = ["compare", "--model", "a.json", "--model", "b.json", "--data", "c.csv", "--out", "o"]
    first = vars(parser.parse_args(argv))
    assert first["model"] == ["a.json", "b.json"]
    parser.parse_args(["fit", "--model", "m.json", "--data", "c.csv", "--out", "o"])
    assert vars(parser.parse_args(argv)) == first
