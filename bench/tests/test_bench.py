"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

The workloads are shrunk to a few dozen subjects so the pipeline, the
checker and the tracer run in seconds.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src/ first on sys.path when run as a script)
from spans import Span, optimizer_evals, self_times  # noqa: E402

sys.path.insert(0, str(run.SRC))

PER_LAYER = [m["name"] for m in
             json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.fixture(autouse=True)
def one_sample_each(monkeypatch):
    """One setup sample and one invocation per command and cycle."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_SAMPLE_S", 0.0)


def small(name, **kw):
    w = run.WORKLOADS[name]
    sizes = {"n_subjects": 40}
    if w.ref_subjects:
        sizes["ref_subjects"] = 30
    if w.profile_subjects:
        sizes["profile_subjects"] = 6
    return dataclasses.replace(w, **{**sizes, **kw})


def span(i, parent, name, layer, start, end, inv=1):
    return Span(i, parent, inv, name, layer, start, end)


def test_self_time_nested():
    spans = [
        span(1, None, "fit", "cli", 0.0, 10.0),
        span(2, 1, "read_cohort", "dataio", 1.0, 2.0),
        span(3, 1, "fit", "estimation", 3.0, 9.0),
        span(4, 3, "build_design", "design", 3.0, 4.0),
        span(5, 3, "grad", "estimation", 5.0, 6.0),
        span(6, 3, "grad", "estimation", 6.0, 7.5),
    ]
    got = self_times(spans)
    # cli 10 - 1 - 6; estimation: fit 6 - 3.5 under children, plus 2.5 of grads
    assert got == pytest.approx({"cli": 3.0, "dataio": 1.0, "design": 1.0,
                                 "estimation": 5.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_concurrent_children_share_the_overlap():
    # two thread-pool spans overlap on [2, 3]: each gets half of it
    spans = [
        span(1, None, "profiles", "cli", 0.0, 4.0),
        span(2, 1, "subject_profile", "blup", 1.0, 3.0),
        span(3, 1, "subject_profile", "blup", 2.0, 4.0),
        span(4, 3, "build_design", "design", 3.5, 4.0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"cli": 1.0, "blup": 2.5, "design": 0.5})
    assert sum(got.values()) == pytest.approx(4.0)


def test_self_time_separates_invocations():
    spans = [span(1, None, "fit", "cli", 0.0, 2.0, inv=1),
             span(2, None, "band", "cli", 5.0, 6.0, inv=2),
             span(3, 2, "prediction_band", "blup", 5.0, 5.5, inv=2)]
    assert self_times(spans) == pytest.approx({"cli": 2.5, "blup": 0.5})


def test_optimizer_evals_leave_out_inference():
    # the fit command's root span is also named "fit", but only the
    # evaluations under the estimation-layer fit belong to the optimizer
    spans = [
        span(1, None, "fit", "cli", 0.0, 10.0),
        span(2, 1, "fit", "estimation", 0.0, 6.0),
        span(3, 2, "optimizer", "estimation", 0.0, 5.0),
        span(4, 3, "loglik", "estimation", 0.0, 1.0),
        span(5, 3, "grad", "estimation", 1.0, 2.0),
        span(6, 2, "grad", "estimation", 5.0, 6.0),  # polish after the optimizer
        span(7, 1, "per_column_tests", "inference", 6.0, 9.0),
        span(8, 7, "information", "estimation", 6.0, 9.0),
        span(9, 8, "grad", "estimation", 6.0, 7.0),
        span(10, 8, "grad", "estimation", 7.0, 8.0),
    ]
    assert optimizer_evals(spans) == 3


def test_every_workload_has_recorded_optima():
    for name, w in run.WORKLOADS.items():
        ref = run.reference(w)
        assert isinstance(ref["fit"], float)
        assert sorted(ref["compare"]) == sorted(w.compare_models)
        assert ("normals" in ref) == w.band_thresholds
    assert run.reference(small("paper_cohort")) is None


def test_clean_run_passes_every_check(tmp_path):
    res = run.run(small("paper_cohort"), 5, 0.0, False, tmp_path)
    assert res["failures"] == []
    assert res["failed"] == 0 and res["attempted"] == 8
    assert set(res["metrics"]) == {"setup_s", "fit_s", "compare_s", "profiles_s",
                                   "band_s", "peak_rss_mb"}


def test_perturbed_fit_json_is_a_failure(tmp_path, monkeypatch):
    from abpmix import cli

    main = cli.main

    def perturbing_main(argv):
        rc = main(argv)
        if argv[0] == "fit" and "cohort" in argv[argv.index("--data") + 1]:
            path = Path(argv[argv.index("--out") + 1]) / "fit.json"
            d = json.loads(path.read_text())
            d["loglik"] *= 1.0 + 1e-6
            path.write_text(json.dumps(d, indent=2))
        return rc

    monkeypatch.setattr(cli, "main", perturbing_main)
    res = run.run(small("incomplete_fit"), 5, 0.0, False, tmp_path)
    # both fit invocations fail; nothing else does
    assert res["failed"] == 2
    assert any("fit: CheckError" in n and "REML loglik" in n for n in res["failures"])


def test_fit_short_of_the_optimum_is_a_failure(tmp_path, monkeypatch):
    # the dense checks hold at any theta; only the recorded optimum shows
    # a fit that stopped early
    w = small("paper_cohort")
    found = run.run(w, 5, 0.0, False, tmp_path / "a")["logliks"]
    shifted = {"fit": found["fit"] * (1.0 + 1e-6),
               "compare": {m: ll * (1.0 + 1e-6) for m, ll in found["compare"].items()},
               "normals": found["normals"]}
    monkeypatch.setattr(run, "reference", lambda _: shifted)
    res = run.run(w, 5, 0.0, False, tmp_path / "b")
    assert sorted({n.split(": ")[1] for n in res["failures"]}) == ["compare", "fit"]
    assert any("recorded optimum" in n for n in res["failures"])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(tmp_path, name):
    w = small(name)
    res = run.run(w, 3, 0.0, True, tmp_path)
    m = {k: v for k, (v, _) in res["metrics"].items()}
    assert res["failed"] == 0
    assert sorted(m) == sorted(PER_LAYER)
    # every layer this workload uses shows up
    used = [k for k in PER_LAYER if not k.startswith("trace.") and not k.endswith("_overhead_s")
            and k not in ("estimation.loglik_calls", "estimation.loglik_call_ms",
                          "dataio.filter_normals_s")]
    assert all(m[k] > 0 for k in used), [k for k in used if m[k] <= 0]
    assert (m["dataio.filter_normals_s"] > 0) == w.band_thresholds
    assert m["trace.accounted_share"] == pytest.approx(1.0)
    assert m["trace.command_s"] == pytest.approx(
        sum(m[f"{layer}.self_s"] for layer in
            ("cli", "dataio", "basis", "design", "estimation", "inference", "blup",
             "serialize")))
