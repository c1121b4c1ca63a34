"""The names the benchmark pins.

``bench/spans.py`` wraps program functions by name and ``bench/run.py``
calls some of them, so a name removed from the program fails here, in
tier-1, and not first in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from abpmix import serialize
from abpmix.estimation import MixedModelProblem

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    # registered first: its dataclass looks its module up in sys.modules
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_pinned_names_and_restores_them():
    tracer = load_spans().Tracer()
    with tracer.installed():
        patched = list(tracer._patches)
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)
    names = {(owner.__name__, attr) for owner, attr, _ in patched}
    assert {("abpmix.blup", "subject_profile"), ("abpmix.blup", "random_effects_blup"),
            ("abpmix.blup", "population_curve"), ("abpmix.blup", "prediction_band"),
            ("abpmix.blup", "build_design"), ("abpmix.estimation", "build_design"),
            ("MixedModelProblem", "loglikelihood"), ("MixedModelProblem", "gls"),
            ("MixedModelProblem", "loglik_and_grad")} <= names


def test_a_saved_fit_evaluates_at_its_theta(small_fit, tmp_path):
    # as bench/run.py's standalone_evals: a problem on the fit's context,
    # evaluated at the theta that fit.json holds
    _, cohort, fitted = small_fit
    path = tmp_path / "fit.json"
    path.write_text(serialize.fitted_model_to_json(fitted), encoding="utf-8")
    loaded = serialize.load_fitted_model(path)
    problem = MixedModelProblem(loaded.spec, cohort, context=loaded.context)
    theta = loaded.params.theta
    ev = problem.loglik_and_grad(theta)
    assert problem.loglikelihood(theta) == ev.loglik == pytest.approx(fitted.loglik, rel=1e-12)
    assert ev.grad.shape == theta.shape and np.isfinite(ev.grad).all()
