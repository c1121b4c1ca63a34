"""JSON schemas for model specs, fitted models, and simulation configs.

All schemas carry ``schema_version`` (currently 1); unknown fields are
rejected so archived files stay unambiguous.  Floats survive the JSON
round trip exactly (shortest-repr encoding).
"""

from __future__ import annotations

import json

import numpy as np

from .design import (BasisContext, CovariateEncoder, ModelSpec, parameter_count, require_fields,
                     typed_field)
from .dataio import SimulationConfig
from .errors import SchemaError
from .estimation import CovarianceParams, FittedModel

SCHEMA_VERSION = 1


def _read(path, what: str) -> str:
    """The file's text; bytes that are not UTF-8 are a SchemaError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{what}: not valid UTF-8: {exc.reason} at byte {exc.start}") from None


def _parse(text: str, what: str) -> dict:
    """JSON object from text; malformed input is a SchemaError."""
    try:
        d = json.loads(text)
    except ValueError as exc:
        raise SchemaError(f"{what}: malformed JSON: {exc}") from None
    if not isinstance(d, dict):
        raise SchemaError(f"{what}: expected a JSON object")
    return d


def _number_array(d: dict, key: str, shape: tuple, what: str) -> np.ndarray:
    """``d[key]`` as a float array; SchemaError unless it is a list of numbers
    of ``shape``, where a ``None`` length matches any length.  numpy takes
    ``true`` among numbers as 1, so booleans are looked for separately."""
    try:
        a = np.asarray(d[key]) if isinstance(d[key], list) else None
    except ValueError:  # ragged nesting
        a = None
    if (a is None or a.dtype.kind not in "iuf" or a.ndim != len(shape)
            or any(k is not None and k != n for k, n in zip(shape, a.shape))
            or any(isinstance(v, bool) for v in np.asarray(d[key], dtype=object).flat)):
        raise SchemaError(f"{what}: {key} must be an array of numbers of shape {shape}")
    return a.astype(float)


def _check_version(d: dict, what: str):
    v = d.get("schema_version")
    if v != SCHEMA_VERSION:
        raise SchemaError(f"{what}: unsupported schema_version {v!r}")


def model_spec_to_json(spec: ModelSpec) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION, **spec.to_jsonable()}, indent=2)


def model_spec_from_json(text: str) -> ModelSpec:
    d = _parse(text, "model spec")
    _check_version(d, "model spec")
    d = {k: v for k, v in d.items() if k != "schema_version"}
    return ModelSpec.from_jsonable(d)


def load_model_spec(path) -> ModelSpec:
    return model_spec_from_json(_read(path, "model spec"))


def fitted_model_to_json(fitted: FittedModel) -> str:
    d = {
        "schema_version": SCHEMA_VERSION,
        "spec": fitted.spec.to_jsonable(),
        "method": fitted.method,
        "beta_hat": fitted.beta_hat.tolist(),
        "cov_beta": fitted.cov_beta.tolist(),
        "sigma_d_hat": fitted.sigma_d_hat.tolist(),
        "sigma2_hat": fitted.sigma2_hat,
        "loglik": fitted.loglik,
        "converged": fitted.converged,
        "iterations": fitted.iterations,
        "gradient_norm": fitted.gradient_norm,
        "theta": fitted.params.theta.tolist(),
        "n_subjects": fitted.n_subjects,
        "n_obs": fitted.n_obs,
        "column_labels": list(fitted.column_labels),
        "encoder": fitted.context.encoder.to_jsonable() if fitted.context.encoder else None,
    }
    return json.dumps(d, indent=2)


def fitted_model_from_json(text: str) -> FittedModel:
    d = _parse(text, "fitted model")
    _check_version(d, "fitted model")
    known = {
        "schema_version", "spec", "method", "beta_hat", "cov_beta", "sigma_d_hat",
        "sigma2_hat", "loglik", "converged", "iterations", "gradient_norm", "theta",
        "n_subjects", "n_obs", "column_labels", "encoder",
    }
    extra = set(d) - known
    if extra:
        raise SchemaError(f"fitted model: unknown fields {sorted(extra)}")
    require_fields(d, sorted(known - {"schema_version", "encoder"}), "fitted model")
    spec = ModelSpec.from_jsonable(d["spec"])
    encoder = CovariateEncoder.from_jsonable(d["encoder"]) if d.get("encoder") else None
    if encoder is not None:
        lacking = set(spec.group_terms + spec.interaction_terms) - set(encoder.terms)
        if lacking:
            raise SchemaError(f"fitted model: encoder lacks terms {sorted(lacking)}")
    # the basis context rebuilds deterministically from the spec
    context = BasisContext(spec, cohort=None, encoder=encoder)
    q, r = parameter_count(spec, encoder)
    m = spec.random.n_columns

    def array(key, shape):
        return _number_array(d, key, shape, "fitted model")

    def scalar(key, expected):
        return typed_field(d, key, expected, "fitted model")

    return FittedModel(
        spec=spec,
        method=scalar("method", "a string"),
        beta_hat=array("beta_hat", (q,)),
        cov_beta=array("cov_beta", (q, q)),
        sigma_d_hat=array("sigma_d_hat", (m, m)),
        sigma2_hat=float(scalar("sigma2_hat", "a number")),
        loglik=float(scalar("loglik", "a number")),
        converged=scalar("converged", "true or false"),
        iterations=scalar("iterations", "an integer"),
        gradient_norm=float(scalar("gradient_norm", "a number")),
        params=CovarianceParams(structure=spec.random_cov, m=m, theta=array("theta", (r,))),
        n_subjects=scalar("n_subjects", "an integer"),
        n_obs=scalar("n_obs", "an integer"),
        column_labels=list(scalar("column_labels", "a list of strings")),
        context=context,
    )


def load_fitted_model(path) -> FittedModel:
    return fitted_model_from_json(_read(path, "fitted model"))


def simulation_config_from_json(text: str) -> SimulationConfig:
    d = _parse(text, "simulation config")
    _check_version(d, "simulation config")
    known = {
        "schema_version", "spec", "beta", "sigma_d", "sigma2", "n_subjects",
        "missing_rate", "time_jitter_sd", "seed", "base_times",
    }
    extra = set(d) - known
    if extra:
        raise SchemaError(f"simulation config: unknown fields {sorted(extra)}")
    what = "simulation config"
    require_fields(d, ("spec", "beta", "sigma_d", "sigma2", "n_subjects"), what)
    spec = ModelSpec.from_jsonable(d["spec"])
    # sigma_d is a matrix, or the diagonal of one
    nested = isinstance(d["sigma_d"], list) and any(isinstance(v, list) for v in d["sigma_d"])
    sigma_d = _number_array(d, "sigma_d", (None, None) if nested else (None,), what)
    if sigma_d.ndim == 1:
        sigma_d = np.diag(sigma_d)
    base_times = d.get("base_times")
    return SimulationConfig(
        spec=spec,
        beta=_number_array(d, "beta", (None,), what),
        sigma_d=sigma_d,
        sigma2=float(typed_field(d, "sigma2", "a number", what)),
        n_subjects=typed_field(d, "n_subjects", "an integer", what),
        missing_rate=float(typed_field(d, "missing_rate", "a number", what, 0.0)),
        time_jitter_sd=float(typed_field(d, "time_jitter_sd", "a number", what, 0.0)),
        seed=typed_field(d, "seed", "an integer", what, 0),
        base_times=None if base_times is None else _number_array(d, "base_times", (None,), what),
    )


def load_simulation_config(path) -> SimulationConfig:
    return simulation_config_from_json(_read(path, "simulation config"))


def load_thresholds(path) -> dict:
    """Per-hour bounds: {"all": [lo, hi]}, or {"0": [lo, hi], ...} for any of
    the hours "0" to "23"."""
    d = _parse(_read(path, "thresholds"), "thresholds")
    hours = {str(h): h for h in range(24)}
    if set(d) != {"all"} and not set(d) <= hours.keys():
        raise SchemaError('thresholds: keys must be "all" alone or hours "0" to "23", '
                          f"not {sorted(d)}")
    bounds = {k: tuple(_number_array(d, k, (2,), "thresholds").tolist()) for k in d}
    out = {h: bounds["all"] for h in range(24)} if "all" in d else {
        hours[k]: v for k, v in bounds.items()}
    for h, (lo, hi) in sorted(out.items()):
        if not lo <= hi:
            raise SchemaError(f"thresholds: hour {h} has lower bound {lo:g} above upper {hi:g}")
    return out
