"""JSON formats: the model spec, ``fit.json``, the simulation config and
the thresholds.

The basis descriptor, the model spec, ``fit.json`` and the simulation
config are each one field table: ``_BASIS``, ``_SPEC``, ``_FIT`` and
``_SIMULATION``.  A table maps its required and its optional fields to
their types: a JSON type named in ``_TYPES``, another table, or an array
shape, whose sizes are numbers, None for any size, or letters that the
reader works out from the other fields, then maybe a ``_TYPES`` test of
the finite array read.  ``_jsonable`` writes an object in table order;
``_fields`` reads one with these checks, in this order:

1. it is a JSON object;
2. it holds every required field;
3. it holds no other field (a SpecError in a model spec or a basis
   descriptor);
4. each field has its type, in table order, arrays last.

A failed check is a SchemaError unless said otherwise.  An optional field
that is left out takes the model's default.  A file with a table carries
``schema_version`` (currently 1), checked first.  Floats survive the JSON
round trip exactly (shortest-repr encoding); a number must read as a
finite float and an integer as an int64: NaN, Infinity and integers out
of range are SchemaErrors.  The thresholds file has hours for keys, no table.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from .design import BasisContext, BasisDescriptor, ModelSpec, parameter_count
from .dataio import SimulationConfig
from .errors import SchemaError, SpecError
from .estimation import CovarianceParams, FittedModel

SCHEMA_VERSION = 1


def _ndim(v) -> int:
    """How deep ``v`` nests rectangular lists of finite numbers, or -1.  numpy
    reads ``true`` among numbers as 1, so booleans are looked for apart."""
    try:
        a = np.asarray(v) if type(v) is list else None
    except ValueError:  # ragged nesting
        return -1
    if (a is None or a.dtype.kind not in "iuf" or not np.isfinite(a).all()
            or any(type(x) is bool for x in np.asarray(v, dtype=object).flat)):
        return -1
    return a.ndim


def _array(v, key: str, shape: tuple, what: str) -> np.ndarray:
    """``v`` as a float array of ``shape``, where None matches any size;
    SchemaError unless it is lists of finite numbers of that shape."""
    if _ndim(v) != len(shape) or any(n not in (None, k) for n, k in zip(shape, np.shape(v))):
        raise SchemaError(f"{what}: {key} must be an array of finite numbers of shape {shape}")
    return np.asarray(v, dtype=float)


def _of(*types):
    return lambda v: type(v) in types  # as json.loads makes them, so no bool is an int


def _list_of(test):
    return lambda v: type(v) is list and all(map(test, v))


_STRING, _NULL = _of(str), _of(type(None))


def _number(v) -> bool:
    """A JSON number that reads as a finite float: not NaN, not infinite, not too large."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _coding(cols) -> bool:
    """A term's coding, ``[[label, level], ...]``: one column of level null
    for a numeric term, or string levels only for a categorical one."""
    return _list_of(lambda c: type(c) is list and len(c) == 2 and _STRING(c[0]))(cols) and (
        [level for _, level in cols] == [None] or all(_STRING(level) for _, level in cols))


# JSON types, keyed by how an error message names them: (test of the JSON
# value, the value read from it, or None to read it as it is)
_TYPES = {
    "a number": (_number, float),
    "a finite nonnegative number": (lambda v: _number(v) and v >= 0, float),
    # of an array read: a nonnegative diagonal, symmetric and PSD up to roundoff
    "a covariance matrix": (lambda a: bool(np.diag(a).min() >= 0.0 and max(
        np.abs(a - a.T).max(), -np.linalg.eigvalsh(a)[0]) <= 1e-10 * np.abs(a).max()), None),
    "an integer": (lambda v: type(v) is int and -2**63 <= v < 2**63, None),  # an int64
    "an integer or null": (lambda v: _NULL(v) or _TYPES["an integer"][0](v), None),
    "true or false": (_of(bool), None),
    "a string": (_STRING, None),
    "a list of strings": (_list_of(_STRING), None),
    "a list of numbers or null": (lambda v: _NULL(v) or _list_of(_number)(v),
                                  lambda v: None if v is None else tuple(v)),
    "an object of strings": (lambda v: type(v) is dict and all(map(_STRING, v.values())), None),
    # design.covariate_coding's table, or any false value, read as null
    "an object of [label, level] lists (one level null or all strings) or null": (
        lambda v: not v or type(v) is dict and all(map(_coding, v.values())),
        lambda v: {term: tuple(map(tuple, cols)) for term, cols in v.items()} if v else None),
    "a matrix or its diagonal": (lambda v: _ndim(v) in (1, 2), lambda v: (
        np.diag(np.asarray(v, dtype=float)) if _ndim(v) == 1 else np.asarray(v, dtype=float))),
    "an array of numbers or null": (lambda v: _NULL(v) or _ndim(v) == 1,
                                    lambda v: None if v is None else np.asarray(v, dtype=float)),
}


class _Format(NamedTuple):
    """A field table.  ``build`` makes a nested table's object from its
    fields; ``omit_null`` leaves the fields that are None unwritten."""
    what: str
    required: dict
    optional: dict
    unknown_error: type = SchemaError
    build: Optional[Callable] = None
    omit_null: bool = False


_BASIS = _Format("basis descriptor", {"kind": "a string"},
                 {"degree": "an integer or null", "knots": "a list of numbers or null"},
                 SpecError, BasisDescriptor, omit_null=True)

_SPEC = _Format(
    "model spec", {"fixed": _BASIS, "random": _BASIS},
    {"random_cov": "a string", "group_terms": "a list of strings",
     "interaction_terms": "a list of strings", "reference_grid_points": "an integer",
     "orthonormalize_random": "true or false", "reference_levels": "an object of strings"},
    SpecError, ModelSpec)

# q fixed-effect columns, m random effects, r covariance parameters
_FIT = _Format(
    "fitted model",
    {"spec": _SPEC, "method": "a string", "beta_hat": ("q",), "cov_beta": ("q", "q", "a covariance matrix"),
     "sigma_d_hat": ("m", "m", "a covariance matrix"), "sigma2_hat": "a finite nonnegative number",
     "loglik": "a number", "converged": "true or false", "iterations": "an integer",
     "gradient_norm": "a number", "theta": ("r",), "n_subjects": "an integer",
     "n_obs": "an integer", "column_labels": "a list of strings"},
    {"encoder": "an object of [label, level] lists (one level null or all strings) or null"})

_SIMULATION = _Format(
    "simulation config",
    {"spec": _SPEC, "beta": (None,), "sigma_d": "a matrix or its diagonal",
     "sigma2": "a number", "n_subjects": "an integer"},
    {"missing_rate": "a number", "time_jitter_sd": "a number", "seed": "an integer",
     "base_times": "an array of numbers or null"})


def _fields(d, fmt: _Format, sizes: Callable = lambda values: {}) -> dict:
    """Field -> value read, for the fields of the JSON object ``d`` by the
    table ``fmt``, with the checks of the module docstring.  ``sizes`` gets
    the values of the fields that are not arrays, before the arrays are
    read, and returns the array sizes by letter."""
    what, table = fmt.what, {**fmt.required, **fmt.optional}
    if not isinstance(d, dict):
        raise SchemaError(f"{what}: expected a JSON object")
    missing = [k for k in fmt.required if k not in d]
    if missing:
        raise SchemaError(f"{what}: missing required fields {missing}")
    unknown = sorted(d.keys() - table.keys())
    if unknown:
        raise fmt.unknown_error(f"{what}: unknown fields {unknown}")
    values = {}
    for key, kind in table.items():
        if key in d and isinstance(kind, _Format):
            values[key] = kind.build(**_fields(d[key], kind))
        elif key in d and isinstance(kind, str):
            test, read = _TYPES[kind]
            if not test(d[key]):
                raise SchemaError(f"{what}: {key} must be {kind}, got {d[key]!r}")
            values[key] = read(d[key]) if read else d[key]
    known = sizes(values)
    for key, kind in table.items():  # the arrays, last
        if key in d and type(kind) is tuple:
            shape = tuple(known.get(n, n) for n in kind if n not in _TYPES)
            values[key] = _array(d[key], key, shape, what)
            if kind[-1] in _TYPES and not _TYPES[kind[-1]][0](values[key]):
                raise SchemaError(f"{what}: {key} must be {kind[-1]}")
    return values


def _jsonable(fmt: _Format, values) -> dict:
    """The JSON object of ``values``, a mapping from (at least) the table's
    fields to their values, such as an object's ``vars``."""
    out = {}
    for key, kind in {**fmt.required, **fmt.optional}.items():
        v = values[key]
        if isinstance(kind, _Format):
            v = _jsonable(kind, vars(v))
        elif isinstance(v, np.ndarray):
            v = v.tolist()
        if v is not None or not fmt.omit_null:
            out[key] = v
    return out


def _read(path, what: str) -> str:
    """The file's text; bytes that are not UTF-8 are a SchemaError."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
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


def _from_json(text: str, fmt: _Format, sizes: Callable = lambda values: {}) -> dict:
    """The fields of a file of format ``fmt``, after its schema_version check."""
    d = _parse(text, fmt.what)
    v = d.pop("schema_version", None)
    if v != SCHEMA_VERSION:
        raise SchemaError(f"{fmt.what}: unsupported schema_version {v!r}")
    return _fields(d, fmt, sizes)


def _to_json(fmt: _Format, values) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION, **_jsonable(fmt, values)}, indent=2)


def model_spec_to_json(spec: ModelSpec) -> str:
    return _to_json(_SPEC, vars(spec))


def model_spec_from_json(text: str) -> ModelSpec:
    return ModelSpec(**_from_json(text, _SPEC))


def load_model_spec(path) -> ModelSpec:
    return model_spec_from_json(_read(path, _SPEC.what))


def fitted_model_to_json(fitted: FittedModel) -> str:
    return _to_json(_FIT, {**vars(fitted), "theta": fitted.params.theta,
                           "encoder": fitted.context.encoder})


def _fit_sizes(values: dict) -> dict:
    """The array sizes of a fit.json by letter, from its spec and encoder;
    ``values`` trades the encoder for the basis context."""
    spec, encoder = values["spec"], values.pop("encoder", None)
    if encoder is not None:
        lacking = set(spec.group_terms + spec.interaction_terms) - encoder.keys()
        if lacking:
            raise SchemaError(f"{_FIT.what}: encoder lacks terms {sorted(lacking)}")
    # the basis context rebuilds deterministically from the spec
    values["context"] = BasisContext(spec, cohort=None, encoder=encoder)
    q, r = parameter_count(spec, encoder)
    return {"q": q, "m": spec.random.n_columns, "r": r}


def fitted_model_from_json(text: str) -> FittedModel:
    values = _from_json(text, _FIT, _fit_sizes)
    spec = values["spec"]
    values["params"] = CovarianceParams(spec.random_cov, spec.random.n_columns,
                                        values.pop("theta"))
    return FittedModel(**values)


def load_fitted_model(path) -> FittedModel:
    return fitted_model_from_json(_read(path, _FIT.what))


def simulation_config_from_json(text: str) -> SimulationConfig:
    return SimulationConfig(**_from_json(text, _SIMULATION))


def load_simulation_config(path) -> SimulationConfig:
    return simulation_config_from_json(_read(path, _SIMULATION.what))


def load_thresholds(path) -> dict:
    """Per-hour bounds: {"all": [lo, hi]}, or {"0": [lo, hi], ...} for any of
    the hours "0" to "23"."""
    d = _parse(_read(path, "thresholds"), "thresholds")
    hours = {str(h): h for h in range(24)}
    if set(d) != {"all"} and not set(d) <= hours.keys():
        raise SchemaError('thresholds: keys must be "all" alone or hours "0" to "23", '
                          f"not {sorted(d)}")
    bounds = {k: tuple(_array(v, k, (2,), "thresholds").tolist()) for k, v in d.items()}
    out = {h: bounds["all"] for h in range(24)} if "all" in d else {
        hours[k]: v for k, v in bounds.items()}
    for h, (lo, hi) in sorted(out.items()):
        if not lo <= hi:
            raise SchemaError(f"thresholds: hour {h} has lower bound {lo:g} above upper {hi:g}")
    return out
