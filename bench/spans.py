"""In-memory spans around the abpmix module boundaries.

The program is not edited: ``Tracer.installed()`` swaps the public
functions of each module (and the names other modules imported from it)
for wrappers that record a span, then puts the originals back.  A span
is (id, parent, invocation, name, layer, start, end); spans of one CLI
invocation share the invocation id.  Spans stay in memory until the run
writes them out.

Self time is a sweep over each invocation's timeline: every instant is
split equally among the innermost spans open at that instant, so the
layers' self times sum exactly to the command's wall time, also when the
``profiles`` thread pool runs two subject spans at once.  Without
concurrency this is the usual duration minus the time covered by
children.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    invocation: int
    name: str
    layer: str
    start: float
    end: float = 0.0


def self_times(spans) -> dict:
    """Layer -> self time over the given spans (one or more invocations)."""
    by_inv = defaultdict(list)
    for s in spans:
        by_inv[s.invocation].append(s)
    out = defaultdict(float)
    for group in by_inv.values():
        has_child = defaultdict(int)  # span id -> number of open children
        events = []
        for s in group:
            events.append((s.start, 1, s))
            events.append((s.end, 0, s))
        # at equal times close before open, so touching spans never overlap;
        # ids grow with nesting, so parents open first and close last
        events.sort(key=lambda e: (e[0], e[1], e[2].id if e[1] else -e[2].id))
        open_spans = {}
        last = None
        for t, kind, s in events:
            if last is not None and t > last and open_spans:
                leaves = [x for x in open_spans.values() if not has_child[x.id]]
                share = (t - last) / len(leaves)
                for x in leaves:
                    out[x.layer] += share
            last = t
            if kind == 1:
                open_spans[s.id] = s
                if s.parent in open_spans:
                    has_child[s.parent] += 1
            else:
                del open_spans[s.id]
                if s.parent in open_spans:
                    has_child[s.parent] -= 1
    return dict(out)


def optimizer_evals(spans) -> int:
    """Likelihood and gradient evaluations made by model fitting: those
    under an estimation-layer ``fit`` span (the optimizer, its restarts
    and the final polish), not those of inference run after the fit."""
    by_id = {s.id: s for s in spans}

    def in_fit(s):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == "fit" and p.layer == "estimation":
                return True
            p = by_id.get(p.parent)
        return False

    return sum(1 for s in spans
               if s.layer == "estimation" and s.name in ("loglik", "grad") and in_fit(s))


class Tracer:
    """Spans and counters; ``installed()`` patches abpmix within a with-block."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = None  # the open command span, parent of thread-pool spans
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, layer: str) -> Span:
        st = self._stack()
        parent = st[-1] if st else self._root
        with self._lock:
            span = Span(next(self._ids), parent.id if parent else None,
                        parent.invocation if parent else 0, name, layer,
                        time.perf_counter())
        st.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def current_layer(self) -> Optional[str]:
        st = self._stack()
        if st:
            return st[-1].layer
        return self._root.layer if self._root else None

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    @contextlib.contextmanager
    def command(self, name: str):
        """Root span of one CLI invocation; its id is the invocation id."""
        span_id = next(self._ids)
        span = Span(span_id, None, span_id, name, "cli", time.perf_counter())
        self._root = span
        self._stack().append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack().pop()
            self._root = None
            self.spans.append(span)

    # -- patching -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str, on_result=None) -> None:
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(tracer, result)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Count calls, attributed to the layer of the innermost open span."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tracer.count(f"{tracer.current_layer()}.{key}")
            return orig(*args, **kwargs)

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        install_abpmix(self)
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(self._patches):
                setattr(owner, attr, orig)
            self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(s.__dict__) + "\n")


def _rows_read(tracer, cohort):
    tracer.count("dataio.rows_read", cohort.n_obs)


def _iterations(tracer, fitted):
    tracer.count("estimation.iterations", fitted.iterations)


def install_abpmix(tracer: Tracer) -> None:
    """The module boundaries the benchmark measures.

    Names a module imported with ``from .x import f`` are patched where
    they are looked up as well.  ``svg`` and ``linalg`` are left alone: no
    workload renders SVG, and linalg runs only inside blup spans.
    """
    import numpy as np
    import scipy.linalg as sla

    from abpmix import basis, blup, dataio, design, estimation, inference, serialize

    w = tracer.wrap
    w(dataio, "read_cohort", "read_cohort", "dataio", _rows_read)
    w(dataio, "filter_normals", "filter_normals", "dataio")
    for fn in ("evaluate_polynomial_basis", "restricted_cubic_spline_basis",
               "natural_polynomial_basis"):
        w(basis, fn, "evaluate", "basis")
    for fn in ("orthonormal_polynomial_basis", "gram_schmidt_transform"):
        w(basis, fn, fn, "basis")
    w(design.BasisContext, "__init__", "context", "design")
    for mod in (design, estimation, blup):
        w(mod, "build_design", "build_design", "design")
    P = estimation.MixedModelProblem
    w(P, "__init__", "problem_init", "estimation")
    w(P, "fit", "fit", "estimation", _iterations)
    w(P, "_optimize", "optimizer", "estimation")
    w(P, "loglikelihood", "loglik", "estimation")
    w(P, "loglik_and_grad", "grad", "estimation")
    w(P, "gls", "gls", "estimation")
    w(P, "observed_information", "information", "estimation")
    w(P, "cov_beta_derivatives", "cov_beta_derivatives", "estimation")
    for fn in ("per_column_tests", "r2_statistics", "variance_component_table",
               "information_criteria", "assert_comparable", "f_test"):
        w(inference, fn, fn, "inference")
    for fn in ("subject_profile", "random_effects_blup", "population_curve",
               "prediction_band"):
        w(blup, fn, fn, "blup")
    w(serialize, "load_model_spec", "load_model_spec", "serialize")
    w(serialize, "load_thresholds", "load_thresholds", "serialize")
    w(serialize, "fitted_model_to_json", "fit_json_write", "serialize")
    w(serialize, "load_fitted_model", "fit_json_load", "serialize")
    tracer.count_calls(np.linalg, "cholesky", "cholesky_calls")
    tracer.count_calls(sla, "cho_factor", "cholesky_calls")
