"""Seeded input generator for the benchmark workloads.

The cohorts are drawn here, with numpy alone, rather than through
``abpmix simulate``: a change to the package's simulator must not be able
to change what a workload feeds the program.  Each subject is recorded at
the 24 hourly midpoints 0.5 .. 23.5; the outcome is a mean curve plus
subject random effects on the degree-9 orthonormal basis plus white
noise, with the parameters of the package's paper-scale model-selection
test (``tests/test_acceptance.py``, criterion 10).  Points go missing
independently at ``missing_rate``.

A workload's cohorts are fixed: their values and labels come from the
cohort's stream number alone.  With random-effect variances larger than
these, the number of likelihood evaluations a fit needs varied from 64 to
123 between random 100-subject cohorts, and from 72 to 122 on one cohort
whose labels were permuted (the package orders
subjects by label, so the sums are rounded differently); either would
swamp a timing change.  The seed shuffles the order of the subjects in
the CSV, which the fit does not depend on, and the benchmark uses it to
pick the profiled and the checked subjects.

The random-effect basis is the Legendre basis orthonormalized by QR on
the 49-point reference grid over [0, 24], which spans the same columns
as the package's degree-9 orthonormal polynomials up to column signs, so
the degree-9 diagonal model is the data's own model.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

HOURS = np.arange(24.0) + 0.5
DEGREE = 9
REFERENCE_POINTS = 49
# The paper-scale parameters of acceptance criterion 10: fixed effects,
# random-effect variances on the orthonormal basis and the residual
# variance.  That test applies BETA in the package's column signs, which
# differ from this basis in some columns; the REML variance estimates do
# not depend on the mean, so the fits see the same problem.
BETA = np.array([700.0, -60.0, 45.0, -35.0, 28.0, -22.0, 18.0, -14.0, 11.0, -9.0])
RANDOM_VAR = np.array([120.0, 70.0, 45.0, 30.0, 20.0, 14.0, 10.0, 7.0, 5.0, 4.0])
RESIDUAL_VAR = 16.0
MIN_POINTS = 12  # > 11 columns of the largest fixed design

# The four competitors of the model-selection check: degree-9 diagonal,
# a 9-knot restricted cubic spline with a natural cubic unstructured
# random basis, and degree-6 and degree-4 diagonal polynomials.  The knots
# are the default clock knots mapped to elapsed hours from a 12:00 start.
SPLINE_KNOTS = [1.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 23.0]


def poly_spec(degree: int) -> dict:
    return {
        "schema_version": 1,
        "fixed": {"kind": "orthonormal_poly", "degree": degree},
        "random": {"kind": "orthonormal_poly", "degree": degree},
        "random_cov": "diagonal",
    }


MODELS = {
    "m9": poly_spec(9),
    "rcs9": {
        "schema_version": 1,
        "fixed": {"kind": "restricted_cubic_spline", "knots": SPLINE_KNOTS},
        "random": {"kind": "natural_poly", "degree": 3},
        "random_cov": "unstructured",
    },
    "m6": poly_spec(6),
    "m4": poly_spec(4),
    "m3": poly_spec(3),
}


@dataclass(frozen=True)
class Subject:
    id: str
    times: np.ndarray
    y: np.ndarray


def orthonormal_basis(t: np.ndarray, degree: int = DEGREE,
                      ref_points: int = REFERENCE_POINTS) -> np.ndarray:
    """Polynomials orthonormal on ``ref_points`` equispaced hours in [0, 24]."""
    ref = np.linspace(0.0, 24.0, ref_points)
    _, r = np.linalg.qr(legendre.legvander(ref / 12.0 - 1.0, degree))
    return legendre.legvander(t / 12.0 - 1.0, degree) @ np.linalg.inv(r)


def cohort(stream: int, n_subjects: int, missing_rate: float, seed: int) -> list:
    """The stream's subjects, in an order set by ``seed``."""
    rng = np.random.default_rng(stream)
    basis = orthonormal_basis(HOURS)
    mean = basis @ BETA
    subjects = []
    for i in range(n_subjects):
        d = rng.standard_normal(DEGREE + 1) * np.sqrt(RANDOM_VAR)
        y = mean + basis @ d + rng.standard_normal(HOURS.size) * math.sqrt(RESIDUAL_VAR)
        keep = np.ones(HOURS.size, dtype=bool)
        if missing_rate > 0:
            keep = rng.random(HOURS.size) >= missing_rate
            if keep.sum() < MIN_POINTS:
                keep[:] = True
        subjects.append(Subject(id=f"s{i:05d}", times=HOURS[keep], y=y[keep]))
    order = np.random.default_rng([seed, stream]).permutation(n_subjects)
    return [subjects[i] for i in order]


def write_cohort(path, subjects) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["subject_id", "time", "sbp"])
        for s in subjects:
            for t, v in zip(s.times, s.y):
                w.writerow([s.id, repr(float(t)), repr(float(v))])


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)


def hourly_thresholds(subjects) -> dict:
    """Per-hour normal bounds: the cohort's own 1% and 99% quantiles."""
    out = {}
    for h, t in enumerate(HOURS):
        vals = np.array([s.y[s.times == t][0] for s in subjects if np.any(s.times == t)])
        out[str(h)] = [float(np.quantile(vals, 0.01)), float(np.quantile(vals, 0.99))]
    return out


def properties(subjects) -> dict:
    """What the program sees: sizes, design patterns, missing share."""
    n_obs = sum(s.times.size for s in subjects)
    patterns = {s.times.tobytes() for s in subjects}
    return {
        "subjects": len(subjects),
        "observations": n_obs,
        "distinct_time_patterns": len(patterns),
        "missing_share": 1.0 - n_obs / (len(subjects) * HOURS.size),
    }
