"""Model specification and the one design pipeline of fitting and prediction.

A ``ModelSpec`` names the fixed and random time bases, the random-effects
covariance structure, and any static covariate terms.  A ``BasisContext``
freezes what every subject shares: the orthonormal-polynomial coefficient
table and the Gram-Schmidt transforms of spline and natural bases, all
generated on the reference grid.  ``group_patterns`` groups subjects per
observation count by their distinct times, as rows of the union of all
their times, where the bases are evaluated once; ``fixed_design`` is the
one definition of X's columns, for one subject or stacked over many.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import basis as bas
from .basis import TimeGrid
from .errors import SpecError

POLY_KINDS = ("orthonormal_poly", "natural_poly")
BASIS_KINDS = POLY_KINDS + ("restricted_cubic_spline",)


def _is_number(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


@dataclass(frozen=True)
class BasisDescriptor:
    """Declarative description of one time basis."""

    kind: str
    degree: Optional[int] = None
    knots: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise SpecError(f"unknown basis kind {self.kind!r}")
        if self.kind in POLY_KINDS:
            if self.degree is None or self.degree < 0:
                raise SpecError(f"{self.kind} needs a nonnegative degree")
        else:
            if self.knots is None or len(self.knots) < 3:
                raise SpecError("restricted_cubic_spline needs >= 3 knots")
            object.__setattr__(self, "knots", tuple(float(k) for k in self.knots))

    @property
    def n_columns(self) -> int:
        """Design columns contributed, intercept included."""
        if self.kind in POLY_KINDS:
            return self.degree + 1
        # linear term + (k-2) derived covariates + intercept
        return len(self.knots)


@dataclass(frozen=True)
class ModelSpec:
    """Declarative mixed-model description."""

    fixed: BasisDescriptor
    random: BasisDescriptor
    random_cov: str = "diagonal"
    group_terms: tuple = ()
    interaction_terms: tuple = ()
    reference_grid_points: int = 49
    orthonormalize_random: bool = True
    reference_levels: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.random_cov not in ("diagonal", "unstructured"):
            raise SpecError(f"unknown random_cov {self.random_cov!r}")
        if (
            self.fixed.kind == "orthonormal_poly"
            and self.random.kind == "orthonormal_poly"
            and self.random.degree > self.fixed.degree
        ):
            raise SpecError("random polynomial degree must not exceed the fixed degree")
        if self.reference_grid_points < max(
            self.fixed.n_columns, self.random.n_columns
        ):
            raise SpecError("reference grid too small for the requested bases")
        object.__setattr__(self, "group_terms", tuple(self.group_terms))
        object.__setattr__(self, "interaction_terms", tuple(self.interaction_terms))
        object.__setattr__(self, "reference_levels", dict(self.reference_levels))


@dataclass(frozen=True)
class Subject:
    """One sampling unit: observation times, outcomes, static covariates."""

    id: str
    times: TimeGrid
    y: np.ndarray
    covariates: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        y = np.array(self.y, dtype=float, order="C")  # owned copy
        if len(self.times) == 0:
            raise SpecError(f"subject {self.id!r} has no observations")
        if y.shape != (len(self.times),):
            raise SpecError(f"subject {self.id!r}: y and times lengths differ")
        if not np.isfinite(y).all():
            raise SpecError(f"subject {self.id!r}: non-finite outcome values")
        y.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "covariates", dict(self.covariates))

    @classmethod
    def _trusted(cls, id: str, times: TimeGrid, y: np.ndarray, covariates: dict) -> "Subject":
        """A subject that holds its arguments themselves: no copies and no checks.

        Precondition: ``times`` is nonempty, ``y`` is a read-only float
        array of its length with finite values, and no caller keeps
        ``covariates``.
        """
        subject = object.__new__(cls)
        subject.__dict__.update(id=id, times=times, y=y, covariates=covariates)
        return subject

    @property
    def n_obs(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class Cohort:
    subjects: tuple
    outcome_label: str = "SBP"

    def __post_init__(self):
        subs = tuple(self.subjects)
        if not subs:
            raise SpecError("cohort must contain at least one subject")
        ids = [s.id for s in subs]
        if len(set(ids)) != len(ids):
            raise SpecError("subject ids must be unique")
        object.__setattr__(self, "subjects", subs)

    def __len__(self) -> int:
        return len(self.subjects)

    def __iter__(self):
        return iter(self.subjects)

    @property
    def n_obs(self) -> int:
        return sum(s.n_obs for s in self.subjects)

    def subject(self, sid: str) -> Subject:
        for s in self.subjects:
            if s.id == sid:
                return s
        raise SpecError(f"unknown subject id {sid!r}")


@dataclass(frozen=True)
class DesignPair:
    X: np.ndarray
    Z: np.ndarray


def _covariate(subject: Subject, term: str):
    """The subject's value of a covariate a model term uses; absent or blank is a SpecError."""
    if term not in subject.covariates:
        raise SpecError(f"subject {subject.id!r} missing covariate {term!r}")
    v = subject.covariates[term]
    if isinstance(v, str) and not v.strip():
        raise SpecError(f"subject {subject.id!r} has an empty {term!r} covariate")
    return v


def covariate_coding(cohort: Optional[Cohort], terms: Sequence[str], reference_levels) -> dict:
    """Reference-cell coding of static covariate terms, {term: ((column
    label, level), ...)}: a term whose values are all numbers is one column
    of level None; any other expands into indicators of its levels against
    the alphabetically first, unless the spec pins a reference level."""
    coding = {}
    for term in terms:
        if cohort is None:
            raise SpecError("covariate terms require cohort data")
        values = [_covariate(s, term) for s in cohort]
        if all(map(_is_number, values)):
            coding[term] = ((term, None),)
            continue
        levels = sorted({str(v) for v in values})
        ref = str(reference_levels.get(term, levels[0]))
        if ref not in levels:
            raise SpecError(f"reference level {ref!r} not observed for {term!r}")
        coding[term] = tuple((f"{term}={lv}", lv) for lv in levels if lv != ref)
    return coding


def _encode(subjects: Sequence[Subject], term: str, columns: tuple) -> np.ndarray:
    """(subjects, columns) values of one term by its coding ``columns``: the
    finite number of a numeric term, or a ``str(value) == level`` indicator
    per coded level."""
    values = [_covariate(s, term) for s in subjects]
    if columns and columns[0][1] is None:
        for s, v in zip(subjects, values):
            if not _is_number(v):
                raise SpecError(f"covariate {term!r}: expected numeric value for {s.id!r}")
            if not -np.inf < v < np.inf:
                raise SpecError(f"covariate {term!r} of subject {s.id!r} is not finite")
        return np.array(values, dtype=float)[:, None]
    text = [str(v) for v in values]
    return np.array([[t == level for _, level in columns] for t in text],
                    dtype=float).reshape(len(subjects), len(columns))


# Evaluators of prepared bases, at module level so that a BasisContext
# pickles; each looks the basis function up when it runs.
def _polynomial_columns(coeffs: bas.PolynomialCoefficients, times: TimeGrid) -> np.ndarray:
    return bas.evaluate_polynomial_basis(coeffs, times)


def _spline_columns(knots: np.ndarray, times: TimeGrid) -> np.ndarray:
    """An intercept and the restricted cubic spline covariates."""
    return np.column_stack([np.ones(len(times)), bas.restricted_cubic_spline_basis(times, knots)])


def _natural_columns(degree: int, times: TimeGrid) -> np.ndarray:
    return bas.natural_polynomial_basis(times, degree)


def _transformed_columns(columns, t: np.ndarray, times: TimeGrid) -> np.ndarray:
    """``columns`` at ``times`` times their Gram-Schmidt transform from the reference grid."""
    return columns(times) @ t


class BasisContext:
    """Shared per-spec basis machinery, generated once on the reference grid."""

    def __init__(self, spec: ModelSpec, cohort: Optional[Cohort] = None,
                 encoder: Optional[dict] = None):
        self.spec = spec
        self.reference_grid = TimeGrid.equispaced(spec.reference_grid_points, 0.0, 24.0)
        self._fixed = self._prepare(spec.fixed, orthonormalize=True)
        # equal descriptors share one basis (the flag matters only to natural polynomials)
        random = (spec.random, spec.orthonormalize_random or spec.random.kind != "natural_poly")
        self._random = self._fixed if random == (spec.fixed, True) else self._prepare(*random)
        # the covariate coding table of ``covariate_coding``, or None without terms
        terms = tuple(dict.fromkeys(spec.group_terms + spec.interaction_terms))
        if encoder is None and terms:
            encoder = covariate_coding(cohort, terms, spec.reference_levels)
        self.encoder = encoder

    def _prepare(self, desc: BasisDescriptor, orthonormalize: bool):
        """What evaluates the basis ``desc`` at any times: a picklable partial."""
        grid = self.reference_grid
        if desc.kind == "orthonormal_poly":
            _, coeffs = bas.orthonormal_polynomial_basis(grid, desc.degree)
            return functools.partial(_polynomial_columns, coeffs)
        if desc.kind == "restricted_cubic_spline":
            columns = functools.partial(_spline_columns, np.asarray(desc.knots, dtype=float))
        else:
            columns = functools.partial(_natural_columns, desc.degree)
            # raw monomials (the flag exists to demonstrate the non-convergence
            # of raw monomial random effects)
            if not orthonormalize:
                return columns
        _, t = bas.gram_schmidt_transform(columns(grid))
        return functools.partial(_transformed_columns, columns, t)

    def fixed_time_matrix(self, times: TimeGrid) -> np.ndarray:
        """Fixed-effect time-basis columns, intercept included."""
        return self._fixed(times)

    def time_matrices(self, times: TimeGrid):
        """(fixed_time_matrix, random-effect design Z) on ``times``, one evaluation if shared."""
        s = self.fixed_time_matrix(times)
        return s, (s if self._random is self._fixed else self._random(times))

    def fixed_column_labels(self) -> list:
        spec = self.spec
        if spec.fixed.kind in POLY_KINDS:
            labels = ["intercept"] + [f"time^{j}" for j in range(1, spec.fixed.degree + 1)]
        else:
            labels = ["intercept"] + [f"spline{j}" for j in range(1, spec.fixed.n_columns)]
        if self.encoder is not None:
            labels += [label for term in spec.group_terms for label, _ in self.encoder[term]]
            for term in spec.interaction_terms:
                for col_label, _ in self.encoder[term]:
                    labels += [f"{col_label}:{tl}" for tl in labels[1 : spec.fixed.n_columns]]
        return labels


def covariate_values(spec: ModelSpec, subjects: Sequence[Subject], context: BasisContext):
    """(group-term values, interaction-term values) of the subjects, one row
    each, encoded as ``fixed_design`` enters them."""
    if not (spec.group_terms or spec.interaction_terms):
        return np.zeros((len(subjects), 0)), np.zeros((len(subjects), 0))
    if context.encoder is None:
        raise SpecError("spec names covariates but no encoder is available")
    encoded = {term: _encode(subjects, term, context.encoder[term])
               for term in dict.fromkeys(spec.group_terms + spec.interaction_terms)}
    return tuple(np.hstack([np.zeros((len(subjects), 0))] + [encoded[t] for t in terms])
                 for terms in (spec.group_terms, spec.interaction_terms))


def fixed_design(s: np.ndarray, group: np.ndarray, interaction: np.ndarray) -> np.ndarray:
    """X over the leading axes of the time basis S (..., p, intercept and
    time columns): S, the group-term values (..., g) on every row, then
    each interaction value (..., h) times the time columns of S."""
    rows = s.shape[:-1]
    inter = (interaction[..., None, :, None] * s[..., None, 1:]).reshape(
        rows + (interaction.shape[-1] * (s.shape[-1] - 1),))
    return np.concatenate([s, np.broadcast_to(group[..., None, :], rows + group.shape[-1:]),
                           inter], axis=-1)


def fixed_mean(s: np.ndarray, rows: np.ndarray, group: np.ndarray, interaction: np.ndarray,
               beta: np.ndarray) -> np.ndarray:
    """X beta for X = fixed_design(s[rows], group, interaction), without X:
    S (beta_t + [0; B h]) + g . beta_g, where B's columns are the time
    coefficients of each interaction value.  S meets [beta_t, [0; B]] once,
    before ``rows`` (leading axes as ``group``'s) gathers its rows."""
    qt, g, h = s.shape[-1], group.shape[-1], interaction.shape[-1]
    coef = np.zeros((qt, 1 + h))
    coef[:, 0] = beta[:qt]
    coef[1:, 1:] = beta[qt + g:].reshape(h, qt - 1).T
    parts = (s @ coef)[rows]
    return (parts[..., 0] + (group @ beta[qt:qt + g])[..., None]
            + np.einsum("...ph,...h->...p", parts[..., 1:], interaction))


def build_design(spec: ModelSpec, subject: Subject, context: BasisContext) -> DesignPair:
    """One subject's fixed and random design matrices; Z never carries covariates."""
    s, z = context.time_matrices(subject.times)
    group, interaction = covariate_values(spec, [subject], context)
    return DesignPair(X=fixed_design(s, group[0], interaction[0]), Z=z)


def distinct_rows(keys: np.ndarray):
    """(the index of the first of each distinct row, in lexicographic order;
    each row's index into them)."""
    if (keys == keys[:1]).all():  # one distinct row, as in a complete cohort: nothing to sort
        return np.zeros(1, dtype=np.intp), np.zeros(len(keys), dtype=np.intp)
    order = np.lexsort(keys.T[::-1])  # stable
    new = np.append(True, (keys[order[1:]] != keys[order[:-1]]).any(axis=1))
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def group_patterns(subjects: Sequence[Subject], codes: Optional[np.ndarray] = None):
    """The union ``TimeGrid`` of the subjects' times and, per observation count
    p in increasing order, (members, obs, design, rows): the subjects with p
    observations, in the given order; (k, p) indices of their observations in
    the concatenated times; each one's distinct (times, row of ``codes``),
    numbered in lexicographic order; each distinct one's rows in the union."""
    points = [s.times.points for s in subjects]
    counts = np.fromiter(map(len, points), dtype=np.intp, count=len(points))
    times, starts = np.concatenate(points), np.cumsum(counts) - counts
    groups = []
    for p in np.flatnonzero(np.bincount(counts)):
        members = np.flatnonzero(counts == p)
        obs = starts[members, None] + np.arange(p)
        pattern = times[obs]
        first, design = distinct_rows(pattern if codes is None
                                      else np.hstack([pattern, codes[members]]))
        groups.append((members, obs, design, pattern[first]))
    union = np.unique(np.concatenate([pattern.ravel() for *_, pattern in groups]))
    return TimeGrid(union), [(members, obs, design, np.searchsorted(union, pattern))
                             for members, obs, design, pattern in groups]


def n_cov_params(structure: str, m: int) -> int:
    """The covariance parameters of an m-column random basis, sigma^2 included."""
    return (m if structure == "diagonal" else m * (m + 1) // 2) + 1


def parameter_count(spec: ModelSpec, encoder: Optional[dict] = None):
    """(q fixed columns, r covariance parameters including sigma^2).

    Without a coding table each term counts one column; with one,
    categorical expansions are counted exactly.
    """
    def width(terms):
        return sum(1 if encoder is None else len(encoder[term]) for term in terms)

    qt = spec.fixed.n_columns
    q = qt + width(spec.group_terms) + width(spec.interaction_terms) * (qt - 1)
    return q, n_cov_params(spec.random_cov, spec.random.n_columns)
