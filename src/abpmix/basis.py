"""Time-basis construction.

Four basis families are supported:

* exact orthonormal polynomials on a complete grid,
* approximate orthonormal polynomials at arbitrary times, obtained by
  evaluating the coefficient table derived on a reference grid,
* restricted cubic spline covariates (linear tails, C2 at the knots),
* plain natural (monomial) polynomials.

Each returns a read-only float array.  The orthonormal polynomials and the
Gram-Schmidt transform share one re-orthogonalization loop and sign rule.

Raw times live on [0, 24] hours.  Internally the polynomial coefficients
are expressed in an affinely rescaled variable on [-1, 1]; monomials of
degree 9 on [0, 24] are far too ill-conditioned to work with directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, KnotError, RankError, SpecError

TIME_DOMAIN = (0.0, 24.0)
MAX_GRID_POINTS = 86_401  # one point a second over 24 h

_ORTHO_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time points, in hours within [0, 24]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, order="C", ndmin=1)  # owned copy
        if pts.ndim != 1:
            raise GridError("time grid must be one-dimensional")
        if not np.isfinite(pts).all():
            raise GridError("time grid contains non-finite values")
        lo, hi = TIME_DOMAIN
        if pts.size and (pts[0] < lo or pts[-1] > hi):
            raise GridError(f"time points must lie in [{lo}, {hi}]")
        if not (pts[1:] > pts[:-1]).all():
            raise GridError("time points must be strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __reduce__(self):  # numpy unpickles arrays writeable; the checks make a read-only copy
        return TimeGrid, (self.points,)

    @classmethod
    def _trusted(cls, points: np.ndarray) -> "TimeGrid":
        """A grid that holds ``points`` itself: no copy and no checks.

        Precondition: ``points`` is a read-only one-dimensional float
        array, finite, strictly increasing and within TIME_DOMAIN.
        """
        grid = object.__new__(cls)
        object.__setattr__(grid, "points", points)
        return grid

    @classmethod
    def equispaced(cls, n: int, start: float = 0.0, end: float = 24.0) -> "TimeGrid":
        """``n`` equally spaced points from ``start`` to ``end``.  ``n`` is
        at least 1 and at most MAX_GRID_POINTS, 86,401, one point a second
        over 24 h; a larger count is a GridError before anything is
        allocated."""
        if n < 1:
            raise GridError("need at least one grid point")
        if n > MAX_GRID_POINTS:
            raise GridError(f"at most {MAX_GRID_POINTS} grid points, not {n}")
        return cls(np.linspace(start, end, n))

    def __len__(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class PolynomialCoefficients:
    """Monomial coefficient table of an orthonormal polynomial family.

    Row j holds the coefficients of basis polynomial j in the rescaled
    variable u = (t - offset) / scale, lowest power first.  The table is
    lower triangular; evaluating all rows on the generating grid gives
    columns with B'B = I.
    """

    degree: int
    coeffs: np.ndarray
    offset: float
    scale: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.degree + 1, self.degree + 1):
            raise ValueError("coefficient table has the wrong shape")
        object.__setattr__(self, "coeffs", _readonly(c))

    def __reduce__(self):  # numpy unpickles arrays writeable; _readonly resets the flag
        return PolynomialCoefficients, (self.degree, self.coeffs, self.offset, self.scale)

    def rescale(self, times: np.ndarray) -> np.ndarray:
        return (np.asarray(times, dtype=float) - self.offset) / self.scale


def _eval_table(coeffs: PolynomialCoefficients, times: np.ndarray) -> np.ndarray:
    u = coeffs.rescale(times)
    v = np.vander(u, coeffs.degree + 1, increasing=True)
    return v @ coeffs.coeffs.T


def _orthogonalize(v: np.ndarray, coeffs: np.ndarray, cols: np.ndarray, table: np.ndarray,
                   j: int) -> None:
    """Two passes of modified Gram-Schmidt, in place: take from ``v`` its
    projections on ``cols[:, :j]`` and from ``coeffs`` the same multiples of
    the rows ``table[:j]``.  One pass loses orthogonality in proportion to
    the conditioning; twice is enough (Giraud, Langou & Rozloznik 2005)."""
    for _ in range(2):
        for k in range(j):
            proj = cols[:, k] @ v
            coeffs -= proj * table[k]
            v -= proj * cols[:, k]


def _fix_signs(cols: np.ndarray, table: np.ndarray) -> None:
    """Negate each column of ``cols`` whose largest-magnitude entry is
    negative, and its row of ``table``.  Ties go to the last such entry, so
    increasing columns keep a positive slope."""
    for j in range(cols.shape[1]):
        mag = np.abs(cols[:, j])
        i = len(mag) - 1 - int(np.argmax(mag[::-1]))
        if cols[i, j] < 0:
            table[j] = -table[j]
            cols[:, j] = -cols[:, j]


def orthonormal_polynomial_basis(grid: TimeGrid, degree: int):
    """Exact orthonormal polynomials on a complete grid.

    Built by the three-term shift recurrence in coefficient space (Forsythe
    1957) with two-pass re-orthogonalization against all earlier columns,
    which keeps degree-9 drift below 1e-13.  Returns the read-only
    evaluated matrix and the coefficient table that reproduces it.
    """
    p = len(grid)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree >= p:
        raise RankError(f"degree {degree} needs more than {p} distinct time points")

    lo, hi = float(grid.points[0]), float(grid.points[-1])
    offset, scale = (lo, 1.0) if p == 1 else ((lo + hi) / 2.0, (hi - lo) / 2.0)
    u = (grid.points - offset) / scale
    vand = np.vander(u, degree + 1, increasing=True)

    ncol = degree + 1
    table, cols = np.zeros((ncol, ncol)), np.empty((p, ncol))
    for j in range(ncol):
        c = np.zeros(ncol)
        if j == 0:
            c[0] = 1.0
        else:  # multiply the previous polynomial by u: shift coefficients up one power
            c[1 : j + 1] = table[j - 1, :j]
        v = vand @ c
        _orthogonalize(v, c, cols, table, j)
        nrm = np.linalg.norm(v)
        if j and nrm <= 1e-13 * max(1.0, np.linalg.norm(vand @ np.abs(c))):
            raise RankError(f"basis degenerates at degree {j}")
        table[j] = c / nrm
        cols[:, j] = v / nrm
    _fix_signs(cols, table)

    coeffs = PolynomialCoefficients(degree=degree, coeffs=table, offset=offset, scale=scale)
    # regenerate through the evaluation path so evaluate() is bitwise identical
    return _readonly(_eval_table(coeffs, grid.points)), coeffs


def evaluate_polynomial_basis(coeffs: PolynomialCoefficients, times: TimeGrid) -> np.ndarray:
    """Evaluate a stored coefficient table at arbitrary times in [0, 24].

    On the generating grid this reproduces the exact basis bitwise; at
    other times the columns are only approximately orthonormal.
    """
    lo, hi = TIME_DOMAIN
    pts = times.points
    if pts.size and (pts[0] < lo or pts[-1] > hi):
        raise DomainError(f"times outside [{lo}, {hi}]: extrapolation refused")
    return _readonly(_eval_table(coeffs, pts))


def restricted_cubic_spline_basis(times: TimeGrid, knots) -> np.ndarray:
    """Restricted cubic spline covariates: the linear term plus k-2 columns.

    Column i (i >= 1) is
        (t - t_i)+^3 - (t - t_{k-1})+^3 (t_k - t_i)/(t_k - t_{k-1})
                     + (t - t_k)+^3 (t_{k-1} - t_i)/(t_k - t_{k-1}),
    which makes the implied spline C2 everywhere and linear outside the
    boundary knots.  No intercept column is included.
    """
    kn = np.asarray(knots, dtype=float)
    if kn.ndim != 1 or kn.size < 3:
        raise KnotError("need at least 3 strictly increasing knots")
    if not np.all(np.diff(kn) > 0):
        raise KnotError("knots must be strictly increasing")
    lo, hi = TIME_DOMAIN
    if kn[0] < lo or kn[-1] > hi:
        raise KnotError(f"knots must lie within [{lo}, {hi}]")
    if len(times) == 0:
        raise GridError("empty time grid")

    t = times.points
    tkm1, tk = kn[-2], kn[-1]
    span = tk - tkm1

    def plus3(x):
        return np.where(x > 0, x, 0.0) ** 3

    cols = [plus3(t - ti) - plus3(t - tkm1) * (tk - ti) / span + plus3(t - tk) * (tkm1 - ti) / span
            for ti in kn[:-2]]
    return _readonly(np.column_stack([t] + cols))


def natural_polynomial_basis(times: TimeGrid, degree: int) -> np.ndarray:
    """Plain monomial columns 1, t, ..., t^degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return _readonly(np.vander(times.points, degree + 1, increasing=True))


def gram_schmidt_transform(m: np.ndarray):
    """Modified Gram-Schmidt with re-orthogonalization.

    Returns (Q, T) with Q = M @ T, Q'Q = I and T upper triangular, so
    column j of Q spans the same space as columns 1..j of M.  Each output
    column has its largest-magnitude entry positive.
    """
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise SpecError("matrix contains non-finite entries: a basis column overflows a double")
    p, c = m.shape
    scale = np.linalg.norm(m)
    q, t = np.empty((p, c)), np.zeros((c, c))
    for j in range(c):
        v = m[:, j].copy()
        tj = np.zeros(c)
        tj[j] = 1.0
        _orthogonalize(v, tj, q, t.T, j)
        nrm = np.linalg.norm(v)
        if nrm <= _ORTHO_TOL * scale:
            raise RankError(f"rank deficiency at column {j + 1}")
        q[:, j] = v / nrm
        t[:, j] = tj / nrm
    _fix_signs(q, t.T)
    return q, t


def clock_knots_to_elapsed(clock_knots, start_hour: float):
    """Map clock-hour knots to elapsed hours since recording start, sorted.

    The default 9-knot placement crosses midnight; the spline formula
    needs knots on the same monotone axis as the data.
    """
    kn = np.asarray(clock_knots, dtype=float)
    elapsed = np.sort(np.mod(kn - start_hour, 24.0))
    if np.any(np.diff(elapsed) <= 0):
        raise KnotError("clock knots collapse onto each other after remapping")
    return elapsed


#: 9-knot clock-hour placement used for the restricted cubic spline default.
DEFAULT_SPLINE_CLOCK_KNOTS = (13.0, 15.0, 18.0, 21.0, 0.0, 3.0, 6.0, 9.0, 11.0)
