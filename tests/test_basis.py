import numpy as np
import pytest

from abpmix.basis import (
    DEFAULT_SPLINE_CLOCK_KNOTS,
    TimeGrid,
    clock_knots_to_elapsed,
    evaluate_polynomial_basis,
    gram_schmidt_orthonormalize,
    gram_schmidt_transform,
    natural_polynomial_basis,
    orthonormal_polynomial_basis,
    orthonormality_deviation,
    restricted_cubic_spline_basis,
)
from abpmix.design import BasisContext, BasisDescriptor, ModelSpec
from abpmix.errors import DomainError, GridError, KnotError, RankError


def qr_oracle(points, degree):
    """Independent orthonormal-polynomial construction: QR of the Vandermonde."""
    u = np.asarray(points, dtype=float)
    u = (u - u.mean()) / max(np.ptp(u) / 2.0, 1.0)
    q, r = np.linalg.qr(np.vander(u, degree + 1, increasing=True))
    # fix signs the same way: largest-magnitude entry positive
    for j in range(q.shape[1]):
        i = int(np.argmax(np.abs(q[:, j])))
        if q[i, j] < 0:
            q[:, j] = -q[:, j]
    return q


class TestTimeGrid:
    def test_rejects_out_of_domain(self):
        with pytest.raises(GridError):
            TimeGrid(np.array([0.0, 25.0]))

    def test_rejects_non_increasing(self):
        with pytest.raises(GridError):
            TimeGrid(np.array([1.0, 1.0, 2.0]))

    def test_hourly_midpoints(self):
        g = TimeGrid.hourly_midpoints()
        assert len(g) == 24
        assert g.points[0] == 0.5 and g.points[-1] == 23.5

    def test_leaves_the_callers_array_writeable_and_unshared(self):
        t = np.arange(24.0) + 0.5
        grid = TimeGrid(t)
        assert t.flags.writeable and not np.shares_memory(t, grid.points)
        assert not grid.points.flags.writeable
        t[0] = 99.0
        assert grid.points[0] == 0.5


class TestOrthonormalPolynomial:
    def test_degree_two_on_three_points(self):
        grid = TimeGrid(np.array([1.0, 2.0, 3.0]))
        basis, _ = orthonormal_polynomial_basis(grid, 2)
        expected = np.column_stack(
            [
                np.full(3, 1 / np.sqrt(3)),
                np.array([-1, 0, 1]) / np.sqrt(2),
                np.array([1, -2, 1]) / np.sqrt(6),
            ]
        )
        # compare up to column sign
        for j in range(3):
            diff = min(
                np.max(np.abs(basis[:, j] - expected[:, j])),
                np.max(np.abs(basis[:, j] + expected[:, j])),
            )
            assert diff < 1e-12

    def test_degree_zero_constant_column(self):
        grid = TimeGrid(np.array([0.0, 3.0, 7.0, 20.0]))
        basis, _ = orthonormal_polynomial_basis(grid, 0)
        np.testing.assert_allclose(basis, np.full((4, 1), 0.5), atol=1e-15)

    def test_degree_nine_hourly_grid(self):
        grid = TimeGrid.hourly_midpoints()
        basis, _ = orthonormal_polynomial_basis(grid, 9)
        assert basis.shape == (24, 10)
        assert orthonormality_deviation(basis) <= 1e-10

    @pytest.mark.parametrize("p,degree", [(12, 9), (24, 9), (49, 9), (24, 3), (5, 4)])
    def test_matches_qr_oracle(self, p, degree):
        grid = TimeGrid.equispaced(p)
        basis, _ = orthonormal_polynomial_basis(grid, degree)
        oracle = qr_oracle(grid.points, degree)
        # align column signs: the convention can flip under exact magnitude ties
        signs = np.sign(np.einsum("ij,ij->j", basis, oracle))
        np.testing.assert_allclose(basis, oracle * signs, atol=1e-9)

    def test_degree_exceeds_points(self):
        with pytest.raises(RankError):
            orthonormal_polynomial_basis(TimeGrid(np.array([1.0, 2.0])), 2)

    def test_entries_bounded(self):
        for p in (2, 12, 24, 49):
            grid = TimeGrid.equispaced(p)
            basis, _ = orthonormal_polynomial_basis(grid, min(9, p - 1))
            assert np.all(np.abs(basis) < 1.0)

    def test_reference_grid_column_signs_are_pinned(self):
        # a saved fit.json stores beta but not the basis, and a simulation
        # config draws through it: flipping a column silently changes both.
        # On the symmetric default grid an odd column's two end values tie up
        # to rounding, so its sign rests on the exact order of the arithmetic.
        grid = TimeGrid.equispaced(49, 0.0, 24.0)
        signs = [1, 1, 1, 1, 1, 1, 1, -1, 1, 1]  # of each column's leading coefficient
        for degree in range(10):
            _, coeffs = orthonormal_polynomial_basis(grid, degree)
            assert np.sign(np.diag(coeffs.coeffs)).tolist() == signs[: degree + 1]
        # The Gram-Schmidt transforms that BasisContext builds on the same grid
        # (of each column's raw one): natural polynomials, whose column 3 has
        # end values 2.2e-16 apart, and the default 9-knot spline.
        knots = tuple(clock_knots_to_elapsed(DEFAULT_SPLINE_CLOCK_KNOTS, start_hour=12.0))
        cases = [(BasisDescriptor("natural_poly", d), natural_polynomial_basis(grid, d),
                  [1, 1, 1, -1, 1, -1][: d + 1]) for d in range(1, 6)]
        cases.append((BasisDescriptor("restricted_cubic_spline", knots=knots),
                      np.column_stack([np.ones(49), restricted_cubic_spline_basis(grid, knots)]),
                      [1, 1, 1, -1, 1, -1, -1, -1, 1]))
        for desc, m, signs in cases:
            _, t = gram_schmidt_transform(m)
            assert np.sign(np.diag(t)).tolist() == signs
            context = BasisContext(ModelSpec(fixed=desc, random=desc))
            assert np.array_equal(context.fixed_time_matrix(grid), m @ t)

    def test_coefficient_table_lower_triangular(self):
        _, coeffs = orthonormal_polynomial_basis(TimeGrid.equispaced(24), 5)
        assert np.allclose(np.triu(coeffs.coeffs, k=1), 0.0)


class TestEvaluatePolynomialBasis:
    def test_round_trip_bitwise_on_generating_grid(self):
        grid = TimeGrid.equispaced(49)
        basis, coeffs = orthonormal_polynomial_basis(grid, 9)
        again = evaluate_polynomial_basis(coeffs, grid)
        assert np.array_equal(again, basis)
        assert not (basis.flags.writeable or again.flags.writeable)

    def test_subgrid_deviation_finite(self):
        grid = TimeGrid.hourly_midpoints()
        _, coeffs = orthonormal_polynomial_basis(grid, 4)
        sub = TimeGrid(grid.points[[0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 22, 23]])
        dev = orthonormality_deviation(evaluate_polynomial_basis(coeffs, sub))
        assert np.isfinite(dev) and dev > 0

    def test_single_time_degree_one(self):
        grid = TimeGrid.hourly_midpoints()
        _, coeffs = orthonormal_polynomial_basis(grid, 1)
        row = evaluate_polynomial_basis(coeffs, TimeGrid(np.array([12.0])))
        # closed form on the hourly-midpoint grid: s0 = 1/sqrt(24),
        # s1(t) = (t - 12) / ||t - 12|| with the grid's norm
        centered = grid.points - grid.points.mean()
        expected = np.array([1 / np.sqrt(24), (12.0 - 12.0) / np.linalg.norm(centered)])
        np.testing.assert_allclose(row[0], expected, atol=1e-12)

    def test_extrapolation_refused(self):
        _, coeffs = orthonormal_polynomial_basis(TimeGrid.equispaced(24), 2)
        bad = TimeGrid.__new__(TimeGrid)
        object.__setattr__(bad, "points", np.array([-0.5, 12.0]))
        with pytest.raises(DomainError):
            evaluate_polynomial_basis(coeffs, bad)


def spline_function(knots, coef):
    """Scalar spline f(t) = coef . [t, x_1..x_{k-2}] for derivative checks."""

    def f(t):
        vals = restricted_cubic_spline_basis(TimeGrid(np.atleast_1d(t)), knots)
        return float((vals @ coef)[0])

    return f


class TestRestrictedCubicSpline:
    def test_default_nine_knots_give_eight_columns(self):
        knots = clock_knots_to_elapsed(DEFAULT_SPLINE_CLOCK_KNOTS, start_hour=12.0)
        basis = restricted_cubic_spline_basis(TimeGrid.hourly_midpoints(), knots)
        assert basis.shape == (24, 8)

    def test_all_plus_functions_vanish_left_of_first_knot(self):
        basis = restricted_cubic_spline_basis(
            TimeGrid(np.array([0.0, 1.0, 2.0])), knots=(3.0, 9.0, 15.0, 21.0)
        )
        np.testing.assert_array_equal(basis[:, 1:], 0.0)
        np.testing.assert_array_equal(basis[:, 0], [0.0, 1.0, 2.0])

    def test_closed_form_value(self):
        basis = restricted_cubic_spline_basis(TimeGrid(np.array([14.0])), knots=(6.0, 12.0, 18.0))
        assert basis[0, 0] == 14.0
        assert abs(basis[0, 1] - 496.0) < 1e-10

    def test_linear_beyond_boundary_knots(self):
        rng = np.random.default_rng(7)
        knots = clock_knots_to_elapsed(DEFAULT_SPLINE_CLOCK_KNOTS, start_hour=13.0)
        coef = rng.normal(size=8)
        f = spline_function(knots, coef)
        h = 1e-3
        scale = max(abs(f(t)) for t in np.linspace(0, 24, 25))
        for t in [0.2, 0.5, knots[0] - 0.1, knots[-1] + 0.05, 23.8]:
            if not (h < t < 24 - h):
                continue
            if knots[0] - h < t < knots[-1] + h:
                if not (t < knots[0] - h or t > knots[-1] + h):
                    continue
            second = (f(t + h) - 2 * f(t) + f(t - h)) / h**2
            assert abs(second) <= 1e-6 * scale

    def test_second_derivative_continuous_at_interior_knots(self):
        rng = np.random.default_rng(11)
        knots = np.array([2.0, 6.0, 10.0, 14.0, 18.0, 22.0])
        coef = rng.normal(size=5)
        f = spline_function(knots, coef)
        h = 1e-3

        def second(t):
            return (f(t + h) - 2 * f(t) + f(t - h)) / h**2

        # central differences are exact for cubics; extrapolate the
        # piecewise-linear f'' to the knot from each side
        for tk in knots[1:-1]:
            left = 2 * second(tk - h) - second(tk - 2 * h)
            right = 2 * second(tk + h) - second(tk + 2 * h)
            assert abs(right - left) <= 1e-6 * max(abs(left), abs(right), 1.0)

    def test_knot_validation(self):
        grid = TimeGrid(np.array([1.0, 2.0]))
        with pytest.raises(KnotError):
            restricted_cubic_spline_basis(grid, knots=(5.0, 3.0, 9.0))
        with pytest.raises(KnotError):
            restricted_cubic_spline_basis(grid, knots=(5.0, 9.0))


class TestGramSchmidt:
    def test_worked_example(self):
        m = np.column_stack([np.ones(4), np.array([1.0, 2.0, 3.0, 4.0])])
        q, t = gram_schmidt_transform(m)
        expected = np.column_stack(
            [np.full(4, 0.5), np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(20)]
        )
        np.testing.assert_allclose(q, expected, atol=1e-12)
        np.testing.assert_allclose(m @ t, q, atol=1e-12)

    def test_idempotent_up_to_sign(self):
        grid = TimeGrid.equispaced(12)
        basis, _ = orthonormal_polynomial_basis(grid, 3)
        out = gram_schmidt_orthonormalize(basis, add_intercept=False)
        np.testing.assert_allclose(np.abs(out), np.abs(basis), atol=1e-12)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            gram_schmidt_orthonormalize(np.array([[1.0], [np.nan]]), add_intercept=False)

    def test_duplicate_column_names_offender(self):
        v = np.column_stack([np.arange(4.0), np.arange(4.0)])
        with pytest.raises(RankError, match="column 2"):
            gram_schmidt_transform(v)

    def test_orthonormal_output(self):
        knots = clock_knots_to_elapsed(DEFAULT_SPLINE_CLOCK_KNOTS, start_hour=8.0)
        basis = restricted_cubic_spline_basis(TimeGrid.hourly_midpoints(), knots)
        out = gram_schmidt_orthonormalize(basis)
        assert out.shape == (24, 9)
        assert not (basis.flags.writeable or out.flags.writeable)
        assert orthonormality_deviation(out) <= 1e-10

    def test_span_equivalence_in_least_squares(self):
        rng = np.random.default_rng(3)
        knots = clock_knots_to_elapsed(DEFAULT_SPLINE_CLOCK_KNOTS, start_hour=8.0)
        basis = restricted_cubic_spline_basis(TimeGrid.hourly_midpoints(), knots)
        raw = np.column_stack([np.ones(24), basis])
        ortho = gram_schmidt_orthonormalize(basis)
        y = rng.normal(size=24)
        fit_raw = raw @ np.linalg.lstsq(raw, y, rcond=None)[0]
        fit_ortho = ortho @ np.linalg.lstsq(ortho, y, rcond=None)[0]
        np.testing.assert_allclose(fit_raw, fit_ortho, atol=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        q, _ = gram_schmidt_transform(rng.normal(size=(10, 4)))
        for j in range(4):
            i = int(np.argmax(np.abs(q[:, j])))
            assert q[i, j] > 0


class TestClockKnots:
    def test_wraps_and_sorts(self):
        elapsed = clock_knots_to_elapsed((13.0, 15.0, 0.0, 11.0), start_hour=13.0)
        np.testing.assert_allclose(elapsed, [0.0, 2.0, 11.0, 22.0])

    def test_collision_rejected(self):
        with pytest.raises(KnotError):
            clock_knots_to_elapsed((1.0, 25.0), start_hour=0.0)


def test_natural_polynomial_columns():
    basis = natural_polynomial_basis(TimeGrid(np.array([0.0, 2.0])), 2)
    np.testing.assert_array_equal(basis, [[1, 0, 0], [1, 2, 4]])
    assert basis.dtype == float and not basis.flags.writeable

