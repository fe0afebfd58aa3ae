"""B-spline basis tests against a naive textbook recursion oracle."""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from kancredit.splines import (
    KnotVector,
    SplineParams,
    _band_dot,
    _integer_band,
    make_knot_vector,
    knot_span,
    basis_values,
    basis_derivatives,
    eval_spline,
)


def naive_basis(t, i, k, x):
    """Cox-de Boor recursion, straight from the definition.  Slow on purpose.

    Exact when ``t`` and ``x`` are Fractions.
    """
    if k == 0:
        return 1 if t[i] <= x < t[i + 1] else 0
    out = 0
    d1 = t[i + k] - t[i]
    if d1 > 0:
        out += (x - t[i]) / d1 * naive_basis(t, i, k - 1, x)
    d2 = t[i + k + 1] - t[i + 1]
    if d2 > 0:
        out += (t[i + k + 1] - x) / d2 * naive_basis(t, i + 1, k - 1, x)
    return out


def naive_row(kv, x):
    return np.array(
        [naive_basis(kv.knots, i, kv.degree, x) for i in range(kv.n_basis)]
    )


def fancy_band_dot(coef, first, band):
    """``_band_dot`` with the gather written as fancy indexing: the reference it must equal."""
    out = coef[..., first] * band[0]
    for j in range(1, band.shape[0]):
        out += coef[..., first + j] * band[j]
    return out


def same_bits(got, want) -> bool:
    """Equal shapes and equal float64 bit patterns, so -0.0 differs from 0.0."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def dense(kv, x, band_of=basis_values):
    """The band of ``band_of`` scattered at ``knot_span`` into full (.., n_basis) rows."""
    band = np.atleast_2d(band_of(kv, x))
    cols = np.atleast_1d(knot_span(kv, x))[:, None] + np.arange(kv.degree + 1)
    rows = np.zeros((band.shape[0], kv.n_basis))
    np.put_along_axis(rows, cols, band, axis=1)
    return rows[0] if np.ndim(x) == 0 else rows


class TestMakeKnotVector:
    def test_tiny_grid(self):
        kv = make_knot_vector(-1.0, 1.0, 2, 1)
        np.testing.assert_allclose(kv.knots, [-2.0, -1.0, 0.0, 1.0, 2.0])
        assert kv.n_basis == 3
        assert kv.spacing == 1.0

    def test_grid30_degree4(self):
        kv = make_knot_vector(-1.0, 1.0, 30, 4)
        assert len(kv.knots) == 39
        assert kv.spacing == pytest.approx(1.0 / 15.0, abs=1e-15)
        assert kv.knots[0] == pytest.approx(-1.0 - 4.0 / 15.0, abs=1e-12)
        assert kv.knots[4] == pytest.approx(-1.0, abs=1e-12)
        assert kv.knots[34] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(kv.knots) > 0)
        np.testing.assert_allclose(np.diff(kv.knots), kv.spacing, atol=1e-12)

    def test_n_basis_is_grid_plus_degree(self):
        for g, k in [(5, 3), (30, 4), (80, 4), (1, 0)]:
            assert make_knot_vector(-1, 1, g, k).n_basis == g + k

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="invalid-range"):
            make_knot_vector(1.0, -1.0, 5, 3)
        with pytest.raises(ValueError, match="invalid-range"):
            make_knot_vector(0.5, 0.5, 5, 3)
        with pytest.raises(ValueError, match="invalid-grid"):
            make_knot_vector(-1.0, 1.0, 0, 3)
        with pytest.raises(ValueError, match="invalid-degree"):
            make_knot_vector(-1.0, 1.0, 5, -1)


class TestBasisValues:
    def test_degree0_indicator(self):
        kv = make_knot_vector(-1.0, 1.0, 2, 0)
        np.testing.assert_allclose(dense(kv, -0.5), [1.0, 0.0])
        np.testing.assert_allclose(dense(kv, 0.5), [0.0, 1.0])

    def test_matches_naive_recursion_grid30_degree4(self):
        kv = make_knot_vector(-1.0, 1.0, 30, 4)
        got = dense(kv, 0.3)
        want = naive_row(kv, 0.3)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("grid,degree", [(5, 1), (5, 2), (5, 3), (12, 4), (30, 4)])
    def test_matches_naive_recursion_random_points(self, grid, degree):
        kv = make_knot_vector(-1.0, 1.0, grid, degree)
        rng = np.random.default_rng(7)
        for x in rng.uniform(-0.999, 0.999, size=25):
            np.testing.assert_allclose(
                dense(kv, float(x)), naive_row(kv, float(x)), atol=1e-12
            )

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("grid", [5, 7, 30, 80])
    def test_band_matches_naive_at_knots_and_clamped_ends(self, grid, degree):
        kv = make_knot_vector(-1.0, 1.0, grid, degree)
        interior = kv.knots[degree : degree + grid]  # every grid knot but the right end
        beside = [np.nextafter(interior[1:], -np.inf), np.nextafter(interior, np.inf)]
        for x in [*interior, *np.concatenate(beside), -7.5]:
            np.testing.assert_allclose(
                dense(kv, float(x)), naive_row(kv, max(float(x), -1.0)), atol=1e-12
            )
        # the closed range's right end, and beyond it, take the limit from the left
        left_limit = naive_row(kv, np.nextafter(1.0, -np.inf))
        for x in (kv.knots[degree + grid], 1.0, 7.5):
            np.testing.assert_allclose(dense(kv, float(x)), left_limit, atol=1e-12)
        spans = knot_span(kv, np.array([*interior, 1.0]))
        np.testing.assert_array_equal(spans, [*range(grid), grid - 1])

    def test_knot_span_scalar_is_int(self):
        kv = make_knot_vector(-1.0, 1.0, 8, 3)
        assert knot_span(kv, 0.3) == 5 and isinstance(knot_span(kv, 0.3), int)
        assert knot_span(kv, -4.0) == 0
        assert knot_span(kv, 4.0) == 7

    def test_partition_of_unity(self):
        kv = make_knot_vector(-1.0, 1.0, 30, 4)
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.0, 1.0, size=1000)
        sums = basis_values(kv, x).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-10

    def test_non_negative_and_local_support(self):
        kv = make_knot_vector(-1.0, 1.0, 20, 3)
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, size=200)
        b = dense(kv, x)
        assert np.all(b >= 0)
        assert np.all(np.count_nonzero(b, axis=1) <= kv.degree + 1)

    def test_clamping_saturates(self):
        kv = make_knot_vector(-1.0, 1.0, 10, 3)
        np.testing.assert_allclose(dense(kv, 3.7), dense(kv, 1.0))
        np.testing.assert_allclose(dense(kv, -250.0), dense(kv, -1.0))

    def test_array_shape_and_row_agreement(self):
        kv = make_knot_vector(-1.0, 1.0, 8, 2)
        x = np.array([-0.9, 0.0, 0.42, 0.99])
        assert basis_values(kv, x).shape == (4, kv.degree + 1)
        assert basis_values(kv, 0.42).shape == (kv.degree + 1,)
        b = dense(kv, x)
        assert b.shape == (4, kv.n_basis)
        for j, xj in enumerate(x):
            np.testing.assert_allclose(b[j], dense(kv, float(xj)), atol=1e-15)


class TestBasisDerivatives:
    def test_degree1_hats(self):
        kv = make_knot_vector(-1.0, 1.0, 2, 1)
        np.testing.assert_allclose(dense(kv, -0.5, basis_derivatives), [-1.0, 1.0, 0.0])

    def test_degree0_rejected(self):
        kv = make_knot_vector(-1.0, 1.0, 5, 0)
        with pytest.raises(ValueError, match="unsupported-degree"):
            basis_derivatives(kv, 0.3)

    def test_single_point_against_finite_difference(self):
        kv = make_knot_vector(-1.0, 1.0, 10, 4)
        step = 1e-6
        fd = (dense(kv, 0.2 + step) - dense(kv, 0.2 - step)) / (2 * step)
        assert np.max(np.abs(dense(kv, 0.2, basis_derivatives) - fd)) < 1e-5

    @pytest.mark.parametrize("grid,degree", [(5, 2), (10, 3), (30, 4)])
    def test_matches_central_differences(self, grid, degree):
        kv = make_knot_vector(-1.0, 1.0, grid, degree)
        rng = np.random.default_rng(19)
        x = rng.uniform(-0.99, 0.99, size=300)
        # step small enough that truncation error stays below 1e-5 relative
        # even for entries near the 1e-8 magnitude guard
        step = 1e-7
        fd = (dense(kv, x + step) - dense(kv, x - step)) / (2 * step)
        db = dense(kv, x, basis_derivatives)
        scale = np.maximum(np.abs(db), np.abs(fd))
        mask = scale > 1e-8
        assert np.max(np.abs(db - fd)[mask] / scale[mask]) < 1e-5

    def test_derivative_rows_sum_to_zero(self):
        # d/dx of the partition of unity
        kv = make_knot_vector(-1.0, 1.0, 12, 3)
        rng = np.random.default_rng(23)
        x = rng.uniform(-1.0, 1.0, size=100)
        assert np.max(np.abs(basis_derivatives(kv, x).sum(axis=1))) < 1e-10


class TestIntegerTable:
    """The integer polynomials behind the band, and their evaluation near the span ends."""

    def test_pinned_cubic_table(self):
        # 6 * B(u): (1 - u)^3, 4 - 6u^2 + 3u^3, 1 + 3u + 3u^2 - 3u^3, u^3
        assert _integer_band(3) == ((1, -3, 3, -1), (4, 0, -6, 3), (1, 3, 3, -3), (0, 0, 0, 1))

    @pytest.mark.parametrize("degree", range(9))
    def test_rows_sum_to_the_exact_partition_of_unity(self, degree):
        table = _integer_band(degree)
        assert len(table) == degree + 1 and all(len(row) == degree + 1 for row in table)
        assert [sum(col) for col in zip(*table)] == [factorial(degree)] + [0] * degree

    @pytest.mark.parametrize("degree", range(9))
    def test_row_j_in_u_is_row_k_minus_j_in_one_minus_u(self, degree):
        table = _integer_band(degree)
        for j, row in enumerate(table):
            mirrored = [0] * (degree + 1)  # coefficients of table[degree - j](1 - u)
            for p, c in enumerate(table[degree - j]):
                for i in range(p + 1):
                    mirrored[i] += c * comb(p, i) * (-1) ** i
            assert mirrored == list(row), j

    @pytest.mark.parametrize("degree", range(9))
    def test_relative_accuracy_near_both_span_ends(self, degree):
        # unit spacing on integer knots: u = x - span exactly, and the Cox-de Boor
        # recursion on Fractions gives each basis and derivative exactly
        kv = make_knot_vector(0.0, 6.0, 6, degree)
        knots = [Fraction(float(t)) for t in kv.knots]
        offsets = [1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3]
        x = np.array([3.0 + d for d in offsets] + [4.0 - d for d in offsets])
        assert np.all(knot_span(kv, x) == 3)
        orders = [(0, basis_values)] + [(1, basis_derivatives)] * (degree > 0)
        for order, band_of in orders:
            got = band_of(kv, x)
            for row, xi in zip(got, x):
                xf = Fraction(float(xi))
                for j, value in enumerate(row):
                    i = 3 + j  # the basis, numbered as the knot vector numbers them
                    if order:  # B'_i,k = B_i,k-1 - B_i+1,k-1 at unit spacing
                        want = (naive_basis(knots, i, degree - 1, xf)
                                - naive_basis(knots, i + 1, degree - 1, xf))
                    else:
                        want = naive_basis(knots, i, degree, xf)
                    assert want != 0
                    err = abs((Fraction(float(value)) - want) / want)
                    assert err < Fraction(1, 10**14), (order, float(xi), j, float(err))


class TestEvalSpline:
    def test_constant_spline(self):
        # equal coefficients reproduce a constant by partition of unity
        kv = make_knot_vector(-1.0, 1.0, 9, 3)
        p = SplineParams(np.full(kv.n_basis, 2.5))
        assert eval_spline(p, kv, 0.123) == pytest.approx(2.5, abs=1e-12)

    def test_length_mismatch(self):
        kv = make_knot_vector(-1.0, 1.0, 9, 3)
        with pytest.raises(ValueError, match="length-mismatch"):
            eval_spline(SplineParams(np.ones(5)), kv, 0.0)

    def test_least_squares_fit_recovers_sine(self):
        kv = make_knot_vector(-1.0, 1.0, 30, 4)
        xs = np.linspace(-1.0, 1.0, 400)
        coef, *_ = np.linalg.lstsq(dense(kv, xs), np.sin(np.pi * xs), rcond=None)
        p = SplineParams(coef)
        held_out = np.linspace(-0.995, 0.995, 173)
        err = np.abs(eval_spline(p, kv, held_out) - np.sin(np.pi * held_out))
        assert err.max() < 1e-3

    def test_out_of_range_equals_endpoint(self):
        kv = make_knot_vector(-1.0, 1.0, 7, 3)
        rng = np.random.default_rng(5)
        p = SplineParams(rng.uniform(-1, 1, kv.n_basis))
        assert eval_spline(p, kv, 4.0) == eval_spline(p, kv, 1.0)
        assert eval_spline(p, kv, -9.9) == eval_spline(p, kv, -1.0)


class TestBandDot:
    """_band_dot bit for bit against the fancy-index gather, at the shapes its callers pass."""

    kv = make_knot_vector(-1.0, 1.0, 30, 4)

    def layer_operands(self, n_out, n_in, band_of=basis_values, rows=37, seed=0):
        """coef, first and band as ``network._layer_batch`` builds them, ends of the range included."""
        rng = np.random.default_rng(seed)
        kv = self.kv
        x = rng.uniform(-1.2, 1.2, size=(rows, n_in))
        x[0] = 1.0  # the last window: first + degree is each input's last coefficient
        x[1] = -1.0
        x[2, 0], x[2, -1] = 3.0, -3.0
        first = knot_span(kv, x.ravel()).reshape(rows, n_in) + np.arange(n_in) * kv.n_basis
        band = band_of(kv, x.ravel()).T.reshape(-1, rows, n_in)
        coef = rng.normal(size=(n_out, n_in * kv.n_basis))
        return coef, first, band, x

    @pytest.mark.parametrize("n_out", [1, 4])
    def test_layer_forward(self, n_out):
        coef, first, band, _ = self.layer_operands(n_out, 10)
        assert first.max() + self.kv.degree == coef.shape[1] - 1
        got = _band_dot(coef, first, band)
        assert got.shape == (n_out, 37, 10)
        assert same_bits(got, fancy_band_dot(coef, first, band))

    def test_hidden_layer_derivative_band(self):
        # as training._layer_backward builds it: zeroed where the input is clamped
        coef, first, dband, x = self.layer_operands(1, 4, basis_derivatives, seed=1)
        dband *= (x > self.kv.range_min) & (x < self.kv.range_max)
        assert np.any(np.signbit(dband) & (dband == 0))  # -0.0 entries reach the kernel
        assert same_bits(_band_dot(coef, first, dband), fancy_band_dot(coef, first, dband))

    def test_eval_spline_array_and_scalar(self):
        kv = self.kv
        coef = np.random.default_rng(2).normal(size=kv.n_basis)
        xs = np.array([-1.5, -1.0, -0.31, 0.0, 0.77, 1.0, 2.0])
        for x in (xs, 0.77, 1.0):
            first, band = knot_span(kv, x), basis_values(kv, x).T
            want = fancy_band_dot(coef, first, band)
            assert same_bits(_band_dot(coef, first, band), want)
            assert same_bits(eval_spline(SplineParams(coef), kv, x), want)
        assert isinstance(eval_spline(SplineParams(coef), kv, 0.77), float)

    def test_index_past_the_last_coefficient_raises(self):
        coef, first, band, _ = self.layer_operands(4, 10)
        first[3, -1] = coef.shape[1] - self.kv.degree  # its last band entry is one past the end
        for kernel in (_band_dot, fancy_band_dot):
            with pytest.raises(IndexError):
                kernel(coef, first, band)
