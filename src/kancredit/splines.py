"""Uniform B-spline bases: knot construction, evaluation, derivatives.

Every learnable activation in the network is a weighted sum of B-spline
basis functions over a fixed uniform grid.  The grid spans a nominal input
range (normally [-1, 1]) and is extended by ``degree`` extra knots on each
side so that a full set of ``grid_count + degree`` bases is supported on
the nominal range.  Inputs outside the range are clamped to the nearest
endpoint before evaluation, which makes evaluation total: out-of-range
inputs just saturate at the boundary value of the spline.

At any input only ``degree + 1`` consecutive bases are nonzero, so the
basis is kept banded: ``knot_span`` gives the index of the first of them and
``basis_values``/``basis_derivatives`` their values and derivatives, one row
of ``degree + 1`` per sample.  A spline is evaluated by gathering the
coefficients at ``span + j``.  Values come from the triangular recurrence
(de Boor's local algorithm) written in the offset u = (x - t_span) / h, where
on the uniform grid every denominator is a small integer and no knot is
looked up.  Derivatives use the uniform-knot identity
B'_i,k(x) = (B_i,k-1(x) - B_i+1,k-1(x)) / h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KnotVector",
    "SplineParams",
    "make_knot_vector",
    "knot_span",
    "basis_values",
    "basis_derivatives",
    "eval_spline",
]


@dataclass(frozen=True)
class KnotVector:
    """Uniform knot sequence over ``interior_count`` grid intervals.

    ``knots`` has length ``interior_count + 2 * degree + 1``: the grid over
    [range_min, range_max] plus ``degree`` uniformly continued knots per
    side.  The sequence is non-decreasing with constant spacing.
    """

    knots: np.ndarray
    degree: int
    interior_count: int
    range_min: float
    range_max: float

    @property
    def n_basis(self) -> int:
        """Number of basis functions supported on the nominal range."""
        return self.interior_count + self.degree

    @property
    def spacing(self) -> float:
        return (self.range_max - self.range_min) / self.interior_count


@dataclass
class SplineParams:
    """Coefficients of one spline; length must match the knot vector's ``n_basis``."""

    coefficients: np.ndarray


def _check_grid(range_min, range_max, grid_count, degree) -> None:
    """The checks ``make_knot_vector`` makes before it allocates anything."""
    if not range_min < range_max:
        raise ValueError(
            f"invalid-range: need range_min < range_max, got [{range_min}, {range_max}]"
        )
    if grid_count < 1:
        raise ValueError(f"invalid-grid: grid_count must be >= 1, got {grid_count}")
    if degree < 0:
        raise ValueError(f"invalid-degree: degree must be >= 0, got {degree}")


def make_knot_vector(
    range_min: float, range_max: float, grid_count: int, degree: int
) -> KnotVector:
    """Build the uniform extended knot vector for a grid of ``grid_count`` intervals."""
    _check_grid(range_min, range_max, grid_count, degree)
    h = (range_max - range_min) / grid_count
    knots = range_min + h * np.arange(-degree, grid_count + degree + 1)
    return KnotVector(
        knots=knots,
        degree=int(degree),
        interior_count=int(grid_count),
        range_min=float(range_min),
        range_max=float(range_max),
    )


def _span_offset(kv: KnotVector, x) -> tuple[np.ndarray, np.ndarray, bool]:
    """Grid interval ``span`` of each clamped sample and its offset ``u`` in it.

    ``span`` is the ``i`` with t_i <= x < t_i+1 among the grid knots
    t_i = range_min + i * h (the values ``make_knot_vector`` stores), and
    the right end of the range belongs to the last interval.  It is also
    the index of the first nonzero basis.  ``u = (x - t_span) / h`` lies in
    [0, 1].
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.clip(np.atleast_1d(arr), kv.range_min, kv.range_max)
    h = kv.spacing
    span = np.floor((arr - kv.range_min) / h).astype(np.int64)
    # the quotient can round across a knot; settle the side on the knot itself
    span -= arr < kv.range_min + h * span
    span += arr >= kv.range_min + h * (span + 1)
    np.clip(span, 0, kv.interior_count - 1, out=span)
    u = (arr - (kv.range_min + h * span)) / h
    # only range_max itself can land past the last knot, by rounding
    return span, np.minimum(u, 1.0, out=u), scalar


def _band(u: np.ndarray, degree: int) -> np.ndarray:
    """Degree-``degree`` values of the bases nonzero at offsets ``u``: (degree + 1, n).

    The triangular recursion on a uniform grid, in units of the spacing:
    every denominator is the step ``j`` and both factors are >= 0.
    """
    vals = np.empty((degree + 1, u.shape[0]))
    vals[0] = 1.0
    for j in range(1, degree + 1):
        saved = 0.0
        for r in range(j):
            temp = vals[r] / j
            vals[r] = saved + (r + 1 - u) * temp
            saved = (u + (j - r - 1)) * temp
        vals[j] = saved
    return vals


def knot_span(knots: KnotVector, x):
    """Index of the first nonzero basis at the clamped ``x`` (int for a scalar).

    Bases ``span ... span + degree`` are the ones ``basis_values`` returns.
    """
    span, _, scalar = _span_offset(knots, x)
    return int(span[0]) if scalar else span


def basis_values(knots: KnotVector, x) -> np.ndarray:
    """Values of the ``degree + 1`` bases that can be nonzero at ``x``.

    Column ``j`` holds basis ``knot_span(knots, x) + j``; every other basis
    is zero there.  Returns shape ``(degree + 1,)`` for scalar input and
    ``(len(x), degree + 1)`` for array input, the latter as the transpose
    of a contiguous ``(degree + 1, len(x))`` array, so ``.T`` gives the
    band one basis per row without a copy.  Values are non-negative and
    each row sums to 1 on the nominal range.
    """
    _, u, scalar = _span_offset(knots, x)
    band = _band(u, knots.degree).T
    return band[0] if scalar else band


def basis_derivatives(knots: KnotVector, x) -> np.ndarray:
    """First derivatives of the bases ``basis_values`` returns, same shapes and layout.

    Derivatives are taken with respect to the clamped input, so they describe
    the basis on the nominal range only.  Degree 0 bases are piecewise
    constant and have no useful derivative here.  On the uniform grid
    B'_i,k = (B_i,k-1 - B_i+1,k-1) / h, and the degree k-1 bases nonzero on
    the span are bases 1 ... k of the band.
    """
    if knots.degree < 1:
        raise ValueError("unsupported-degree: derivatives need degree >= 1")
    _, u, scalar = _span_offset(knots, x)
    lower = _band(u, knots.degree - 1)
    band = np.empty((knots.degree + 1, u.shape[0]))
    np.negative(lower[0], out=band[0])
    np.subtract(lower[:-1], lower[1:], out=band[1:-1])
    band[-1] = lower[-1]
    band /= knots.spacing
    band = band.T
    return band[0] if scalar else band


def _band_dot(coef: np.ndarray, first: np.ndarray, band: np.ndarray) -> np.ndarray:
    """sum_j coef[..., first + j] * band[j], summed in a fixed j order.

    ``first`` holds flat indices into the last axis of ``coef`` and ``band``
    has one more leading axis than ``first`` (one basis per row, as
    ``basis_values(...).T``); the result has shape
    ``coef.shape[:-1] + first.shape``.  Each entry is the same sequence of
    products and adds whatever the shapes, so a value does not depend on the
    batch it is computed in.
    """
    out = coef[..., first] * band[0]
    for j in range(1, band.shape[0]):
        out += coef[..., first + j] * band[j]
    return out


def eval_spline(params: SplineParams, knots: KnotVector, x):
    """Evaluate the spline sum(c_i * B_i(x)); scalar in, float out (arrays pass through)."""
    coef = np.asarray(params.coefficients, dtype=np.float64)
    if coef.shape != (knots.n_basis,):
        raise ValueError(
            f"length-mismatch: expected {knots.n_basis} coefficients, got {coef.shape}"
        )
    out = _band_dot(coef, knot_span(knots, x), basis_values(knots, x).T)
    return float(out) if np.ndim(out) == 0 else out
