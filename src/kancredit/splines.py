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
coefficients at ``span + j`` with ``np.take``, which returns the same
elements as fancy indexing ``coef[..., span + j]`` in the same order, in
about half the time.

On the uniform grid each basis is, on each span, a fixed polynomial in the
offset u = (x - t_span) / h, the same for every span (the uniform B-spline
basis matrix).  ``_integer_band`` writes these polynomials down once per
degree in closed form, from Schoenberg's truncated-power sum for the
cardinal B-spline, in which ``degree!`` times every coefficient is an
integer.  Each coefficient is divided by ``degree!`` once, and each band
row is evaluated in place by Horner's rule.  Derivatives come from the
same integers times their powers, so no lower-degree band is built.

Plain Horner in u is accurate in absolute terms but not relative ones: the
first basis of a span is (1 - u)^k / k!, and in powers of u its value near
u = 1 is what is left when terms as large as C(k, p) / k! cancel, so its
relative error grows without bound as it goes to zero (central differences
of such values miss the derivative by over 1e-3).  The basis is symmetric,
B_j(u) = B_k-j(1 - u) and B'_j(u) = -B'_k-j(1 - u), so each row is
evaluated from the span end where it is smaller, in u or in v = 1 - u, and
every value and derivative stays within about 1e-15 relative of exact
evaluation near both span ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, factorial

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


@cache
def _integer_band(degree: int) -> tuple[tuple[int, ...], ...]:
    """``degree!`` times the band's bases as polynomials in the offset ``u``.

    Row ``j`` holds the integer coefficients of ``k! * B_span+j(u)`` by
    ascending power, ``k = degree``.  Schoenberg's truncated-power form of
    the cardinal B-spline gives that row as
    ``sum_i (-1)^i C(k+1, i) (u + k - j - i)^k`` over ``i = 0 .. k - j``
    (the truncated powers that are not zero on the span), so its ``u^p``
    coefficient is ``C(k, p) sum_i (-1)^i C(k+1, i) (k - j - i)^(k - p)``.
    """
    k = degree
    power_sum = lambda j, e: sum((-1) ** i * comb(k + 1, i) * (k - j - i) ** e for i in range(k - j + 1))
    return tuple(tuple(comb(k, p) * power_sum(j, k - p) for p in range(k + 1)) for j in range(k + 1))


@cache
def _horner_plan(degree: int, order: int) -> tuple[tuple[bool, tuple[float, ...]], ...]:
    """Per band row: whether it is evaluated in ``u`` or in ``1 - u``, and its coefficients.

    ``order`` 0 gives the values and 1 the derivatives in ``u``.  The
    coefficients run from the highest power down, for Horner, and each is
    one integer of ``_integer_band`` (times its power, for a derivative)
    divided once by ``degree!``.  A row is evaluated from the span end where
    it is smaller in magnitude, so that a value or derivative near zero at a
    span end keeps its relative accuracy: by the symmetry of the uniform
    basis, row ``j`` in ``u`` is row ``degree - j`` in ``v = 1 - u``, and its
    derivative is minus that row's derivative in ``v``.
    """
    table = _integer_band(degree)
    if order:
        table = tuple(tuple(p * c for p, c in enumerate(row))[1:] for row in table)
    sign = (-1) ** order
    scale = factorial(degree)
    plan = []
    for j, row in enumerate(table):
        in_u = abs(row[0]) <= abs(sum(row))  # row(0) against row(1)
        ints = row if in_u else [sign * c for c in table[degree - j]]
        plan.append((in_u, tuple(c / scale for c in reversed(ints))))
    return tuple(plan)


def _band_at(kv: KnotVector, u: np.ndarray, order: int) -> np.ndarray:
    """Contiguous ``(degree + 1, n)`` band of ``order`` (0 values, 1 derivatives in x) at offsets ``u``.

    ``u`` is a 1-D array of ``_span_offset`` offsets.  Each row is one
    polynomial of ``_horner_plan``, evaluated in place by Horner's rule; a
    derivative's coefficients are divided by the spacing.
    """
    v = 1.0 - u
    unit = kv.spacing**order
    band = np.empty((kv.degree + 1, u.shape[0]))
    for row, (in_u, coefs) in zip(band, _horner_plan(kv.degree, order)):
        t = u if in_u else v
        row.fill(coefs[0] / unit)
        for c in coefs[1:]:
            row *= t
            if c:
                row += c / unit
    return band


def _horner_band(kv: KnotVector, x, order: int) -> np.ndarray:
    """Band of ``order`` at ``x``, laid out as ``basis_values``': ``_band_at`` at x's offsets."""
    _, u, scalar = _span_offset(kv, x)
    band = _band_at(kv, u, order)
    return band.T[0] if scalar else band.T


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
    return _horner_band(knots, x, 0)


def basis_derivatives(knots: KnotVector, x) -> np.ndarray:
    """First derivatives of the bases ``basis_values`` returns, same shapes and layout.

    Derivatives are taken with respect to the clamped input, so they describe
    the basis on the nominal range only.  Degree 0 bases are piecewise
    constant and have no useful derivative here.  Each row is the derivative
    of the row's integer polynomial divided by ``degree!`` and the spacing,
    evaluated by Horner's rule in u or, through B'_j(u) = -B'_k-j(1 - u), in
    1 - u: from the span end where the derivative is smaller, so that one
    vanishing there (at a support end, or at the centre of an odd-degree
    basis) keeps its relative accuracy.
    """
    if knots.degree < 1:
        raise ValueError("unsupported-degree: derivatives need degree >= 1")
    return _horner_band(knots, x, 1)


def _band_dot(coef: np.ndarray, first: np.ndarray, band: np.ndarray) -> np.ndarray:
    """sum_j coef[..., first + j] * band[j], summed in a fixed j order.

    ``first`` holds flat indices into the last axis of ``coef`` and ``band``
    has one more leading axis than ``first`` (one basis per row, as
    ``basis_values(...).T``); the result has shape
    ``coef.shape[:-1] + first.shape``.  Each entry is the same sequence of
    products and adds whatever the shapes, so a value does not depend on the
    batch it is computed in.  The gather is ``np.take`` along the last axis:
    the same elements as ``coef[..., first + j]``, so the same products in the
    same order, at about twice the speed of fancy indexing.  An index past
    the last coefficient raises ``IndexError`` as indexing does.
    """
    out = np.take(coef, first, axis=-1) * band[0]
    for j in range(1, band.shape[0]):
        out += np.take(coef, first + j, axis=-1) * band[j]
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
