"""Property-based invariants: ring axioms, dilation algebra, certified bounds."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convdual.contour import DEFAULT_TOL, InconclusiveError, winding_number
from convdual.series import (
    TruncSeries,
    convolve,
    dilate,
    evaluate,
    from_rational,
    ones,
    series_distance,
)

from oracles import direct_pairing, planted_polynomial

SET = settings(max_examples=40, deadline=None)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
cnum = st.builds(complex, finite, finite)
small = st.floats(min_value=-0.9, max_value=0.9, allow_nan=False, allow_infinity=False)
csmall = st.builds(complex, small, small).filter(lambda z: abs(z) <= 0.9)
poly = st.lists(cnum, min_size=1, max_size=12).map(TruncSeries.polynomial)


@SET
@given(poly, poly)
def test_convolution_commutes(f, g):
    # fma inside the complex multiply permits a one-ulp asymmetry per entry
    scale = 1 + float(np.abs(f.coeffs).max()) * float(np.abs(g.coeffs).max())
    assert series_distance(convolve(f, g), convolve(g, f)) <= 4e-16 * scale


@SET
@given(poly, poly, poly)
def test_convolution_associates(f, g, h):
    lhs = convolve(convolve(f, g), h)
    rhs = convolve(f, convolve(g, h))
    assert series_distance(lhs, rhs) <= 1e-12 * (1 + max(np.abs(f.coeffs).max(), 1) ** 3)


@SET
@given(poly)
def test_ones_is_identity(f):
    e = ones(order=max(f.order, 8))
    assert series_distance(convolve(f, e), f) == 0.0


@SET
@given(poly, poly, cnum)
def test_convolution_linear_in_first_slot(f, g, a):
    fa = TruncSeries.polynomial(np.asarray(f.coeffs) * a)
    lhs = convolve(fa, g)
    rhs = TruncSeries.polynomial(
        np.asarray(convolve(f, g).coeffs) * a
        if convolve(f, g).order >= 0
        else [a * f.coeffs[0] * g.coeffs[0]]
    )
    assert series_distance(lhs, rhs) <= 1e-12 * (1 + abs(a)) * (
        1 + float(np.abs(f.coeffs).max()) * float(np.abs(g.coeffs).max())
    )


@SET
@given(poly, csmall, csmall)
def test_dilation_composes_multiplicatively(f, x, y):
    lhs = dilate(dilate(f, x), y)
    rhs = dilate(f, x * y)
    scale = 1 + float(np.abs(f.coeffs).max())
    assert series_distance(lhs, rhs) <= 1e-12 * scale


@SET
@given(poly, poly, csmall)
def test_dilation_moves_across_pairing(f, g, x):
    lhs = direct_pairing(np.asarray(dilate(g, x).coeffs), np.asarray(f.coeffs))
    rhs = direct_pairing(np.asarray(g.coeffs), np.asarray(dilate(f, x).coeffs))
    scale = 1 + float(np.abs(f.coeffs).max()) * float(np.abs(g.coeffs).max())
    assert abs(lhs - rhs) <= 1e-11 * scale


@SET
@given(csmall, csmall, st.builds(complex, small, small).filter(lambda z: abs(z) <= 0.8))
@example(x=0.5j, y=5e-324j, z=0j)  # subnormal pole: 1/|y| overflows
def test_rational_truncation_bound_dominates_truth(x, y, z):
    f = from_rational(x, y, order=24)
    got = evaluate(f, z)
    truth = (1 + x * z) / (1 + y * z)
    assert abs(truth - got.value) <= got.error_bound + 1e-15


@SET
@given(csmall, csmall, csmall, csmall, st.builds(complex, small, small).filter(lambda z: abs(z) <= 0.7))
def test_convolution_bound_dominates_rational_truth(x, y, u, w, z):
    f = from_rational(x, y, order=32)
    g = from_rational(u, w, order=32)
    got = evaluate(convolve(f, g), z)
    # a_k(f) a_k(g) = (x-y)(u-w)(yw)^{k-1} for k >= 1, so the product sums to
    # a geometric series with ratio ywz
    truth = 1 + (x - y) * (u - w) * z / (1 - y * w * z)
    assert abs(truth - got.value) <= got.error_bound + 1e-13


@SET
@given(
    st.lists(csmall.filter(lambda r: 0.05 < abs(r)), min_size=1, max_size=6),
    st.floats(min_value=0.3, max_value=0.95),
)
def test_winding_counts_planted_roots(roots, r):
    # keep the contour clear of every root circle so the count is stable
    if any(abs(abs(z) - r) < 0.05 for z in roots):
        return
    f = TruncSeries.polynomial(planted_polynomial(roots))
    try:
        w = winding_number(f, r, tol=DEFAULT_TOL)
    except InconclusiveError:
        return
    assert w == sum(1 for z in roots if abs(z) < r)


@SET
@given(poly, csmall)
def test_dilate_preserves_constant_term(f, x):
    assert dilate(f, x).coefficient(0) == f.coefficient(0)


@SET
@given(poly, poly)
def test_convolve_exact_inputs_stay_exact(f, g):
    assert convolve(f, g).is_exact


@SET
@given(csmall, csmall)
def test_rational_tail_is_valid_geometric_envelope(x, y):
    f = from_rational(x, y, order=16)
    if f.is_exact:
        # only the degenerate cases collapse to a polynomial
        assert y == 0 or x == y
        return
    # every dropped coefficient obeys |a_k| <= M / rho^k
    full = from_rational(x, y, order=40)
    M, rho = f.tail
    for k in range(f.order + 1, 36):
        # rho**(-k) underflows to zero for huge rho instead of overflowing
        assert abs(full.coefficient(k)) <= M * rho ** (-k) + 1e-15
