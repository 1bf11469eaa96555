"""Series arithmetic: examples, tail soundness, and algebraic identities."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from convdual.series import (
    Tail,
    TruncSeries,
    cauchy_tail_from_samples,
    const_one,
    convolution_convergence_bound,
    convolve,
    dilate,
    evaluate,
    evaluate_many,
    from_rational,
    is_normalized,
    modulus_derivative_bound,
    ones,
    series_distance,
)

from oracles import contour_convolution_value, rational_coefficients

RNG = np.random.default_rng(20260815)


def random_poly(order: int, scale: float = 1.0) -> TruncSeries:
    c = RNG.normal(size=order + 1, scale=scale) + 1j * RNG.normal(size=order + 1, scale=scale)
    return TruncSeries.polynomial(c)


# -- convolve ---------------------------------------------------------------


def test_convolve_coefficientwise_product():
    f = TruncSeries.polynomial([1, 2, 3])
    g = TruncSeries.polynomial([1, -1, 0.5])
    h = convolve(f, g)
    assert np.allclose(h.coeffs, [1, -2, 1.5])
    assert h.is_exact


def test_convolve_ones_is_identity():
    f = from_rational(0.3 + 0.1j, -0.4, order=32)
    h = convolve(f, ones(32))
    assert np.allclose(h.coeffs, f.coeffs)
    # identity also preserves evaluability inside the disk
    assert h.tail is not None and h.tail.rho == f.tail.rho


def test_convolve_truncates_to_shorter_order():
    f = TruncSeries.polynomial(np.arange(1, 12, dtype=float))
    g = TruncSeries.polynomial([1, 1, 1])
    h = convolve(f, g)
    assert h.order == 2
    assert np.allclose(h.coeffs, [1, 2, 3])


def test_convolve_product_tail():
    f = TruncSeries(np.ones(9), Tail(2.0, 2.0))
    g = TruncSeries(np.ones(9), Tail(3.0, 1.5))
    h = convolve(f, g)
    assert h.tail == Tail(6.0, 3.0)


def test_convolve_exact_factor_gives_exact_result():
    f = TruncSeries.polynomial([1, 0.5])
    g = from_rational(0.2, -0.5, order=48)
    h = convolve(f, g)
    assert h.is_exact and h.order == 1
    assert np.allclose(h.coeffs, [1, 0.5 * g.coeffs[1]])


def test_convolve_matches_contour_integral_oracle():
    for _ in range(25):
        deg = int(RNG.integers(1, 12))
        f = random_poly(deg)
        g = random_poly(int(RNG.integers(1, 12)))
        h = convolve(f, g)
        z = complex(RNG.uniform(-0.7, 0.7), RNG.uniform(-0.7, 0.7))
        want = contour_convolution_value(f.coeffs, g.coeffs, z, rho=1.0, nodes=64)
        got = evaluate(h, z)
        assert abs(got.value - want) <= 1e-10 + got.error_bound


def test_convolve_mixed_order_tail_remains_sound():
    # Longer factor has explicit coefficients above the common order; the
    # inflated product tail must still bound the true products.
    f = from_rational(1.0, -0.6, order=24)
    g = from_rational(0.5, 0.25, order=10)
    h = convolve(f, g)
    full = rational_coefficients(1.0, -0.6, 64) * rational_coefficients(0.5, 0.25, 64)
    M, rho = h.tail
    for k in range(h.order + 1, 65):
        assert abs(full[k]) <= M * rho ** (-k) * (1 + 1e-12)


# -- evaluate ---------------------------------------------------------------


def test_evaluate_exact_polynomial_zero_error():
    f = TruncSeries.polynomial([1, 1])
    v = evaluate(f, 1j)
    assert v.value == 1 + 1j
    assert v.error_bound == 0.0


def test_evaluate_geometric_tail_bound():
    f = ones(50)
    v = evaluate(f, 0.5)
    truth = 1.0 / (1.0 - 0.5)
    partial = sum(0.5**k for k in range(51))
    assert abs(v.value - partial) < 1e-14
    # bound formula M (|z|/rho)^{N+1} / (1 - |z|/rho) with M = rho = 1
    assert v.error_bound <= 0.5**51 / (1 - 0.5) + 1e-12
    assert abs(v.value - truth) <= v.error_bound


def test_evaluate_outside_tail_radius_is_infinite():
    f = ones(16)
    assert math.isinf(evaluate(f, 1.2).error_bound)
    g = TruncSeries([1, 2, 3])  # no tail information
    assert math.isinf(evaluate(g, 0.5).error_bound)
    assert evaluate(g, 0.0).error_bound == 0.0


def test_underflowed_coefficient_at_overflowing_power_raises_no_warning():
    # a subnormal pole stores a zero coefficient with a tail radius whose
    # powers overflow; folding that block computes 0 * inf
    f = TruncSeries.polynomial([1, 0.5])
    g = from_rational(0, 1.1125369292536007e-308j, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = convolve(f, g)
    assert h.is_exact
    np.testing.assert_array_equal(h.coeffs, [1.0, 0.5 * g.coeffs[1]])


def test_infinite_tail_bound_is_zero_at_origin_and_infinite_elsewhere():
    f = from_rational(1e307, 1e-3)  # |x - y| / |y| overflows: M = inf
    assert math.isinf(f.tail.M)
    assert evaluate(f, 0.0) == (1.0, 0.0)
    assert math.isinf(evaluate(f, 0.5).error_bound)
    assert math.isinf(evaluate(f, 1e-300).error_bound)  # t**(N+1) underflows to 0 here
    # convolve's unusable branch stores the same kind of tail
    h = convolve(f, TruncSeries([1.0], Tail(1e308, 1.5)))
    assert h.tail == (math.inf, 1.0)
    vals, errs = evaluate_many(h, np.array([0.0, 0.5, 2.0]))
    assert vals[0] == 1.0
    assert errs[0] == 0.0
    assert np.all(np.isinf(errs[1:]))


def test_evaluate_many_matches_scalar():
    f = from_rational(0.7, -0.3, order=40)
    zs = 0.8 * np.exp(1j * np.linspace(0, 2 * np.pi, 17))
    vals, errs = evaluate_many(f, zs)
    for z, v, e in zip(zs, vals, errs):
        s = evaluate(f, z)
        assert v == s.value and e == s.error_bound


def test_evaluate_bound_is_honest_for_rational():
    f = from_rational(0.9, -0.8, order=32)
    for z in (0.3, 0.5 + 0.4j, -0.9j):
        v = evaluate(f, z)
        truth = (1 + 0.9 * z) / (1 - 0.8 * z)
        assert abs(v.value - truth) <= v.error_bound + 1e-13


# -- dilate -----------------------------------------------------------------


def test_dilate_scales_coefficients():
    f = TruncSeries.polynomial([1, 1, 1])
    g = dilate(f, 0.5j)
    assert np.allclose(g.coeffs, [1, 0.5j, -0.25])
    assert g.is_exact


def test_dilate_zero_gives_constant():
    f = TruncSeries.polynomial([1, 1])
    g = dilate(f, 0.0)
    assert np.allclose(g.coeffs, [1, 0])
    assert g.is_exact
    assert evaluate(g, 0.99).error_bound == 0.0


def test_dilate_tail_radius_scales():
    f = TruncSeries(np.ones(9), Tail(2.0, 1.5))
    g = dilate(f, 0.5)
    assert g.tail == Tail(2.0, 3.0)
    with pytest.raises(ValueError):
        dilate(f, 2.0)  # tail radius 1.5 cannot certify |x| = 2


def test_dilate_composition():
    f = from_rational(0.4, -0.2, order=20)
    a, b = 0.7 * np.exp(0.3j), 0.5 * np.exp(-1.1j)
    lhs = dilate(dilate(f, a), b)
    rhs = dilate(f, a * b)
    assert series_distance(lhs, rhs) < 1e-14


def test_dilate_commutes_with_convolve():
    f = random_poly(10)
    g = random_poly(10)
    x = 0.6 * np.exp(0.8j)
    lhs = convolve(dilate(f, x), g)
    rhs = dilate(convolve(f, g), x)
    assert series_distance(lhs, rhs) < 1e-12
    # and the transpose identity (P_x g * f)(1) = (g * P_x f)(1)
    l1 = evaluate(convolve(dilate(g, x), f), 1.0).value
    r1 = evaluate(convolve(g, dilate(f, x)), 1.0).value
    assert abs(l1 - r1) < 1e-12


# -- from_rational ----------------------------------------------------------


def test_from_rational_closed_form_against_long_division():
    for x, y in [(1.0, -0.5), (0.3 - 0.2j, 0.6j), (-0.8, 0.79)]:
        f = from_rational(x, y, order=40)
        want = rational_coefficients(x, y, 40)
        assert np.allclose(f.coeffs, want, atol=1e-13)


def test_from_rational_geometric_case():
    # x = 0, y = -r expands (1 - r z)^{-1}: coefficients r^k
    f = from_rational(0.0, -0.5, order=12)
    assert np.allclose(f.coeffs, 0.5 ** np.arange(13))
    g = dilate(ones(12), 0.5)
    assert np.allclose(f.coeffs, g.coeffs)


def test_from_rational_degenerate_cases():
    e = from_rational(0.7, 0.7, order=8)
    assert np.allclose(e.coeffs, const_one(8).coeffs) and e.is_exact
    p = from_rational(0.7, 0.0, order=8)
    assert np.allclose(p.coeffs, [1, 0.7] + [0] * 7) and p.is_exact
    with pytest.raises(ValueError):
        from_rational(1.0, 1.0 + 0j if False else 1.0, order=8)


def test_from_rational_tail_is_tight_and_valid():
    x, y = 1.0, -0.5
    f = from_rational(x, y, order=16)
    M, rho = f.tail
    full = rational_coefficients(x, y, 80)
    for k in range(17, 81):
        assert abs(full[k]) <= M * rho ** (-k) * (1 + 1e-12)
    # tightness: the bound is attained (equality) for this family
    k = 30
    assert abs(full[k]) == pytest.approx(M * rho ** (-k), rel=1e-12)


def test_normalization_flag():
    assert is_normalized(from_rational(0.2, -0.1))
    assert not is_normalized(TruncSeries.polynomial([0, 1]))


# -- cauchy_tail_from_samples ------------------------------------------------


def test_cauchy_tail_polynomial_peak():
    f = TruncSeries.polynomial([1, 1])
    M, rho = cauchy_tail_from_samples(f, 2.0, num_samples=1024)
    assert rho == 2.0
    assert 3.0 <= M <= 3.05  # max |1 + z| on |z| = 2 is 3, plus small allowance


def test_cauchy_tail_constant():
    M, rho = cauchy_tail_from_samples(const_one(4), 3.0)
    assert M == pytest.approx(1.0, abs=1e-12)


def test_cauchy_tail_geometric():
    M, rho = cauchy_tail_from_samples(ones(64), 0.5, num_samples=2048)
    assert 2.0 <= M <= 2.05  # max |1/(1-z)| on |z| = 0.5 is 2
    # the returned pair is a valid tail: |a_k| = 1 <= M * rho^{-k} = 2 * 2^k
    assert all(1.0 <= M * rho ** (-k) for k in range(1, 5))


def test_cauchy_tail_rejects_noise_dominated_estimates():
    f = ones(8)  # evaluation at 0.97 has a large tail bound relative to |f|
    with pytest.raises(ValueError):
        cauchy_tail_from_samples(f, 0.97, num_samples=64, max_error_fraction=0.01)


# -- convergence bound (convolution continuity) ------------------------------


def test_convergence_bound_dominates_observed_difference():
    rho1 = rho2 = 1.6
    rho = 0.9
    x = 0.5
    g = from_rational(0.0, -0.55, order=48)  # fixed second factor
    M2 = 1.55 / 0.55  # sup |g| related bound via its tail: use sampled sup
    zs2 = rho2 * np.exp(1j * np.linspace(0, 2 * np.pi, 512, endpoint=False))
    # g is only certified inside 1/0.55 ~ 1.81 > rho2, sample the true sup
    gv = (1) / (1 - 0.55 * zs2)
    M2 = float(np.max(np.abs(gv)))
    f_lim = TruncSeries.polynomial([1, x])
    h_lim = convolve(f_lim, g)
    prev_bound = math.inf
    for n in (2, 8, 32, 128, 512):
        xn = x + 1.0 / n
        fn = TruncSeries.polynomial([1, xn])
        hn = convolve(fn, g)
        eps1 = abs(xn - x) * rho1  # max |f_n - f| on |z| = rho1, exact
        eps2 = 0.0
        M1 = 1 + abs(xn) * rho1
        bound = convolution_convergence_bound(eps1, eps2, M1, M2, rho, rho1, rho2)
        ts = rho * np.exp(1j * np.linspace(0, 2 * np.pi, 256, endpoint=False))
        diff = np.abs(
            np.polyval(hn.coeffs[::-1], ts) - np.polyval(h_lim.coeffs[::-1], ts)
        )
        observed = float(np.max(diff))
        assert observed <= bound + 1e-12
        assert bound <= prev_bound + 1e-15  # monotone decreasing along the family
        prev_bound = bound
    assert prev_bound < 0.05  # and it actually converges to zero


def test_convergence_bound_reciprocal_factor_matters():
    # with rho close to rho1*rho2 the geometric factor is large; the formula
    # must include it (a bare product underestimates the truth)
    b = convolution_convergence_bound(0.1, 0.0, 1.0, 1.0, 0.99, 1.0, 1.0)
    assert b == pytest.approx(0.1 / 0.01, rel=1e-12)


def test_convergence_bound_validates_radii():
    with pytest.raises(ValueError):
        convolution_convergence_bound(0.1, 0.1, 1, 1, 1.2, 1.0, 1.0)


# -- derivative bound --------------------------------------------------------


def test_derivative_bound_majorizes_difference_quotients():
    f = from_rational(0.8, -0.6, order=48)
    r = 0.7
    L = modulus_derivative_bound(f, r)
    t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    zs = r * np.exp(1j * t)
    vals, _ = evaluate_many(f, zs)
    h = abs(zs[1] - zs[0])
    quotients = np.abs(np.diff(vals)) / h
    assert float(np.max(quotients)) <= L
    assert math.isinf(modulus_derivative_bound(TruncSeries([1, 1]), 0.5))
