"""Independent oracles used to pin expected values in the test suite.

Everything here is implemented from first principles (quadrature, dense
sweeps, brute-force searches) without calling the code paths under test, so
that agreement is evidence rather than tautology.
"""

from __future__ import annotations

import numpy as np


def contour_convolution_value(f_coeffs, g_coeffs, z: complex, rho: float = 1.0, nodes: int = 256) -> complex:
    """Hadamard product value via the contour integral

        (f*g)(z) = (1/2pi) \\int_0^{2pi} f(rho e^{i t}) g(z e^{-i t} / rho) dt.

    Trapezoid quadrature on the circle is exact for polynomial integrands as
    soon as ``nodes`` exceeds the sum of the degrees (aliasing argument), so
    for polynomial inputs this is an independent closed evaluation.
    """
    f_coeffs = np.asarray(f_coeffs, dtype=complex)
    g_coeffs = np.asarray(g_coeffs, dtype=complex)
    t = 2.0 * np.pi * np.arange(nodes) / nodes
    w = rho * np.exp(1j * t)
    fv = np.polyval(f_coeffs[::-1], w)
    gv = np.polyval(g_coeffs[::-1], z * np.exp(-1j * t) / rho)
    return complex(np.mean(fv * gv))


def direct_pairing(f_coeffs, g_coeffs) -> complex:
    """Direct coefficient pairing sum_k a_k(f) a_k(g) (the value at z = 1)."""
    f_coeffs = np.asarray(f_coeffs, dtype=complex)
    g_coeffs = np.asarray(g_coeffs, dtype=complex)
    n = min(f_coeffs.size, g_coeffs.size)
    return complex(np.sum(f_coeffs[:n] * g_coeffs[:n]))


def rational_coefficients(x: complex, y: complex, order: int) -> np.ndarray:
    """Long-division expansion of (1+xz)/(1+yz) up to ``order``.

    Computed by recurrence from (1+yz) * sum c_k z^k = 1 + xz, independent of
    the closed form used in the library.
    """
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    if order >= 1:
        c[1] = x - y * c[0]
    for k in range(2, order + 1):
        c[k] = -y * c[k - 1]
    return c


def planted_polynomial(roots, lead: complex = 1.0) -> np.ndarray:
    """Coefficients (ascending) of lead * prod (z - r) for planted roots."""
    p = np.atleast_1d(np.poly(np.asarray(roots, dtype=complex)))  # descending
    return (lead * p)[::-1].astype(complex)


def count_roots_inside(roots, r: float) -> int:
    return int(np.sum(np.abs(np.asarray(roots, dtype=complex)) < r))


def dense_min_modulus(coeffs, r: float, n: int = 200_000) -> tuple[float, complex]:
    """Dense sweep of |p(z)| on |z| = r; returns (min value, argmin point)."""
    t = 2.0 * np.pi * np.arange(n) / n
    zs = r * np.exp(1j * t)
    vals = np.abs(np.polyval(np.asarray(coeffs, dtype=complex)[::-1], zs))
    i = int(np.argmin(vals))
    return float(vals[i]), complex(zs[i])


def brute_force_decompose(member_coeffs, border_params_grid, x_grid, instantiate):
    """Search (g, x) with dilate(g, x) == member over finite grids.

    ``instantiate`` maps a border parameter tuple to coefficient array; the
    dilation is applied directly on coefficients.  Returns the best
    (params, x, residual).
    """
    member = np.asarray(member_coeffs, dtype=complex)
    ks = np.arange(member.size)
    best = (None, None, np.inf)
    for params in border_params_grid:
        g = np.asarray(instantiate(params), dtype=complex)
        if g.size < member.size:
            g = np.pad(g, (0, member.size - g.size))
        for x in x_grid:
            cand = g[: member.size] * (x**ks)
            res = float(np.max(np.abs(cand - member)))
            if res < best[2]:
                best = (params, x, res)
    return best


def brute_nearest_distance(queries, ref) -> np.ndarray:
    """Distance from each query to its nearest reference point, all pairs.

    ``inf`` for every query when ``ref`` is empty.
    """
    queries = np.asarray(queries, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if len(ref) == 0:
        return np.full(len(queries), np.inf)
    return np.array([np.min(np.abs(q - ref)) for q in queries], dtype=float)


def brute_median_spacing(points) -> float:
    """Median nearest-neighbour distance of the distinct points (rounded to
    12 decimals), over every ``len // 4096 + 1``-th one when there are more
    than 4096; 1.0 for fewer than two distinct points."""
    ref = np.unique(np.round(np.asarray(points, dtype=complex), 12))
    if len(ref) < 2:
        return 1.0
    if len(ref) > 4096:
        ref = ref[:: len(ref) // 4096 + 1]
    nn = [np.min(np.abs(q - np.delete(ref, i))) for i, q in enumerate(ref)]
    return float(np.median(nn))


def brute_coverage_flags(points, spacing: float, directions: int = 16,
                         probe: float = 2.0, cover: float = 1.3) -> np.ndarray:
    """A point is flagged when some probe at ``probe * spacing`` in one of
    ``directions`` equally spaced directions has no distinct (rounded) cloud
    point within ``cover * spacing``."""
    points = np.asarray(points, dtype=complex)
    ref = np.unique(np.round(points, 12))
    flags = np.zeros(len(points), dtype=bool)
    for a in np.exp(2j * np.pi * np.arange(directions) / directions):
        flags |= brute_nearest_distance(points + probe * spacing * a, ref) > cover * spacing
    return flags
