"""Winding numbers and zero-freeness certificates against planted-root oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from convdual.contour import (
    CertStatus,
    _circle_points,
    Certificate,
    InconclusiveError,
    Tolerances,
    min_modulus_on_circle,
    nonvanishing_in_disk,
    radius_schedule,
    winding_number,
)
from convdual.series import TruncSeries, from_rational, const_one, ones

from oracles import count_roots_inside, dense_min_modulus, planted_polynomial

RNG = np.random.default_rng(42)


# -- winding_number -----------------------------------------------------------


def test_winding_single_root():
    f = TruncSeries.polynomial([-0.5, 1.0])  # z - 0.5
    assert winding_number(f, 0.9) == 1


def test_winding_two_roots():
    # 1 - 2 z^2 has roots at +-1/sqrt(2) ~ 0.7071, both inside r = 0.9
    f = TruncSeries.polynomial([1.0, 0.0, -2.0])
    roots = np.roots([-2.0, 0.0, 1.0])
    assert np.allclose(np.sort(np.abs(roots)), [2**-0.5, 2**-0.5])
    assert winding_number(f, 0.9) == 2


def test_winding_constant_is_zero():
    assert winding_number(const_one(4), 0.999) == 0


def test_winding_matches_planted_root_count():
    for _ in range(60):
        deg = int(RNG.integers(1, 9))
        roots = RNG.uniform(0.05, 1.4, size=deg) * np.exp(1j * RNG.uniform(0, 2 * np.pi, size=deg))
        # keep roots away from the test contour so margins are honest
        roots = np.where(np.abs(np.abs(roots) - 0.9) < 0.02, roots * 1.1, roots)
        f = TruncSeries.polynomial(planted_polynomial(roots))
        assert winding_number(f, 0.9) == count_roots_inside(roots, 0.9)


def test_winding_root_on_circle_is_inconclusive():
    f = TruncSeries.polynomial([-0.9, 1.0])  # root exactly on |z| = 0.9
    with pytest.raises(InconclusiveError):
        winding_number(f, 0.9)


def test_winding_works_on_callables():
    assert winding_number(lambda z: z**3 - 0.1 * z, 0.7) == 3


# -- min_modulus_on_circle ------------------------------------------------------


def test_min_modulus_linear():
    f = TruncSeries.polynomial([1.0, 1.0])
    lb, argmin = min_modulus_on_circle(f, 0.5)
    assert 0.47 <= lb <= 0.5
    assert abs(argmin - (-0.5)) < 0.01


@pytest.mark.parametrize("n", [1, 7, 256, 4096])
def test_circle_points_match_direct_formula_bitwise(n):
    for r in (1.0, 0.999755859375, 0.3):
        want = r * np.exp(2j * np.pi * np.arange(n) / n)
        got = _circle_points(r, n)
        assert got.tobytes() == want.tobytes()
        got[:] = 0.0  # callers own the returned array; the cached ring is untouched
        assert _circle_points(r, n).tobytes() == want.tobytes()


def test_min_modulus_constant():
    lb, _ = min_modulus_on_circle(const_one(2), 0.99)
    assert lb == pytest.approx(1.0, abs=1e-9)


def test_min_modulus_rational_vs_dense_sweep():
    f = from_rational(1.0, -0.5, order=64)  # (1+z)/(1-0.5 z)
    lb, argmin = min_modulus_on_circle(f, 0.5)
    # dense sweep oracle on the truncation
    want, zmin = dense_min_modulus(f.coeffs, 0.5)
    assert want == pytest.approx(0.4, abs=1e-6)  # |1+z|/|1-0.5z| at z = -0.5
    assert lb <= want
    assert lb >= want - 5e-3
    assert abs(argmin - zmin) < 0.01


def test_min_modulus_is_sound_lower_bound():
    for _ in range(20):
        roots = 1.3 * np.exp(1j * RNG.uniform(0, 2 * np.pi, size=4))
        f = TruncSeries.polynomial(planted_polynomial(roots))
        r = RNG.uniform(0.3, 0.95)
        lb, _ = min_modulus_on_circle(f, r)
        want, _ = dense_min_modulus(f.coeffs, r)
        assert lb <= want + 1e-12


# -- nonvanishing_in_disk --------------------------------------------------------


def test_nonvanishing_verified_comfortable_margin():
    f = TruncSeries.polynomial([1.0, 0.5])
    cert = nonvanishing_in_disk(f, r_max=0.999)
    assert cert.verified
    assert cert.winding == 0
    assert cert.min_modulus >= 0.4995 - 1e-3
    assert cert.params["r_certified"] <= 0.999


def test_nonvanishing_boundary_zero_still_verified_inside():
    # 1 + z vanishes only at z = -1, on the boundary: open-disk nonvanishing
    f = TruncSeries.polynomial([1.0, 1.0])
    cert = nonvanishing_in_disk(f, r_max=0.999)
    assert cert.verified
    assert cert.min_modulus > 1e-7
    assert cert.min_modulus <= 1.0 - 0.999 + 1e-4


def test_nonvanishing_falsified_with_witness():
    f = TruncSeries.polynomial([-0.5, 1.0])  # zero at 0.5
    cert = nonvanishing_in_disk(f)
    assert cert.falsified
    assert abs(cert.witness - 0.5) < 1e-9


def test_nonvanishing_deep_interior_zero():
    roots = [0.05 + 0.02j, 1.7, -2.3 + 0.4j]
    f = TruncSeries.polynomial(planted_polynomial(roots, lead=0.7))
    cert = nonvanishing_in_disk(f)
    assert cert.falsified
    assert abs(cert.witness - roots[0]) < 1e-9


def test_nonvanishing_never_verifies_planted_interior_roots():
    for _ in range(40):
        deg = int(RNG.integers(1, 6))
        roots = RNG.uniform(0.05, 0.98, size=deg) * np.exp(1j * RNG.uniform(0, 2 * np.pi, size=deg))
        f = TruncSeries.polynomial(planted_polynomial(roots))
        cert = nonvanishing_in_disk(f)
        assert not cert.verified


def test_nonvanishing_monotone_in_radius():
    f = TruncSeries.polynomial(planted_polynomial([1.1, -1.3 + 0.2j]))
    outer = nonvanishing_in_disk(f, r_max=0.99)
    inner = nonvanishing_in_disk(f, r_max=0.9)
    assert outer.verified and inner.verified
    assert inner.min_modulus >= outer.min_modulus - 1e-9


def test_nonvanishing_geometric_series_inside_its_disk():
    # 1/(1-z) never vanishes.  Near r = 0.99 the order-256 tail bound blows
    # up, so the certificate honestly retreats to a smaller certified radius
    # instead of claiming the full requested disk.
    f = ones(256)
    cert = nonvanishing_in_disk(f, r_max=0.99)
    assert cert.verified
    assert cert.params["r_certified"] <= 0.99
    assert cert.min_modulus >= 0.4
    assert cert.params["skipped_radii"]  # the uncertifiable outer radii are on record


def test_certificate_invariants():
    with pytest.raises(ValueError):
        Certificate(CertStatus.FALSIFIED)  # witness required
    with pytest.raises(ValueError):
        Certificate(CertStatus.VERIFIED, min_modulus=0.0)
    c = Certificate(CertStatus.VERIFIED, min_modulus=0.25, winding=0)
    d = c.to_dict()
    assert d["status"] == "Verified" and d["min_modulus"] == 0.25


def test_radius_schedule_shape():
    s = radius_schedule(12)
    assert s[0] == 0.5 and len(s) == 12
    assert s[-1] == 1.0 - 2.0**-12
    capped = radius_schedule(12, r_max=0.9)
    assert max(capped) == 0.9 and all(r <= 0.9 for r in capped)
