"""Winding numbers and zero-freeness certificates against planted-root oracles."""

from __future__ import annotations

import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convdual import contour
from convdual.contour import (
    DEFAULT_TOL,
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
from convdual.series import Tail, TruncSeries, from_rational, const_one, ones

import oracles
from oracles import count_roots_inside, dense_min_modulus, planted_polynomial

RNG = np.random.default_rng(42)


def test_with_bar_keeps_every_other_field():
    tol = Tolerances(initial_samples=512, sample_budget=4096, phase_step=0.3, newton_iterations=5)
    assert tol.with_bar(0.25) == Tolerances(0.25, 25.0, 512, 4096, 0.3, 5)


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


# -- series without an error bound off the origin --------------------------------


def _outcome(call):
    """The certificate's JSON text, or the ValueError's message."""
    try:
        return json.dumps(call().to_dict(), sort_keys=True)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _with_coeff(f, k, value):
    """``f`` with coefficient ``k`` set to a value TruncSeries refuses."""
    coeffs = f.coeffs.copy()
    coeffs[k] = value
    object.__setattr__(f, "coeffs", coeffs)
    return f


bound_tails = st.sampled_from(
    [None, Tail(math.inf, 2.0), Tail(math.inf, 0.25), Tail(1.0, 2.0), Tail(0.0, math.inf)]
)
shortcut_coeff = st.sampled_from([1.0, -0.5j, 1e-9, 1e-12, 0.0, 1e300]) | st.builds(
    complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)
)
shortcut_schedules = st.sampled_from([
    {},
    {"r_max": 0.9},
    {"schedule": [0.3, 0.75]},
    {"schedule": [5e-324, 1e-310, 0.4]},
    {"schedule": [0.0, 0.5]},
    {"schedule": [-0.25, 0.6]},
    {"schedule": [0.0]},
])
shortcut_tols = st.sampled_from([
    DEFAULT_TOL,
    DEFAULT_TOL.with_bar(1e-3),
    Tolerances(witness_bar=1e-12, margin_floor=1e-10, newton_iterations=5),
])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(shortcut_coeff, min_size=1, max_size=6),
    bound_tails,
    st.sampled_from([None, math.nan, math.inf, complex(1.0, math.inf)]),
    st.integers(0, 5),
    shortcut_schedules,
    shortcut_tols,
)
@example([1.0, 0.5, 0.25], None, None, 0, {}, DEFAULT_TOL)  # no tail
@example([1.0, -0.5j], Tail(math.inf, 1.0), None, 0, {}, DEFAULT_TOL)  # M = inf
@example([1.0, 0.5], None, math.nan, 1, {}, DEFAULT_TOL)  # a non-finite coefficient
@example([1e-12, 0.5], None, None, 0, {}, DEFAULT_TOL)  # |c_0| below the bar
@example([1e-9, 0.5], None, None, 0, {}, DEFAULT_TOL)  # |c_0| on the bar
@example([0.0, 1.0], None, None, 0, {}, DEFAULT_TOL)  # a zero at the origin
@example([1.0, 0.5], None, None, 0, {"schedule": [0.0, 0.5]}, DEFAULT_TOL)  # radius zero
@example([1.0, 0.5], None, None, 0, {"schedule": [-0.25, 0.6]}, DEFAULT_TOL)  # a negative radius
@example([1.0, 0.5], None, None, 0, {"schedule": [5e-324, 1e-310, 0.4]}, DEFAULT_TOL)
def test_no_bound_shortcut_matches_the_walk(coeffs, tail, bad, k, sched, tol):
    f = TruncSeries(coeffs, tail)
    if bad is not None:
        f = _with_coeff(f, min(k, f.order), bad)
    with mock.patch.object(contour, "_unbounded_off_origin", return_value=False):
        walked = _outcome(lambda: nonvanishing_in_disk(f, tol=tol, **sched))
    assert _outcome(lambda: nonvanishing_in_disk(f, tol=tol, **sched)) == walked


def test_no_bound_shortcut_skips_the_walk():
    f = TruncSeries([1.0, 0.3, 0.2], None)
    with mock.patch.object(contour, "_refine_root") as refine:
        cert = nonvanishing_in_disk(f, schedule=[0.5, 0.25, 0.75])
    assert refine.call_count == 0
    assert cert.status is CertStatus.INCONCLUSIVE
    assert cert.reason == "no certifiable circle in the radius schedule"
    assert cert.params["skipped_radii"] == [0.75, 0.5, 0.25]


# -- the circle pass against the walk it replaced -------------------------------

R = radius_schedule(12)[-1]  # the outermost circle of the default schedule


def _answer(call):
    """What a call gives, as text: a certificate's JSON, a value's repr, or
    the error it raises (type and message)."""
    try:
        out = call()
    except Exception as exc:  # every error the walk raised must be raised again
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(out.to_dict(), sort_keys=True) if isinstance(out, Certificate) else repr(out)


def _same_as_walk(new, old, *args, **kwargs):
    with np.errstate(all="ignore"):  # the walk warned on non-finite samples
        want = _answer(lambda: old(*args, **kwargs))
    assert _answer(lambda: new(*args, **kwargs)) == want


def _pointwise(z):
    if np.ndim(z):
        raise TypeError("one point at a time")
    return z * z + 0.25


def _nan_off_the_first_ring(z):
    """``1 + z / 2``, but NaN at the second point of the 1024-point ring: a
    mesh doubling meets a NaN where the first 512 points had none."""
    return np.where(np.abs(np.angle(z) - np.pi / 512) < 1e-9, np.nan, 1.0 + 0.5 * z)


CALLABLES = [
    lambda z: z**3 - 0.1 * z,
    lambda z: np.exp(z) - 2.0,  # a zero at log 2
    lambda z: 1.0 + 0.5 * z,
    lambda z: z - 0.5,
    _pointwise,
    _nan_off_the_first_ring,
]
walk_coeffs = st.sampled_from([1.0, -0.5j, 0.0, 0.3, 1e300, 1e-320, 1e-9]) | st.builds(
    complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)
)
walk_tails = st.sampled_from([
    Tail(0.0, math.inf), None, Tail(math.inf, 2.0), Tail(1e-3, 4.0), Tail(0.5, 1.5), Tail(1.0, 1.01),
])


def _odd_point_zero(m, r=R):
    """``z - z_m``, ``z_m`` the odd point ``2 m + 1`` of the 512-point mesh of ``|z| = r``."""
    return TruncSeries.polynomial([-_circle_points(r, 512)[2 * m + 1], 1.0])


def _symmetric(k, c):
    """``1 + c z^k``: its mesh minima tie on every ring of a multiple of ``k`` points."""
    return TruncSeries.polynomial([1.0] + [0.0] * (k - 1) + [c])


@st.composite
def walk_inputs(draw):
    kind = draw(st.sampled_from(["series", "series", "series", "callable", "odd zero", "symmetric"]))
    if kind == "callable":
        return draw(st.sampled_from(CALLABLES))
    if kind == "odd zero":
        return _odd_point_zero(draw(st.integers(0, 255)), draw(st.sampled_from([R, 0.5])))
    if kind == "symmetric":
        k = draw(st.sampled_from([2, 4, 8]))
        return _symmetric(k, draw(st.sampled_from([0.5, -1.0, 2.0, 1.0 / R**k, 1.0 / 0.5**k])))
    f = TruncSeries(draw(st.lists(walk_coeffs, min_size=1, max_size=6)), draw(walk_tails))
    if draw(st.integers(0, 4)) == 0:
        bad = draw(st.sampled_from([math.nan, math.inf, complex(1.0, math.inf)]))
        f = _with_coeff(f, draw(st.integers(0, f.order)), bad)
    return f


walk_radii = st.sampled_from([0.0, -0.25, 5e-324, 1e-310, 0.3, 0.5, 0.9, R, 1.0])
walk_radii |= st.floats(0.01, 0.999)
walk_tols = st.sampled_from([
    DEFAULT_TOL,
    DEFAULT_TOL.with_bar(1e-3),
    Tolerances(initial_samples=512),
    Tolerances(initial_samples=1024),
    Tolerances(initial_samples=300),
    Tolerances(phase_step=0.3),
    Tolerances(phase_step=0.05, sample_budget=4096),
    Tolerances(sample_budget=512),
    Tolerances(sample_budget=64),
    Tolerances(witness_bar=1e-12, margin_floor=1e-10, newton_iterations=5),
])
WALK = settings(max_examples=150, deadline=None)


@WALK
@given(walk_inputs(), shortcut_schedules | st.sampled_from([{"schedule": [0.5]}]), walk_tols)
@example(_odd_point_zero(7), {}, DEFAULT_TOL)
@example(_odd_point_zero(7, 0.5), {"schedule": [0.5]}, DEFAULT_TOL)
@example(_symmetric(4, 0.5), {}, DEFAULT_TOL)
@example(_symmetric(4, 1.0 / R**4), {}, DEFAULT_TOL)
@example(TruncSeries([1.0, 0.5, 0.1], Tail(1e-3, 4.0)), {}, Tolerances(phase_step=0.05))
@example(CALLABLES[1], {}, DEFAULT_TOL)
@example(_pointwise, {"r_max": 0.9}, Tolerances(initial_samples=512))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_walk_bitwise_equal_to_the_three_pass_walk(f, sched, tol):
    _same_as_walk(nonvanishing_in_disk, oracles.nonvanishing_in_disk, f, tol=tol, **sched)


@WALK
@given(walk_inputs(), walk_radii, st.sampled_from([256, 1, 8, 100, 512]), walk_tols)
@example(_symmetric(4, 1.0 / R**4), R, 256, Tolerances(phase_step=0.3))
@example(CALLABLES[3], 0.5, 256, DEFAULT_TOL)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_winding_number_bitwise_equal_to_the_walk(f, r, min_samples, tol):
    _same_as_walk(winding_number, oracles.winding_number, f, r, min_samples, tol)


@WALK
@given(
    walk_inputs(),
    walk_radii,
    walk_tols,
    st.sampled_from([512, 1, 7, 64, 2048]),
    st.sampled_from([2**17, 512, 1024, 16]),
)
@example(_symmetric(4, 0.5), R, DEFAULT_TOL, 512, 2**17)
@example(_symmetric(8, 1.0 / R**8), R, DEFAULT_TOL, 512, 2**17)
@example(_odd_point_zero(100), R, DEFAULT_TOL, 512, 2**17)
@example(CALLABLES[0], 0.7, DEFAULT_TOL, 512, 2**17)
@example(_nan_off_the_first_ring, R, DEFAULT_TOL, 512, 2**17)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_min_modulus_bitwise_equal_to_the_walk(f, r, tol, initial, most):
    _same_as_walk(min_modulus_on_circle, oracles.min_modulus_on_circle, f, r, tol, initial, most)


def test_walk_evaluates_a_verified_circle_once():
    f = TruncSeries([1.0, 0.1, -0.05j], Tail(1e-3, 4.0))
    with mock.patch.object(contour, "eval_samples", wraps=contour.eval_samples) as spy:
        cert = nonvanishing_in_disk(f)
    assert cert.verified and cert.params["r_certified"] == R
    assert [len(call.args[1]) for call in spy.call_args_list] == [512]
    assert _answer(lambda: cert) == _answer(lambda: oracles.nonvanishing_in_disk(f))


def test_no_warnings_on_non_finite_samples():
    # the inputs that made the walk warn: tail-less and non-finite series
    # with the no-bound shortcut off, and values near overflow or subnormal
    cases = [
        (TruncSeries([1.0, 0.5, 0.25], None), DEFAULT_TOL),
        (TruncSeries([1.0, -0.5j], Tail(math.inf, 1.0)), DEFAULT_TOL),
        (_with_coeff(TruncSeries([1.0, 0.5], None), 1, math.nan), DEFAULT_TOL),
        (_with_coeff(TruncSeries([1.0, 0.5], Tail(1e-3, 4.0)), 0, math.inf), DEFAULT_TOL),
        (TruncSeries.polynomial([1.2e308 + 0.9e308j, 1e307]), Tolerances(sample_budget=2048)),
        (TruncSeries.polynomial([3.308738e-317, -1.763814e-321 + 5.3e-322j]),
         Tolerances(witness_bar=0.0, margin_floor=0.0, sample_budget=2048)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with mock.patch.object(contour, "_unbounded_off_origin", return_value=False):
            for f, tol in cases:
                for sched in ({}, {"schedule": [0.0, 0.5]}, {"schedule": [5e-324, 1e-310, 0.4]}):
                    answer = _outcome(lambda: nonvanishing_in_disk(f, tol=tol, **sched))
                    assert "Verified" not in answer
        rows = np.array([[1.0, np.inf], [np.nan, 0.0], [1.2e308 + 0.9e308j, 1e307]], dtype=complex)
        assert all(math.isnan(m) for m in contour.row_margins(rows, [1, 1, 1]))
