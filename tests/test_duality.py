"""Decision procedures: transpose, dual, perp, dual hull, images, verifiers."""

import json
import math

import numpy as np
import pytest

from convdual.duality import (
    Functional,
    THEOREM_NAMES,
    apply,
    build_transpose_pool,
    functional_image,
    in_T,
    in_dual,
    in_dual_hull,
    in_perp,
    is_complete_T,
    verify_theorem,
    RegionCloud,
)
from convdual.family import (
    Circle,
    Disk,
    FamilySpec,
    Fixed,
    ParamGrid,
    Pencil,
    Rational,
    Segment,
    complete_hull,
    counterexample_family,
    pencil_family,
)
from convdual.series import (
    TruncSeries,
    const_one,
    convolve,
    dilate,
    evaluate,
    from_rational,
    ones,
)

from oracles import direct_pairing

P = TruncSeries.polynomial
V1 = pencil_family()
COARSE = ParamGrid(disk_radial=3, disk_angular=6, circle=8, segment=4)


def member_pencil(params, exponents):
    coeffs = np.zeros(max(exponents) + 1, dtype=complex)
    coeffs[0] = 1.0
    for x, k in zip(params, exponents):
        coeffs[k] = x
    return P(coeffs)


# -- functionals ---------------------------------------------------------------


def test_apply_matches_direct_pairing_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        df, dg = rng.integers(1, 9), rng.integers(1, 9)
        fc = rng.standard_normal(df + 1) + 1j * rng.standard_normal(df + 1)
        gc = rng.standard_normal(dg + 1) + 1j * rng.standard_normal(dg + 1)
        lam = Functional(P(gc))
        got = apply(lam, P(fc))
        assert got.error_bound == 0.0
        assert abs(got.value - direct_pairing(fc, gc)) < 1e-12


def test_coefficient_functional_extracts_a1():
    lam = Functional(P([0.0, 1.0]), label="a1")
    for x in (0.3, -0.8j, 1.5 + 0.2j):
        v = lam(P([1.0, x]))
        assert abs(v.value - x) < 1e-15


def test_functional_rejects_kernels_without_closed_disk_margin():
    with pytest.raises(ValueError):
        Functional(TruncSeries(np.ones(4, dtype=complex), tail=(1.0, 1.0)))
    with pytest.raises(ValueError):
        Functional(TruncSeries(np.ones(4, dtype=complex), tail=None))


def test_apply_unusable_bound_is_signalled_not_raised():
    lam = Functional(TruncSeries(np.ones(4, dtype=complex), tail=(1.0, 1.25)))
    f = TruncSeries(np.ones(4, dtype=complex), tail=(1.0, 0.7))
    v = apply(lam, f)  # combined tail radius 0.875 < 1
    assert math.isinf(v.error_bound)


# -- transpose membership -----------------------------------------------------------


def test_in_t_verified_strictly_inside():
    cert = in_T(P([1.0, 0.9]), V1)
    assert cert.verified
    assert abs(cert.min_modulus - 0.1) < 1e-12
    assert cert.params["scope"] == "exact"


def test_in_t_falsified_on_boundary_with_member_witness():
    cert = in_T(P([1.0, 1.0]), V1)
    assert cert.falsified
    x = complex(*cert.params["member_params"][0])
    assert abs(x - (-1.0)) < 1e-9
    assert abs(1.0 + x * 1.0) < 1e-9


def test_in_t_multi_exponent_witness_reconstructs():
    V = FamilySpec((Pencil((1, 2), (Disk(0.7), Disk(0.7))),))
    g = P([1.0, 0.9, 0.9])
    cert = in_T(g, V)
    assert cert.falsified
    xs = [complex(*p) for p in cert.params["member_params"]]
    assert all(abs(x) <= 0.7 + 1e-9 for x in xs)
    assert abs(1.0 + xs[0] * 0.9 + xs[1] * 0.9) < 1e-9


def test_in_t_circle_domain_annulus_inner_edge_protects_at_one():
    V = FamilySpec((Pencil((1,), (Circle(2.0),)),))
    cert = in_T(P([1.0, 0.6]), V)
    assert cert.verified  # pairing values live on the circle of radius 1.2
    assert abs(cert.min_modulus - 0.2) < 1e-12
    assert in_T(P([1.0, 0.5]), V).falsified
    # the complete hull sweeps the circle into a disk, losing the protection
    assert in_T(P([1.0, 0.6]), complete_hull(V)).falsified


def test_in_t_input_validation():
    with pytest.raises(ValueError):
        in_T(P([0.0, 1.0]), V1)  # not normalized
    with pytest.raises(ValueError):
        in_T(TruncSeries(np.ones(3, dtype=complex), tail=(1.0, 1.0)), V1)


def test_in_t_rational_family_decides_x_axis_exactly():
    VR = FamilySpec((Rational(Disk(1.0), Disk(0.5)),))
    cert = in_T(P([1.0, -1.1]), VR)
    assert cert.falsified
    x, y = (complex(*p) for p in cert.params["member_params"])
    assert abs(x - (0.0 - 1.0 / -1.1)) < 1e-9 and y == 0
    ok = in_T(P([1.0, 0.4]), VR)
    assert ok.verified and abs(ok.min_modulus - 0.4) < 1e-9
    assert in_T(P([1.0, -1.1]), complete_hull(VR)).falsified


def test_in_t_fixed_family_sampled():
    V = FamilySpec((Fixed(P([1.0, 1.0])),))
    assert in_T(P([1.0, -1.0]), V).falsified
    cert = in_T(P([1.0, 0.3]), V)
    assert cert.verified and abs(cert.min_modulus - 1.3) < 1e-12
    assert cert.params["scope"] == "sampled"


def test_in_t_segment_domain_falls_back_to_sampling():
    V = FamilySpec((Pencil((1,), (Segment(0.0, 0.9),)),))
    good = in_T(P([1.0, 0.9]), V)
    assert good.verified and good.params["scope"] == "sampled"
    # zero placed on a grid node: x = 0.45 gives 1 + 0.45 c = 0 for c = -1/0.45
    assert in_T(P([1.0, -1.0 / 0.45]), V).falsified


# -- dual membership --------------------------------------------------------------


def test_in_dual_falsified_matches_worked_example():
    cert = in_dual(P([1.0, 1.2]), V1)
    assert cert.falsified
    assert abs(cert.witness - (-1.0 / 1.2)) < 1e-9
    x = complex(*cert.params["member_params"][0])
    assert abs(x - 1.0) < 1e-9
    assert abs(1.0 + x * 1.2 * cert.witness) < 1e-9


def test_in_dual_boundary_kernel_verified_with_positive_margin():
    cert = in_dual(P([1.0, 1.0]), V1)
    assert cert.verified
    assert 0.0 < cert.min_modulus <= 1e-3


def test_in_dual_identity_kernel():
    assert in_dual(ones(64), V1).verified  # f * ones = f, zero-free inside


def test_in_dual_multi_exponent_interior_witness():
    V = FamilySpec((Pencil((1, 2), (Disk(1.0), Disk(1.0))),))
    g = P([1.0, 0.8, 0.8])
    cert = in_dual(g, V)
    assert cert.falsified
    z = cert.witness
    assert abs(z) < 1.0
    xs = [complex(*p) for p in cert.params["member_params"]]
    assert all(abs(x) <= 1.0 + 1e-9 for x in xs)
    assert abs(1.0 + xs[0] * 0.8 * z + xs[1] * 0.8 * z**2) < 1e-9


def test_in_dual_circle_domain_interior_zero_despite_transpose_margin():
    V = FamilySpec((Pencil((1,), (Circle(2.0),)),))
    g = P([1.0, 0.6])
    assert in_T(g, V).verified  # annulus misses one at the rim
    cert = in_dual(g, V)  # but the sweep crosses it inside
    assert cert.falsified
    assert abs(abs(cert.witness) - 1.0 / 1.2) < 1e-9


def test_in_dual_agrees_with_complete_hull():
    hull = complete_hull(V1)
    for g in (P([1.0, 0.5]), P([1.0, 1.0]), P([1.0, 1.2]), P([1.0, 0.3, 0.4])):
        a, b = in_dual(g, V1), in_dual(g, hull)
        assert a.status == b.status
        if a.verified:
            assert abs(a.min_modulus - b.min_modulus) < 1e-12


def test_in_dual_sampled_path_contour_witness():
    V = FamilySpec((Fixed(P([1.0, 2.0])),))
    cert = in_dual(ones(32), V)
    assert cert.falsified
    assert abs(cert.witness - (-0.5)) < 1e-6


def test_sampled_members_are_labelled_by_their_own_generator():
    V = FamilySpec(
        (Pencil((1,), (Disk(1.0),)), Fixed(P([1.0, 0.3])), Fixed(P([1.0, 3.0])))
    )
    cert = in_dual(P([1.0, 0.4]), V)
    assert cert.falsified
    assert cert.params["generator"] == 2
    assert cert.params["member"] == "g2:fixed()"
    tailless = TruncSeries([1.0, 0.3], tail=None)
    W = FamilySpec((Fixed(P([1.0, 0.3])), Fixed(tailless)))
    gray = in_T(from_rational(0.5, 0.2), W)
    assert gray.status.value == "Inconclusive"
    assert gray.reason.startswith("g1:fixed()")


def test_in_dual_requires_normalized():
    with pytest.raises(ValueError):
        in_dual(P([2.0, 1.0]), V1)


# -- perp membership ---------------------------------------------------------------


def test_in_perp_falsified_matches_worked_example():
    U = FamilySpec((Pencil((1,), (Disk(0.9),)),))
    cert = in_perp(P([1.0, 1.2]), U)
    assert cert.falsified
    c = complex(*cert.params["member_params"][0])
    assert abs(c - (-1.0 / 1.2)) < 1e-9


def test_in_perp_verified_margin():
    U = FamilySpec((Pencil((1,), (Disk(0.9),)),))
    cert = in_perp(P([1.0, 1.05]), U)
    assert cert.verified
    assert abs(cert.min_modulus - (1.0 - 0.945)) < 1e-12


def test_in_perp_validates_member_regularity():
    bad = FamilySpec((Fixed(TruncSeries(np.ones(3, dtype=complex), tail=(1.0, 1.0))),))
    with pytest.raises(ValueError):
        in_perp(P([1.0, 0.5]), bad)


def test_in_perp_series_only_needs_open_disk():
    h = TruncSeries(np.asarray([1.0, 0.5], dtype=complex), tail=(1.0, 1.0))
    cert = in_perp(h, FamilySpec((Pencil((1,), (Disk(0.9),)),)))
    assert cert.verified  # pencil pairing uses finitely many coefficients


def test_in_perp_rational_family_with_a_tail_less_series():
    # without tail data a slice is bounded only where the stored block covers
    # the pairing: at y = 0, which pairs with a_1 alone
    h = TruncSeries([1.0, 0.5], tail=None)
    cert = in_perp(h, FamilySpec((Rational(Disk(0.5), Disk(0.3)),)))
    assert cert.status.name == "INCONCLUSIVE" and cert.params == {"gray_members": 128}
    assert cert.reason.startswith("generator 0 at y = 0.0375+0j: x-slice margin -inf not decidable")
    at_zero = in_perp(h, FamilySpec((Rational(Disk(0.5), Disk(0.0)),)))
    assert at_zero.verified and at_zero.min_modulus == 0.75
    assert in_perp(h, FamilySpec((Rational(Disk(2.0), Disk(0.0)),))).falsified


def test_tail_less_series_pairs_exactly_with_the_constant_dilation():
    # the dilation u = 0 turns every member into the constant one, which pairs
    # to one whatever the kernel: those slices clear, the others stay gray
    h = TruncSeries([1.0, 0.5], tail=None)
    V = FamilySpec((Rational(Disk(0.5), Circle(0.3)),), dilation_slot=True)
    cert = in_perp(h, V, ParamGrid(disk_radial=1, disk_angular=4, circle=4))
    assert cert.status.name == "INCONCLUSIVE" and cert.params == {"gray_members": 4 * 4}
    assert "nan" not in cert.reason


BIG = P([1.0, 1.5e308 + 1.5e308j])  # abs() of its coefficient overflows
# pairs with 1 + z + ... + z^5 to exactly 0, but Horner's sum at z = 1 overflows
HUGE_SUM = P([1.0, 1.7e308, 1.7e308, -1.7e308, -1.7e308, -1.0])
ONES = FamilySpec((Fixed(P([1.0] * 6)),))


@pytest.mark.parametrize("decide, V, what", [
    (in_T, V1, "kernel coefficient"),
    (in_perp, V1, "kernel coefficient"),
    (in_dual, V1, "kernel coefficient"),
    (in_dual_hull, V1, "series coefficient"),
    (in_T, FamilySpec((Rational(Circle(0.5), Disk(0.3)),)), "x-slice sum"),
    (in_perp, FamilySpec((Rational(Circle(0.5), Disk(0.3)),)), "x-slice sum"),
    (in_dual_hull, FamilySpec((Rational(Circle(0.5), Disk(0.3)),)), "pairing value"),
])
def test_moduli_past_the_float_range_raise_value_error(decide, V, what):
    with pytest.raises(ValueError, match=f"{what} has a modulus beyond the float range"):
        decide(BIG, V)


@pytest.mark.parametrize("decide, h, V, kwargs", [
    pytest.param(in_T, HUGE_SUM, ONES, {}, id="in_T"),
    pytest.param(in_perp, HUGE_SUM, ONES, {}, id="in_perp"),
    pytest.param(
        in_dual_hull, P([1.0, 1.7e308, 1.7e308]), FamilySpec((Pencil((1,), (Disk(0.5),)),)),
        {"kernels": FamilySpec((Fixed(P([1.0, 1.0, 1.0])),))}, id="in_dual_hull",
    ),
])
def test_pairing_values_that_overflow_in_the_sum_raise_value_error(decide, h, V, kwargs):
    # finite products whose pairing value is not finite: the value is
    # undefined, not out of range, and says so
    with pytest.raises(ValueError, match=r"pairing value is not finite \(overflow in the sum\)"):
        decide(h, V, **kwargs)


def test_x_slices_before_an_overflowing_one_still_decide():
    # dilations 0, 0.5 and 1: at |u| = 0.5 the slice has a root; only the
    # slices at |u| = 1 overflow, and they come after it
    V = FamilySpec((Rational(Disk(0.5), Disk(0.0)),), dilation_slot=True)
    cert = in_T(BIG, V, ParamGrid(disk_radial=2, disk_angular=4))
    assert cert.falsified and cert.params["dilation"] == [0.5, 0.0]


# -- dual hull ---------------------------------------------------------------------


def test_dual_hull_coefficient_threshold():
    assert in_dual_hull(P([1.0, 0.9]), V1).verified
    cert = in_dual_hull(P([1.0, 1.01]), V1)
    assert cert.falsified
    ker = [complex(*c) for c in cert.params["kernel_coeffs"]]
    pairing = 1.0 + sum(k * a for k, a in zip(ker[1:], [1.01]))
    assert abs(pairing) < 1e-9
    assert in_T(P(ker), V1).verified  # the annihilating kernel really is in V^T


def test_dual_hull_constant_and_members_inside():
    assert in_dual_hull(const_one(), V1).verified
    for x in (0.5, 1.0, -1.0, 1.0j):
        assert in_dual_hull(P([1.0, x]), V1).verified


def test_dual_hull_exploits_unconstrained_exponent():
    cert = in_dual_hull(P([1.0, 0.0, 1.2]), V1)
    assert cert.falsified  # the family never pins a_2, so 1 - z^2/1.2 annihilates


def test_dual_hull_pool_reuse_matches_fresh_runs():
    pool = build_transpose_pool(V1)
    for h in (P([1.0, 0.4]), P([1.0, 1.01]), P([1.0, 0.2, 0.3])):
        assert in_dual_hull(h, V1, pool=pool).status == in_dual_hull(h, V1).status


def test_dual_hull_empty_transpose_pool_is_inconclusive():
    only_bad = FamilySpec((Fixed(P([1.0, 1.0])),))
    cert = in_dual_hull(P([1.0, 0.5]), V1, kernels=only_bad)
    assert cert.status.value == "Inconclusive"


# -- completeness ------------------------------------------------------------------


def test_is_complete_t_pencil_family():
    assert is_complete_T(V1).verified


def test_is_complete_t_fixed_member_fails():
    cert = is_complete_T(FamilySpec((Fixed(P([1.0, 1.0])),)))
    assert cert.falsified
    assert "kernel" in cert.params


def test_is_complete_t_trivial_kernel_set():
    K = FamilySpec((Fixed(const_one()),))
    cert = is_complete_T(FamilySpec((Fixed(P([1.0, 1.0])),)), kernels=K)
    assert cert.verified
    assert cert.params["kernels_in_transpose"] == 1


# -- functional images -------------------------------------------------------------


def test_direct_cloud_reproduces_parameter_grid():
    lam = Functional(P([0.0, 1.0]))
    grid = ParamGrid(disk_radial=8, disk_angular=64)
    spacing = max(1.0 / 8, 2.0 * math.pi / 64)
    cloud = functional_image(lam, V1, grid, mesh_spacing=spacing)
    assert cloud.route == "direct"
    assert len(cloud.points) == 8 * 64 + 1
    assert np.all(cloud.errors == 0.0)
    flagged = cloud.boundary_candidates()
    assert len(flagged) == 64
    assert np.allclose(np.abs(flagged), 1.0)


def test_region_cloud_requires_finite_bounds():
    with pytest.raises(ValueError):
        RegionCloud(
            points=np.asarray([0.0 + 0.0j]),
            errors=np.asarray([math.inf]),
            labels=("m",),
            eval_points=np.asarray([1.0 + 0.0j]),
            boundary_flags=np.asarray([False]),
            mesh_spacing=0.1,
            route="direct",
        )


def test_cloud_csv_export(tmp_path):
    lam = Functional(P([0.0, 1.0]))
    cloud = functional_image(lam, V1, ParamGrid(disk_radial=3, disk_angular=6))
    out = tmp_path / "cloud.csv"
    cloud.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re,im,tag,flag"
    assert len(lines) == len(cloud.points) + 1
    first = lines[1].split(",")
    assert complex(float(first[0]), float(first[1])) == cloud.points[0]


def test_border_route_covers_counterexample_degeneracy():
    lam = Functional(P([0.0, 1.0]))
    cloud = functional_image(
        lam, counterexample_family(), ParamGrid(circle=16), via_border=True,
        mesh_depth=4, mesh_angles=16,
    )
    assert cloud.route == "border"
    assert cloud.nearest_distance(0.0) <= 1e-12  # the quadratic pencil collapses
    ring = cloud.eval_points[cloud.boundary_flags]
    assert np.allclose(np.abs(ring), 1.0)


def test_border_route_boundary_encloses_direct_candidates():
    lam = Functional(P([0.0, 1.0]))
    grid = ParamGrid(disk_radial=8, disk_angular=32, circle=32)
    spacing = max(1.0 / 8, 2.0 * math.pi / 32)
    direct = functional_image(lam, V1, grid, mesh_spacing=spacing)
    border = functional_image(lam, V1, grid, via_border=True, mesh_depth=4, mesh_angles=32)
    cand = direct.boundary_candidates()
    ring = border.points[border.boundary_flags]
    assert len(cand) and len(ring)
    worst = max(float(np.min(np.abs(ring - c))) for c in cand)
    assert worst <= 3.0 * direct.mesh_spacing


# -- verifier suites ---------------------------------------------------------------


@pytest.mark.parametrize("name", THEOREM_NAMES)
def test_verifier_suites_pass_on_defaults(name):
    rep = verify_theorem(name)
    assert rep.summary == "PASS", [
        (c.check_id, c.status, c.detail) for c in rep.checks if c.status != "pass"
    ]


def test_verifier_unknown_name():
    with pytest.raises(ValueError):
        verify_theorem("T9")


def test_verifier_reports_are_deterministic():
    a = json.dumps(verify_theorem("CE").to_dict(), sort_keys=True)
    b = json.dumps(verify_theorem("CE").to_dict(), sort_keys=True)
    assert a == b


def test_counterexample_report_structure():
    rep = verify_theorem("CE")
    ids = {c.check_id for c in rep.checks}
    assert {
        "boundary-candidates-on-unit-circle",
        "border-image-union-contains-zero",
        "zero-is-interior-to-the-region",
    } <= ids
