"""Family sampling, hulls, borders, decompositions, and pencil pairing geometry."""

import cmath
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from convdual.duality import in_T, sigma_search
from convdual.family import (
    COARSE_GRID,
    BorderDecomposition,
    Circle,
    Disk,
    FamilySpec,
    Fixed,
    ParamGrid,
    Pencil,
    Rational,
    Segment,
    UnsupportedFamilyError,
    border_decompose,
    border_elements,
    complete_hull,
    counterexample_family,
    default_kernel_family,
    leading_rows,
    nearest_member_distance,
    pairing_interval,
    pairing_zero_weights,
    pencil_family,
    pencil_term_radii,
    sample,
)
from convdual.series import Tail, TruncSeries, dilate, evaluate, from_rational, series_distance

from oracles import brute_force_decompose
from oracles import sigma_search as reference_sigma_search


COARSE = ParamGrid(disk_radial=3, disk_angular=6, circle=8, segment=4)


# -- domains and grids ---------------------------------------------------------


def test_domain_point_counts():
    assert len(Disk(1.0).points(COARSE)) == 1 + 3 * 6
    assert len(Circle(0.5).points(COARSE)) == 8
    assert len(Segment(0, 1 + 1j).points(COARSE)) == 5


@pytest.mark.parametrize("grid", [COARSE, ParamGrid(1, 1, 1, 1), ParamGrid(5, 7, 3, 9)])
def test_domain_point_counts_are_arithmetic(grid):
    for d in (Disk(0.5), Circle(0.5), Segment(0, 1j)):
        assert d.point_count(grid) == len(d.points(grid))


@pytest.mark.parametrize("radius", [0.8, 1e-310, 5e-324, 1.0, 1.5e308])
def test_disk_points_bitwise_the_per_point_formula(radius):
    for nr, na in [(1, 1), (3, 6), (8, 16), (5, 7), (16, 128)]:
        want = [0.0 + 0.0j] + [
            (radius * i / nr) * cmath.exp(2j * math.pi * j / na)
            for i in range(1, nr + 1)
            for j in range(na)
        ]
        got = Disk(radius).points(ParamGrid(nr, na))
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("radius", [0.0, 0.3, 1.0, 1.5e308, 5e-324])
def test_circle_points_bitwise_the_per_point_formula(radius):
    for n in (1, 2, 3, 7, 16, 32, 100):
        want = [radius * cmath.exp(2j * math.pi * j / n) for j in range(n)]
        got = Circle(radius).points(ParamGrid(circle=n))
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_moduli_past_the_float_range_are_refused_where_they_enter():
    # abs() of these raises OverflowError; the library answers with ValueError
    big = 1.5e308 + 1.5e308j
    with pytest.raises(ValueError, match="x - y has a modulus beyond the float range"):
        from_rational(big, 5e-324)
    with pytest.raises(ValueError, match="x - y has a modulus beyond the float range"):
        from_rational(big, 0.0)
    for ends in [(0.0, big), (big, 0.5), (1e308 + 0j, -0.5e308 + 1.5e308j)]:  # the last: its length
        with pytest.raises(ValueError, match="segment endpoint or length has a modulus beyond"):
            Segment(*ends)
    with pytest.raises(ValueError, match="segment endpoint"):  # the family is refused before in_T
        in_T(TruncSeries.polynomial([1.0, 0.5]), FamilySpec((Rational(Segment(0.0, big), Disk(5e-324)),)))
    # components that overflow to inf are no overflow of abs(); the largest moduli pass
    assert Segment(-1e308 - 1e308j, 1e308 + 1e308j).max_abs == abs(1e308 + 1e308j)
    assert from_rational(1.2e308 + 1.2e308j, 0.5).tail.M == abs(1.2e308 + 1.2e308j - 0.5) / 0.5


def test_member_budget_is_checked_before_parameters_are_listed():
    V = complete_hull(FamilySpec((Rational(Circle(0.5), Disk(0.3)),)))
    grid = ParamGrid(1, 30_000_000, circle=30_000_000)
    listed = AssertionError("parameters listed")
    with mock.patch.object(Disk, "points", side_effect=listed), \
         mock.patch.object(Circle, "points", side_effect=listed):
        for build in (lambda: sample(V, grid), lambda: leading_rows(V, grid, 2)):
            with pytest.raises(ValueError, match="more than 1000000 members"):
                build()


def test_domain_contains():
    assert Disk(1.0).contains(0.3 + 0.4j)
    assert not Disk(1.0).contains(1.2)
    assert Circle(1.0).contains(cmath.exp(1j))
    assert not Circle(1.0).contains(0.5)
    assert Segment(0, 1).contains(0.25)
    assert not Segment(0, 1).contains(0.5 + 0.2j)


def test_grid_refinement_nests():
    fine = COARSE.refine()
    for dom in (Disk(1.0), Circle(1.0), Segment(-1j, 1j)):
        coarse_pts = dom.points(COARSE)
        fine_pts = dom.points(fine)
        for p in coarse_pts:
            assert min(abs(p - q) for q in fine_pts) < 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        ParamGrid(disk_radial=0)


# -- generators and sampling ---------------------------------------------------


def test_pencil_instantiate():
    gen = Pencil((1, 3), (Disk(1.0), Disk(0.5)))
    f = gen.instantiate([0.5j, -0.25])
    assert f.is_exact
    np.testing.assert_allclose(f.coeffs, [1.0, 0.5j, 0.0, -0.25])


def test_pencil_validation():
    with pytest.raises(ValueError):
        Pencil((0,), (Disk(1.0),))
    with pytest.raises(ValueError):
        Pencil((1, 1), (Disk(1.0), Disk(1.0)))
    with pytest.raises(ValueError):
        Pencil((1, 2), (Disk(1.0),))
    with pytest.raises(ValueError):
        Pencil((), ())


def test_rational_validation():
    with pytest.raises(ValueError):
        Rational(Disk(1.0), Disk(1.0))  # pole domain touches the unit circle
    gen = Rational(Disk(1.0), Disk(0.5))
    f = gen.instantiate([0.5, 0.25])
    ref = from_rational(0.5, 0.25)
    assert series_distance(f, ref) == 0.0


def test_fixed_requires_normalization():
    with pytest.raises(ValueError):
        Fixed(TruncSeries.polynomial([2.0, 1.0]))


def test_sample_counts_and_determinism():
    V = FamilySpec((Pencil((1,), (Disk(1.0),)), Rational(Circle(1.0), Disk(0.5))))
    members = sample(V, COARSE)
    assert len(members) == (1 + 3 * 6) + 8 * (1 + 3 * 6)
    again = sample(V, COARSE)
    assert [t.label() for _, t in members] == [t.label() for _, t in again]
    # every tag reconstructs its member
    for f, tag in members[:25]:
        gen = V.generators[tag.gen_index]
        assert series_distance(f, gen.instantiate(tag.params)) == 0.0


def test_sample_dilation_slot():
    V = complete_hull(pencil_family())
    members = sample(V, COARSE)
    base = 1 + 3 * 6
    assert len(members) == base * base  # members times dilation grid
    f, tag = members[1]
    assert tag.dilation is not None
    g = V.generators[0].instantiate(tag.params)
    assert series_distance(f, dilate(g, tag.dilation)) < 1e-15


def test_sample_member_cap():
    tight = ParamGrid(disk_radial=3, disk_angular=6, max_members=5)
    with pytest.raises(ValueError, match="more than 5 members"):
        sample(pencil_family(), tight)


def test_nearest_member_distance_finds_pencil_member():
    d, tag = nearest_member_distance(TruncSeries.polynomial([1.0, 0.5]), pencil_family())
    assert d == 0.0
    assert tag.kind == "pencil" and tag.params == (0.5,)


def test_complete_hull_idempotent():
    V = pencil_family()
    H = complete_hull(V)
    assert H.dilation_slot and not V.dilation_slot
    assert complete_hull(H) == H


# -- border elements -----------------------------------------------------------


def test_border_of_disk_pencil_circles_each_disk():
    V = FamilySpec((Pencil((1, 2), (Disk(1.0), Disk(0.5))),))
    B = border_elements(V)
    assert len(B.generators) == 2
    kinds = [tuple(d.kind for d in g.domains) for g in B.generators]
    assert ("circle", "disk") in kinds and ("disk", "circle") in kinds


def test_border_of_circle_pencil_is_itself():
    V = FamilySpec((Pencil((1,), (Circle(1.0),)),))
    assert border_elements(V) == V


def test_border_of_mixed_pencil_with_circle_is_itself():
    # a positive-radius circle parameter pins every member to the border
    V = FamilySpec((Pencil((1, 2), (Circle(0.5), Disk(1.0))),))
    assert border_elements(V) == V


def test_border_of_degenerate_pencil():
    V = FamilySpec((Pencil((1,), (Disk(0.0),)),))
    assert border_elements(V) == V


def test_border_of_fixed_and_rational():
    V = FamilySpec(
        (Fixed(TruncSeries.polynomial([1.0, 0.5])), Rational(Circle(1.0), Circle(0.5)))
    )
    assert border_elements(V) == V


def test_border_rejections():
    with pytest.raises(UnsupportedFamilyError):
        border_elements(complete_hull(pencil_family()))
    with pytest.raises(UnsupportedFamilyError):
        border_elements(FamilySpec((Rational(Disk(1.0), Circle(0.5)),)))
    with pytest.raises(UnsupportedFamilyError):
        border_elements(FamilySpec((Pencil((1,), (Segment(0, 1),)),)))


# -- border decomposition ------------------------------------------------------


def _roundtrip(V, f, tag, branch=0):
    dec = border_decompose(V, tag, branch=branch)
    back = dilate(dec.g, dec.x)
    return dec, series_distance(back, f)


def test_decompose_roundtrips_whole_sample():
    V = FamilySpec(
        (
            Pencil((1,), (Disk(1.0),)),
            Pencil((1, 3), (Disk(1.0), Disk(0.7))),
            Pencil((2,), (Circle(0.8),)),
        )
    )
    for f, tag in sample(V, COARSE):
        dec, err = _roundtrip(V, f, tag)
        assert err < 1e-12
        assert abs(dec.x) <= 1.0 + 1e-12
        # the representative lies on the border of its generator
        gen = V.generators[dec.gen_index]
        on_boundary = []
        for b, d in zip(dec.g_params, gen.domains):
            if isinstance(d, Circle):
                assert abs(abs(b) - d.radius) < 1e-12
                on_boundary.append(d.radius > 0)
            else:
                assert abs(b) <= d.radius + 1e-12
                on_boundary.append(abs(abs(b) - d.radius) < 1e-9 and d.radius > 0)
        if any(p != 0 for p in tag.params):
            assert any(on_boundary)


def test_decompose_minimal_dilation_against_brute_force():
    gen = Pencil((1, 2), (Disk(1.0), Disk(1.0)))
    V = FamilySpec((gen,))
    angles = np.linspace(0, 2 * math.pi, 12, endpoint=False)
    inner = [r * cmath.exp(1j * b) for r in np.linspace(0.2, 1, 5) for b in angles] + [0j]
    ring = [cmath.exp(1j * a) for a in angles]
    border_grid = [(u, w) for u in ring for w in inner] + [(w, u) for u in ring for w in inner]
    x_grid = [
        r * cmath.exp(1j * t)
        for r in np.linspace(0.1, 1.0, 10)
        for t in np.linspace(0, 2 * math.pi, 12, endpoint=False)
    ]

    def instantiate(params):
        return gen.instantiate(params).coeffs

    from convdual.family import MemberTag

    for params in [(0.5, 0.25j), (-0.3 + 0.1j, 0.8)]:
        f = gen.instantiate(params)
        tag = MemberTag(0, "pencil", tuple(map(complex, params)))
        dec, err = _roundtrip(V, f, tag)
        assert err < 1e-12
        _, bx, residual = brute_force_decompose(f.coeffs, border_grid, x_grid, instantiate)
        # the coarse search lands near a factorization with the same dilation size
        assert residual < 0.5
        assert abs(abs(dec.x) - abs(bx)) < 0.2


def test_decompose_canonical_phase_and_branches():
    V = FamilySpec((Pencil((2,), (Disk(1.0),)),))
    from convdual.family import MemberTag

    tag = MemberTag(0, "pencil", (0.25j,))
    d0 = border_decompose(V, tag, branch=0)
    d1 = border_decompose(V, tag, branch=1)
    # branch 0 representative has positive-real leading parameter, branch 1 negative
    assert abs(d0.g_params[0] - 1.0) < 1e-12
    assert abs(d1.g_params[0] + 1.0) < 1e-12
    for d in (d0, d1):
        assert series_distance(dilate(d.g, d.x), V.generators[0].instantiate(tag.params)) < 1e-12
    assert series_distance(d0.g, d1.g) > 0.5  # genuinely different representatives


def test_decompose_constant_member():
    V = pencil_family()
    from convdual.family import MemberTag

    tag = MemberTag(0, "pencil", (0.0 + 0.0j,))
    dec = border_decompose(V, tag)
    assert dec.x == 0
    assert abs(dec.g_params[0]) == 1.0  # canonical border representative


def test_decompose_member_already_on_border():
    V = pencil_family()
    from convdual.family import MemberTag

    x = cmath.exp(2.1j)
    tag = MemberTag(0, "pencil", (x,))
    dec = border_decompose(V, tag)
    assert abs(abs(dec.x) - 1.0) < 1e-12


def test_decompose_rational_circles():
    gen = Rational(Circle(1.0), Circle(0.5))
    V = FamilySpec((gen,))
    from convdual.family import MemberTag

    xp, yp = cmath.exp(0.7j), 0.5 * cmath.exp(-1.9j)
    tag = MemberTag(0, "rational", (xp, yp))
    dec = border_decompose(V, tag)
    assert series_distance(dilate(dec.g, dec.x), gen.instantiate((xp, yp))) < 1e-12
    assert abs(abs(dec.x) - 1.0) < 1e-12
    # canonical representative has positive real first coefficient
    c1 = dec.g_params[0] - dec.g_params[1]
    assert abs(c1.imag) < 1e-12 and c1.real > 0


def test_decompose_rejections():
    from convdual.family import MemberTag

    with pytest.raises(UnsupportedFamilyError):
        border_decompose(complete_hull(pencil_family()), MemberTag(0, "pencil", (0.5,)))
    with pytest.raises(ValueError):
        border_decompose(pencil_family(), MemberTag(3, "pencil", (0.5,)))


# -- pairing geometry ----------------------------------------------------------


def test_pairing_interval_examples():
    assert pairing_interval([(0.5, "disk"), (0.3, "disk")]) == (0.0, 0.8)
    lo, hi = pairing_interval([(1.0, "circle"), (0.25, "circle")])
    assert (lo, hi) == (0.75, 1.25)
    lo, hi = pairing_interval([(2.0, "circle"), (0.5, "circle"), (1.0, "disk")])
    assert (lo, hi) == (0.5, 3.5)


def test_pairing_zero_weights_constructive():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = rng.integers(1, 5)
        radii = [
            (float(rng.uniform(0, 1.5)), "circle" if rng.random() < 0.5 else "disk")
            for _ in range(n)
        ]
        lo, hi = pairing_interval(radii)
        ws = pairing_zero_weights(radii)
        if lo <= 1.0 <= hi:
            assert ws is not None
            assert abs(1.0 + sum(ws)) < 1e-9
            for w, (s, kind) in zip(ws, radii):
                if kind == "circle":
                    assert abs(abs(w) - s) < 1e-9
                else:
                    assert abs(w) <= s + 1e-9
        else:
            assert ws is None


def test_pairing_zero_unreachable_confirmed_by_search():
    # outer edge below one: brute-force phases cannot bring the sum near -1
    radii = [(0.4, "circle"), (0.3, "disk")]
    assert pairing_zero_weights(radii) is None
    best = min(
        abs(1.0 + 0.4 * cmath.exp(1j * a) + t * 0.3 * cmath.exp(1j * b))
        for a in np.linspace(0, 2 * math.pi, 60)
        for b in np.linspace(0, 2 * math.pi, 60)
        for t in np.linspace(0, 1, 5)
    )
    assert best > 0.25


def test_pencil_term_radii():
    gen = Pencil((1, 2), (Disk(1.0), Circle(0.5)))
    g = TruncSeries.polynomial([1.0, -0.5, 0.25])
    radii = pencil_term_radii(gen, dilate(g, 2.0))
    assert radii is not None
    np.testing.assert_allclose([s for s, _ in radii], [1.0, 0.5 * 0.25 * 4.0])
    assert [k for _, k in radii] == ["disk", "circle"]
    # coefficient beyond a non-exact kernel block is unknown
    g2 = TruncSeries([1.0, 0.5], tail=(2.0, 2.0))
    gen2 = Pencil((3,), (Disk(1.0),))
    assert pencil_term_radii(gen2, g2) is None


# -- sigma search ----------------------------------------------------------------


def test_sigma_search_unit_pencil():
    V = pencil_family()
    g = TruncSeries.polynomial([1.0, 0.8])
    s = sigma_search(V, g, sigma_max=8.0)
    assert s is not None
    assert 1 / 0.8 - 1e-3 <= s < 1 / 0.8


def test_sigma_search_rational_kernel():
    V = pencil_family()
    g = from_rational(0.3, -0.5)  # a_1 = 0.8, regular up to |z| < 2
    s = sigma_search(V, g, sigma_max=8.0)
    assert s is not None
    assert 1 / 0.8 - 1e-3 <= s < 1 / 0.8


def test_sigma_search_capped_by_schedule_top():
    V = pencil_family()
    g = TruncSeries.polynomial([1.0, 0.05])
    s = sigma_search(V, g, sigma_max=4.0)
    # true supremum 20 exceeds the searched range: result crowds sigma_max
    # from below (the returned value stays in the open interval)
    assert s is not None
    assert 4.0 - 1e-3 <= s < 4.0


def test_sigma_search_multi_exponent_family():
    V = FamilySpec((Pencil((1,), (Disk(1.0),)), Pencil((2,), (Disk(1.0),))))
    g = TruncSeries.polynomial([1.0, 0.5, 0.5])
    s = sigma_search(V, g, sigma_max=8.0)
    # binding constraint is the exponent-2 pencil: 0.5 s^2 < 1, sup = sqrt(2)
    assert s is not None
    assert math.sqrt(2.0) - 1e-3 <= s < math.sqrt(2.0)


def test_sigma_search_preconditions():
    V = pencil_family()
    with pytest.raises(ValueError, match="sigma_max"):
        sigma_search(V, TruncSeries.polynomial([1.0, 0.5]), sigma_max=1.0)
    with pytest.raises(ValueError, match="normalized"):
        sigma_search(V, TruncSeries.polynomial([2.0, 0.5]))
    with pytest.raises(ValueError, match="tail"):
        sigma_search(V, TruncSeries([1.0, 0.5], tail=None))
    with pytest.raises(ValueError, match="nonvanishing"):
        sigma_search(V, TruncSeries.polynomial([1.0, 1.0]))  # pairing hits zero at x = -1


def test_sigma_search_fixed_member_sampled_path():
    # the certificate is pointwise at sigma: (f*g)(s) = 1 - 0.9 s vanishes at
    # 1.111 but the schedule top 1.2 itself certifies (value -0.08)
    V = FamilySpec((Fixed(TruncSeries.polynomial([1.0, -0.9])),))
    g = TruncSeries([1.0] * 8, tail=(1.0, 1.25))
    s = sigma_search(V, g, sigma_max=1.2)
    assert s is not None
    assert 1.19 < s < 1.2


def test_sigma_search_respects_kernel_tail_cap():
    V = FamilySpec((Fixed(TruncSeries.polynomial([1.0, -0.9])),))
    g = TruncSeries([1.0] * 8, tail=(1.0, 1.05))
    s = sigma_search(V, g, sigma_max=1.2)
    # dilated kernel must stay regular on the closed disk: sigma < 1.05
    assert s is not None
    assert 1.0 < s < 1.05


# ``oracles.sigma_search`` is the sampled search that ``in_T`` replaced: the
# pencil closed form at ``|t|``, every other member convolved once and
# evaluated at each probe.  On pencils over disks and circles and on exact
# polynomial members both decide the same probes, so sigma is bitwise the
# same, as long as ``margin_floor`` is above ``in_T``'s own decision floor
# (1e-7), below which ``in_T`` is Inconclusive by design.
SIGMA = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
small = st.floats(-0.9, 0.9)
small_points = st.builds(complex, small, small)
sigma_radii = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.2)
round_domains = st.one_of(st.builds(Disk, sigma_radii), st.builds(Circle, sigma_radii))


@st.composite
def round_pencils(draw):
    exps = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True))
    return Pencil(tuple(sorted(exps)), tuple(draw(round_domains) for _ in exps))


exact_fixeds = st.lists(small_points, min_size=1, max_size=4).map(
    lambda c: Fixed(TruncSeries.polynomial([1.0] + c))
)
exact_families = st.builds(
    FamilySpec, st.lists(round_pencils() | exact_fixeds, min_size=1, max_size=3).map(tuple), st.booleans()
)
sigma_kernels = st.one_of(
    st.lists(small_points, min_size=1, max_size=5).map(lambda c: TruncSeries.polynomial([1.0] + c)),
    st.builds(
        lambda c, rho: TruncSeries([1.0] + c, Tail(1.0, rho)),
        st.lists(small_points, min_size=4, max_size=6),
        st.floats(1.1, 6.0),
    ),
)


def _search_or_error(search, *args, **kw):
    try:
        return search(*args, **kw), None
    except ValueError as exc:
        return None, str(exc)


@SIGMA
@given(exact_families, sigma_kernels, st.sampled_from([1.2, 4.0, 8.0]), st.sampled_from([1e-6, 1e-3]))
@example(pencil_family(), TruncSeries.polynomial([1.0, 0.8]), 8.0, 1e-6)
@example(  # the sup 20 lies past sigma_max
    FamilySpec((Pencil((1,), (Disk(1.0),)), Fixed(TruncSeries.polynomial([1.0, 0.2]))), True),
    TruncSeries.polynomial([1.0, 0.05]), 4.0, 1e-6,
)
def test_sigma_search_equals_the_sampled_search_on_exact_families(V, g, sigma_max, floor):
    got = _search_or_error(sigma_search, V, g, sigma_max, margin_floor=floor)
    if not in_T(g, V, COARSE_GRID).verified:
        assert got == (None, "pairing at z = 1 is not certifiably nonvanishing for this kernel")
        return
    want = _search_or_error(reference_sigma_search, V, g, sigma_max, margin_floor=floor)
    assert repr(got) == repr(want)


rational_families = st.builds(
    FamilySpec,
    st.lists(
        st.one_of(
            st.builds(Rational, round_domains, st.builds(Disk, st.floats(0.0, 0.9)), st.integers(4, 12)),
            st.builds(Rational, round_domains, st.builds(Circle, st.floats(0.0, 0.9)), st.integers(4, 12)),
            round_pencils(),
            st.builds(Pencil, st.just((1,)), st.tuples(st.builds(Segment, small_points, small_points))),
            exact_fixeds,
            st.builds(lambda c: Fixed(TruncSeries([1.0] + c, Tail(1.0, 2.0))),
                      st.lists(small_points, min_size=1, max_size=3)),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
    st.booleans(),
)


@SIGMA
@given(rational_families, sigma_kernels, st.sampled_from([1.2, 4.0, 8.0]))
@example(  # the family the sampled search over-claimed on: it returned 3.9998
    FamilySpec((Fixed(TruncSeries.polynomial([1.0, 0.2])), Rational(Disk(0.5), Disk(0.4)))),
    TruncSeries.polynomial([1.0, 0.3]), 4.0,
)
def test_sigma_search_returns_a_verified_dilation(V, g, sigma_max):
    s, error = _search_or_error(sigma_search, V, g, sigma_max)
    if error is not None:
        assert not in_T(g, V, COARSE_GRID).verified
        return
    if s is not None:
        assert 1.0 < s < sigma_max
        assert in_T(dilate(g, s), V, COARSE_GRID).verified


@SIGMA
@given(st.floats(0.0, 0.9), st.floats(0.0, 0.9), st.floats(1.05, 7.9), st.booleans())
@example(0.5, 0.4, 1 / 0.27, False)  # c = 0.3: the sampled search returned 3.9998 at sigma_max 4
def test_sigma_search_finds_the_rational_supremum(a, b, s_star, slot):
    """``(f*g)(s) = 1 + c s (x - y)`` for ``g = 1 + c z``: on rationals over
    disks it first vanishes at ``x = -rx``, ``y = ry``, so the supremum is
    ``s* = 1 / (c (rx + ry))``; ``c`` is chosen to put it at ``s_star``.

    ``in_T`` is exact in x and samples y.  Past ``s*`` the pairing vanishes
    on the y-disk of radius ``rx`` about ``1 / (c s)``; with ``rx >= ry`` it
    holds ``y = 0`` or ``y = ry``, points of every grid, so no probe past
    ``s*`` is Verified.  (A smaller x-disk can slip between the sampled y.)
    """
    rx, ry = max(a, b), min(a, b)
    if rx + ry < 1e-3:
        return
    c = 1.0 / (s_star * (rx + ry))
    V = FamilySpec((Rational(Disk(rx), Disk(ry)),), slot)
    s = sigma_search(V, TruncSeries.polynomial([1.0, c]))
    s_star = 1.0 / (c * (rx + ry))
    assert s_star - 1e-3 <= s < s_star


# -- stock families --------------------------------------------------------------


def test_stock_families_shape():
    ce = counterexample_family()
    assert len(ce.generators) == 2
    exps = {g.exponents for g in ce.generators}
    assert exps == {(1,), (2,)}

    pool = default_kernel_family()
    kinds = [g.kind for g in pool.generators]
    assert kinds.count("pencil") == 5 and kinds.count("rational") == 1
    members = sample(pool, ParamGrid(disk_radial=2, disk_angular=4, circle=8))
    assert all(abs(f.coeffs[0] - 1.0) < 1e-15 for f, _ in members)
