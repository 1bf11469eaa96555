"""The array pass of the transpose kernel pool against the per-kernel loop: bitwise equality."""

import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from convdual import duality, family
from convdual.duality import build_transpose_pool, in_dual_hull, is_complete_T
from convdual.family import (
    COARSE_GRID,
    Circle,
    Disk,
    FamilySpec,
    Fixed,
    MemberTag,
    ParamGrid,
    Pencil,
    Rational,
    Segment,
    counterexample_family,
    default_kernel_family,
    leading_rows,
    pairing_margin,
    pencil_family,
    pencil_margin_rows,
    pencil_term_radii,
)
from convdual.series import (
    Tail,
    TruncSeries,
    from_rational,
    leading_block,
    rational_leading_rows,
    regular_beyond_disk,
)

from oracles import per_kernel_complete, per_kernel_hull, per_kernel_pool
from oracles import sample as reference_sample

SET = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
KMAX = duality._POOL_KMAX

coord = st.sampled_from([0.0, -0.0, 0.5, -1.0]) | st.floats(
    min_value=-1.5, max_value=1.5, allow_nan=False, allow_infinity=False
)
cpoint = st.builds(complex, coord, coord)
radius = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.5)
round_domain = st.one_of(st.builds(Disk, radius), st.builds(Circle, radius))
pole = st.builds(complex, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))


@st.composite
def pencils(draw, domain=round_domain, top=KMAX + 4):
    exps = draw(st.lists(st.integers(1, top), min_size=1, max_size=3, unique=True))
    return Pencil(tuple(exps), tuple(draw(domain) for _ in exps))


# generators the array pass leaves to in_T when they sit in V
other_v_generators = st.one_of(
    st.builds(Rational, st.builds(Disk, radius), st.builds(Disk, st.floats(0.0, 0.6)),
              st.integers(0, 6)),
    st.builds(Fixed, st.builds(from_rational, cpoint, pole, st.integers(0, 6))),
    st.builds(lambda c: Fixed(TruncSeries.polynomial([1.0] + c)), st.lists(cpoint, max_size=4)),
    st.builds(lambda a, b: Pencil((1,), (Segment(a, b),)), cpoint, cpoint),
)

fixed_kernels = st.one_of(
    st.builds(lambda c: Fixed(TruncSeries.polynomial([1.0] + c)), st.lists(cpoint, max_size=20)),
    st.builds(Fixed, st.builds(from_rational, cpoint, pole, st.integers(0, 20))),  # rho > 1
    st.builds(lambda c, rho: Fixed(TruncSeries([1.0] + c, Tail(1.0, rho))),
              st.lists(cpoint, max_size=20), st.floats(0.5, 1.0)),  # rho <= 1
    st.builds(lambda c: Fixed(TruncSeries([1.0] + c, None)), st.lists(cpoint, max_size=20)),
)
kernel_generators = st.one_of(
    pencils(domain=st.one_of(round_domain, st.builds(Segment, cpoint, cpoint)), top=KMAX + 3),
    st.builds(Rational, round_domain, st.one_of(st.builds(Disk, st.floats(0.0, 0.9)),
                                                st.builds(Circle, st.floats(0.0, 0.9))),
              st.integers(0, 24)),
    fixed_kernels,
)
kernel_families = st.builds(
    FamilySpec, st.lists(kernel_generators, min_size=1, max_size=4).map(tuple), st.booleans()
)
kernel_grids = st.builds(
    ParamGrid,
    disk_radial=st.integers(1, 2),
    disk_angular=st.integers(1, 4),
    circle=st.integers(1, 4),
    segment=st.integers(1, 3),
)
series = st.one_of(
    st.lists(cpoint, max_size=KMAX + 3).map(lambda c: TruncSeries.polynomial([1.0] + c)),
    st.builds(from_rational, cpoint, pole, st.integers(0, 20)),
    st.lists(cpoint, max_size=4).map(lambda c: TruncSeries([1.0] + c, None)),
)


def _series_bytes(f: TruncSeries):
    return f.coeffs.tobytes(), None if f.tail is None else np.array(f.tail).tobytes()


def _cert(cert) -> str:
    return json.dumps(cert.to_dict(), sort_keys=True)


# members of V that in_T samples (non-pencil generators, dilations, undetermined coefficients)
V_GRID = ParamGrid(1, 2, 2, 1)


def _assert_pool_matches(V, kernels=None, kernel_grid=None, hs=(), grid=V_GRID):
    try:
        want = per_kernel_pool(V, kernels, kernel_grid, grid)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            build_transpose_pool(V, kernels, kernel_grid, grid)
        assert str(got.value) == str(exc)
        return
    pool = build_transpose_pool(V, kernels, kernel_grid, grid)
    assert pool.skipped == want["skipped"]
    assert pool.kmax == want["kmax"]
    assert pool.coeffs.shape == want["coeffs"].shape
    assert pool.coeffs.tobytes() == want["coeffs"].tobytes()
    tags = [pool.tag(i) for i in range(len(pool.coeffs))]
    assert tags == [tag for _, tag in want["members"]]
    assert [t.label() for t in tags] == [tag.label() for _, tag in want["members"]]
    assert len(pool.members) == len(want["members"])
    for (g, tag), (wg, wtag) in zip(pool.members, want["members"]):
        assert tag == wtag
        assert _series_bytes(g) == _series_bytes(wg)
    for h in hs:
        assert _cert(in_dual_hull(h, V, grid=grid, pool=pool)) == _cert(
            per_kernel_hull(h, V, want, grid)
        )
    assert _cert(is_complete_T(V, kernels, grid, kernel_grid)) == _cert(
        per_kernel_complete(V, want, grid)
    )


# -- the pool ----------------------------------------------------------------------


@settings(SET, max_examples=30)
@given(
    st.lists(pencils(), min_size=1, max_size=2),
    st.lists(other_v_generators, max_size=1),
    st.booleans(),
    kernel_families,
    kernel_grids,
    st.lists(series, max_size=2),
)
def test_pool_matches_per_kernel_loop(pens, others, slot, kernels, grid, hs):
    V = FamilySpec(tuple(pens + others), dilation_slot=slot)
    _assert_pool_matches(V, kernels, grid, hs)


@settings(SET, max_examples=20)
@given(st.lists(pencils(), min_size=1, max_size=2), st.booleans(), st.lists(series, max_size=2))
def test_stock_kernels_on_a_small_grid_match_per_kernel_loop(pens, slot, hs):
    V = FamilySpec(tuple(pens), dilation_slot=slot)
    _assert_pool_matches(V, default_kernel_family(), ParamGrid(2, 4, 4, 2), hs)


HS = (
    TruncSeries.polynomial([1.0, 0.3, 0.2]),  # exact: matrix path
    TruncSeries.polynomial([1.0] + [0.05] * (KMAX + 2)),  # exact above kmax: per kernel
    TruncSeries([1.0, 0.1], None),  # not exact, tail-less: per kernel, bounds unusable
)


@pytest.mark.parametrize(
    "V",
    [
        pencil_family(),
        FamilySpec((Pencil((2,), (Disk(0.8),)),)),
        FamilySpec((Pencil((1, 3), (Disk(0.5), Disk(0.5))),)),
        FamilySpec((Pencil((1,), (Circle(0.7),)),)),
        FamilySpec((Pencil((1, 2), (Circle(0.6), Disk(0.3))),)),
        FamilySpec((Pencil((1,), (Disk(1.0),)),), dilation_slot=True),
        counterexample_family(),
        FamilySpec((Pencil((2,), (Circle(0.9),)),), dilation_slot=True),
        FamilySpec((Pencil((1,), (Disk(0.0),)), Pencil((2,), (Circle(0.0),)))),  # zero radii
        FamilySpec((Pencil((1, KMAX + 1), (Disk(0.5), Disk(0.5))),)),  # exponent above kmax
        FamilySpec((Pencil((1,), (Disk(0.5),)), Fixed(TruncSeries.polynomial([1.0, 0.2])))),
    ],
    ids=["disk1", "disk2", "disk13", "circle1", "circle-disk12", "disk1-slot",
         "counterexample", "circle2-slot", "zero-radii", "above-kmax", "with-fixed"],
)
def test_stock_pool_matches_per_kernel_loop(V):
    _assert_pool_matches(V, hs=HS)


def test_rational_kernels_of_low_order_and_degenerate_parameters():
    kernels = FamilySpec((
        Rational(Disk(1.0), Disk(0.8), order=3),
        Rational(Circle(0.5), Circle(0.0), order=0),  # y = 0: exact
        Rational(Disk(0.0), Disk(0.0), order=5),  # x = y: exact
    ))
    for V in (pencil_family(), FamilySpec((Pencil((2, 5), (Circle(0.4), Disk(0.3))),))):
        _assert_pool_matches(V, kernels, ParamGrid(2, 4, 4, 2), HS + (from_rational(0.4, -0.3),))


def test_stock_kernel_rows_are_built_once_and_shared_read_only():
    duality._stock_kernel_rows.cache_clear()
    with mock.patch.object(duality, "leading_rows", wraps=leading_rows) as spy:
        pool = build_transpose_pool(pencil_family())
        build_transpose_pool(counterexample_family())
        assert spy.call_count == 1
        # a custom kernel family or kernel grid, even an equal one, builds its own rows
        custom = build_transpose_pool(pencil_family(), kernel_grid=COARSE_GRID)
        build_transpose_pool(pencil_family(), kernels=default_kernel_family())
        assert spy.call_count == 3
    _, rows = duality._stock_kernel_rows()
    for a in (rows.coeffs, rows.regular, rows.gen_index, rows.params):
        assert not a.flags.writeable
    assert pool.coeffs.flags.writeable and not np.shares_memory(pool.coeffs, rows.coeffs)
    assert pool.coeffs.tobytes() == custom.coeffs.tobytes() and pool.skipped == custom.skipped
    assert [pool.tag(i) for i in range(len(pool.coeffs))] == [
        custom.tag(i) for i in range(len(custom.coeffs))
    ]


def test_max_members_error_matches_sample():
    grid = ParamGrid(4, 8, 16, 8, max_members=100)
    with pytest.raises(ValueError) as expected:
        reference_sample(default_kernel_family(), grid)
    with pytest.raises(ValueError) as got:
        build_transpose_pool(pencil_family(), kernel_grid=grid)
    assert str(got.value) == str(expected.value)
    assert "more than 100 members" in str(got.value)


def test_oversized_table_is_refused_before_its_rows_are_built():
    V = FamilySpec((Rational(Disk(0.5), Disk(0.5), order=4096),), dilation_slot=True)
    grid = ParamGrid(1, 4)  # 5 x 5 base members, 5 dilations each: 125 rows
    width = family._MAX_TABLE_ENTRIES // 125 + 1
    with mock.patch.object(Rational, "base_rows", side_effect=AssertionError("allocated")):
        with pytest.raises(ValueError, match=f"125 members x {width} coefficients exceeds "
                                             f"the limit of {family._MAX_TABLE_ENTRIES} entries"):
            leading_rows(V, grid, width)
        # past max_members the member count raises first, as sample does
        with pytest.raises(ValueError, match="more than 100 members"):
            leading_rows(V, replace(grid, max_members=100), width)
        # a first generator within max_members is held to the limit before
        # its rows are built, though the second takes the count past it
        two = FamilySpec(V.generators * 2, dilation_slot=True)
        with pytest.raises(ValueError, match=f"125 members x {width} coefficients exceeds"):
            leading_rows(two, replace(grid, max_members=200), width)


def test_empty_pool_is_inconclusive_as_per_kernel():
    only_bad = FamilySpec((Fixed(TruncSeries.polynomial([1.0, 1.0])),))
    V = pencil_family()
    want = per_kernel_pool(V, only_bad)
    assert not want["members"]
    pool = build_transpose_pool(V, only_bad)
    assert len(pool.coeffs) == 0 and pool.members == ()
    h = TruncSeries.polynomial([1.0, 0.5])
    assert _cert(in_dual_hull(h, V, pool=pool)) == _cert(per_kernel_hull(h, V, want))
    assert in_dual_hull(h, V, pool=pool).params == {"kernels_skipped": 1}


# -- laziness ------------------------------------------------------------------------


def _counted(owner, name):
    """Patch ``owner.name`` with a mock that counts calls and still runs it."""
    return mock.patch.object(owner, name, autospec=True, side_effect=getattr(owner, name))


def test_pencil_pool_is_decided_without_building_kernels():
    with _counted(TruncSeries, "__post_init__") as built, _counted(duality, "in_T") as in_t:
        pool = build_transpose_pool(pencil_family())
    assert built.call_count == 0 and in_t.call_count == 0
    assert len(pool.coeffs) == 1990 and pool.skipped == 320
    assert "members" not in vars(pool)  # nothing materialised yet


def test_matrix_path_builds_no_kernel_series():
    V = FamilySpec((Pencil((1,), (Circle(0.5),)),))
    pool = build_transpose_pool(V)
    h = TruncSeries.polynomial([1.0, 2.0])
    with _counted(TruncSeries, "__post_init__") as built, _counted(MemberTag, "label") as label:
        cert = in_dual_hull(h, V, pool=pool)
    assert cert.reason == "pool transpose kernel annihilates the series"
    assert built.call_count == 0 and label.call_count == 1


def test_gray_reasons_are_formatted_only_for_the_shown_three():
    V = pencil_family()
    h = TruncSeries([1.0, 0.1], None)
    pool = build_transpose_pool(V)
    with _counted(MemberTag, "label") as label:
        cert = in_dual_hull(h, V, pool=pool)
    gray = cert.params["gray_members"]
    assert gray > 3 and cert.reason.endswith(f" (+{gray - 3} more)")
    assert label.call_count == 3
    assert _cert(cert) == _cert(per_kernel_hull(h, V, per_kernel_pool(V)))


def test_complete_check_runs_in_t_only_below_the_floor():
    V = pencil_family()
    with _counted(duality, "in_T") as in_t:
        cert = is_complete_T(V)
    assert cert.verified and in_t.call_count == 0
    assert _cert(cert) == _cert(per_kernel_complete(V, per_kernel_pool(V)))


# -- the array margin and the rational rows ----------------------------------------


@settings(max_examples=200, deadline=None)
@given(pencils(top=8), st.booleans(), st.lists(series, min_size=1, max_size=6))
@example(  # three terms: the outer edge is summed left to right
    Pencil((1, 2, 3), (Circle(0.1), Disk(0.7), Circle(0.3))),
    False,
    [TruncSeries.polynomial([1.0, 0.3 + 0.1j, 1.1, 0.7 - 0.2j])],
)
@example(  # radii overflow: left to the scalar code
    Pencil((1, 2), (Circle(1.5), Circle(1.0))),
    False,
    [TruncSeries.polynomial([1.0, 1e308 + 1e308j]), TruncSeries.polynomial([1.0, 1.3e308, 1.0])],
)
def test_margin_rows_equal_the_scalar_margin(gen, slot, kernels):
    rows = np.array([leading_block(g, 9) for g in kernels])
    got = pencil_margin_rows(gen, rows, slot)
    for g, m in zip(kernels, got):
        try:
            radii = pencil_term_radii(gen, g)
        except ValueError:  # a coefficient's modulus beyond the float range
            radii = None
        if radii is None or not all(math.isfinite(s) for s, _ in radii):
            assert math.isnan(m)
        else:
            assert np.float64(pairing_margin(radii, slot)).tobytes() == np.float64(m).tobytes()


big = st.sampled_from([0.0, 1e307, -2e307, 1e308, 5e-324]) | coord
pairs = st.lists(st.tuples(st.builds(complex, big, big), st.builds(
    complex,
    st.sampled_from([0.0, -0.0, 5e-324, 2.2e-313, 0.9999999999999999, 1.0]) | st.floats(-0.75, 0.75),
    st.sampled_from([0.0, -0.0, 1e-300]) | st.floats(-0.75, 0.75),
)), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(pairs, st.integers(0, 24), st.integers(1, KMAX + 3))
@example([(0.5 + 0j, 0.5 + 0j), (0.25j, 0j), (1e307 + 1e307j, -0.7 + 0j)], 20, KMAX + 1)
def test_rational_rows_equal_the_scalar_expansion(xy, order, width):
    x = np.array([p[0] for p in xy], dtype=complex)
    y = np.array([p[1] for p in xy], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # huge x overflows the scalar expansion
        try:
            want = [from_rational(a, b, order) for a, b in xy]
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                rational_leading_rows(x, y, order, width)
            assert str(got.value) == str(exc)
            return
        rows, radius = rational_leading_rows(x, y, order, width)
    for f, row, rad in zip(want, rows, radius):
        assert row.tobytes() == leading_block(f, width).tobytes()
        assert np.float64(rad).tobytes() == np.float64(f.tail_radius).tobytes()
        assert (rad > 1.0) == regular_beyond_disk(f)


@settings(max_examples=60, deadline=None)
@given(kernel_families, kernel_grids)
@example(  # w = 0 collapses a non-exact member to the exact constant row
    FamilySpec((Fixed(from_rational(0.5 - 0.25j, -0.3, order=6)),), dilation_slot=True),
    ParamGrid(1, 3, 3, 1),
)
@example(  # a tail-less fixed member stays irregular at every w != 0
    FamilySpec((Fixed(TruncSeries([1.0, 0.5j, -0.25 + 1j], None)),), dilation_slot=True),
    ParamGrid(2, 3, 3, 1),
)
@example(  # rho <= 1: regular exactly where rho / |w| exceeds one
    FamilySpec((Fixed(TruncSeries([1.0, -0.3, 0.2j, 0.1], Tail(1.0, 0.8))),
                Fixed(TruncSeries([1.0, 0.7], Tail(0.5, 1.0)))), dilation_slot=True),
    ParamGrid(2, 4, 3, 1),
)
@example(  # subnormal |y|: the tail radius is capped at 1e300
    FamilySpec((Rational(Disk(0.5), Circle(5e-324), order=8),), dilation_slot=True),
    ParamGrid(1, 3, 4, 1),
)
def test_leading_rows_rebuild_the_sampled_members(V, grid):
    try:
        members = reference_sample(V, grid)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            leading_rows(V, grid, KMAX + 1)
        assert str(got.value) == str(exc)
        return
    rows = leading_rows(V, grid, KMAX + 1)
    assert len(rows.coeffs) == len(members)
    for i, (f, tag) in enumerate(members):
        assert rows.coeffs[i].tobytes() == leading_block(f, KMAX + 1).tobytes()
        assert rows.regular[i] == regular_beyond_disk(f)
        assert rows.tag(V, i) == tag
        assert _series_bytes(rows.member(V, i)) == _series_bytes(f)
