"""Cell-grid nearest-point geometry against all-pairs oracles: exact equality."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from convdual import duality
from convdual.duality import (
    Functional,
    RegionCloud,
    _coverage_boundary_flags,
    _median_spacing,
    _nearest_in_set,
    functional_image,
)
from convdual.family import (
    Circle,
    Disk,
    FamilySpec,
    ParamGrid,
    Pencil,
    counterexample_family,
    pencil_family,
)
from convdual.series import TruncSeries

from oracles import (
    brute_coverage_flags,
    brute_median_spacing,
    brute_nearest_distance,
    cloud_nearest_distance,
    deep_interior,
)

SET = settings(max_examples=60, deadline=None)

coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)
cpoint = st.builds(complex, coord, coord)
scale = st.sampled_from([1e-9, 1.0, 1e6])


def _cloud(draw_points, n_max):
    return st.lists(draw_points, min_size=1, max_size=n_max).map(
        lambda zs: np.asarray(zs, dtype=complex)
    )


@st.composite
def clustered(draw):
    """A few centres with many tight, often repeated satellites."""
    centres = draw(st.lists(cpoint, min_size=1, max_size=4))
    spread = draw(st.sampled_from([0.0, 1e-12, 1e-4]))
    offs = draw(st.lists(cpoint, min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(st.integers(0, len(centres) - 1),
                                    st.integers(0, len(offs) - 1)), min_size=1, max_size=80))
    return np.asarray([centres[c] + spread * offs[o] for c, o in picks], dtype=complex)


@st.composite
def collinear(draw):
    """Points on one line through the plane, or all on a single point."""
    base = draw(cpoint)
    direction = draw(st.sampled_from([1.0, 1j, 0.6 + 0.8j, 0.0]))
    ts = draw(st.lists(coord, min_size=1, max_size=60))
    return base + direction * np.asarray(ts, dtype=float)


clouds = st.one_of(_cloud(cpoint, 120), clustered(), collinear(), _cloud(cpoint, 1))
budgets = st.sampled_from([3, 50, duality._PAIR_BUDGET])


@SET
@given(clouds, clouds, scale, budgets)
def test_nearest_matches_brute_force(ref, queries, s, budget):
    ref, queries = ref * s, queries * s
    with mock.patch.object(duality, "_PAIR_BUDGET", budget):
        got = _nearest_in_set(queries, ref)
    np.testing.assert_array_equal(got, brute_nearest_distance(queries, ref))


@SET
@given(clouds, clouds, st.sampled_from([1e3, 1e8, 1e200]))
def test_nearest_far_queries_match_brute_force(ref, queries, far):
    queries = queries + far * (1.0 - 0.5j)
    np.testing.assert_array_equal(_nearest_in_set(queries, ref), brute_nearest_distance(queries, ref))


@SET
@given(clouds)
def test_nearest_edge_sizes(ref):
    assert _nearest_in_set(np.zeros(0, dtype=complex), ref).shape == (0,)
    one = ref[:1]
    np.testing.assert_array_equal(_nearest_in_set(ref, one), np.abs(ref - one[0]))
    assert np.all(np.isinf(_nearest_in_set(ref, np.zeros(0, dtype=complex))))


@SET
@given(clouds, st.floats(min_value=1e-3, max_value=1.0), budgets)
def test_coverage_and_spacing_match_brute_force_on_random_clouds(points, spacing, budget):
    with mock.patch.object(duality, "_PAIR_BUDGET", budget):
        flags = _coverage_boundary_flags(points, spacing)
        med = _median_spacing(points)
    np.testing.assert_array_equal(flags, brute_coverage_flags(points, spacing))
    assert med == brute_median_spacing(points)


A1 = Functional(TruncSeries.polynomial([0.0, 1.0]), label="a1")
A2 = Functional(TruncSeries.polynomial([0.0, 0.0, 1.0]), label="a2")


@pytest.mark.parametrize(
    "V, lam, grid",
    [
        (pencil_family(), A1, ParamGrid(disk_radial=11, disk_angular=66)),
        (pencil_family(radius=0.7), A1, ParamGrid(disk_radial=8, disk_angular=96)),
        (counterexample_family(), A2, ParamGrid(disk_radial=12, disk_angular=78)),
        (FamilySpec((Pencil((1,), (Circle(0.9),)),)), A1, ParamGrid(circle=700)),
        (FamilySpec((Pencil((1,), (Circle(1.0),)), Pencil((2,), (Circle(0.6),)))), A1,
         ParamGrid(circle=350)),
        (FamilySpec((Pencil((2,), (Disk(1.0),)),)), A1, ParamGrid(disk_radial=6, disk_angular=36)),
    ],
    ids=["disk", "disk-anisotropic", "counterexample", "circle", "circled-ce", "collapsed"],
)
def test_direct_route_geometry_matches_brute_force(V, lam, grid):
    points = functional_image(lam, V, grid, boundary=False).points
    spacing = _median_spacing(points)
    assert spacing == brute_median_spacing(points)
    np.testing.assert_array_equal(
        _coverage_boundary_flags(points, spacing), brute_coverage_flags(points, spacing)
    )


def test_border_route_spacing_matches_brute_force_on_subsample():
    # 67 mesh angles against 12 border members: the rotated meshes do not overlap
    cloud = functional_image(A1, pencil_family(), ParamGrid(circle=12), via_border=True,
                             mesh_angles=67)
    assert len(np.unique(np.round(cloud.points, 12))) > 4096
    assert cloud.mesh_spacing == brute_median_spacing(cloud.points)


# -- distinct-point probing, cell representatives, non-finite points ---------------

special = st.sampled_from([
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1.0 + 0j,
    complex(math.inf, 0.0), complex(-math.inf, 1.0), complex(0.5, math.nan),
    complex(math.nan, math.nan), complex(math.inf, math.inf),
])


@st.composite
def duplicate_heavy(draw):
    """Half of the points at one value, the rest spread or repeated."""
    rest = draw(st.lists(cpoint, min_size=1, max_size=40))
    rest = rest + draw(st.lists(st.sampled_from(rest), max_size=40))
    hub = draw(cpoint | st.sampled_from([0j, complex(-0.0, -0.0)]))
    return np.asarray(rest + [hub] * len(rest), dtype=complex)


@st.composite
def polar_grids(draw):
    """Sampled disk domains: full rings, dense near the centre and sparse at the rim."""
    nr, na = draw(st.sampled_from([(11, 66), (12, 78), (6, 36)]))
    pts = np.asarray(Disk(draw(st.floats(0.3, 1.0))).points(ParamGrid(nr, na)), dtype=complex)
    power = draw(st.sampled_from([1, 2]))  # z**2 folds the grid onto itself
    return draw(cpoint) + draw(scale) * pts**power


@st.composite
def wide_collinear(draw):
    """A run of unit-spaced points and a far tail on one line: ~10**6 spacings."""
    n = draw(st.integers(2, 40))
    far = draw(st.sampled_from([1e3, 1e6, 1e9]))
    ts = np.concatenate([np.arange(n), far - np.arange(draw(st.integers(1, 5)))])
    return draw(cpoint) + draw(st.sampled_from([1.0, 1j, 0.6 + 0.8j, -0.8 + 0.6j])) * ts


@st.composite
def with_specials(draw):
    base = draw(st.one_of(_cloud(cpoint, 30), clustered(), polar_grids()))
    extra = draw(st.lists(special, max_size=6))
    pts = np.concatenate([base, np.asarray(extra, dtype=complex)])
    return pts[draw(st.permutations(range(len(pts))))]


geometry_clouds = st.one_of(
    duplicate_heavy(), polar_grids(), wide_collinear(), with_specials(),
    st.lists(special, min_size=1, max_size=4).map(lambda zs: np.asarray(zs, dtype=complex)),
    _cloud(cpoint, 1),
)


@SET
@given(geometry_clouds, st.sampled_from([0.5, 1.0, 3.0]), st.sampled_from([64, 1 << 16]),
       st.sampled_from([0, duality._DENSE_TABLE_FLOOR]))
def test_probe_flags_and_spacing_match_brute_force(points, factor, budget, floor):
    # a small budget gives one-to-four-point blocks, a zero floor mostly sparse tables
    with mock.patch.object(duality, "_PAIR_BUDGET", budget), \
            mock.patch.object(duality, "_DENSE_TABLE_FLOOR", floor):
        med = _median_spacing(points)
        spacing = factor * med
        flags = _coverage_boundary_flags(points, spacing)
    assert np.float64(med).tobytes() == np.float64(brute_median_spacing(points)).tobytes()
    np.testing.assert_array_equal(flags, brute_coverage_flags(points, spacing))
    assert not flags[~np.isfinite(points)].any()


def test_probes_are_measured_once_per_distinct_point():
    points = functional_image(A2, counterexample_family(), ParamGrid(12, 78), boundary=False).points
    distinct = len(np.unique(points))
    assert distinct < len(points) // 2 + 1  # the z**2 functional sends every z-pencil member to 0
    spacing = _median_spacing(points)
    with mock.patch.object(duality._CellIndex, "near_representative", autospec=True,
                           side_effect=duality._CellIndex.near_representative) as reps, \
            mock.patch.object(duality._CellIndex, "block_min", autospec=True,
                              side_effect=duality._CellIndex.block_min) as exact:
        flags = _coverage_boundary_flags(points, spacing)
    probed = sum(len(call.args[1]) for call in reps.call_args_list)
    measured = sum(len(call.args[1]) for call in exact.call_args_list)
    assert probed == 16 * distinct
    assert measured < probed // 10  # most probes settle on a cell representative
    np.testing.assert_array_equal(flags, brute_coverage_flags(points, spacing))


def test_open_points_are_settled_by_their_first_measured_probe():
    # a circle of points: every point has open probes on both sides of the
    # curve, and the first one measured exactly is usually a hole
    points = np.exp(2j * np.pi * np.arange(700) / 700)
    spacing = _median_spacing(points)
    near_representative = duality._CellIndex.near_representative
    open_probes = []

    def counting(index, queries, radius):
        near = near_representative(index, queries, radius)
        open_probes.append(int((~near).sum()))
        return near

    with mock.patch.object(duality._CellIndex, "near_representative", counting), \
            mock.patch.object(duality._CellIndex, "block_min", autospec=True,
                              side_effect=duality._CellIndex.block_min) as exact:
        flags = _coverage_boundary_flags(points, spacing)
    measured = sum(len(call.args[1]) for call in exact.call_args_list)
    assert flags.all()
    # one exact probe for most points, against more than 5 open probes per point
    assert measured < 1.5 * len(points) < sum(open_probes) / 5
    np.testing.assert_array_equal(flags, brute_coverage_flags(points, spacing))


@pytest.mark.parametrize("gap, hole", [(0.98, False), (1.0 - 1e-9, False), (1.0, None),
                                       (1.0 + 1e-9, True), (1.02, True)])
def test_probe_at_the_cover_radius_matches_brute_force(gap, hole):
    # every probe of the centre but the first is covered by its own outer
    # point; the first has its nearest point at gap times the cover radius
    spacing = 0.25
    dirs = np.exp(2j * np.pi * np.arange(16) / 16)
    points = np.concatenate([[0j], 3.2 * spacing * dirs[1:], [(2.0 + gap * 1.3) * spacing]])
    flags = _coverage_boundary_flags(points, spacing)
    np.testing.assert_array_equal(flags, brute_coverage_flags(points, spacing))
    if hole is not None:
        assert flags[0] == hole


def _grid_cloud(n):
    g = np.linspace(0.0, 1.0, n)
    return (g[:, None] + 1j * g[None, :]).ravel()


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, 0.0)])
def test_non_finite_point_leaves_spacing_and_flags_of_the_rest(bad):
    grid = _grid_cloud(20)
    points = np.append(grid, bad)
    spacing = _median_spacing(points)
    assert spacing == _median_spacing(grid) == brute_median_spacing(points)
    flags = _coverage_boundary_flags(points, spacing)
    assert flags.sum() == 76 and not flags[-1]
    np.testing.assert_array_equal(flags[:-1], _coverage_boundary_flags(grid, spacing))
    np.testing.assert_array_equal(flags, brute_coverage_flags(points, spacing))


def test_infinite_point_sends_no_probe_to_the_all_pairs_pass():
    points = np.append(_grid_cloud(45), complex(math.inf, 0.0))
    with mock.patch.object(duality, "_brute_nearest", autospec=True,
                           side_effect=duality._brute_nearest) as brute:
        flags = _coverage_boundary_flags(points, _median_spacing(points))
    assert sum(len(call.args[0]) for call in brute.call_args_list) == 0
    assert flags.sum() == 176 and not flags[-1]


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_probe_memory_is_bounded_on_a_large_cloud():
    # 2 * 10**5 jittered grid points: 3.2 * 10**6 probes, 51 MB as one array
    rng = np.random.default_rng(5)
    n = 448
    points = _grid_cloud(n) + (rng.random(n * n) + 1j * rng.random(n * n)) * 0.2 / n
    spacing = _median_spacing(points)
    peak = _peak_bytes(lambda: _coverage_boundary_flags(points, spacing))
    assert peak < 40e6


def test_collinear_cloud_uses_no_dense_cell_table():
    # unit-spaced points 10**6 spacings apart on a diagonal: ~10**11 cells
    ts = np.concatenate([np.arange(2000.0), 1e6 - np.arange(2000.0)])
    points = (0.6 + 0.8j) * ts
    spacing = _median_spacing(points)
    assert spacing == brute_median_spacing(points) == pytest.approx(1.0)
    flags = []
    peak = _peak_bytes(lambda: flags.append(_coverage_boundary_flags(points, spacing)))
    assert peak < 16e6  # block temporaries only
    np.testing.assert_array_equal(flags[0], brute_coverage_flags(points, spacing))


# -- median spacing: the ladder stops once the nearer half is settled ------------


def _without_self_nearest(ref):
    return np.array([np.min(np.abs(q - np.delete(ref, i))) for i, q in enumerate(ref)])


@SET
@given(st.one_of(clouds, geometry_clouds), st.floats(0.0, 1.0), budgets)
def test_ladder_stopped_early_settles_the_nearer_distances_exactly(points, share, budget):
    ref = duality._reference_set(points)
    assume(len(ref) >= 2)
    enough = max(1, int(share * len(ref)))
    with mock.patch.object(duality, "_PAIR_BUDGET", budget):
        got = duality._grid_nearest(ref, ref, positive=True, enough=enough)
    want = _without_self_nearest(ref)
    settled = np.isfinite(got)
    assert settled.sum() >= enough
    np.testing.assert_array_equal(got[settled], want[settled])
    assert np.all(want[~settled] >= got[settled].max())


@SET
@given(st.integers(2, 41).flatmap(lambda n: st.lists(cpoint, min_size=n, max_size=n)), scale)
def test_median_spacing_of_odd_and_even_counts(zs, s):
    points = np.asarray(zs, dtype=complex) * s
    got = _median_spacing(points)
    assert np.float64(got).tobytes() == np.float64(brute_median_spacing(points)).tobytes()


@pytest.mark.parametrize("points", [[0j, 1.0], [0j, 1.0, 3.0], [0j, 1j, 3.0, 7.0 + 2j],
                                    [0j, 0j, 2.0], [5.0 - 1j, 5.0 - 1j, 5.0 - 1j, 6.0]])
def test_median_spacing_of_two_three_and_four_points(points):
    points = np.asarray(points, dtype=complex)
    assert _median_spacing(points) == brute_median_spacing(points)


@SET
@given(duplicate_heavy(), budgets)
def test_median_spacing_of_duplicate_heavy_clouds(points, budget):
    with mock.patch.object(duality, "_PAIR_BUDGET", budget):
        got = _median_spacing(points)
    assert np.float64(got).tobytes() == np.float64(brute_median_spacing(points)).tobytes()


def _rotational_lattice(params, rings, angles, power=1):
    # the border images x * z**power of a pencil over |x| = 0.83, on a disk mesh
    xs = 0.83 * np.exp(2j * np.pi * np.arange(params) / params)
    radii = 1.0 - 0.5 ** np.arange(1, rings + 1)
    mesh = np.concatenate([[0j], (radii[:, None] * np.exp(
        2j * np.pi * np.arange(angles) / angles)).ravel()])
    return (xs[:, None] * mesh**power).ravel()


@pytest.mark.parametrize("params, rings, angles, power", [
    (52, 9, 64, 1), (10, 9, 64, 1), (12, 8, 72, 1), (16, 9, 64, 2), (14, 7, 80, 2),
])
def test_median_spacing_of_rotational_lattices(params, rings, angles, power):
    points = _rotational_lattice(params, rings, angles, power)
    got = _median_spacing(points)
    assert np.float64(got).tobytes() == np.float64(brute_median_spacing(points)).tobytes()


def test_median_spacing_above_the_subsample():
    rng = np.random.default_rng(11)
    points = rng.random(6006) + 1j * rng.random(6006)
    points[::7] = points[1::7]  # some duplicates
    assert len(np.unique(np.round(points, 12))) > 4096
    assert _median_spacing(points) == brute_median_spacing(points)


def test_tight_cluster_with_far_points_takes_no_all_pairs_pass():
    # the far points have no neighbour in any cell block short of the cloud's
    # extent; the median is settled without them
    g = np.arange(15) * 1e-7
    cluster = (g[:, None] + 1j * g[None, :]).ravel()
    points = np.concatenate([cluster, [1e3, 1e3j, -1e3 - 1e3j]])
    with mock.patch.object(duality, "_brute_nearest", autospec=True,
                           side_effect=duality._brute_nearest) as brute:
        spacing = _median_spacing(points)
    assert brute.call_count == 0
    assert spacing == brute_median_spacing(points)


def test_rounding_overflow_keeps_huge_points():
    # coordinates above about 1.8e296 overflow when rounded to 12 decimals;
    # they are whole numbers, kept as they are, so the scaled grid has the
    # unit grid's boundary
    grid = _grid_cloud(20)
    huge = grid * 1e300
    assert len(duality._reference_set(huge)) == len(grid)
    spacing = _median_spacing(huge)
    assert spacing == brute_median_spacing(huge) == 1e300 / 19
    flags = _coverage_boundary_flags(huge, spacing)
    np.testing.assert_array_equal(flags, _coverage_boundary_flags(grid, _median_spacing(grid)))
    np.testing.assert_array_equal(flags, brute_coverage_flags(huge, spacing))
    assert flags.sum() == 76


def test_overflowing_extent_keeps_the_cell_ladder():
    # a circle of radius 1.5e308: its extent overflows, so the cell grid is
    # laid on the halved points, and no probe or spacing query is measured
    # against the whole cloud
    V = FamilySpec((Pencil((1,), (Circle(1.5e308),)),))
    with mock.patch.object(duality, "_brute_nearest", autospec=True,
                           side_effect=duality._brute_nearest) as brute:
        cloud = functional_image(A1, V, ParamGrid(circle=700))
        ring = cloud.points
        nearest = _nearest_in_set(ring * 0.999, ring[::3])
    assert sum(len(call.args[0]) for call in brute.call_args_list) == 0
    with np.errstate(over="ignore"):
        assert np.isinf(np.ptp(ring.real)) and np.all(np.isfinite(ring))
        np.testing.assert_array_equal(nearest, brute_nearest_distance(ring * 0.999, ring[::3]))
        assert cloud.mesh_spacing == brute_median_spacing(ring)
        np.testing.assert_array_equal(cloud.boundary_flags,
                                      brute_coverage_flags(ring, cloud.mesh_spacing))


# -- the cell table: cells, block minima, representatives, the dedupe ------------


def _reference_cells(index, pts):
    """Cells of ``pts`` by ``nan_to_num`` and ``clip``, as before the fmin/fmax form."""
    if index.scale != 1.0:
        pts = pts * index.scale
    fx = np.nan_to_num((pts.real - index.x0) / index.cell, nan=-2.0)
    fy = np.nan_to_num((pts.imag - index.y0) / index.cell, nan=-2.0)
    return (np.clip(np.floor(fx), -2, index.nx + 1).astype(np.int64),
            np.clip(np.floor(fy), -2, index.ny + 1).astype(np.int64))


def _block_oracle(index, ref, queries, positive=False):
    """Minimum of ``|q - r|`` over the reference points within one cell of the
    query's, leaving out zeros with ``positive``."""
    qx, qy = _reference_cells(index, queries)
    rx, ry = _reference_cells(index, ref)
    inside = (np.abs(qx[:, None] - rx[None, :]) <= 1) & (np.abs(qy[:, None] - ry[None, :]) <= 1)
    d = np.where(inside, np.abs(queries[:, None] - ref[None, :]), np.inf)
    if positive:
        d[d == 0.0] = np.inf
    return d.min(axis=1, initial=np.inf)


edge_queries = st.sampled_from([
    complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, -math.inf),
    complex(-math.inf, 1.0), complex(1e308, -1e308), complex(-1.7e308, 2.0), 1e300 + 0j,
])


@st.composite
def indexed_clouds(draw):
    """A reference cloud, a cell side, and queries on cell edges, off the grid and special."""
    ref = draw(st.one_of(_cloud(cpoint, 60), clustered(), collinear(), polar_grids()))
    ref = ref[np.isfinite(ref)]
    assume(len(ref) >= 1)
    xs, ys, scale = duality._extent(ref)
    span = max(xs, ys)
    assume(0.0 < span < math.inf)
    cell = span / draw(st.sampled_from([0.5, 3.0, 17.0, 200.0]))
    x0, y0 = ref.real.min(), ref.imag.min()
    ks = np.asarray(draw(st.lists(st.integers(-3, 210), min_size=1, max_size=12)), dtype=float)
    edges = (x0 + ks * cell) + 1j * (y0 + ks[::-1] * cell)
    extra = np.asarray(draw(st.lists(edge_queries | cpoint, max_size=8)), dtype=complex)
    return ref, cell, np.concatenate([ref, edges, extra])


@SET
@given(indexed_clouds(), st.sampled_from([0, duality._DENSE_TABLE_FLOOR]))
@np.errstate(over="ignore")  # huge queries overflow their cell offsets to inf
def test_cells_block_minima_and_representatives_match_the_references(case, floor):
    ref, cell, queries = case
    with mock.patch.object(duality, "_DENSE_TABLE_FLOOR", floor):
        index = duality._CellIndex(ref, cell)
    assert (index.start is not None) == ((index.nx + 6) * (index.ny + 6) <= 8 * len(ref) + floor)
    for got, want in zip(index._cells(queries), _reference_cells(index, queries)):
        np.testing.assert_array_equal(got, want)
    for positive in (False, True):
        np.testing.assert_array_equal(index.block_min(queries, positive),
                                      _block_oracle(index, ref, queries, positive))
    nearest = brute_nearest_distance(queries, ref)
    for radius in (0.5 * cell, cell, 2.0 * math.sqrt(2.0) * cell):
        near = index.near_representative(queries, radius)
        assert np.all(nearest[near] <= radius)  # a True is a proof
        if radius >= 2.0 * math.sqrt(2.0) * cell:  # every block point is within the radius
            assert near[np.isfinite(_block_oracle(index, ref, queries))].all()


def test_far_query_cells_are_clipped_without_overflow_warnings():
    # 1e307 / 0.01 overflows the divide, -1.7e308 - 1e308 the subtraction
    queries = np.array([1e307 + 0j, -1.7e308 + 0j, complex(1.0, 1e307), 0.5 + 0.5j])
    def as_errors():
        return np.errstate(over="warn", divide="warn", invalid="warn")

    for ref in (np.array([0j, 1 + 1j]), np.array([1e308 + 0j, 1e308 + 1j])):
        index = duality._CellIndex(ref, 0.01)
        with warnings.catch_warnings(), as_errors():
            warnings.simplefilter("error")
            cells = index._cells(queries)
            index.block_min(queries)
        with np.errstate(over="ignore"):
            want = _reference_cells(index, queries)
        for got, w in zip(cells, want):
            np.testing.assert_array_equal(got, w)
    # the whole ladder, on cells of side about 0.01, ends in the all-pairs pass
    ref, far = np.arange(5) * 0.01 + 0j, np.array([1e307 + 0j, -1e307j])
    with warnings.catch_warnings(), as_errors():
        warnings.simplefilter("error")
        got = _nearest_in_set(far, ref)
    np.testing.assert_array_equal(got, brute_nearest_distance(far, ref))


@st.composite
def large_value_sets(draw):
    """At least 4096 finite values: spread, conjugate-symmetric, duplicate-heavy,
    tied in their real parts, or with signed zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spread", "conjugate", "duplicates", "tied", "zeros"]))
    n = draw(st.integers(4096, 6000))
    grain = draw(st.sampled_from([1e-3, 0.25, 1.0]))  # coarse grains tie real parts
    v = np.round(rng.normal(size=n) / grain) * grain + 1j * rng.normal(size=n)
    if kind == "conjugate":
        v = np.concatenate([v[: n // 2], np.conj(v[: n // 2]), v[:: 97].real + 0j])
    elif kind == "duplicates":
        v = v[rng.integers(0, draw(st.integers(1, 300)), size=n)]
    elif kind == "tied":
        v = rng.integers(0, draw(st.integers(1, 40)), size=n) + 1j * v.imag
    elif kind == "zeros":
        zeros = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                          complex(-0.0, 1.0), complex(0.0, -1.0)])
        v[rng.random(n) < 0.3] = 0
        v = np.concatenate([v, zeros[rng.integers(0, len(zeros), size=n // 3)]])
    return v[rng.permutation(len(v))]


@SET
@given(large_value_sets())
def test_distinct_of_large_value_sets_matches_unique(values):
    want = np.unique(values)  # equal up to the sign of zero
    got = duality._distinct(values)
    np.testing.assert_array_equal(got, want)
    got, inverse = duality._distinct(values, return_inverse=True)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got[inverse], values)
    # conjugate-symmetric sets take the complex sort in _distinct; the
    # lexicographic order must hold on them as well
    ordered = values[duality._lexicographic_order(values)]
    np.testing.assert_array_equal(ordered, np.sort(values))


def test_median_spacing_of_the_largest_border_lattice_measures_few_pairs():
    # the shape of the largest benchmark cloud (52 pencil members on a 577-point
    # mesh); a ladder that starts at about two points per occupied cell and
    # grows fourfold measured 81010 pairs here, one that starts at about one
    # point and doubles measures 50330
    points = _rotational_lattice(52, 9, 64, 1)
    pairs = []
    block_min = duality._CellIndex.block_min

    def counting(index, queries, positive=False):
        finite = index.ref[np.isfinite(index.ref)]
        qx, qy = index._cells(queries)
        rx, ry = index._cells(finite)
        pairs.append(sum(int(np.count_nonzero((np.abs(qx[i : i + 512, None] - rx) <= 1)
                                              & (np.abs(qy[i : i + 512, None] - ry) <= 1)))
                         for i in range(0, len(queries), 512)))
        return block_min(index, queries, positive)

    with mock.patch.object(duality._CellIndex, "block_min", counting):
        spacing = _median_spacing(points)
    assert spacing == brute_median_spacing(points)
    assert sum(pairs) <= 56000


# -- C1's measures: the nearest pass and the probe at three spacings ------------


def _bare_cloud(points, spacing):
    n = len(points)
    return RegionCloud(points=points, errors=np.zeros(n), labels=("",) * n,
                       eval_points=np.ones(n, dtype=complex),
                       boundary_flags=np.zeros(n, dtype=bool), mesh_spacing=spacing,
                       route="direct")


c1_clouds = st.one_of(
    with_specials(), duplicate_heavy(), collinear(), _cloud(cpoint, 1),
    st.tuples(cpoint | special, st.integers(1, 30)).map(
        lambda t: np.full(t[1], t[0], dtype=complex)),  # all points equal
    st.lists(special, min_size=1, max_size=4).map(lambda zs: np.asarray(zs, dtype=complex)),
    st.lists(st.sampled_from([complex(math.inf, math.nan), complex(math.nan, -math.inf),
                              complex(-math.inf, math.nan), complex(math.nan, 1.0), 1.0 + 0j]),
             min_size=1, max_size=5).map(lambda zs: np.asarray(zs, dtype=complex)),
)


@SET
@given(c1_clouds, st.lists(cpoint, max_size=25), st.lists(cpoint, max_size=25),
       st.sampled_from([1e-3, 0.05, 0.3, 1.0, None]), budgets)
def test_c1_measures_match_the_per_candidate_scans(points, verified, falsified, spacing, budget):
    """C1's batched distances and deep-interior flags against one scan of the
    cloud per candidate and per probe, as C1 measured before."""
    finite = points[np.isfinite(points)]
    # candidates on cloud points and half a spacing off them as well
    spacing = _median_spacing(points) if spacing is None else spacing
    falsified = falsified + list(finite[:8]) + list(finite[:8] + 0.5 * spacing)
    verified = verified + list(finite[:8])
    cloud = _bare_cloud(points, spacing)
    with mock.patch.object(duality, "_PAIR_BUDGET", budget):
        dist, deep = duality._preimage_measures(cloud, verified, falsified)
    want = np.array([cloud_nearest_distance(cloud, c) for c in verified], dtype=float)
    np.testing.assert_array_equal(dist, want)  # exact; NaN where the scan reads NaN
    assert [bool(d) for d in deep] == [deep_interior(c, cloud, 3.0 * spacing) for c in falsified]


@SET
@given(c1_clouds, clouds)
def test_nearest_matches_brute_force_on_non_finite_references(ref, queries):
    # every NaN-holding reference value is kept: inf + nan j is inf away, 1 + nan j NaN
    np.testing.assert_array_equal(_nearest_in_set(queries, ref),
                                  brute_nearest_distance(queries, ref))


@pytest.mark.parametrize("family", [pencil_family(), counterexample_family(),
                                    pencil_family(2, 0.8),
                                    FamilySpec((Pencil((1,), (Circle(0.7),)),))],
                         ids=["pencil", "counterexample", "z2-pencil", "circled"])
def test_c1_measures_on_the_suite_clouds(family):
    """On C1's own clouds, over a 61 x 61 lattice of candidates on [-2, 2]^2."""
    cloud = functional_image(A1, family, ParamGrid(disk_radial=12, disk_angular=64),
                             boundary=False)
    xs = np.linspace(-2.0, 2.0, 61)
    lattice = [complex(re, im) for re in xs for im in xs]
    dist, deep = duality._preimage_measures(cloud, lattice, lattice)
    want = np.array([cloud_nearest_distance(cloud, c) for c in lattice])
    assert dist.tobytes() == want.tobytes()
    tolr = 3.0 * cloud.mesh_spacing
    assert [bool(d) for d in deep] == [deep_interior(c, cloud, tolr) for c in lattice]


def test_infinite_points_measure_without_warnings():
    # inf - inf is NaN: the distance keeps it, and numpy's invalid warning is not raised
    inf = math.inf
    queries = np.array([complex(inf, 2.0), complex(inf, inf), 0.5 + 0j])
    ref = np.array([complex(inf, 0.0), 1.0 + 0j])
    cloud = _bare_cloud(ref, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _nearest_in_set(queries, ref)
        brute = duality._brute_nearest(queries, ref)
        nearest = [cloud.nearest_distance(q) for q in queries]
    with np.errstate(invalid="ignore"):
        want = brute_nearest_distance(queries, ref)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(brute, want)
    np.testing.assert_array_equal(nearest, want)
    assert np.isnan(want[0]) and want[1] == inf and want[2] == 0.5  # |nan + inf j| is inf
