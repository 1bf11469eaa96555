"""Cell-grid nearest-point geometry against all-pairs oracles: exact equality."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convdual import duality
from convdual.duality import (
    Functional,
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

from oracles import brute_coverage_flags, brute_median_spacing, brute_nearest_distance

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
