"""Batched pencil evaluation of both image routes against the per-member loops: bitwise equality."""

import contextlib
import gc
import json
import math
import pickle
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, reject, settings, strategies as st

from convdual import cli, duality, family
from convdual.duality import Functional, RegionCloud, functional_image, in_dual
from convdual.family import (
    Circle,
    Disk,
    FamilySpec,
    Fixed,
    ParamGrid,
    Pencil,
    Rational,
    Segment,
    border_elements,
    complete_hull,
    counterexample_family,
    leading_rows,
    sample,
)
from convdual.series import (
    TruncSeries,
    convolve,
    evaluate_many,
    exact_product,
    from_rational,
)

from convdual.specfile import dump_family, load_family, parse_series

from oracles import brute_mesh_spacing, per_member_border_image, per_member_dual, per_member_image
from oracles import sample as reference_sample

SET = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])

# signed zeros and simple values make exact ties and zero products likely
coord = st.sampled_from([0.0, -0.0, 0.5, -1.0]) | st.floats(
    min_value=-1.2, max_value=1.2, allow_nan=False, allow_infinity=False
)
cpoint = st.builds(complex, coord, coord)
radius = st.sampled_from([0.0, 0.3, 1.0]) | st.floats(min_value=0.0, max_value=1.2)
domain = st.one_of(
    st.builds(Disk, radius),
    st.builds(Circle, radius),
    st.builds(Segment, cpoint, cpoint),
)
pole = st.builds(complex, st.floats(-0.6, 0.6), st.floats(-0.6, 0.6))


@st.composite
def pencils(draw):
    exps = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    return Pencil(tuple(exps), tuple(draw(domain) for _ in exps))


exact_kernel = st.lists(cpoint, min_size=1, max_size=9).map(TruncSeries.polynomial)
rat_kernel = st.builds(from_rational, cpoint, pole, st.integers(0, 8))
kernels = st.one_of(exact_kernel, rat_kernel)

other_generators = st.one_of(
    st.builds(Rational, st.builds(Disk, radius), st.builds(Disk, st.floats(0.0, 0.6)),
              st.integers(0, 6)),
    st.builds(Rational, st.builds(Circle, radius), st.builds(Circle, st.floats(0.0, 0.6)),
              st.integers(0, 6)),
    st.builds(Fixed, st.builds(from_rational, cpoint, pole, st.integers(0, 6))),
    st.builds(lambda c: Fixed(TruncSeries.polynomial([1.0] + c)), st.lists(cpoint, max_size=5)),
)

grids = st.builds(
    ParamGrid,
    disk_radial=st.integers(1, 2),
    disk_angular=st.integers(1, 4),
    circle=st.integers(1, 6),
    segment=st.integers(1, 4),
)


def _member_count(V: FamilySpec, grid: ParamGrid) -> int:
    per_dilation = len(Disk(1.0).points(grid)) if V.dilation_slot else 1
    total = 0
    for gen in V.generators:
        total += math.prod(len(ps) for ps in gen.param_lists(grid)) * per_dilation
    return total


def _assert_bitwise(got, want, field):
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field
    elif isinstance(want, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), field
    else:
        assert got == want, field


def _assert_matches_oracle(lam, V, grid, **kw):
    try:
        expected = per_member_image(lam, V, grid, **kw)
    except ValueError:
        with pytest.raises(ValueError):
            functional_image(lam, V, grid, **kw)
        return
    cloud = functional_image(lam, V, grid, **kw)
    for field, want in expected.items():
        _assert_bitwise(getattr(cloud, field), want, field)


@SET
@given(
    st.lists(pencils(), min_size=1, max_size=2),
    st.lists(other_generators, max_size=2),
    st.booleans(),
    st.booleans(),
    kernels,
    grids,
    st.sampled_from([None, 0.05]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_direct_route_bitwise_equal_to_per_member_loop(
    pens, others, mix, dilation_slot, kernel, grid, spacing, boundary, rnd
):
    gens = list(pens) + (list(others) if mix else [])
    rnd.shuffle(gens)
    V = FamilySpec(tuple(gens), dilation_slot=dilation_slot)
    assume(_member_count(V, grid) <= 600)
    _assert_matches_oracle(Functional(kernel), V, grid, mesh_spacing=spacing, boundary=boundary)


# every route the generator decision can take, pinned once
@pytest.mark.parametrize(
    "kernel",
    [
        TruncSeries.polynomial([0.5, -1.0]),  # exact, order below the top exponent
        TruncSeries.polynomial([1.0, 2.0, -0.0, 0.25, 1j]),  # exact, above
        from_rational(0.8, -0.4, order=1),  # non-exact, below: member-by-member
        from_rational(0.8, -0.4, order=3),  # non-exact, at the top exponent
        from_rational(-0.3j, 0.5),  # non-exact, far above
    ],
)
@pytest.mark.parametrize("dilation_slot", [False, True])
def test_pencil_kernel_routes_bitwise_equal(kernel, dilation_slot):
    V = FamilySpec(
        (
            Pencil((1, 3), (Disk(0.7), Segment(-1.0 + 0.0j, 0.5j))),
            Rational(Circle(0.9), Circle(0.4), order=4),
            Pencil((2,), (Circle(1.0),)),
            Fixed(from_rational(0.2, 0.1, order=5)),
        ),
        dilation_slot=dilation_slot,
    )
    _assert_matches_oracle(Functional(kernel), V, ParamGrid(2, 3, 5, 3))


def test_overflowing_horner_sum_matches_per_member_loop():
    # finite products whose running sum overflows: inf * 0 in Horner's
    # multiplication by z = 1 turns the imaginary part into nan
    big = Segment(1e308 + 0.0j, 1e308 + 0.0j)
    V = FamilySpec((Pencil((1, 2), (big, big)),))
    lam = Functional(TruncSeries.polynomial([1.0, 1.0, 1.0]))
    kw = dict(mesh_spacing=1.0, boundary=False)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = per_member_image(lam, V, ParamGrid(segment=1), **kw)
        cloud = functional_image(lam, V, ParamGrid(segment=1), **kw)
    assert np.isinf(expected["points"].real).all() and np.isnan(expected["points"].imag).all()
    for field, want in expected.items():
        _assert_bitwise(getattr(cloud, field), want, field)


def test_pencil_members_skip_the_series_route():
    lam = Functional(TruncSeries.polynomial([0.0, 1.0, 0.5]))
    grid = ParamGrid(3, 8)
    for V, dilations in [(counterexample_family(), 1),
                         (complete_hull(counterexample_family()), 1 + 3 * 8)]:
        with mock.patch.object(duality, "apply", side_effect=AssertionError("apply called")), \
             mock.patch.object(duality, "convolve", side_effect=AssertionError("convolved")), \
             mock.patch.object(family, "dilate", side_effect=AssertionError("dilated")), \
             mock.patch.object(Pencil, "instantiate", side_effect=AssertionError("built")):
            cloud = functional_image(lam, V, grid)
        assert len(cloud.points) == 2 * (1 + 3 * 8) * dilations
        assert not np.any(cloud.errors)


def test_members_left_to_the_series_route_cost_the_table_no_width():
    # no product of these rational members with the kernel is exact, so
    # their rows are never read: the table stays one column wide, under a
    # limit that 25 rows of 1025 coefficients would exceed
    V = FamilySpec((Rational(Disk(0.5), Disk(0.5), order=1024),))
    g = from_rational(0.3, 0.2, order=1024)
    grid = ParamGrid(1, 4)
    shapes = []

    def build(*args, **kwargs):
        table = leading_rows(*args, **kwargs)
        shapes.append(table.coeffs.shape)
        return table

    with mock.patch.object(duality, "leading_rows", build), \
         mock.patch.object(family, "_MAX_TABLE_ENTRIES", 100):
        _assert_matches_oracle(Functional(g), V, grid)
        cert = in_dual(g, V, grid)
    # the image's table, the same rows listed again when its labels are read, in_dual's table
    assert shapes == [(25, 1), (25, 1), (25, 1)]
    assert json.dumps(cert.to_dict(), sort_keys=True) == json.dumps(
        per_member_dual(g, V, grid).to_dict(), sort_keys=True)


def test_member_rows_follow_sample_order():
    gen = Pencil((2, 1, 4), (Disk(0.5), Circle(1.0), Segment(-1.0, 1j)))
    grid = ParamGrid(2, 3, 4, 2)
    V = FamilySpec((Fixed(TruncSeries.polynomial([1.0])),) * 3 + (gen,))
    table = leading_rows(V, grid, max(gen.exponents) + 1)
    rows = table.take(table.gen_index == 3)
    members = reference_sample(V, grid)[3:]
    assert len(rows.coeffs) == len(members) == 7 * 4 * 3
    for i, (f, tag) in enumerate(members):
        assert rows.params[i].tobytes() == np.asarray(tag.params, dtype=complex).tobytes()
        assert rows.coeffs[i].tobytes() == f.coeffs.tobytes()
        assert table.tag(V, 3 + i).label() == tag.label()


def test_convolve_rows_rejects_non_exact_products():
    assert exact_product(from_rational(0.5, 0.2, order=2), 2)
    assert not exact_product(from_rational(0.5, 0.2, order=1), 2)


@pytest.mark.parametrize(
    "V, grid",
    [
        # one pencil over the limit
        (FamilySpec((Pencil((1,), (Disk(1.0),)),)), ParamGrid(2, 8, max_members=12)),
        # each pencil fits, the family does not
        (counterexample_family(), ParamGrid(2, 4, max_members=12)),
        # the pencil crosses the limit after a member-by-member generator
        (FamilySpec((Rational(Circle(0.5), Circle(0.5)), Pencil((1,), (Disk(1.0),)))),
         ParamGrid(2, 4, circle=2, max_members=12)),
    ],
)
def test_grid_over_max_members_still_raises(V, grid):
    with pytest.raises(ValueError) as expected:
        sample(V, grid)
    with pytest.raises(ValueError) as got:
        functional_image(Functional(TruncSeries.polynomial([0.0, 1.0])), V, grid)
    assert str(got.value) == str(expected.value)
    assert "more than 12 members" in str(got.value)


def test_non_finite_points_are_never_boundary_candidates():
    # the overflowing pencil above plus a finite disk pencil, with spacing and flags on
    big = Segment(1e308 + 0.0j, 1e308 + 0.0j)
    V = FamilySpec((Pencil((1, 2), (big, big)), Pencil((1,), (Disk(1.0),))))
    lam = Functional(TruncSeries.polynomial([1.0, 1.0, 1.0]))
    grid = ParamGrid(4, 24, segment=2)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = per_member_image(lam, V, grid)
        cloud = functional_image(lam, V, grid)
    finite = np.isfinite(cloud.points)
    assert 0 < finite.sum() < len(finite)
    assert not cloud.boundary_flags[~finite].any() and cloud.boundary_flags[finite].any()
    assert cloud.mesh_spacing == functional_image(
        lam, FamilySpec(V.generators[1:]), grid, boundary=False).mesh_spacing
    for field, want in expected.items():
        _assert_bitwise(getattr(cloud, field), want, field)


# -- labels are formatted on first read ----------------------------------------------


LABEL_FAMILY = FamilySpec(
    counterexample_family().generators + (Rational(Circle(0.5), Circle(0.3), 4),)
)
LABEL_LAM = Functional(TruncSeries.polynomial([0.0, 1.0, 0.5]))


def test_cloud_labels_are_formatted_only_when_read():
    grid = ParamGrid(3, 8, circle=5)
    with mock.patch.object(family, "_cfmt", autospec=True, side_effect=family._cfmt) as fmt:
        direct = functional_image(LABEL_LAM, LABEL_FAMILY, grid)
        border = functional_image(LABEL_LAM, LABEL_FAMILY, grid, via_border=True,
                                  mesh_depth=3, mesh_angles=8)
        assert fmt.call_count == 0
        labels = direct.labels
        assert fmt.call_count > 0
    assert isinstance(labels, tuple) and direct.labels is labels
    fresh = functional_image(LABEL_LAM, LABEL_FAMILY, grid)
    copied = pickle.loads(pickle.dumps(fresh))  # formats the labels it carries
    assert copied.labels == labels and copied.points.tobytes() == fresh.points.tobytes()
    assert labels == per_member_image(LABEL_LAM, LABEL_FAMILY, grid)["labels"]
    members = sample(border_elements(LABEL_FAMILY), grid)
    per_member = len(border.points) // len(members)
    assert border.labels == tuple(tag.label() for _, tag in members for _ in range(per_member))


def _watched_tables():
    """A patch of the member-table builder, and the weak references to the
    coefficient and parameter matrices of every table it builds."""
    made = []

    def build(*args, **kwargs):
        table = leading_rows(*args, **kwargs)
        made.append((weakref.ref(table.coeffs), weakref.ref(table.params)))
        return table

    return mock.patch.object(duality, "leading_rows", build), made


def test_unread_labels_keep_no_member_arrays_alive():
    grid = ParamGrid(3, 8, circle=5)
    watch, rows_made = _watched_tables()
    with watch:
        cloud = functional_image(LABEL_LAM, LABEL_FAMILY, grid)
    gc.collect()
    assert rows_made and all(c() is None and p() is None for c, p in rows_made)
    assert cloud.labels == per_member_image(LABEL_LAM, LABEL_FAMILY, grid)["labels"]


def test_csv_of_api_cli_and_eager_clouds_are_byte_identical(tmp_path, capsys):
    spec = tmp_path / "family.json"
    dump_family(LABEL_FAMILY, spec)
    kernel = "z+0.5z^2"
    assert cli.main(["image", "--family", str(spec), "--kernel", kernel, "--grid", "3x5",
                     "--format", "csv", "--out", str(tmp_path / "cli.csv")]) == 0
    capsys.readouterr()
    lam = Functional(parse_series(kernel, order=64))
    grid = ParamGrid(disk_radial=3, disk_angular=5, circle=5, segment=3)
    functional_image(lam, load_family(spec), grid).to_csv(tmp_path / "api.csv")
    RegionCloud(**per_member_image(lam, LABEL_FAMILY, grid)).to_csv(tmp_path / "eager.csv")
    eager = (tmp_path / "eager.csv").read_bytes()
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "api.csv").read_bytes() == eager
    assert eager.count(b"\n") == 1 + 2 * (1 + 3 * 5) + 5 * 5


def test_region_cloud_still_checks_label_count():
    one = dict(points=np.asarray([0j]), errors=np.asarray([0.0]), eval_points=np.asarray([1 + 0j]),
               boundary_flags=np.asarray([False]), mesh_spacing=0.1, route="direct")
    assert RegionCloud(labels=("m",), **one).labels == ("m",)
    for labels in [(), ("m", "n")]:
        with pytest.raises(ValueError, match="equal length"):
            RegionCloud(labels=labels, **one)
    with pytest.raises(TypeError):
        RegionCloud(**one)


# -- border route: pencil generators in one row pass over the mesh -------------------

border_domain = st.one_of(st.builds(Disk, radius), st.builds(Circle, radius))


@st.composite
def border_pencils(draw):
    exps = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True))
    return Pencil(tuple(exps), tuple(draw(border_domain) for _ in exps))


border_others = st.one_of(
    st.builds(Rational, st.builds(Circle, radius), st.builds(Circle, st.floats(0.0, 0.6)),
              st.integers(0, 6)),
    st.builds(Fixed, st.builds(from_rational, cpoint, pole, st.integers(0, 6))),
    st.builds(lambda c: Fixed(TruncSeries([1.0] + c)), st.lists(cpoint, max_size=3)),  # no tail
)

border_grids = st.builds(
    ParamGrid, disk_radial=st.integers(1, 2), disk_angular=st.integers(1, 3),
    circle=st.integers(1, 5),
)


def _assert_matches_border_oracle(lam, V, grid, **kw):
    try:
        expected = per_member_border_image(lam, V, grid, **kw)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            functional_image(lam, V, grid, via_border=True, **kw)
        assert str(got.value) == str(err)
        return
    cloud = functional_image(lam, V, grid, via_border=True, **kw)
    for field, want in expected.items():
        _assert_bitwise(getattr(cloud, field), want, field)


@SET
@given(
    st.lists(border_pencils(), min_size=1, max_size=2),
    st.lists(border_others, max_size=1),
    kernels,
    border_grids,
    st.integers(1, 4),
    st.integers(1, 9),
    st.sampled_from([None, 0.05]),
    st.randoms(use_true_random=False),
)
def test_border_route_bitwise_equal_to_per_member_loop(
    pens, others, kernel, grid, depth, angles, spacing, rnd
):
    gens = list(pens) + list(others)
    rnd.shuffle(gens)
    V = FamilySpec(tuple(gens))
    assume(_member_count(border_elements(V), grid) <= 40)
    _assert_matches_border_oracle(Functional(kernel), V, grid, mesh_depth=depth,
                                  mesh_angles=angles, mesh_spacing=spacing)


@pytest.mark.parametrize(
    "kernel",
    [
        TruncSeries.polynomial([0.5, -1.0]),  # exact, order below the top exponent
        TruncSeries.polynomial([1.0, 2.0, -0.0, 0.25, 1j]),  # exact, above
        from_rational(0.8, -0.4, order=1),  # non-exact, below: member-by-member
        from_rational(0.8, -0.4, order=3),  # non-exact, at the top exponent
        from_rational(-0.3j, 0.5),  # non-exact, far above
    ],
)
def test_border_kernel_routes_bitwise_equal(kernel):
    V = FamilySpec((
        Pencil((1, 3), (Disk(0.7), Circle(0.9))),
        Rational(Circle(0.9), Circle(0.4), order=4),
        Pencil((2,), (Disk(1.0),)),
        Fixed(from_rational(0.2, 0.1, order=5)),
    ))
    _assert_matches_border_oracle(Functional(kernel), V, ParamGrid(2, 3, 5), mesh_depth=3,
                                  mesh_angles=7)


def test_border_pencils_skip_the_series_route():
    V = counterexample_family()
    lam = Functional(from_rational(0.5, 0.2))
    with mock.patch.object(duality, "convolve", side_effect=AssertionError("convolved")), \
         mock.patch.object(Pencil, "instantiate", side_effect=AssertionError("built")):
        cloud = functional_image(lam, V, ParamGrid(circle=12), via_border=True, mesh_depth=4,
                                 mesh_angles=8)
    assert len(cloud.points) == 2 * 12 * (1 + 5 * 8)
    assert not np.any(cloud.errors)
    # the border route refuses dilation-slot families, so the hull of the
    # border members goes to the mesh evaluation directly
    V = complete_hull(border_elements(V))
    grid = ParamGrid(2, 4, circle=6)
    mesh = np.concatenate([[0j], 0.5 * np.exp(2j * np.pi * np.arange(8) / 8), [1 + 0j, -1j]])
    with mock.patch.object(duality, "convolve", side_effect=AssertionError("convolved")), \
         mock.patch.object(family, "dilate", side_effect=AssertionError("dilated")), \
         mock.patch.object(Pencil, "instantiate", side_effect=AssertionError("built")):
        values, bounds, labels = duality._image_rows(lam, V, grid, mesh, "border-route")
    members = sample(V, grid)
    assert values.shape == (len(members), len(mesh)) == (2 * 6 * (1 + 2 * 4), 11)
    assert not np.any(bounds)
    for row, (f, _) in zip(values, members):
        assert row.tobytes() == evaluate_many(convolve(f, lam.kernel), mesh)[0].tobytes()
    assert tuple(labels.make()) == tuple(tag.label() for _, tag in members for _ in mesh)


def test_border_rows_are_evaluated_in_bounded_blocks():
    # one row per block: every member's product is evaluated on its own
    V = counterexample_family()
    lam = Functional(TruncSeries.polynomial([0.0, 1.0, 0.5]))
    kw = dict(via_border=True, mesh_depth=3, mesh_angles=8, mesh_spacing=1.0)
    rows_at = duality.horner_rows
    with mock.patch.object(duality, "_PAIR_BUDGET", 8), \
         mock.patch.object(duality, "horner_rows", autospec=True,
                           side_effect=rows_at) as passes:
        cloud = functional_image(lam, V, ParamGrid(circle=6), **kw)
    assert {len(call.args[0]) for call in passes.call_args_list} == {1}
    assert passes.call_count == 12
    expected = per_member_border_image(lam, V, ParamGrid(circle=6), 3, 8, mesh_spacing=1.0)
    for field, want in expected.items():
        _assert_bitwise(getattr(cloud, field), want, field)


Z = TruncSeries.polynomial([0.0, 1.0])


@settings(SET, max_examples=40)
@given(
    st.lists(st.builds(lambda k, d: Pencil((k,), (d,)), st.sampled_from([1, 2]), border_domain),
             min_size=1, max_size=2),
    st.lists(border_others, max_size=1),
    kernels,
    st.integers(1, 4),
    st.integers(1, 8),
    st.sampled_from([1, 2]) | st.integers(1, 80),
    st.integers(0, 3),
)
# z maps the exponent-2 pencil's members to zero: a constant image, spacing 1.0
@example([Pencil((2,), (Disk(0.5),))], [], Z, 4, 8, 64, 1)
# images about 1e308 apart: the differences across the outer rings overflow
@example([Pencil((1,), (Circle(1.5e308),))], [], Z, 3, 2, 2, 3)
# a Horner sum past the float range: inf and nan images give no scale
@example([Pencil((1, 2), (Circle(1e308), Circle(1e308)))], [],
         TruncSeries.polynomial([1.0, 1.0, 1.0]), 2, 2, 3, 1)
# no member at all: the empty border
@example([Pencil((1,), (Disk(0.5),))], [], Z, 3, 2, 8, 0)
def test_border_spacing_is_the_median_scale_of_mesh_neighbours(
    pens, others, kernel, circle, depth, angles, keep
):
    V = FamilySpec(tuple(pens) + tuple(others))
    try:
        cloud = functional_image(Functional(kernel), V, ParamGrid(circle=circle), via_border=True,
                                 mesh_depth=depth, mesh_angles=angles)
    except ValueError:  # a product with an unusable tail bound, as the per-member loop raises
        reject()
    rows = cloud.points.reshape(-1, 1 + (depth + 1) * angles)
    _assert_bitwise(cloud.mesh_spacing, brute_mesh_spacing(rows, angles), "mesh_spacing")
    # the first members only, or none: each member is measured on its own mesh
    got = duality._mesh_spacing(rows[:keep], depth + 1, angles)
    _assert_bitwise(got, brute_mesh_spacing(rows[:keep], angles), "first members")


def test_border_spacing_of_a_constant_image_is_one():
    cloud = functional_image(Functional(Z), FamilySpec((Pencil((2,), (Disk(0.5),)),)),
                             ParamGrid(circle=4), via_border=True)
    assert not np.any(cloud.points) and cloud.mesh_spacing == 1.0
    assert duality._mesh_spacing(np.empty((0, 1 + 9 * 64), dtype=complex), 9, 64) == 1.0


def test_border_spacing_leaves_out_only_the_non_finite_distances():
    # a center and two rings of four, the outer one holding a nan image: its
    # finite neighbours keep their other distances (dropping them reads 2.0)
    row = np.array([1 - 4j, -4 - 4j, 4 - 4j, 2 - 1j, 2 - 4j,
                    4 - 1j, complex(math.nan, 0.0), 4 - 1j, 1 - 1j])
    assert duality._mesh_spacing(row[None], 2, 4) == brute_mesh_spacing([row], 4) == 2.5


def test_border_route_measures_no_nearest_points():
    names = ("_reference_set", "_distinct", "_grid_nearest")
    lam = Functional(from_rational(0.5, 0.2))
    with contextlib.ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(
            duality, name, autospec=True, side_effect=getattr(duality, name))) for name in names]
        functional_image(lam, counterexample_family(), ParamGrid(circle=12), via_border=True)
        assert [spy.call_count for spy in spies] == [0, 0, 0]
        # the direct route still measures through all three
        functional_image(lam, counterexample_family(), ParamGrid(4, 24))
        assert all(spy.call_count for spy in spies)


@pytest.mark.parametrize("first", [False, True])
def test_overflowing_border_product_raises_the_per_member_error(first):
    big = Pencil((1,), (Circle(1e200),))
    rational = Rational(Circle(0.5), Circle(0.3), order=4)
    V = FamilySpec((big, rational) if first else (rational, big))
    lam = Functional(TruncSeries.polynomial([1.0, 1e200]))
    with pytest.raises(ValueError) as expected, np.errstate(over="ignore"):
        per_member_border_image(lam, V, ParamGrid(circle=3), 2, 4)
    with pytest.raises(ValueError) as got, np.errstate(over="ignore"):
        functional_image(lam, V, ParamGrid(circle=3), via_border=True, mesh_depth=2,
                         mesh_angles=4)
    assert str(got.value) == str(expected.value) == "coefficients must be finite"


def test_border_grid_over_max_members_still_raises():
    V = FamilySpec((Rational(Circle(0.5), Circle(0.5)), Pencil((1, 2), (Disk(1.0), Disk(0.5)))))
    grid = ParamGrid(circle=3, max_members=20)
    with pytest.raises(ValueError) as expected:
        sample(border_elements(V), grid)
    with pytest.raises(ValueError) as got:
        functional_image(Functional(TruncSeries.polynomial([0.0, 1.0])), V, grid, via_border=True)
    assert str(got.value) == str(expected.value)
    assert "more than 20 members" in str(got.value)


def test_border_cloud_labels_are_formatted_only_when_read():
    grid = ParamGrid(3, 8, circle=5)
    kw = dict(via_border=True, mesh_depth=3, mesh_angles=8)
    with mock.patch.object(family, "_cfmt", autospec=True, side_effect=family._cfmt) as fmt:
        border = functional_image(LABEL_LAM, LABEL_FAMILY, grid, **kw)
        assert fmt.call_count == 0
        labels = border.labels
        assert fmt.call_count > 0
    assert isinstance(labels, tuple) and border.labels is labels
    assert labels == per_member_border_image(LABEL_LAM, LABEL_FAMILY, grid, 3, 8)["labels"]
    copied = pickle.loads(pickle.dumps(functional_image(LABEL_LAM, LABEL_FAMILY, grid, **kw)))
    assert copied.labels == labels


def test_unread_border_labels_keep_no_member_arrays_alive():
    grid = ParamGrid(3, 8, circle=5)
    watch, rows_made = _watched_tables()
    with watch:
        cloud = functional_image(LABEL_LAM, LABEL_FAMILY, grid, via_border=True, mesh_depth=3,
                                 mesh_angles=8)
    gc.collect()
    assert len(rows_made) == 1 and all(c() is None and p() is None for c, p in rows_made)
    assert cloud.labels == per_member_border_image(LABEL_LAM, LABEL_FAMILY, grid, 3, 8)["labels"]
