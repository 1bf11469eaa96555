"""Batched pencil evaluation of the direct image route against the per-member loop: bitwise equality."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from convdual import duality
from convdual.duality import Functional, functional_image
from convdual.family import (
    Circle,
    Disk,
    FamilySpec,
    Fixed,
    ParamGrid,
    Pencil,
    Rational,
    Segment,
    counterexample_family,
    sample,
)
from convdual.series import (
    TruncSeries,
    convolve_rows_at_one,
    exact_product,
    from_rational,
)

from oracles import per_member_image

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
    V = counterexample_family()
    lam = Functional(TruncSeries.polynomial([0.0, 1.0, 0.5]))
    grid = ParamGrid(3, 8)
    with mock.patch.object(duality, "apply", side_effect=AssertionError("apply called")), \
         mock.patch.object(duality, "sample_generator", side_effect=AssertionError("sampled")):
        cloud = functional_image(lam, V, grid)
    assert len(cloud.points) == 2 * (1 + 3 * 8)
    assert not np.any(cloud.errors)


def test_member_rows_follow_sample_order():
    gen = Pencil((2, 1, 4), (Disk(0.5), Circle(1.0), Segment(-1.0, 1j)))
    grid = ParamGrid(2, 3, 4, 2)
    rows = gen.member_rows(grid, gen_index=3)
    members = sample(FamilySpec((Fixed(TruncSeries.polynomial([1.0])),) * 3 + (gen,)), grid)[3:]
    assert len(rows.labels) == len(members) == 7 * 4 * 3
    for i, (f, tag) in enumerate(members):
        assert rows.params[i].tobytes() == np.asarray(tag.params, dtype=complex).tobytes()
        assert rows.coeffs[i].tobytes() == f.coeffs.tobytes()
        assert rows.labels[i] == tag.label()


def test_convolve_rows_rejects_non_exact_products():
    rows = np.array([[1.0, 0.5, 0.25]], dtype=complex)
    assert exact_product(from_rational(0.5, 0.2, order=2), 2)
    assert not exact_product(from_rational(0.5, 0.2, order=1), 2)
    with pytest.raises(ValueError, match="not exact"):
        convolve_rows_at_one(rows, from_rational(0.5, 0.2, order=1))
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        convolve_rows_at_one(np.array([[1.0, 1e200]]), TruncSeries.polynomial([1.0, 1e200]))


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
