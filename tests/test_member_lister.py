"""One member lister: ``sample`` against the itertools lister it replaced,
and the work of the sweeps that read ``leading_rows``.

``oracles.sample`` is the former ``sample``/``sample_generator`` pair,
copied verbatim: ``itertools.product`` over each generator's parameter
lists, one series per member.  The library's ``sample`` must give the same
members (coefficient and tail bytes), the same tags, and the same
exception, type and text, on every family.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from convdual import family
from convdual.duality import Functional, VerifierConfig, _kernel_pool, functional_image
from convdual.family import (
    Circle,
    Disk,
    FamilySpec,
    Fixed,
    ParamGrid,
    Pencil,
    Rational,
    Segment,
    default_kernel_family,
    leading_rows,
    sample,
    sigma_search,
)
from convdual.series import Tail, TruncSeries, convolve

from oracles import sample as reference_sample

SET = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# 1.5e308 (1 + i) times a unit root overflows: dilating such a member raises
coord = st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.5e308]) | st.floats(-2.0, 2.0)
cpoint = st.builds(complex, coord, coord)
radius = st.sampled_from([0.0, 0.5, 1.0, 1.5e308, float("inf")]) | st.floats(0.0, 2.0)
pole_radius = st.sampled_from([0.0, 5e-324, 0.9]) | st.floats(0.0, 0.95)
real_or_complex = st.floats(-2.0, 2.0) | cpoint
domains = st.one_of(
    st.builds(Disk, radius), st.builds(Circle, radius), st.builds(Segment, real_or_complex, real_or_complex)
)
pole_domains = st.one_of(
    st.builds(Disk, pole_radius),
    st.builds(Circle, pole_radius),
    st.builds(Segment, st.builds(complex, st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)), st.just(0.5j)),
)


@st.composite
def pencils(draw):
    exps = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    return Pencil(tuple(exps), tuple(draw(domains) for _ in exps))


coeff_lists = st.lists(cpoint, max_size=4).map(lambda c: [1.0] + c)
fixeds = st.one_of(
    coeff_lists.map(lambda c: Fixed(TruncSeries.polynomial(c))),
    st.builds(lambda c, rho: Fixed(TruncSeries(c, Tail(1.0, rho))), coeff_lists, st.floats(0.5, 3.0)),
    coeff_lists.map(lambda c: Fixed(TruncSeries(c, None))),
)
rationals = st.builds(Rational, domains, pole_domains, st.integers(0, 6))
generators = st.one_of(pencils(), rationals, fixeds)
families = st.builds(FamilySpec, st.lists(generators, min_size=1, max_size=3).map(tuple), st.booleans())
grids = st.builds(
    ParamGrid,
    disk_radial=st.integers(1, 3),
    disk_angular=st.integers(1, 4),
    circle=st.integers(1, 5),
    segment=st.integers(1, 4),
)


def _members_or_error(build):
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # both listers overflow alike
            return build(), None
    except (ValueError, OverflowError) as exc:  # abs() of a complex past the float range overflows
        return None, (type(exc), str(exc))


def _series_bytes(f: TruncSeries):
    return f.coeffs.tobytes(), None if f.tail is None else np.array(f.tail).tobytes()


def _tag_bytes(tag):
    dil = None if tag.dilation is None else np.array(tag.dilation, dtype=complex).tobytes()
    return tag.gen_index, tag.kind, np.array(tag.params, dtype=complex).tobytes(), dil, tag.label()


@SET
@given(families, grids, st.sampled_from([None, 0, 1]))
@example(  # the first generator's dilations overflow before the second passes max_members
    FamilySpec((Fixed(TruncSeries.polynomial([1.0, 1.5e308 + 1.5e308j])),
                Pencil((1,), (Disk(1.0),))), dilation_slot=True),
    ParamGrid(1, 8), 1,
)
@example(  # a disk of infinite radius has non-finite points
    FamilySpec((Pencil((2,), (Disk(float("inf")),)),)), ParamGrid(1, 2), None,
)
@example(  # |x - y| past the float range: both listers raise abs()'s OverflowError
    FamilySpec((Rational(Segment(0.0, 1.5e308 + 1.5e308j), Disk(5e-324), 0),)), ParamGrid(1, 1, 1, 1), None,
)
@example(  # real segment endpoints give real parameters
    FamilySpec((Pencil((1, 3), (Segment(-0.0, 1.0), Circle(0.5))), Rational(Disk(0.5), Circle(5e-324)))),
    ParamGrid(2, 3, 2, 2), 0,
)
def test_sample_is_the_reference_lister(V, grid, short):
    """``short`` sets ``max_members`` to the member count minus ``short``."""
    if short is not None:
        count = sum(family._member_count(V, gen, grid) for gen in V.generators)
        grid = replace(grid, max_members=count - short)
    want, want_error = _members_or_error(lambda: reference_sample(V, grid))
    got, got_error = _members_or_error(lambda: sample(V, grid))
    assert got_error == want_error
    if want is None:
        return
    assert len(got) == len(want)
    for (f, tag), (f0, tag0) in zip(got, want):
        assert _series_bytes(f) == _series_bytes(f0)
        assert _tag_bytes(tag) == _tag_bytes(tag0)  # a parameter may be NaN: compared as bytes
    with np.errstate(over="ignore", invalid="ignore"):
        assert leading_rows(V, grid, 1).labels(V) == [tag.label() for _, tag in want]


def test_table_labels_tell_signed_zeros_apart():
    # -0.0 == 0.0, but the two format differently; so do parameterless generators
    V = FamilySpec((Pencil((1,), (Circle(0.0),)), Fixed(TruncSeries.polynomial([1.0]))),
                   dilation_slot=True)
    grid = ParamGrid(1, 2, circle=2)
    want = [tag.label() for _, tag in reference_sample(V, grid)]
    assert "g0:pencil(-0+0j)@P[0+0j]" in want and "g0:pencil(0+0j)@P[0+0j]" in want
    assert leading_rows(V, grid, 1).labels(V) == want
    fixed_only = FamilySpec((Fixed(TruncSeries.polynomial([1.0])),) * 2)
    assert leading_rows(fixed_only, grid, 1).labels(fixed_only) == ["g0:fixed()", "g1:fixed()"]


def test_table_tags_keep_non_finite_parameters():
    # an infinite disk radius gives x = inf + nan j, which the order-0 expansion never reads
    V = FamilySpec((Rational(Disk(float("inf")), Disk(0.0), order=0),))
    grid = ParamGrid(1, 2)
    want = reference_sample(V, grid)
    rows = leading_rows(V, grid, 1)
    assert [_tag_bytes(rows.tag(V, i)) for i in range(len(want))] == [_tag_bytes(t) for _, t in want]
    cloud = functional_image(Functional(TruncSeries.polynomial([0.0, 1.0])), V, grid)
    assert cloud.labels == tuple(tag.label() for _, tag in want)


KERNEL_GRID = ParamGrid(disk_radial=4, disk_angular=6, circle=12, segment=6)  # the suites' default


def test_kernel_pool_builds_only_the_kept_kernels():
    kernels = default_kernel_family()
    spies = [mock.patch.object(cls, "instantiate", autospec=True, side_effect=cls.instantiate)
             for cls in (Pencil, Rational, Fixed)]
    with spies[0] as pencil, spies[1] as rational, spies[2] as fixed:
        pool = _kernel_pool(VerifierConfig())
    built = pencil.call_count + rational.call_count + fixed.call_count
    assert len(pool) == built == 36 < len(leading_rows(kernels, KERNEL_GRID, 1).gen_index) == 1350
    # the per-block stride cap, recomputed over the reference sample
    members = reference_sample(kernels, KERNEL_GRID)
    blocks = {}
    for f, tag in members:
        blocks.setdefault(tag.gen_index, []).append((f, tag))
    want = []
    for gi in sorted(blocks):
        block = blocks[gi]
        step = (len(block) - 1) / 5
        want.extend(block[min(int(round(i * step)), len(block) - 1)] for i in range(6))
    assert [tag for _, tag in pool] == [tag for _, tag in want]
    assert [_series_bytes(f) for f, _ in pool] == [_series_bytes(f) for f, _ in want]


def test_small_kernel_family_is_kept_whole():
    kernels = FamilySpec((Pencil((1,), (Circle(0.5),)), Fixed(TruncSeries.polynomial([1.0, 0.2]))))
    cfg = VerifierConfig(kernels=kernels, kernel_grid=ParamGrid(circle=5), max_kernels=6)
    pool = _kernel_pool(cfg)
    want = reference_sample(kernels, ParamGrid(circle=5))
    assert [tag for _, tag in pool] == [tag for _, tag in want]
    assert [_series_bytes(f) for f, _ in pool] == [_series_bytes(f) for f, _ in want]


def test_sigma_search_convolves_each_member_once():
    P = TruncSeries.polynomial
    W = FamilySpec((Fixed(P([1.0, 0.2])), Rational(Disk(0.5), Disk(0.4))))
    with mock.patch.object(family, "convolve", wraps=convolve) as spy:
        s = sigma_search(W, P([1.0, 0.3]), sigma_max=4)
    assert s == 3.99981689453125
    assert spy.call_count == 1 + 33 * 33 == 1090


def test_sigma_search_keeps_the_first_pass_errors():
    # each sampled generator is held to max_members on its own
    P = TruncSeries.polynomial
    V = FamilySpec((Fixed(P([1.0, 0.2])), Rational(Disk(0.5), Disk(0.4))))
    grid = ParamGrid(1, 4, max_members=24)
    with pytest.raises(ValueError, match="more than 24 members"):
        sigma_search(V, P([1.0, 0.3]), sigma_max=4, grid=grid)
    assert sigma_search(V, P([1.0, 0.3]), sigma_max=4, grid=replace(grid, max_members=25)) is not None
    # a product that overflows raises where the member loop reaches it
    big = Fixed(P([1.0, 1e300]))
    g = TruncSeries([1.0, 1e10], Tail(1.0, 2.0))
    with pytest.raises(ValueError, match="coefficients must be finite"), np.errstate(over="ignore"):
        sigma_search(FamilySpec((big,)), g, sigma_max=4)
    # a product with an unusable tail at z = 1 ends the search before the next member
    short = Fixed(TruncSeries([1.0, 0.5], Tail(1.0, 0.25)))
    with pytest.raises(ValueError, match="not certifiably nonvanishing"):
        sigma_search(FamilySpec((short, big)), g, sigma_max=4)
