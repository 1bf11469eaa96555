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

from convdual import duality, family
from convdual.duality import Functional, VerifierConfig, _kernel_pool, functional_image, sigma_search
from convdual.family import (
    COARSE_GRID,
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
    pencil_family,
    sample,
)
from convdual.series import Tail, TruncSeries, dilate

from oracles import sample as reference_sample
from oracles import sigma_search as reference_sigma_search

SET = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# 1.5e308 (1 + i) times a unit root overflows: dilating such a member raises
coord = st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.5e308]) | st.floats(-2.0, 2.0)
cpoint = st.builds(complex, coord, coord)
radius = st.sampled_from([0.0, 0.5, 1.0, 1.5e308, float("inf")]) | st.floats(0.0, 2.0)
pole_radius = st.sampled_from([0.0, 5e-324, 0.9]) | st.floats(0.0, 0.95)
real_or_complex = st.floats(-2.0, 2.0) | cpoint


def _fits(ends):  # a segment whose modulus passes the float range is refused when built
    try:
        Segment(*ends)
    except ValueError:
        return False
    return True


segments = st.tuples(real_or_complex, real_or_complex).filter(_fits).map(lambda ends: Segment(*ends))
domains = st.one_of(st.builds(Disk, radius), st.builds(Circle, radius), segments)
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
    except ValueError as exc:
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
@example(  # real segment endpoints give real parameters
    FamilySpec((Pencil((1, 3), (Segment(-0.0, 1.0), Circle(0.5))), Rational(Disk(0.5), Circle(5e-324)))),
    ParamGrid(2, 3, 2, 2), 0,
)
@example(  # a run of fixed generators: the second passes max_members, the first is listed
    FamilySpec((Fixed(TruncSeries.polynomial([1.0, 0.5])), Fixed(TruncSeries([1.0, 0.2j], None)),
                Fixed(TruncSeries([1.0, -0.3], Tail(1.0, 2.0))), Pencil((1,), (Disk(0.5),)))),
    ParamGrid(1, 2), 6 - 1,
)
@example(  # fixed generators in a slot family are listed one by one, each with its dilations
    FamilySpec((Fixed(TruncSeries.polynomial([1.0, 0.5])), Fixed(TruncSeries([1.0, 0.2j], None)),
                Fixed(TruncSeries([1.0, -0.3], Tail(1.0, 2.0))), Pencil((1,), (Disk(0.5),))),
               dilation_slot=True),
    ParamGrid(1, 2), 18 - 5,
)
@example(  # runs of fixed generators around a rational one
    FamilySpec((Fixed(TruncSeries.polynomial([1.0, 0.5, 0.25])), Fixed(TruncSeries([1.0], None)),
                Rational(Disk(0.5), Circle(0.25), 3), Fixed(TruncSeries([1.0, -0.3], Tail(1.0, 0.5))))),
    ParamGrid(1, 2, 2), None,
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


def test_a_run_of_fixed_generators_breaks_a_budget_where_a_count_one_by_one_does():
    # four fixed generators listed 3 wide under a limit of 6 entries: the
    # third breaks the table limit, with the member count a generator-by-
    # generator count reaches there; a member budget of 2 breaks first
    V = FamilySpec((Fixed(TruncSeries.polynomial([1.0, 0.5])),) * 4)
    with mock.patch.object(family, "_MAX_TABLE_ENTRIES", 6):
        assert len(leading_rows(replace(V, generators=V.generators[:2]), ParamGrid(), 3).coeffs) == 2
        with pytest.raises(ValueError, match="member table of 3 members x 3 coefficients"):
            leading_rows(V, ParamGrid(), 3)
        with pytest.raises(ValueError, match="more than 2 members"):
            leading_rows(V, ParamGrid(max_members=2), 3)


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
    pool = _kernel_pool(VerifierConfig(kernels=kernels), grid=ParamGrid(circle=5), cap=6)
    want = reference_sample(kernels, ParamGrid(circle=5))
    assert [tag for _, tag in pool] == [tag for _, tag in want]
    assert [_series_bytes(f) for f, _ in pool] == [_series_bytes(f) for f, _ in want]


def test_sigma_search_stays_below_the_true_supremum():
    # (f*g)(s) = 1 + 0.3 s (x - y) on the rationals first vanishes at x = -0.5,
    # y = 0.4, s* = 1 / 0.27; every probe is in_T of the dilated kernel, which
    # pairs the rationals by exact x-slices and the fixed member as a table row
    P = TruncSeries.polynomial
    W = FamilySpec((Fixed(P([1.0, 0.2])), Rational(Disk(0.5), Disk(0.4))))
    g = P([1.0, 0.3])
    fail = AssertionError("sigma_search samples or convolves a member")
    with mock.patch.object(family, "sample", side_effect=fail), \
         mock.patch.object(duality, "convolve", side_effect=fail), \
         mock.patch.object(duality, "in_T", wraps=duality.in_T) as probes:
        s = sigma_search(W, g, sigma_max=4)
    assert 1 / 0.27 - 1e-3 <= s < 1 / 0.27
    assert duality.in_T(dilate(g, s), W, COARSE_GRID).verified
    # the first pass, then the first schedule point 1 + (4 - 1) / 2
    assert [_series_bytes(c.args[0]) for c in probes.call_args_list[:2]] == [
        _series_bytes(g), _series_bytes(dilate(g, 2.5))
    ]


def _error(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def test_sigma_search_keeps_the_first_pass_errors():
    # the first pass is in_T of the kernel itself: its errors are in_T's
    P = TruncSeries.polynomial
    V = FamilySpec((Fixed(P([1.0, 0.2])), Rational(Disk(0.5), Disk(0.4))))
    g = P([1.0, 0.3])
    grid = ParamGrid(1, 4, max_members=4)  # the rational's five pole parameters are one too many
    assert _error(lambda: sigma_search(V, g, sigma_max=4, grid=grid)) == _error(
        lambda: duality.in_T(g, V, grid)
    ) == "grid would produce more than 4 members; coarsen the grid or raise max_members"
    assert sigma_search(V, g, sigma_max=4, grid=replace(grid, max_members=5)) is not None
    # a product that overflows raises as in_T raises, after a member with an unusable tail
    big = Fixed(P([1.0, 1e300]))
    g = TruncSeries([1.0, 1e10], Tail(1.0, 2.0))
    short = Fixed(TruncSeries([1.0, 0.5], Tail(1.0, 0.25)))
    with np.errstate(over="ignore"):
        for V in (FamilySpec((big,)), FamilySpec((short, big))):
            assert _error(lambda: sigma_search(V, g, sigma_max=4)) == _error(
                lambda: duality.in_T(g, V)
            ) == "coefficients must be finite"
    # an Inconclusive first pass ends the search
    with pytest.raises(ValueError, match="not certifiably nonvanishing"):
        sigma_search(FamilySpec((short,)), g, sigma_max=4)


def test_sigma_search_leaves_overflowing_probes_uncertified():
    # (f*g)(s) = 1 + 1e307 s^3 never vanishes, but past s = 2.62 its product
    # overflows; the sampled search evaluated it to inf and certified up to 8
    V = FamilySpec((Fixed(TruncSeries.polynomial([1.0, 0.0, 0.0, 1e200])),))
    g = TruncSeries.polynomial([1.0, 0.0, 0.0, 1e107])
    s = sigma_search(V, g)
    with np.errstate(over="ignore", invalid="ignore"):
        assert reference_sigma_search(V, g) > 7.99
    assert 2.6 < s < (1.7976931348623157e308 / 1e307) ** (1 / 3)
    assert duality.in_T(dilate(g, s), V, COARSE_GRID).verified
    # a dilated coefficient that overflows: the pencil reads a_1 only
    g = TruncSeries.polynomial([1.0, 0.1] + [0.0] * 98 + [1e300])
    s = sigma_search(pencil_family(), g)
    assert 1.2 < s < (1.7976931348623157e308 / 1e300) ** (1 / 100)
