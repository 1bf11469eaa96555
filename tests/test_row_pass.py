"""Row passes of the sampled decisions against the per-member loops: bitwise equality.

``contour.row_margins`` certifies many exact polynomials on the outermost
schedule circle at once; ``in_dual`` feeds it the products of a family's
sampled members with the kernel, and ``in_T``/``in_perp`` pair the same
table at ``z = 1``.  Every certificate must equal the one the old
member-by-member loop gives (``per_member_dual``, ``per_member_pairing``).
"""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from convdual import contour, duality
from convdual.contour import (
    DEFAULT_TOL,
    CertStatus,
    Tolerances,
    _circle_points,
    nonvanishing_in_disk,
    radius_schedule,
    ring_bounds,
    row_bounds,
    row_margins,
)
from convdual.duality import in_dual, in_perp, in_T
from convdual.family import (
    Circle,
    Disk,
    FamilySpec,
    Fixed,
    ParamGrid,
    Pencil,
    Rational,
    Segment,
)
from convdual.series import Tail, TruncSeries, from_rational

from oracles import per_member_dual, per_member_pairing, planted_polynomial

SET = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

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
schedules = st.sampled_from([
    {},
    {"r_max": 0.9},
    {"r_max": 0.5},
    {"schedule": [0.3, 0.75, 0.999]},
    {"schedule": [0.6]},
])
MORE = settings(SET, max_examples=150)
# the last has a floor below ten bars, where the scan's near-zero check decides
tols = st.sampled_from([
    DEFAULT_TOL,
    DEFAULT_TOL.with_bar(1e-4),
    DEFAULT_TOL.with_bar(1e-12),
    Tolerances(witness_bar=0.05, margin_floor=1e-7),
])


@st.composite
def pencils(draw):
    exps = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2, unique=True))
    return Pencil(tuple(exps), tuple(draw(domain) for _ in exps))


def _fixed(coeffs, tail):
    return Fixed(TruncSeries([1.0] + list(coeffs), tail))


fixed_tail = st.one_of(
    st.just(Tail(0.0, math.inf)),
    st.none(),
    st.builds(Tail, st.floats(0.01, 1.0), st.floats(1.1, 3.0)),
)
generators = st.one_of(
    pencils(),
    st.builds(Rational, st.builds(Disk, radius), st.builds(Disk, st.floats(0.0, 0.6)),
              st.integers(1, 6)),
    st.builds(Rational, st.builds(Circle, radius), st.builds(Circle, st.floats(0.0, 0.6)),
              st.integers(1, 6)),
    st.builds(_fixed, st.lists(cpoint, max_size=5), fixed_tail),
    st.builds(Fixed, st.builds(from_rational, cpoint, pole, st.integers(0, 6))),
)
# kernels of orders on both sides of the members' orders, exact and not
kernels = st.one_of(
    st.lists(cpoint, min_size=0, max_size=6).map(lambda c: TruncSeries.polynomial([1.0] + c)),
    st.builds(from_rational, cpoint, pole, st.integers(0, 8)),
)
grids = st.builds(
    ParamGrid,
    disk_radial=st.integers(1, 2),
    disk_angular=st.integers(1, 4),
    circle=st.integers(1, 5),
    segment=st.integers(1, 4),
)


def _text(cert) -> str:
    return json.dumps(cert.to_dict(), sort_keys=True)


def _same_outcome(got, want):
    """Both calls return equal certificates (JSON text, so -0.0 and every
    float bit count), or both raise the same ValueError."""
    try:
        expected = want()
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            got()
        assert str(info.value) == str(exc)
        return
    assert _text(got()) == _text(expected)


# -- contour.row_margins ------------------------------------------------------


@pytest.mark.parametrize("r", [0.3, 0.5, 0.999755859375, 1.0])
def test_doubled_ring_nests_bitwise(r):
    n = 8
    while n <= 2**17:
        assert _circle_points(r, 2 * n)[::2].tobytes() == _circle_points(r, n).tobytes()
        n *= 2


def _scalar_agrees(rows, orders, margins, r_max=None, schedule=None, tol=DEFAULT_TOL):
    outer = max(schedule) if schedule is not None else radius_schedule(12, r_max)[-1]
    verified = 0
    for row, n, m in zip(rows, orders, margins):
        if math.isnan(m):
            continue
        f = TruncSeries.polynomial(row[: n + 1])
        cert = nonvanishing_in_disk(f, r_max=r_max, schedule=schedule, tol=tol)
        assert cert.verified and cert.params["r_certified"] == outer
        assert np.float64(cert.min_modulus).tobytes() == np.float64(m).tobytes()
        verified += 1
    return verified


@st.composite
def polynomial_rows(draw):
    """Rows with a near-circle root, a thin margin or a planted zero now and then."""
    count = draw(st.integers(1, 40))
    orders = draw(st.lists(st.integers(0, 6), min_size=count, max_size=count))
    rows = np.zeros((count, max(orders) + 1), dtype=complex)
    for i, n in enumerate(orders):
        kind = draw(st.sampled_from(["random", "random", "near-root", "thin"]))
        if kind == "random" or n == 0:
            rows[i, 0] = 1.0
            rows[i, 1 : n + 1] = [draw(cpoint) * draw(st.floats(0.0, 0.4)) for _ in range(n)]
        else:
            # one root just outside, on or just inside the circle, the rest far out
            rho = draw(st.sampled_from([0.999, 0.99976, 0.9998, 1.0, 1.001, 1.3]))
            roots = [rho * np.exp(1j * draw(st.floats(0.0, 6.3)))]
            roots += [3.0 + draw(cpoint)] * (n - 1)
            lead = 1e-8 if kind == "thin" else 1.0
            rows[i, : n + 1] = planted_polynomial(roots, lead)
    return rows, np.asarray(orders)


@SET
@given(polynomial_rows(), schedules, tols)
def test_row_margins_are_scalar_verified_margins(rows_orders, sched, tol):
    rows, orders = rows_orders
    margins = list(row_margins(rows, orders, tol=tol, **sched))
    assert len(margins) == len(rows)
    _scalar_agrees(rows, orders, margins, tol=tol, **sched)


def test_row_margins_verify_most_clear_rows():
    rng = np.random.default_rng(7)
    orders = rng.integers(0, 5, 300)
    rows = np.zeros((300, 5), dtype=complex)
    rows[:, 0] = 1.0
    for i, n in enumerate(orders):
        rows[i, 1 : n + 1] = 0.7 / max(n, 1) * np.exp(2j * np.pi * rng.random(n))
    margins = list(row_margins(rows, orders))
    assert _scalar_agrees(rows, orders, margins) == 300


def test_row_margins_leave_undecidable_rows_to_the_scalar_path():
    rows = np.array([
        [1.0, 0.5, 0.0],
        [1.0, 1.0 / (1.0 - 2.0**-12), 0.0],  # a root on the outermost circle
        [1.0, -2.5, 1.0],  # root 0.5 inside
        [1.0, np.inf, 0.0],  # non-finite coefficient
        [np.nan, 0.0, 0.0],  # a product left to the per-member path
        [1.0, 0.0, 0.25],
    ], dtype=complex)
    orders = np.array([1, 1, 2, 1, 1, 2])
    margins = list(row_margins(rows, orders))
    assert [math.isnan(m) for m in margins] == [False, True, True, True, True, False]
    assert _scalar_agrees(rows, orders, margins) == 2


def test_row_margins_leave_a_scan_near_zero_to_the_scalar_path():
    # |f| < 10 bars near z = -r although the margin clears the floor: the
    # scalar scan refines that point into a witness under the wide bar
    tol = Tolerances(witness_bar=0.05, margin_floor=1e-7)
    rows = np.array([[1.0, 1.0 / 1.02]], dtype=complex)
    assert math.isnan(next(row_margins(rows, [1], tol=tol)))
    assert nonvanishing_in_disk(TruncSeries.polynomial(rows[0]), tol=tol).falsified
    assert not math.isnan(next(row_margins(rows, [1])))


def test_row_margins_cases_outside_the_pass():
    rows = np.array([[1.0, 0.5]], dtype=complex)
    assert math.isnan(next(row_margins(rows, [1], tol=Tolerances(initial_samples=512))))
    assert math.isnan(next(row_margins(rows, [1], schedule=[-0.5, 0.0])))
    with pytest.raises(ValueError, match="empty radius schedule"):
        next(row_margins(rows, [1], schedule=[]))


def test_rows_after_an_undecided_row_are_refined_only_when_asked():
    on_circle = 1.0 / (1.0 - 2.0**-12)
    # distinct rows: a repeat of the first would reuse its margin, refining nothing
    rows = np.array([[1.0, 0.5], [1.0, on_circle], [1.0, 0.4], [1.0, 0.25]], dtype=complex)
    lower = contour._CirclePass.lower
    with mock.patch.object(contour._CirclePass, "lower", autospec=True, side_effect=lower) as spy:
        margins = row_margins(rows, [1, 1, 1, 1])
        assert not math.isnan(next(margins))
        assert math.isnan(next(margins))
        assert spy.call_count == 1
        assert not math.isnan(next(margins))
        assert spy.call_count == 2 and len(spy.call_args.args[1]) == 2


def _first_rings(spy):
    """Rows per evaluation of a block's first ring, from a spy on horner_rows:
    the 512 points from ``z = r`` (a doubling's odd points start off the axis)."""
    calls = spy.call_args_list
    return [len(c.args[0]) for c in calls if len(c.args[1]) == 512 and c.args[1][0].imag == 0]


def test_row_margins_certify_each_distinct_row_once():
    # signed zeros differ in bytes, and a row's order is part of the pair
    base = np.array([[1.0, 0.5, 0.1], [1.0, -0.0, 0.3], [1.0, 0.0, 0.3], [1.0, 0.25j, 0.0]])
    rows, orders = base[[0, 1, 0, 2, 3, 3, 0, 1]], np.array([2, 2, 2, 2, 2, 1, 2, 2])
    with mock.patch.object(contour, "horner_rows", wraps=contour.horner_rows) as spy:
        margins = list(row_margins(rows, orders))
    assert sum(_first_rings(spy)) == 5
    for row, n, m in zip(rows, orders, margins):
        alone = next(row_margins(row[None], [n]))
        assert np.float64(alone).tobytes() == np.float64(m).tobytes()
    assert _scalar_agrees(rows, orders, margins) == len(rows)


def test_row_blocks_stay_within_the_budget():
    rows = np.tile(np.array([[1.0, 0.5, 0.1]], dtype=complex), (200, 1))
    rows[:, 2] += 1e-4 * np.arange(200)  # distinct rows: each is certified once
    with mock.patch.object(contour, "horner_rows", wraps=contour.horner_rows) as spy:
        assert not any(math.isnan(m) for m in row_margins(rows, np.full(200, 2)))
    sizes = _first_rings(spy)
    assert sizes[:4] == [4, 8, 16, 32] and sum(sizes) == 200
    assert max(sizes) * 512 <= contour._ROW_BUDGET


# -- contour.row_bounds -------------------------------------------------------

# schedules whose outermost radius the bound works on, and ones it refuses
bound_schedules = st.sampled_from([
    {},
    {"r_max": 0.5},
    {"schedule": [0.6]},
    {"schedule": [-0.5, 0.0, 0.75]},
    {"schedule": [-0.5, 0.0]},
    {"schedule": [0.0]},
])


def _bound_holds(rows, orders, lower, tol, **sched):
    """Every row with a bound is Verified by the scalar walk on the outermost
    circle with a margin at least the bound, the margin row_margins yields."""
    radii = sched.get("schedule") or radius_schedule(12, sched.get("r_max"))
    outer = max(radii)
    margins = list(row_margins(rows, orders, tol=tol, **sched))
    proven = 0
    for row, n, lo, m in zip(rows, orders, lower, margins):
        if math.isnan(lo):
            continue
        cert = nonvanishing_in_disk(TruncSeries.polynomial(row[: n + 1]), tol=tol, **sched)
        assert cert.verified and cert.params["r_certified"] == outer
        assert cert.min_modulus >= lo
        assert np.float64(cert.min_modulus).tobytes() == np.float64(m).tobytes()
        proven += 1
    return proven


def _edge_row(c0, order, spread, r, phase=0.0, weights=None):
    """Coefficients ``c_1..c_order`` with ``sum |c_k| r^k = spread``, at one
    phase (all on the top power without weights)."""
    row = np.zeros(order + 1, dtype=complex)
    row[0] = c0
    if order:
        w = np.zeros(order) if weights is None else np.asarray(weights, dtype=float)
        if weights is None:
            w[-1] = 1.0
        ks = np.arange(1, order + 1)
        row[1:] = spread * w / w.sum() / r**ks * np.exp(1j * phase)
    return row


@st.composite
def bound_cases(draw):
    """Rows next to the edges of the bound's conditions, with the tolerances
    and schedules that set those edges."""
    sched = draw(bound_schedules)
    radii = sched.get("schedule") or radius_schedule(12, sched.get("r_max"))
    r = max(max(radii), 0.5)  # rows for a positive circle even where none is certified
    phase_step = draw(st.sampled_from([math.pi / 2, math.pi, 4.0, 1.0, 0.05]))
    alpha = min(phase_step / 2, math.pi / 2)
    rows, orders, gaps = [], [], []
    for _ in range(draw(st.integers(1, 5))):
        c0 = draw(st.sampled_from([1.0, -0.75j, 3e5, 2e-3, 1e-280, 1e280]))
        order = draw(st.sampled_from([0, 1, 2, 3, 6, 30, 64, 200]))
        # rho next to |c_0| sin(alpha), or well inside it
        ratio = draw(st.sampled_from([0.2, 0.5, 0.9, 1 - 1e-6, 1 - 1e-8, 1 - 2e-9, 1.0, 1 + 1e-9]
                                     + [0.5] * 4))
        spread = abs(c0) * ratio * math.sin(alpha) if ratio != 0.2 else abs(c0) * 0.2
        weights = draw(st.none() | st.lists(st.floats(0.01, 1.0), min_size=order, max_size=order))
        phase = draw(st.floats(0.0, 2 * math.pi))
        rows.append(_edge_row(c0, order, spread, r, phase, weights))
        orders.append(order)
        gaps.append(abs(c0) - spread)
    if draw(st.integers(0, 3)) == 0:
        rows[0][-1] = draw(st.sampled_from([math.nan, math.inf]))
    width = max(orders) + 1
    table = np.zeros((len(rows), width), dtype=complex)
    for i, row in enumerate(rows):
        table[i, : len(row)] = row
    # the bar and the floor next to the first row's gap, or the defaults
    gap = gaps[0]
    nudge = draw(st.sampled_from([1 - 1e-6, 1 - 1e-10, 1.0, 1 + 1e-6]))
    bar = draw(st.sampled_from([1e-9, 0.1 * gap * nudge, 0.0]))
    floor = draw(st.sampled_from([1e-7, 0.995 * gap * nudge, 0.0, -1.0]))
    tol = Tolerances(
        witness_bar=bar,
        margin_floor=floor,
        initial_samples=draw(st.sampled_from([256, 256, 1, 255, 257, 512])),
        phase_step=phase_step,
    )
    return table, np.asarray(orders), sched, tol


@settings(SET, max_examples=100)
@given(bound_cases())
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_row_bounds_prove_scalar_verified_rows(case):
    rows, orders, sched, tol = case
    lower = row_bounds(rows, tol=tol, **sched)
    assert lower.shape == (len(rows),)
    r = max(sched.get("schedule") or [1.0])
    if r <= 0 or tol.initial_samples > 256:
        assert np.all(np.isnan(lower))
    _bound_holds(rows, orders, lower, tol, **sched)


@pytest.mark.parametrize("order", [64, 96, 116, 127])
def test_row_bounds_at_the_phase_step_edge(order):
    # z^order turns by pi - phase_step per sample of the 256-point ring, so
    # two neighbours sit at the tangent points of the disk about c_0: their
    # phase step is 2 asin(rho / |c_0|), just below phase_step
    phase_step = math.pi - 2 * math.pi * order / 256
    alpha = phase_step / 2
    r = radius_schedule(12)[-1]
    tol = Tolerances(phase_step=phase_step, witness_bar=1e-12, margin_floor=1e-10)
    rows, orders = [], []
    for ratio in (1 - 1e-5, 1 - 1e-7, 1 - 1e-12):
        rows.append(_edge_row(1.0, order, ratio * math.sin(alpha), r, math.pi / 2 + alpha))
        orders.append(order)
    rows, orders = np.array(rows), np.array(orders)
    lower = row_bounds(rows, tol=tol)
    assert [math.isnan(x) for x in lower] == [False, False, True]
    assert _bound_holds(rows, orders, lower, tol) == 2
    steps = np.angle(np.roll(np.polyval(rows[1][::-1], _circle_points(r, 256)), -1)
                     / np.polyval(rows[1][::-1], _circle_points(r, 256)))
    assert phase_step - 1e-6 < np.max(np.abs(steps)) < phase_step


def test_row_bounds_at_the_derivative_edge():
    # z^n with rho = |c_0| / 2: the 2**17-point mesh's deflation n rho pi /
    # 2**17 reaches 0.005 (|c_0| - rho) near n = 208
    r = radius_schedule(12)[-1]
    rows = np.zeros((2, 211), dtype=complex)
    for i, n in enumerate((200, 210)):
        rows[i, : n + 1] = _edge_row(1.0, n, 0.5, r)
    tol = Tolerances(phase_step=math.pi)
    lower = row_bounds(rows, tol=tol)
    assert not math.isnan(lower[0]) and math.isnan(lower[1])
    assert _bound_holds(rows, np.array([200, 210]), lower, tol) == 1


def test_row_bounds_at_the_bar_and_floor_edges():
    rows = np.array([[1.0, 0.5]], dtype=complex)
    r = radius_schedule(12)[-1]
    gap = 1.0 - 0.5 * r
    for bar, floor, proven in [
        (0.1 * gap * (1 - 1e-6), 1e-7, True),
        (0.1 * gap * (1 + 1e-9), 1e-7, False),
        (1e-9, 0.995 * gap * (1 - 1e-6), True),
        (1e-9, 0.995 * gap * (1 + 1e-9), False),
    ]:
        tol = Tolerances(witness_bar=bar, margin_floor=floor)
        lower = row_bounds(rows, tol=tol)
        assert math.isnan(lower[0]) != proven
        _bound_holds(rows, np.array([1]), lower, tol)


def test_row_bounds_prove_most_clear_rows_close_to_their_margins():
    rng = np.random.default_rng(7)
    orders = rng.integers(0, 5, 300)
    rows = np.zeros((300, 5), dtype=complex)
    rows[:, 0] = 1.0
    for i, n in enumerate(orders):
        rows[i, 1 : n + 1] = 0.7 / max(n, 1) * np.exp(2j * np.pi * rng.random(n))
    lower = row_bounds(rows)
    margins = np.array(list(row_margins(rows, orders)))
    assert np.all(lower <= margins) and np.all(lower > 0.25)


def test_row_bounds_cases_outside_the_pass():
    # a clear row whose values near overflow break the scalar phase pass (its
    # steps are NaN at any sample count, so a small budget only ends it sooner)
    quick = Tolerances(sample_budget=2048)
    huge = [1.2e308 + 0.9e308j, 1e307]
    assert not nonvanishing_in_disk(TruncSeries.polynomial(huge), tol=quick).verified
    rows = np.array([[1.0, 0.5], [1.0, np.inf], [np.nan, 0.0], [np.inf, 0.0], huge], dtype=complex)
    assert np.isnan(row_bounds(rows)).tolist() == [False, True, True, True, True]
    for kw in ({"tol": Tolerances(initial_samples=512)}, {"schedule": [-0.5, 0.0]}):
        assert np.all(np.isnan(row_bounds(rows, **kw)))
    # subnormal values break it too, with no bar or floor to refuse them
    tiny = [3.308738e-317, -1.763814e-321 + 5.3e-322j]
    bare = Tolerances(witness_bar=0.0, margin_floor=0.0, sample_budget=2048)
    assert not nonvanishing_in_disk(TruncSeries.polynomial(tiny), tol=bare).verified
    assert math.isnan(row_bounds(np.array([tiny]), tol=bare)[0])
    assert row_bounds(np.zeros((0, 2), dtype=complex)).shape == (0,)


# -- contour.ring_bounds ------------------------------------------------------


def _binomial(n, s, r, phase=0.0):
    """``1 + c z^n`` with ``|c| r^n = s``: least modulus ``1 - s`` on ``|z| = r``,
    derivative bound ``n s / r``, so the mesh needs about ``200 pi n s / (1 - s)``
    points for its stop rule."""
    row = np.zeros(n + 1, dtype=complex)
    row[0], row[n] = 1.0, s / r**n * np.exp(1j * phase)
    return row


@st.composite
def ring_rows(draw):
    """Exact rows of order 1 to 16: random ones, rows whose mesh stops at the
    stop rule's edge or runs to the 2**17 cap, zeros just outside the circle,
    and conjugates and repeats of earlier rows (tied margins)."""
    sched = draw(schedules)
    r = max(sched.get("schedule") or radius_schedule(12, sched.get("r_max")))
    out = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["random", "random", "edge", "cap", "outside", "tie", "repeat"]))
        n = draw(st.integers(1, 16))
        phase = draw(st.floats(0.0, 2 * math.pi))
        if kind == "random" or (kind in ("tie", "repeat") and not out):
            c = np.array([draw(cpoint) for _ in range(n)])
            weight = np.sum(np.abs(c) * r ** np.arange(1, n + 1))
            spread = draw(st.floats(0.05, 1.2))  # past one the terms may still miss each other
            # a weight near underflow would blow the scale up: such rows are constants
            row = np.concatenate([[1.0], c * (spread / weight if weight > 1e-100 else 0.0)])
        elif kind in ("edge", "cap"):
            # 200 pi n s / (1 - s) points: next to a power of two, or past 2**17
            points = 2.0 ** draw(st.integers(9, 17) if kind == "edge" else st.floats(17.0, 19.0))
            points *= draw(st.sampled_from([1 - 1e-9, 1.0, 1 + 1e-9, 0.9, 1.1]))
            s = points / (points + 200 * math.pi * n)
            row = _binomial(n, s, r, phase)
        elif kind == "outside":
            near = r * draw(st.sampled_from([1 + 1e-6, 1 + 1e-4, 1 + 1e-3, 1.01, 1.1]))
            roots = [near * np.exp(1j * phase)] + [3.0 + draw(cpoint)] * (n - 1)
            row = planted_polynomial(roots)
            row = row / row[0]
        elif kind == "tie":
            row = np.conj(out[draw(st.integers(0, len(out) - 1))])
        else:
            row = out[draw(st.integers(0, len(out) - 1))]
        out.append(np.asarray(row, dtype=complex))
    orders = np.array([len(row) - 1 for row in out])
    rows = np.zeros((len(out), orders.max() + 1), dtype=complex)
    for i, row in enumerate(out):
        rows[i, : len(row)] = row
    return rows, orders, sched


def _ring_bound_holds(rows, orders, tol=DEFAULT_TOL, **sched):
    """Every ring bound lies at or below the row's margin, which lies at or
    below its least ring modulus; returns how many rows have a ring bound."""
    bounds, least = ring_bounds(rows, tol=tol, **sched)
    margins = np.array(list(row_margins(rows, orders, tol=tol, **sched)))
    given = ~np.isnan(margins)
    assert not np.any(bounds[given] > margins[given])
    assert np.all(margins[given] <= least[given])
    return int(np.sum(~np.isnan(bounds[given])))


@settings(SET, max_examples=100)
@given(ring_rows(), tols)
def test_ring_bounds_never_exceed_the_row_margins(case, tol):
    rows, orders, sched = case
    _ring_bound_holds(rows, orders, tol, **sched)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_ring_bounds_at_the_stop_rule_edge_and_the_cap(n):
    r = radius_schedule(12)[-1]
    rows, orders = [], []
    for j in range(9, 20):  # meshes of 2**9 points up to the cap and past it
        for nudge in (1 - 1e-9, 1 + 1e-9):
            points = 2.0**j * nudge
            rows.append(_binomial(n, points / (points + 200 * math.pi * n), r, 0.3 * j))
            orders.append(n)
    rows, orders = np.array(rows), np.array(orders)
    assert _ring_bound_holds(rows, orders) >= 4


def test_ring_bounds_lie_close_below_the_margins_of_clear_rows():
    # cubics like the products of a rational member with a cubic kernel:
    # terms that never align in phase leave the coefficient bound far below
    rng = np.random.default_rng(5)
    rows = np.zeros((200, 4), dtype=complex)
    rows[:, 0] = 1.0
    rows[:, 1:] = rng.uniform(0.1, 0.25, (200, 3)) * np.exp(2j * np.pi * rng.random((200, 3)))
    bounds, least = ring_bounds(rows)
    coefficient = row_bounds(rows)
    margins = np.array(list(row_margins(rows, np.full(200, 3))))
    assert np.all(bounds <= margins) and np.all(margins <= least)
    assert np.all(bounds > 0.97 * margins)
    assert np.mean(bounds > coefficient) > 0.9


def test_ring_bounds_cases_outside_the_pass():
    rows = np.array([[1.0, 0.5], [1.0, np.inf], [np.nan, 0.0], [1.0, 1.0 / (1.0 - 2.0**-12)]])
    bounds, least = ring_bounds(rows)
    assert np.isnan(bounds).tolist() == [False, True, True, True]
    for kw in ({"tol": Tolerances(initial_samples=512)}, {"schedule": [-0.5, 0.0]}):
        assert np.all(np.isnan(ring_bounds(rows, **kw)[0]))
    assert ring_bounds(np.zeros((0, 2), dtype=complex))[0].shape == (0,)
    # a margin below the witness bar gives no ring bound
    assert math.isnan(ring_bounds(rows[:1], tol=DEFAULT_TOL.with_bar(0.6))[0][0])


# -- in_dual ------------------------------------------------------------------


@MORE
@given(
    st.lists(generators, min_size=1, max_size=3),
    st.booleans(),
    kernels,
    grids,
    schedules,
    tols,
)
def test_in_dual_bitwise_equal_to_per_member_loop(gens, slot, g, grid, sched, tol):
    V = FamilySpec(tuple(gens), dilation_slot=slot)
    _same_outcome(
        lambda: in_dual(g, V, grid=grid, tol=tol, **sched),
        lambda: per_member_dual(g, V, grid=grid, tol=tol, **sched),
    )


def _seg_family(ends, second=None):
    gens = [Pencil((1,), (Segment(*ends),))]
    if second is not None:
        gens.append(second)
    return FamilySpec(tuple(gens))


@pytest.mark.parametrize(
    "V, g",
    [
        # members 1 + x z with x running into the zero at x = -1
        (_seg_family((0.2, -1.5)), TruncSeries.polynomial([1.0, 1.0])),
        # thin margin: the product's zero sits just outside the outermost circle
        (_seg_family((0.0, -0.99985)), TruncSeries.polynomial([1.0, 1.0])),
        # a falsifying member ahead of a member whose product overflows
        (_seg_family((0.0, -1.5), _fixed([1e300], Tail(0.0, math.inf))),
         TruncSeries.polynomial([1.0, 1e300])),
        # the overflowing member first: both loops raise there
        (FamilySpec((_fixed([1e300], Tail(0.0, math.inf)), Pencil((1,), (Segment(0, -1.5),)))),
         TruncSeries.polynomial([1.0, 1e300])),
        # tail-less fixed members with an exact kernel of lower and higher order
        (FamilySpec((_fixed([0.3, 0.2, 0.1], None), _fixed([0.5], None))),
         TruncSeries.polynomial([1.0, 0.5])),
        (FamilySpec((_fixed([0.3, 0.2, 0.1], None), _fixed([0.5], None))),
         TruncSeries.polynomial([1.0, 0.5, 0.4, 0.1, 0.2, 0.3])),
        # a rational kernel: exact members only are batched
        (FamilySpec((Rational(Disk(0.4), Disk(0.3), order=8), _fixed([0.2], None))),
         from_rational(0.5, 0.2, order=8)),
        # a pencil whose coefficient the kernel does not determine is sampled
        (FamilySpec((Pencil((3,), (Disk(0.5),)),)), from_rational(0.5, 0.2, order=2)),
    ],
)
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_in_dual_pinned_cases(V, g):
    grid = ParamGrid(2, 4, 4, 12)
    for slot in (False, True):
        W = FamilySpec(V.generators, dilation_slot=slot)
        _same_outcome(lambda: in_dual(g, W, grid), lambda: per_member_dual(g, W, grid))


def test_in_dual_builds_series_only_for_scalar_members():
    V = FamilySpec((Rational(Disk(0.4), Disk(0.3)), _fixed([0.1, 0.1], Tail(0.2, 2.0))))
    g = TruncSeries.polynomial([1.0, 0.6])
    grid = ParamGrid(2, 8)
    with mock.patch.object(duality, "nonvanishing_in_disk", wraps=nonvanishing_in_disk) as spy:
        cert = in_dual(g, V, grid)
    assert cert.verified and cert.params["members_checked"] == 17**2 + 1
    assert spy.call_count == 0
    assert _text(cert) == _text(per_member_dual(g, V, grid))


def _settle_spy(V, g, grid):
    """in_dual's certificate, the rows row_bounds proved, and the settling calls."""
    bounds = []

    def spy(*args, **kwargs):
        bounds.append(row_bounds(*args, **kwargs))
        return bounds[-1]

    with mock.patch.object(duality, "row_bounds", side_effect=spy), \
         mock.patch.object(duality, "_settle_clear_rows",
                           wraps=duality._settle_clear_rows) as settle:
        cert = in_dual(g, V, grid)
    proven = int(np.sum(~np.isnan(bounds[0])))
    assert _text(cert) == _text(per_member_dual(g, V, grid))
    return cert, proven, settle.call_count


def test_in_dual_settles_proven_rows_only_for_a_verified_answer():
    grid = ParamGrid(segment=12)
    g = TruncSeries.polynomial([1.0, 1.0])
    # the first sampled member, 1 - 1.5 z, vanishes inside; the later ones are proven
    cert, proven, settled = _settle_spy(_seg_family((-1.5, 0.0)), g, grid)
    assert cert.falsified and proven > 0 and settled == 0
    # a tail-less member leaves its product with a rational kernel gray
    gray = _seg_family((-0.3, 0.3), _fixed([0.5], None))
    cert, proven, settled = _settle_spy(gray, from_rational(0.5, 0.2, order=4), grid)
    assert cert.status is CertStatus.INCONCLUSIVE and proven > 0 and settled == 0
    cert, proven, settled = _settle_spy(_seg_family((-0.3, 0.3)), g, grid)
    assert cert.verified and proven == 13 and settled == 1


def test_in_dual_evaluates_only_the_proven_rows_that_can_be_worst():
    V = FamilySpec((Rational(Disk(0.4), Disk(0.3)),))
    g = TruncSeries.polynomial([1.0, 0.6])
    grid = ParamGrid(2, 8)
    with mock.patch.object(contour, "horner_rows", wraps=contour.horner_rows) as spy:
        cert = in_dual(g, V, grid)
    assert cert.verified and cert.params["members_checked"] == 17**2
    assert sum(_first_rings(spy)) < 17**2 // 4
    assert _text(cert) == _text(per_member_dual(g, V, grid))


def test_settle_meshes_few_rows_of_a_circled_rational_family():
    # a cubic kernel: the coefficient bounds of the products lie 10% or more
    # below their margins, the ring bounds within a few percent
    V = FamilySpec((Rational(Circle(0.45), Circle(0.3)),))
    g = TruncSeries.polynomial([1.0, 0.5 + 0.2j, -0.3j, 0.2])
    grid = ParamGrid(1, 12, 32, 16)
    meshed, inside, bounds = [0], [False], []
    lower, settle = contour._CirclePass.lower, duality._settle_clear_rows

    def spy_lower(circle, rows, L, max_samples):
        meshed[0] += len(rows) if inside[0] else 0
        return lower(circle, rows, L, max_samples)

    def spy_settle(verdict, products, orders, proven, opts):
        inside[0] = True
        bounds.append(proven)
        try:
            settle(verdict, products, orders, proven, opts)
        finally:
            inside[0] = False

    with mock.patch.object(contour._CirclePass, "lower", spy_lower), \
         mock.patch.object(duality, "_settle_clear_rows", spy_settle):
        cert = in_dual(g, V, grid)
    assert cert.verified and cert.params["members_checked"] == 1024
    assert cert.min_modulus == 0.5394791203577837
    # a pass by ascending coefficient bound meshes every proven row whose
    # bound is at most the worst margin: 224 of them here
    by_coefficients = int(np.sum(bounds[0] <= cert.min_modulus))
    assert by_coefficients == 224 and meshed[0] < by_coefficients // 2


def test_in_dual_counts_max_members_over_the_sampled_generators():
    gen = Rational(Disk(0.4), Disk(0.3))
    V = FamilySpec((gen, gen))
    grid = ParamGrid(1, 2, max_members=10)  # 9 members per generator, 18 together
    with pytest.raises(ValueError, match="more than 10 members"):
        in_dual(TruncSeries.polynomial([1.0, 0.5]), V, grid=grid)


# -- in_T / in_perp --------------------------------------------------------------


# rationals for the x-slice pass: x over every domain kind, y over disks,
# circles and segments up to the pole bound, orders up to 64; a segment with
# real endpoints lists real ys, whose powers the pass takes in real arithmetic
pole_radius = st.sampled_from([0.0, 0.3, 0.9]) | st.floats(min_value=0.0, max_value=0.95)
pole_end = st.sampled_from([0.0, -0.0, 0.5, -0.95]) | st.floats(-0.95, 0.95)
pairing_rationals = st.builds(
    Rational,
    domain,
    st.one_of(
        st.builds(Disk, pole_radius),
        st.builds(Circle, pole_radius),
        st.builds(Segment, pole_end, pole_end),
        st.builds(Segment, pole_end, pole),
    ),
    st.integers(1, 6) | st.integers(7, 64),
)
pairing_generators = st.one_of(
    pencils(),
    st.builds(_fixed, st.lists(cpoint, max_size=5), fixed_tail),
    st.builds(Fixed, st.builds(from_rational, cpoint, pole, st.integers(0, 6))),
    pairing_rationals,
)


def _long_kernel(order, seed, tail):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 2.0) / (1.0 + np.arange(order))
    c = scale * (rng.standard_normal(order) + 1j * rng.standard_normal(order))
    return TruncSeries([1.0] + c.tolist(), tail)


# the x-slice pass meets order-1 kernels (``1 + cz``), kernels up to order 64,
# tails whose ratio ``|y u| / rho`` comes near one, and kernels without tails
pairing_kernels = st.one_of(
    kernels,
    st.builds(lambda c: TruncSeries.polynomial([1.0, c]), cpoint),
    st.builds(
        _long_kernel,
        st.integers(0, 64),
        st.integers(0, 2**32),
        st.one_of(
            st.just(Tail(0.0, math.inf)),
            st.none(),
            st.builds(Tail, st.floats(0.0, 2.0), st.floats(0.05, 1.2)),
            st.builds(Tail, st.floats(0.0, 2.0), st.sampled_from([0.3, 0.9, 0.95])),
        ),
    ),
)
# slot families on these grids list 20 or more slices per rational
slice_grids = st.builds(
    ParamGrid,
    disk_radial=st.integers(2, 3),
    disk_angular=st.integers(4, 8),
    circle=st.integers(5, 24),
    segment=st.integers(4, 12),
)


@MORE
@given(
    st.lists(pairing_generators, min_size=1, max_size=3),
    st.booleans(),
    pairing_kernels,
    grids | slice_grids,
    tols,
)
@example(
    gens=[_fixed([-1.0], Tail(0.0, math.inf)), _fixed([1e300], None)],
    slot=False, kernel=TruncSeries.polynomial([1.0, 1e300]), grid=ParamGrid(), tol=DEFAULT_TOL,
)
@example(  # real ys: complex powers of them differ in the last digit, and so does the margin
    gens=[Rational(Disk(0.3), Segment(-0.9, 0.8))],
    slot=False, kernel=_long_kernel(32, 2, Tail(0.0, math.inf)), grid=ParamGrid(), tol=DEFAULT_TOL,
)
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_pairing_bitwise_equal_to_per_member_loop(gens, slot, kernel, grid, tol):
    V = FamilySpec(tuple(gens), dilation_slot=slot)
    _same_outcome(
        lambda: duality._pairing_certificate(kernel, V, grid, tol),
        lambda: per_member_pairing(kernel, V, grid, tol),
    )


def test_transpose_and_perp_entry_points_match_the_member_loop():
    seg = Pencil((1, 2), (Segment(0.1, 0.6j), Segment(-0.2, 0.3)))
    V = FamilySpec((seg, _fixed([0.2, -0.1], Tail(0.1, 2.0))))
    grid = ParamGrid(2, 4, 4, 6)
    for h in (TruncSeries.polynomial([1.0, 0.4, 0.3]), TruncSeries.polynomial([1.0, -2.0, 0.0])):
        for slot in (False, True):
            W = FamilySpec(V.generators, dilation_slot=slot)
            assert _text(in_T(h, W, grid)) == _text(per_member_pairing(h, W, grid))
            assert _text(in_perp(h, W, grid)) == _text(per_member_pairing(h, W, grid))


def test_pairing_builds_no_series_for_exact_products():
    V = FamilySpec(tuple(_fixed([0.1 * k, 0.05], Tail(0.1, 2.0)) for k in range(5)))
    h = TruncSeries.polynomial([1.0, 0.3, 0.2])
    with mock.patch.object(duality, "_pairing_value", wraps=duality._pairing_value) as spy:
        cert = in_perp(h, V)
    assert cert.verified and cert.params["members_checked"] == 5 and spy.call_count == 0
    assert _text(cert) == _text(per_member_pairing(h, V))


def test_x_slice_memory_is_bounded():
    # 2000 slices of an order-4096 kernel: 131 MB as one array of terms
    rng = np.random.default_rng(3)
    c = (rng.standard_normal(4096) + 1j * rng.standard_normal(4096)) / np.arange(1, 4097) ** 2
    h = TruncSeries.polynomial(np.concatenate([[1.0], 0.5 * c]))
    V = FamilySpec((Rational(Circle(0.5), Circle(0.3)),))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cert = in_T(h, V, ParamGrid(circle=2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verified and cert.params["members_checked"] == 2000
    assert peak < 8e6
