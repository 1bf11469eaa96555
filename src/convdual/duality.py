"""Membership decisions for transposes, duals, perps, and dual hulls.

The four decision procedures share one convention:

* ``in_T(g, V)``: ``(f*g)(1) != 0`` for all ``f`` in ``V`` (closed-disk
  pairing; the kernel must be regular beyond the closed disk);
* ``in_dual(g, V)``: ``(f*g)(z) != 0`` on the open unit disk;
* ``in_perp(h, U)``: ``(g*h)(1) != 0`` for all ``g`` in ``U`` (roles of the
  two sides swap: now the family members carry the closed-disk regularity);
* ``in_dual_hull(h, V)``: membership in ``(V^T)^perp``, decided against a
  kernel family standing in for ``V^T``.

Pencil generators over rotation-invariant parameter domains are decided
exactly: the pairing value set is an annulus, and zeros come with
constructive parameter witnesses.  Everything else is decided over the
sampled family; Verified certificates carry that scope in their params so
reports never over-claim, while Falsified certificates are always conclusive
(the witness is an actual member, kernel, or point, and its pairing value is
re-checked against the witness bar before the certificate is emitted).
The procedures, and ``is_complete_T``, collect their margins and undecidable
cases in one accumulator, so the Verified and Inconclusive forms are the
same everywhere; sampled members are tagged with their own generator index.
``sigma_search`` bisects a transpose member's dilation margin with ``in_T``.

``verify_theorem`` reduces the structural identities between these sets
(dual = closure of hull-transpose, duality principle, double-dual as perp,
the dilation representation, border-image boundaries, and the corollaries)
to finite suites of certificate checks with per-check PASS/FAIL records.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .contour import (
    DEFAULT_TOL,
    Certificate,
    CertStatus,
    Tolerances,
    nonvanishing_in_disk,
    radius_schedule,
    ring_bounds,
    row_bounds,
    row_margins,
)
from .family import (
    COARSE_GRID,
    Circle,
    Disk,
    FamilySpec,
    Fixed,
    Generator,
    LeadingRows,
    MemberTag,
    ParamGrid,
    Pencil,
    Rational,
    _check_member_budget,
    _max_rows,
    border_elements,
    complete_hull,
    counterexample_family,
    default_kernel_family,
    dilation_points,
    leading_rows,
    pairing_interval,
    pairing_margin,
    pairing_zero_weights,
    pencil_family,
    pencil_margin_rows,
    pencil_term_radii,
)
from .series import (
    EvalResult,
    TruncSeries,
    _modulus,
    convolve,
    dilate,
    evaluate,
    evaluate_many,
    exact_product,
    horner_rows,
    is_normalized,
    regular_beyond_disk,
)

__all__ = [
    "Functional",
    "apply",
    "in_T",
    "in_dual",
    "in_perp",
    "in_dual_hull",
    "is_complete_T",
    "sigma_search",
    "KernelPool",
    "build_transpose_pool",
    "RegionCloud",
    "functional_image",
    "VerifierConfig",
    "CheckRecord",
    "VerifierReport",
    "verify_theorem",
    "THEOREM_NAMES",
]


# -- functionals ---------------------------------------------------------------


@dataclass(frozen=True)
class Functional:
    """Continuous linear functional ``f -> (f*kernel)(1)``.

    The kernel must certify regularity on the closed unit disk (exact
    polynomial or tail radius > 1); it need not be normalized (the
    coefficient functional ``a_1`` has kernel ``z``).
    """

    kernel: TruncSeries
    label: str = ""

    def __post_init__(self) -> None:
        if not regular_beyond_disk(self.kernel):
            raise ValueError("functional kernel must be regular beyond the closed unit disk")

    def __call__(self, f: TruncSeries) -> EvalResult:
        return apply(self, f)


def apply(lam: Functional, f: TruncSeries) -> EvalResult:
    """``lam(f) = (f*kernel)(1)`` with a propagated error bound.

    A non-finite bound is the unusable-bound signal: the combined tail
    radius of the convolution does not exceed one, so the value cannot be
    certified at ``z = 1``.
    """
    return evaluate(convolve(f, lam.kernel), 1.0)


def _pairing_value(kernel: TruncSeries, f: TruncSeries) -> EvalResult:
    return evaluate(convolve(f, kernel), 1.0)


def _pairing_modulus(value: complex) -> float:
    """``abs`` of a pairing value that may become a margin.  A value that is
    not finite came from an overflow in the sum (the products are finite),
    so it says nothing of the exact pairing: ValueError, as where ``abs``
    of a finite value overflows, each with its own text."""
    if not cmath.isfinite(value):
        raise ValueError("pairing value is not finite (overflow in the sum)")
    return _modulus(value, "pairing value")


# the point z = 1 of row passes: Horner multiplies by it, as np.polyval
# does, which keeps polyval's inf/nan results
_AT_ONE = np.ones(1, dtype=complex)
_AT_ONE.flags.writeable = False


class _Verdict:
    """Worst certified margin and gray entries of one decision.

    Every decision procedure feeds its conclusive margins and its
    undecidable cases here and returns :meth:`certificate`: Inconclusive
    when anything was gray (the first three reasons, then a count), else
    Verified with the worst margin (1.0 when nothing had a finite one) and
    the caller's scope params.  Falsified certificates are returned by the
    callers directly, since they end the decision.  Reasons come as
    callables and only the shown ones are formatted.
    """

    SHOWN = 3  # gray reasons a certificate prints

    def __init__(self) -> None:
        self.worst = math.inf
        self.gray_count = 0
        self.reasons: list[str] = []

    def margin(self, m: float) -> None:
        self.worst = min(self.worst, m)

    def gray(self, reason: Callable[[], str]) -> None:
        self.gray_count += 1
        if len(self.reasons) < self.SHOWN:
            self.reasons.append(reason())

    def certificate(self, params: dict) -> Certificate:
        if self.gray_count:
            hidden = self.gray_count - len(self.reasons)
            more = f" (+{hidden} more)" if hidden else ""
            return Certificate(
                status=CertStatus.INCONCLUSIVE,
                reason="; ".join(self.reasons) + more,
                params={"gray_members": self.gray_count},
            )
        worst = self.worst
        return Certificate(
            status=CertStatus.VERIFIED,
            min_modulus=worst if math.isfinite(worst) else 1.0,
            winding=0,
            params=params,
        )


# -- exact pencil engine ---------------------------------------------------------


def _scaled_radii(
    radii: Sequence[tuple[float, str]], exps: Sequence[int], u: float
) -> list[tuple[float, str]]:
    return [(s * u**k, kind) for (s, kind), k in zip(radii, exps)]


def _inner_edge_crossing(radii: Sequence[tuple[float, str]], exps: Sequence[int]) -> float:
    """Scale ``u`` in (0, 1] at which the annulus contains modulus one.

    Assumes the outer edge at ``u = 1`` is at least one; the inner edge is
    continuous in ``u`` and vanishes at zero, so a crossing exists.
    """
    if pairing_interval(radii)[0] <= 1.0:
        return 1.0
    a, b = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (a + b)
        if pairing_interval(_scaled_radii(radii, exps, mid))[0] <= 1.0:
            a = mid
        else:
            b = mid
    return a


def _member_params_from_weights(
    gen: Pencil, kernel: TruncSeries, ws: Sequence[complex], scale: complex
) -> list[complex]:
    """Recover pencil parameters from pairing weights ``w_j = x_j c_j scale^k``."""
    params: list[complex] = []
    for w, k, d in zip(ws, gen.exponents, gen.domains):
        denom = kernel.coefficient(k) * scale**k
        if denom == 0 or w == 0:
            params.append(complex(d.radius) if isinstance(d, Circle) else 0.0 + 0.0j)
        else:
            params.append(w / denom)
    return params


@dataclass(frozen=True)
class _PencilOutcome:
    margin: float
    params: Optional[tuple[complex, ...]] = None
    dilation: Optional[complex] = None
    value: complex = 0.0 + 0.0j


def _pencil_pairing_at_one(
    gen: Pencil, kernel: TruncSeries, slot: bool
) -> Optional[_PencilOutcome]:
    """Exact decision for ``1 + sum_j x_j a_{k_j}(kernel)`` over the domains.

    Returns None when the exact route is unavailable (segment domains or
    kernel coefficients beyond the stored block); otherwise the certified
    margin, with constructive member parameters when zero is attained.
    With ``slot`` the member ranges over all dilations ``P_u``, which sweeps
    the annulus inner edge through one whenever the outer edge reaches it.
    """
    radii = pencil_term_radii(gen, kernel)
    if radii is None:
        return None
    dist = pairing_margin(radii, slot)
    if dist > 0.0:
        return _PencilOutcome(dist)
    u = _inner_edge_crossing(radii, gen.exponents) if slot else 1.0
    ws = pairing_zero_weights(_scaled_radii(radii, gen.exponents, u), slack=1e-12)
    if ws is None:
        return _PencilOutcome(0.0)
    params = _member_params_from_weights(gen, kernel, ws, complex(u))
    value = 1.0 + sum(
        p * kernel.coefficient(k) * u**k for p, k in zip(params, gen.exponents)
    )
    return _PencilOutcome(0.0, tuple(params), complex(u) if slot else None, value)


def _clist(zs: Sequence[complex]) -> list[list[float]]:
    return [[complex(z).real, complex(z).imag] for z in zs]


def _falsified_pairing(
    gen_index: int,
    gen,
    params: Sequence[complex],
    value: complex,
    dilation: Optional[complex],
) -> Certificate:
    info = {
        "generator": gen_index,
        "kind": gen.kind,
        "member_params": _clist(params),
        "pairing_value": [value.real, value.imag],
    }
    if dilation is not None:
        info["dilation"] = [dilation.real, dilation.imag]
    return Certificate(
        status=CertStatus.FALSIFIED,
        witness=1.0 + 0.0j,
        reason="pairing vanishes at a family member",
        params=info,
    )


def _x_slices(
    gen: Rational, kernel: TruncSeries, ys: Sequence[complex], us: Sequence[complex]
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Exact-in-x pairing margins of the ``(y, dilation)`` slices, y-major.

    The pairing of ``P_u((1+xz)/(1+yz))`` with the kernel is affine in x,
    ``1 + (x - y) S`` with ``S = sum_{k>=1} a_k u^k (-y)^{k-1}`` over the
    stored block, plus a tail slack (unbounded without tail data, unless
    ``u = 0`` or ``y = 0`` with ``a_1`` stored).  Yields per block its
    first slice, ``S``, the tails and the margins, each bitwise a lone
    slice's under Python's arithmetic (``np.hypot`` for ``abs``; where
    ``abs`` overflows, no margin is finite).  Blocks hold at most
    ``_PAIR_BUDGET`` terms, the first 64, so an early root stays cheap.
    """
    N, R, nu = kernel.order, gen.x_domain.max_abs, len(us)
    ks = np.arange(1, N + 1)
    Y, U = np.array(ys), np.array(us)  # real ys stay real: their powers are a lone slice's
    n, lo, budget = len(ys) * nu, 0, 64
    while lo < n:
        iy, iu = np.divmod(np.arange(lo, min(lo + max(1, budget // max(N, 1)), n)), nu)
        y, u = Y[iy], U[iu]
        terms = np.repeat(kernel.coeffs[None, 1:], len(iy), axis=0) * np.power(u[:, None], ks)
        S = (terms * np.power(-y[:, None], ks - 1)).sum(axis=1)
        yabs = np.hypot(y.real, y.imag)
        with np.errstate(all="ignore"):
            tail = np.zeros(len(iy))
            if not kernel.is_exact:  # no tail data: an unbounded tail constant
                (M, rho), uabs = kernel.tail or (math.inf, 1.0), np.hypot(u.real, u.imag)
                t = uabs * yabs / rho
                power = np.array([v ** (N + 1) if v < 1.0 else 0.0 for v in t.tolist()])
                tail = np.where(t < 1.0, (M / yabs) * power / (1.0 - t), math.inf)
                tail[y == 0] = M * uabs[y == 0] / rho if N < 1 else 0.0
                tail[u == 0] = 0.0  # the dilated member is the constant one
            # Python's y * S, part by part; a part's sign leaves |1 - y S|
            yS = (y.real * S.real - y.imag * S.imag, y.real * S.imag + y.imag * S.real)
            gap = np.hypot(1.0 - yS[0], yS[1]) - R * np.hypot(S.real, S.imag)
            dist = np.abs(gap) if isinstance(gen.x_domain, Circle) else _max_rows(0.0, gap)
            margin = dist - (R + yabs) * tail
        yield lo, S, tail, margin
        lo, budget = lo + len(iy), _PAIR_BUDGET


def _exact_products(gens: Sequence[Generator], g: TruncSeries) -> np.ndarray:
    """Whether :func:`convolve` makes every (dilated) member of each of
    ``gens`` with ``g`` an exact polynomial, decided for all at once.

    It does when ``g`` is exact with no coefficient beyond the product
    order, or when the member is an exact polynomial whose coefficients
    ``g`` pairs with (:func:`~convdual.series.exact_product`).  Rational
    members are counted as non-exact, so their products with a non-exact
    kernel are left to the per-member path.
    """
    orders = np.array([gen.order for gen in gens], dtype=int)
    member_exact = np.array(
        [isinstance(gen, Pencil) or (isinstance(gen, Fixed) and gen.series.is_exact) for gen in gens],
        dtype=bool,
    )
    nonzero = np.flatnonzero(g.coeffs)  # NaN counts, as np.any counts it
    last = nonzero[-1] if nonzero.size else -1
    return (member_exact & exact_product(g, orders)) | (g.is_exact & (last <= orders))


def _sampled_table(
    V: FamilySpec, gens: Sequence[int], g: TruncSeries, grid: ParamGrid
) -> tuple[LeadingRows, np.ndarray, np.ndarray, Iterator[range]]:
    """The sampled members of V's generators ``gens`` (ascending), as rows for ``g``.

    Returns their :func:`leading_rows`, with ``gen_index`` in V's
    numbering so ``table.member(V, i)`` and ``table.tag(V, i)`` read them,
    as wide as the longest exact product with ``g`` (the rows of the other
    members are never read, so they cost no width), each member's product
    order (the truncation :func:`convolve` applies), whether that product
    is exact (:func:`_exact_products`), and each generator's row range, in
    order.  Past a member's stored block a row is zero for an exact
    member and NaN otherwise, so such a product is left to the per-member
    path.  ``grid.max_members`` counts the members of all ``gens``
    together.
    """
    sampled = FamilySpec(tuple(V.generators[i] for i in gens), V.dilation_slot)
    gen_orders = np.minimum([gen.order for gen in sampled.generators], g.order)
    gen_exact = _exact_products(sampled.generators, g)
    table = leading_rows(sampled, grid, int(gen_orders[gen_exact].max(initial=0)) + 1)
    orders = gen_orders[table.gen_index]
    exact = gen_exact[table.gen_index]
    bounds = np.searchsorted(table.gen_index, np.arange(len(gens) + 1)).tolist()
    table = table._replace(gen_index=np.asarray(gens, dtype=int)[table.gen_index])
    return table, orders, exact, map(range, bounds[:-1], bounds[1:])


def _table_products(
    table: LeadingRows, orders: np.ndarray, exact: np.ndarray, g: TruncSeries, zs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row pass of a :func:`_sampled_table`: its products with ``g`` at ``zs``.

    Returns the values, one row per member, and which rows they fill: those
    whose products are exact (``exact``) with finite coefficients.  Each
    block of about ``_PAIR_BUDGET`` values is multiplied by ``g`` over its
    own product columns once and summed by
    :func:`~convdual.series.horner_rows`, bitwise
    ``evaluate_many(convolve(member, g), zs)`` with bound zero.  Callers
    build the other members' series lazily, in member order, so the first
    Falsified member and the first error are those of the per-member loop.
    """
    values = np.zeros((len(table.coeffs), len(zs)), dtype=complex)  # unfilled rows are read too
    filled = np.zeros(len(values), dtype=bool)
    step = max(1, _PAIR_BUDGET // len(zs))
    change = (orders[1:] != orders[:-1]) | (exact[1:] != exact[:-1])
    cuts = (np.flatnonzero(change) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [len(values)]):  # runs of one order
        if not exact[lo]:
            continue
        cols = slice(0, int(orders[lo]) + 1)
        for i in range(lo, hi, step):
            block = slice(i, min(i + step, hi))
            with np.errstate(over="ignore", invalid="ignore"):  # judged where the rows are read
                products = table.coeffs[block, cols] * g.coeffs[cols]
                finite = np.all(np.isfinite(products), axis=1)
                filled[block] = finite
                values[block][finite] = horner_rows(products[finite], zs)
    return values, filled


def _clear_pairings(
    values: np.ndarray, filled: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """Moduli of pairing values at ``z = 1`` with bound zero, and which
    ``filled`` ones the per-member code would take as plain margins: finite,
    at or above the witness bar and above the floor (NaN never is)."""
    with np.errstate(over="ignore"):
        moduli = np.hypot(values.real, values.imag)  # abs() where it does not overflow
    clear = (moduli >= tol.witness_bar) & (moduli > tol.margin_floor) & (moduli < math.inf)
    return moduli, filled & clear


def _feed_clear(verdict: _Verdict, margins: np.ndarray, clear: np.ndarray) -> list[int]:
    """Feed ``verdict`` the worst of the ``clear`` margins in one step and
    return the other rows, ascending, for the caller's per-row code.

    Clear rows only lower the worst margin, which does not depend on order,
    so visiting the rest in order gives the first Falsified row, the gray
    reasons and the first error of a loop over every row.
    """
    verdict.margin(float(margins[clear].min(initial=math.inf)))
    return (~clear).nonzero()[0].tolist()


def _pairing_certificate(
    kernel: TruncSeries,
    family: FamilySpec,
    grid: Optional[ParamGrid],
    tol: Tolerances,
) -> Certificate:
    """Shared engine: certify ``1 + sum a_k(f) a_k(kernel) != 0`` over the family.

    Each generator kind is decided by one array pass of its own: pencils
    over disks and circles in closed form, rational generators by the
    x-slices of :func:`_x_slices` (only slices that do not clear the floor
    are visited, for a root in the x-domain or a gray reason), and the
    members of the other generators (segment pencils, pencils needing
    undetermined kernel coefficients, fixed members, all dilated in a slot
    family) as one :func:`_sampled_table`, whose exact products are paired
    in one :func:`_table_products` pass at ``z = 1``.  The rows and slices
    that clear the floor feed the verdict at once (:func:`_feed_clear`);
    the others are judged in sample order, and only the members without a
    filled row build their series, so the first Falsified member, the gray
    reasons and ``members_checked`` are those of a per-member loop.
    """
    grid = grid or ParamGrid()
    verdict = _Verdict()
    all_exact = True
    members_checked = 0
    table = None
    for gi, gen in enumerate(family.generators):
        if isinstance(gen, Pencil):
            outcome = _pencil_pairing_at_one(gen, kernel, family.dilation_slot)
            if outcome is not None:
                if outcome.params is not None:
                    if abs(outcome.value) < tol.witness_bar:
                        return _falsified_pairing(
                            gi, gen, outcome.params, outcome.value, outcome.dilation
                        )
                    verdict.gray(
                        lambda: f"generator {gi}: constructed witness residual "
                        f"{abs(outcome.value):.3e} exceeds the witness bar"
                    )
                    continue
                if outcome.margin > tol.margin_floor:
                    verdict.margin(outcome.margin)
                    continue
                verdict.gray(
                    lambda: f"generator {gi}: exact pairing margin {outcome.margin:.3e} "
                    "below the decision floor"
                )
                continue
        all_exact = False
        if isinstance(gen, Rational):
            dilations = Disk(1.0).point_count(grid) if family.dilation_slot else 1
            _check_member_budget(gen.y_domain.point_count(grid) * dilations, grid)
            ys = gen.y_domain.points(grid)
            us = dilation_points(grid) if family.dilation_slot else [1.0 + 0.0j]
            for lo, S, tail, margin in _x_slices(gen, kernel, ys, us):
                clear = (margin > tol.margin_floor) & (margin < math.inf)
                # the other slices in order: abs() as Python takes it (an
                # infinite margin then clears), a root in the x-domain, or gray
                for i in _feed_clear(verdict, margin, clear):
                    y, u = ys[(lo + i) // len(us)], us[(lo + i) % len(us)]
                    s, m = complex(S[i]), float(margin[i])
                    _modulus(s, "x-slice sum")
                    _modulus(1.0 - y * s, "x-slice pairing")
                    if m == math.inf:
                        continue
                    if not m > 0.0 and s != 0:
                        xstar = y - 1.0 / s
                        if gen.x_domain.contains(xstar, 1e-12):
                            value = complex(1.0 + (xstar - y) * s)
                            if abs(value) + float(tail[i]) / abs(s) < tol.witness_bar:
                                return _falsified_pairing(
                                    gi, gen, (xstar, y), value,
                                    u if family.dilation_slot else None,
                                )
                    verdict.gray(
                        lambda: f"generator {gi} at y = {y:.6g}: x-slice margin "
                        f"{m:.3e} not decidable"
                    )
            members_checked += len(ys) * len(us)
            continue
        if table is None:
            # this generator and every later one the closed forms leave to sampling
            sampled = [gi] + [
                j for j, h in enumerate(family.generators) if j > gi and (
                    isinstance(h, Fixed)
                    or (isinstance(h, Pencil) and pencil_term_radii(h, kernel) is None)
                )
            ]
            table, orders, exact, ranges = _sampled_table(family, sampled, kernel, grid)
            values, filled = _table_products(table, orders, exact, kernel, _AT_ONE)
            moduli, settled = _clear_pairings(values[:, 0], filled, tol)
        rows = next(ranges)
        members_checked += len(rows)
        here = slice(rows.start, rows.stop)
        for j in _feed_clear(verdict, moduli[here], settled[here]):
            i = rows.start + j
            if filled[i]:
                v = EvalResult(complex(values[i, 0]), 0.0)
            else:
                v = _pairing_value(kernel, table.member(family, i))
            if not math.isfinite(v.error_bound):
                verdict.gray(
                    lambda: f"{table.tag(family, i).label()}: "
                    "pairing bound unusable (tail radius <= 1)"
                )
                continue
            modulus = _pairing_modulus(v.value)
            if modulus + v.error_bound < tol.witness_bar:
                tag = table.tag(family, i)
                return _falsified_pairing(gi, gen, tag.params, v.value, tag.dilation)
            margin = modulus - v.error_bound
            if margin <= tol.margin_floor:
                verdict.gray(
                    lambda: f"{table.tag(family, i).label()}: "
                    f"pairing margin {margin:.3e} below the floor"
                )
                continue
            verdict.margin(margin)
    return verdict.certificate(
        {"scope": "exact" if all_exact else "sampled", "members_checked": members_checked}
    )


# -- transpose / perp ------------------------------------------------------------


def in_T(
    g: TruncSeries,
    V: FamilySpec,
    grid: Optional[ParamGrid] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Certificate:
    """Decide ``g`` in ``V^T``: the pairing ``(f*g)(1)`` never vanishes on V.

    Exact over pencil generators (the pairing value set is an annulus);
    sampled with refinement over other generators, with the scope recorded
    in the certificate params.
    """
    if not is_normalized(g):
        raise ValueError("transpose membership requires a normalized kernel (c_0 = 1)")
    if not regular_beyond_disk(g):
        raise ValueError("transpose kernel must be regular beyond the closed disk")
    return _pairing_certificate(g, V, grid, tol)


def sigma_search(
    V: FamilySpec,
    g: TruncSeries,
    sigma_max: float = 8.0,
    grid: Optional[ParamGrid] = None,
    margin_floor: float = 1e-12,
    refine_gap: float = 2e-4,
) -> Optional[float]:
    """Largest certifiable ``sigma`` in ``(1, sigma_max)`` for the pairing.

    Since ``(f*g)(sigma) = (f*P_sigma g)(1)``, a probe ``s`` is certified
    when it lies below the kernel's tail radius (the dilated kernel must
    stay regular on the closed disk) and :func:`in_T` verifies
    ``dilate(g, s)`` over ``V`` with a margin above ``margin_floor``; a
    dilation or product that overflows leaves the probe uncertified.
    Walks the shrinking schedule ``sigma_j = 1 + (sigma_max - 1) 2^-j``,
    ``j >= 1``, until a probe is certified, then bisects upward against
    ``sigma_{j-1}`` so the result is within ``refine_gap`` of the supremum
    on families where certifiability is an interval (pencils, for one).
    Raises when :func:`in_T` does not verify ``g`` itself; returns None
    when nothing above one certifies.
    """
    if sigma_max <= 1.0:
        raise ValueError("sigma_max must exceed one")
    if not is_normalized(g):
        raise ValueError("kernel must be normalized (constant term one)")
    if g.tail is None:
        raise ValueError("kernel needs tail data certifying regularity beyond the closed disk")
    if not g.is_exact and g.tail.rho <= 1.0:
        raise ValueError("kernel tail radius must exceed one")
    grid = grid or COARSE_GRID
    if not in_T(g, V, grid).verified:
        raise ValueError("pairing at z = 1 is not certifiably nonvanishing for this kernel")
    cap = math.inf if g.is_exact else g.tail.rho

    def ok(s: float) -> bool:
        if s >= cap:
            return False
        try:  # a dilated coefficient or a product that overflows raises, silently
            with np.errstate(over="ignore", invalid="ignore"):
                cert = in_T(dilate(g, s), V, grid)
        except ValueError:
            return False
        return cert.verified and cert.min_modulus > margin_floor

    probes = [1.0 + (sigma_max - 1.0) * 2.0**-j for j in range(49)]
    j = next((j for j in range(1, 49) if ok(probes[j])), None)
    if j is None:
        return None
    lo, hi = probes[j], min(probes[j - 1], cap, sigma_max)
    while hi - lo > refine_gap:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def in_perp(
    h: TruncSeries,
    U: FamilySpec,
    grid: Optional[ParamGrid] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Certificate:
    """Decide ``h`` in ``U^perp``: ``(g*h)(1) != 0`` for every ``g`` in U.

    The regularity burden swaps sides: members of ``U`` must extend beyond
    the closed disk while ``h`` only needs the open disk.
    """
    if not is_normalized(h):
        raise ValueError("perp membership requires a normalized series (c_0 = 1)")
    for gen in U.generators:
        if isinstance(gen, Fixed) and not regular_beyond_disk(gen.series):
            raise ValueError(
                "perp family members must be regular beyond the closed disk "
                f"(fixed generator has tail {gen.series.tail})"
            )
    return _pairing_certificate(h, U, grid, tol)


# -- dual ------------------------------------------------------------------------


def _pencil_dual_certificate(
    gen_index: int, gen: Pencil, g: TruncSeries, tol: Tolerances
) -> Optional[Certificate]:
    """Exact open-disk decision for one pencil generator.

    Sweeping ``|z| = r`` upward scales the annulus of pairing values, so a
    zero exists inside the open disk exactly when the outer edge at
    ``r -> 1`` exceeds one; the inner edge never protects (it crosses one
    on the way out).  The dilation slot is absorbed by the same sweep.
    """
    radii = pencil_term_radii(gen, g)
    if radii is None:
        return None
    hi = sum(s for s, _ in radii)
    if hi <= 1.0:
        r_ref = 1.0 - 2.0**-12
        margin = 1.0 - sum(s * r_ref**k for (s, _), k in zip(radii, gen.exponents))
        return Certificate(
            status=CertStatus.VERIFIED,
            min_modulus=margin,
            winding=0,
            params={"scope": "exact", "generator": gen_index, "sup_outer_edge": hi},
        )
    # zero inside: walk the radius to where the outer edge passes one
    if len(gen.exponents) == 1 and radii[0][0] > 0:
        k = gen.exponents[0]
        d = gen.domains[0]
        x = complex(d.radius if isinstance(d, (Disk, Circle)) else 1.0)
        c = g.coefficient(k) * x
        z = (-1.0 / c) ** (1.0 / k) if k > 1 else -1.0 / c
        params = (x,)
        value = 1.0 + x * g.coefficient(k) * z**k
    else:
        level = 1.0 + 0.5 * (hi - 1.0)
        a, b = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (a + b)
            if sum(s * mid**k for (s, _), k in zip(radii, gen.exponents)) >= level:
                b = mid
            else:
                a = mid
        r = b
        u = _inner_edge_crossing(_scaled_radii(radii, gen.exponents, r), gen.exponents)
        z = complex(r * u)
        ws = pairing_zero_weights(_scaled_radii(radii, gen.exponents, r * u), slack=1e-12)
        if ws is None:
            return Certificate(
                status=CertStatus.INCONCLUSIVE,
                reason="zero indicated inside the disk but witness construction failed",
                params={"generator": gen_index, "sup_outer_edge": hi},
            )
        params = tuple(_member_params_from_weights(gen, g, ws, z))
        value = 1.0 + sum(p * g.coefficient(k) * z**k for p, k in zip(params, gen.exponents))
    if abs(value) >= tol.witness_bar or abs(z) >= 1.0:
        return Certificate(
            status=CertStatus.INCONCLUSIVE,
            reason="zero indicated inside the disk but witness verification failed",
            params={"generator": gen_index, "sup_outer_edge": hi},
        )
    return Certificate(
        status=CertStatus.FALSIFIED,
        witness=complex(z),
        reason="convolution with a family member vanishes inside the disk",
        params={
            "generator": gen_index,
            "kind": gen.kind,
            "member_params": _clist(params),
            "pairing_value": [value.real, value.imag],
        },
    )


def in_dual(
    g: TruncSeries,
    V: FamilySpec,
    grid: Optional[ParamGrid] = None,
    r_max: Optional[float] = None,
    schedule: Optional[Sequence[float]] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Certificate:
    """Decide ``g`` in ``V*``: ``(f*g)(z) != 0`` on the open unit disk.

    Pencil generators are decided exactly (dilation slots are absorbed by
    the radius sweep, so a family and its complete hull get the same
    verdict).  The members of the other generators are sampled as one
    :func:`_sampled_table`; the products with ``g`` that are exact
    polynomials go through :func:`~convdual.contour.row_margins`, which
    gives a member its margin only where :func:`nonvanishing_in_disk` would
    be Verified on the outermost circle, bitwise the same margin.  Every
    other member is built as a series and certified on its own, in sample
    order, so the first Falsified member, the gray reasons and
    ``members_checked`` are those of the per-member loop.

    Products that :func:`~convdual.contour.row_bounds` proves Verified from
    their coefficients are skipped by that loop.  They can only lower the
    worst margin, so they are settled after it, and only when it leaves a
    Verified answer (:func:`_settle_clear_rows`).
    """
    if not is_normalized(g):
        raise ValueError("dual membership requires a normalized kernel (c_0 = 1)")
    grid = grid or ParamGrid()
    # a dilated member only rescales the argument of the convolution, so the
    # open-disk decision on the base member covers every |u| <= 1; sampling
    # the base family keeps certificates identical for V and its hull
    base = replace(V, dilation_slot=False) if V.dilation_slot else V
    verdict = _Verdict()
    all_exact = True
    members_checked = 0
    table = None
    for gi, gen in enumerate(V.generators):
        if isinstance(gen, Pencil):
            cert = _pencil_dual_certificate(gi, gen, g, tol)
            if cert is not None:
                if cert.falsified:
                    return cert
                if cert.status is CertStatus.INCONCLUSIVE:
                    verdict.gray(lambda: cert.reason or f"generator {gi} inconclusive")
                    continue
                if cert.min_modulus <= tol.margin_floor:
                    verdict.gray(
                        lambda: f"generator {gi}: dual margin {cert.min_modulus:.3e} below the floor"
                    )
                    continue
                verdict.margin(cert.min_modulus)
                continue
        all_exact = False
        if table is None:
            # this generator and every later one the closed form leaves to sampling
            sampled = [gi] + [
                j for j, h in enumerate(V.generators) if j > gi and (
                    not isinstance(h, Pencil) or pencil_term_radii(h, g) is None
                )
            ]
            table, orders, exact, ranges = _sampled_table(base, sampled, g, grid)
            with np.errstate(over="ignore", invalid="ignore"):
                products = table.coeffs * g.coeffs[: table.coeffs.shape[1]]
            products[~exact] = np.nan  # left to the per-member path, as wide as the table
            orders = np.where(exact, orders, 0)
            opts = {"r_max": r_max, "schedule": schedule, "tol": tol}
            lower = row_bounds(products, **opts)
            clear = ~np.isnan(lower)
            margins = row_margins(products[~clear], orders[~clear], **opts)
        for i in next(ranges):
            members_checked += 1
            if clear[i]:
                continue
            margin = next(margins)
            if not math.isnan(margin):
                verdict.margin(margin)
                continue
            f = table.member(base, i)
            inner = nonvanishing_in_disk(convolve(f, g), r_max=r_max, schedule=schedule, tol=tol)
            if inner.falsified:
                tag = table.tag(base, i)
                return Certificate(
                    status=CertStatus.FALSIFIED,
                    witness=inner.witness,
                    reason="convolution with a sampled member vanishes inside the disk",
                    params={
                        "generator": gi,
                        "kind": gen.kind,
                        "member_params": _clist(tag.params),
                        "member": tag.label(),
                    },
                )
            if inner.status is CertStatus.INCONCLUSIVE:
                verdict.gray(lambda: f"{table.tag(base, i).label()}: {inner.reason}")
                continue
            verdict.margin(inner.min_modulus)
    if table is not None and not verdict.gray_count:
        _settle_clear_rows(verdict, products, orders, lower, opts)
    return verdict.certificate(
        {"scope": "exact" if all_exact else "sampled", "members_checked": members_checked}
    )


def _settle_clear_rows(
    verdict: _Verdict, products: np.ndarray, orders: np.ndarray, lower: np.ndarray, opts: dict
) -> None:
    """Feed ``verdict`` the margins of the rows :func:`row_bounds` proved
    Verified (a bound, not NaN), evaluating only those that can be the worst.

    A row's margin is at least its coefficient bound and its ring bound,
    and at most its least modulus on the ring
    (:func:`~convdual.contour.ring_bounds`).  The worst margin known, or
    else the least ring modulus of the row of least coefficient bound,
    caps the worst margin.  Ring bounds are taken only for the other rows
    whose coefficient bound does not exceed that cap, and only for products
    of order two or more (a binomial's coefficient bound is as close), and
    the cap falls to their least ring modulus.  The rows whose larger bound
    is within the cap are meshed by ascending larger bound until that bound
    passes the worst margin: a row whose bound lies above it cannot lower
    it.  Every margin fed comes from :func:`row_margins`, so the worst one
    is bitwise the one the row pass gives with every row evaluated.
    """
    proven = np.argsort(lower, kind="stable")[: np.count_nonzero(~np.isnan(lower))]
    larger, cap = lower[proven], verdict.worst
    ringed = orders[proven] >= 2
    if ringed.any() and cap == math.inf:
        ring, least = ring_bounds(products[proven[:1]], **opts)
        larger[0], cap, ringed[0] = np.fmax(larger[0], ring[0]), least[0], False
    ringed &= larger <= cap
    if ringed.any():
        ring, least = ring_bounds(products[proven[ringed]], **opts)
        larger[ringed] = np.fmax(larger[ringed], ring)  # where the ring gives no bound, the other
        cap = least.min(initial=cap)
    keep = larger <= cap
    by_bound = np.argsort(larger[keep], kind="stable")
    proven, larger = proven[keep][by_bound], larger[keep][by_bound]
    margins = row_margins(products[proven], orders[proven], **opts)
    for bound in larger.tolist():
        if not bound <= verdict.worst:
            return
        verdict.margin(next(margins))


# -- dual hull ---------------------------------------------------------------------


def _knapsack_falsifier(
    h: TruncSeries, V: FamilySpec, kernels: FamilySpec, eps: float = 1e-6
) -> Optional[tuple[TruncSeries, dict]]:
    """Construct an exact transpose kernel with ``(g*h)(1) = 0`` when possible.

    Works when every V generator is a pencil over disks: a polynomial kernel
    ``1 + sum c_e z^e`` lies in ``V^T`` iff each generator's weighted
    coefficient sum stays below one, so the best attainable pairing magnitude
    is a fractional knapsack per generator (kernel exponents constrained by
    two generators at once fall back to sampling).  Returns the witness
    kernel when the optimum exceeds one.
    """
    owner: dict[int, tuple[int, float]] = {}
    for i, gen in enumerate(V.generators):
        if not isinstance(gen, Pencil) or any(not isinstance(d, Disk) for d in gen.domains):
            return None
        for k, d in zip(gen.exponents, gen.domains):
            if k in owner and owner[k][0] != i:
                return None  # shared exponent couples the constraints
            owner[k] = (i, d.radius)
    best: Optional[tuple[float, dict[int, float], int]] = None
    for kg_index, kg in enumerate(kernels.generators):
        if not isinstance(kg, Pencil) or any(not isinstance(d, Disk) for d in kg.domains):
            continue
        caps = dict(zip(kg.exponents, (d.radius for d in kg.domains)))
        gains = {  # an undetermined coefficient cannot be exploited
            e: _modulus(h.coefficient(e), "series coefficient")
            if e <= h.order or h.is_exact else 0.0
            for e in kg.exponents
        }
        chosen: dict[int, float] = {}
        total = 0.0
        free = [e for e in kg.exponents if e not in owner]
        for e in free:
            if gains[e] > 0:
                chosen[e] = caps[e]
                total += caps[e] * gains[e]
        by_gen: dict[int, list[int]] = {}
        for e in kg.exponents:
            if e in owner:
                by_gen.setdefault(owner[e][0], []).append(e)
        for i, es in by_gen.items():
            budget = 1.0 - eps
            for e in sorted(es, key=lambda e: -(gains[e] / owner[e][1] if owner[e][1] else 0)):
                R = owner[e][1]
                if gains[e] <= 0 or budget <= 0:
                    continue
                if R == 0:
                    chosen[e] = caps[e]
                    total += caps[e] * gains[e]
                    continue
                m = min(caps[e], budget / R)
                if m > 0:
                    chosen[e] = m
                    total += m * gains[e]
                    budget -= m * R
        if total > 1.0 and (best is None or total > best[0]):
            best = (total, chosen, kg_index)
    if best is None:
        return None
    S, chosen, kg_index = best
    order = max(chosen)
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[0] = 1.0
    for e, m in chosen.items():
        a = h.coefficient(e)
        if a != 0 and m > 0:
            coeffs[e] = -(m / S) * a.conjugate() / abs(a)
    gstar = TruncSeries.polynomial(coeffs)
    info = {
        "kernel_generator": kg_index,
        "kernel_coeffs": _clist(coeffs),
        "attainable_sum": S,
    }
    return gstar, info


@dataclass(frozen=True)
class KernelPool:
    """Kernels certified in ``V^T``, with their leading coefficients.

    Grid sweeps reuse one pool so the transpose filter runs once per family
    rather than once per candidate.  ``coeffs[i, k]`` is ``a_k`` of kernel
    ``i`` for ``k <= _POOL_KMAX``; rows are NaN where the coefficient is not
    determined by the stored block, which leaves those kernels' pairings to
    the per-kernel code.  The pool keeps only these rows with each kernel's
    generator index and parameters in ``spec`` (``rows``); a kernel's
    series and tag are built only when asked (:meth:`kernel`, :meth:`tag`).
    """

    spec: FamilySpec
    rows: LeadingRows
    skipped: int = 0

    @property
    def coeffs(self) -> np.ndarray:
        return self.rows.coeffs

    def kernel(self, i: int) -> TruncSeries:
        """The series of kernel ``i``, as :func:`sample` builds it."""
        return self.rows.member(self.spec, i)

    def tag(self, i: int) -> MemberTag:
        return self.rows.tag(self.spec, i)


_POOL_KMAX = 16  # leading kernel coefficients a pool stores


def _transpose_margins(V: FamilySpec, coeffs: np.ndarray) -> Optional[np.ndarray]:
    """Worst exact ``in_T`` margin over V's generators for each kernel row.

    ``coeffs`` holds leading kernel coefficients, one row per kernel.  None
    unless every generator of V is a pencil over disks and circles with
    exponents below ``coeffs.shape[1]``; NaN for a kernel whose margin the
    rows do not determine.
    """
    worst = np.full(len(coeffs), np.inf)
    for gen in V.generators:
        if not (
            isinstance(gen, Pencil)
            and max(gen.exponents) < coeffs.shape[1]
            and all(isinstance(d, (Disk, Circle)) for d in gen.domains)
        ):
            return None
        worst = np.minimum(worst, pencil_margin_rows(gen, coeffs, V.dilation_slot))
    return worst


def _clears_floor(margins: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Margins :func:`in_T` turns into Verified (NaN never does)."""
    return (margins > tol.margin_floor) & (margins > 0.0)


@functools.cache
def _stock_kernel_rows() -> tuple[FamilySpec, LeadingRows]:
    """The stock kernel family and its rows on the coarse grid, read-only.

    They do not depend on V, so every default pool build reads them; about
    0.7 MB, kept for the life of the process.
    """
    kernels = default_kernel_family()
    rows = leading_rows(kernels, COARSE_GRID, _POOL_KMAX + 1)
    for a in rows:
        if a is not None:
            a.flags.writeable = False
    return kernels, rows


def build_transpose_pool(
    V: FamilySpec,
    kernels: Optional[FamilySpec] = None,
    kernel_grid: Optional[ParamGrid] = None,
    grid: Optional[ParamGrid] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> KernelPool:
    """Sample a kernel family and keep the members certified in ``V^T``.

    The kernels are taken as leading-coefficient rows
    (:func:`~convdual.family.leading_rows`), and one array pass decides
    every kernel whose transpose decision is closed form: when every
    generator of V is a pencil over disks and circles with exponents up to
    ``_POOL_KMAX``, a normalized kernel regular beyond the disk is kept when all
    its annulus margins (bitwise the ones :func:`in_T` computes) exceed
    ``tol.margin_floor``, and skipped otherwise, where :func:`in_T` would be
    Falsified or Inconclusive.  Only the rest (other generators in V,
    coefficients beyond a kernel's stored block, kernels not normalized or
    not regular beyond the disk) is built and decided by :func:`in_T`; a
    kernel whose decision raises ValueError or is not Verified is counted
    in ``skipped``.  Kept kernels stay in sample order, and their series
    are built only when asked.  With neither ``kernels`` nor
    ``kernel_grid`` given, the stock kernel rows are computed once per
    process and shared.
    """
    if kernels is None and kernel_grid is None:
        kernels, rows = _stock_kernel_rows()
    else:
        kernels = kernels or default_kernel_family()
        rows = leading_rows(kernels, kernel_grid or COARSE_GRID, _POOL_KMAX + 1)
    margins = _transpose_margins(V, rows.coeffs)
    if margins is None:
        scalar = np.ones(len(rows.coeffs), dtype=bool)
        keep = np.zeros(len(rows.coeffs), dtype=bool)
    else:
        scalar = ~(rows.regular & (rows.coeffs[:, 0] == 1.0) & ~np.isnan(margins))
        keep = ~scalar & _clears_floor(margins, tol)
    for i in np.flatnonzero(scalar):
        try:
            keep[i] = in_T(rows.member(kernels, i), V, grid, tol).verified
        except ValueError:
            pass
    return KernelPool(spec=kernels, rows=rows.take(keep), skipped=int(np.count_nonzero(~keep)))


def _pool_kernel_annihilates(tag: MemberTag, value: complex) -> Certificate:
    return Certificate(
        status=CertStatus.FALSIFIED,
        witness=1.0 + 0.0j,
        reason="pool transpose kernel annihilates the series",
        params={
            "kernel": tag.label(),
            "kernel_params": _clist(tag.params),
            "pairing_value": [value.real, value.imag],
        },
    )


def in_dual_hull(
    h: TruncSeries,
    V: FamilySpec,
    kernels: Optional[FamilySpec] = None,
    grid: Optional[ParamGrid] = None,
    kernel_grid: Optional[ParamGrid] = None,
    tol: Tolerances = DEFAULT_TOL,
    pool: Optional[KernelPool] = None,
) -> Certificate:
    """Decide ``h`` in ``V**`` through the perp of a transpose kernel family.

    Falsified is conclusive: the construction (exact knapsack kernel over
    all-disk pencil families, or a pool kernel whose transpose certificate
    and vanishing pairing were both verified) exhibits an actual member of
    ``V^T`` annihilating ``h``.  Verified is relative to the supplied
    kernel family and grid; the certificate params say so.  ``h`` is paired
    with the pool in one row pass at ``z = 1`` over :attr:`KernelPool.coeffs`
    (:func:`~convdual.series.horner_rows`, as ``in_T`` does), which builds
    no kernel series; a kernel's row is filled where its product with ``h``
    is exact within the stored block and finite, bitwise the per-kernel
    pairing.  Filled rows that clear the floor feed the verdict at once;
    the other kernels are judged in pool order, and only those without a
    filled row build their series (:meth:`KernelPool.kernel`).  Labels are
    formatted only for the certificate's kernel and the gray reasons it
    shows.
    """
    if not is_normalized(h):
        raise ValueError("dual-hull membership requires a normalized series (c_0 = 1)")
    if pool is None:
        pool = build_transpose_pool(V, kernels, kernel_grid, grid, tol)
    hit = _knapsack_falsifier(h, V, pool.spec)
    if hit is not None:
        gstar, info = hit
        tcert = in_T(gstar, V, grid, tol)
        v = _pairing_value(gstar, h)
        if tcert.verified and abs(v.value) + v.error_bound < tol.witness_bar:
            info["pairing_value"] = [v.value.real, v.value.imag]
            info["transpose_margin"] = tcert.min_modulus
            return Certificate(
                status=CertStatus.FALSIFIED,
                witness=1.0 + 0.0j,
                reason="constructed transpose kernel annihilates the series",
                params=info,
            )
    n = len(pool.coeffs)
    if n == 0:
        return Certificate(
            status=CertStatus.INCONCLUSIVE,
            reason="no sampled kernel certified in the transpose set",
            params={"kernels_skipped": pool.skipped},
        )
    # one width: zero-padded exact kernels leave each row's Horner sum bitwise unchanged
    width = min(h.order, _POOL_KMAX) + 1
    gens = pool.spec.generators
    exact = _exact_products(gens, h) & (np.minimum([gen.order for gen in gens], h.order) < width)
    with np.errstate(over="ignore", invalid="ignore"):
        # convolve(h, g)'s operand order; one row per coefficient index keeps the loops long
        products = np.multiply(h.coeffs[:width, None], pool.coeffs.T[:width], order="C")
        values = horner_rows(products.T, _AT_ONE)[:, 0]
    filled = exact[pool.rows.gen_index] & np.isfinite(products).all(axis=0)
    moduli, clear = _clear_pairings(values, filled, tol)
    verdict = _Verdict()
    for i in _feed_clear(verdict, moduli, clear):
        if filled[i]:
            v = EvalResult(complex(values[i]), 0.0)
        else:
            v = _pairing_value(pool.kernel(i), h)
        if not math.isfinite(v.error_bound):
            verdict.gray(lambda: f"{pool.tag(i).label()}: unusable pairing bound")
            continue
        modulus = _pairing_modulus(v.value)
        if modulus + v.error_bound < tol.witness_bar:
            return _pool_kernel_annihilates(pool.tag(i), v.value)
        margin = modulus - v.error_bound
        if margin <= tol.margin_floor:
            verdict.gray(lambda: f"{pool.tag(i).label()}: pairing margin {margin:.3e} below the floor")
            continue
        verdict.margin(margin)
    return verdict.certificate(
        {
            "scope": "relative to the sampled kernel family",
            "kernels_in_transpose": n,
            "kernels_skipped": pool.skipped,
        }
    )


def is_complete_T(
    V: FamilySpec,
    kernels: Optional[FamilySpec] = None,
    grid: Optional[ParamGrid] = None,
    kernel_grid: Optional[ParamGrid] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Certificate:
    """Check completeness of ``V^T``: transpose kernels survive dilation.

    Equivalent formulation used here: every sampled kernel certified in
    ``V^T`` must also certify in ``(cm V)^T`` (the pairing with ``P_x f``
    at one equals the pairing with ``f`` at ``x``).  The kernels are those
    :func:`build_transpose_pool` keeps.  The same array pass decides them
    against the complete hull; :func:`in_T` runs only for kernels it leaves
    undecided or below the floor, in pool order, and the first failure is
    reported as Falsified with both the kernel and the offending member.
    """
    pool = build_transpose_pool(V, kernels, kernel_grid, grid, tol)
    hull = complete_hull(V)
    verdict = _Verdict()
    margins = _transpose_margins(hull, pool.coeffs)
    if margins is None:
        scalar = range(len(pool.coeffs))
    else:
        scalar = _feed_clear(verdict, margins, _clears_floor(margins, tol))
    for i in scalar:
        cert = in_T(pool.kernel(i), hull, grid, tol)
        if cert.falsified:
            tag = pool.tag(i)
            params = dict(cert.params)
            params["kernel"] = tag.label()
            params["kernel_params"] = _clist(tag.params)
            return Certificate(
                status=CertStatus.FALSIFIED,
                witness=cert.witness,
                reason="transpose kernel fails against a dilated member",
                params=params,
            )
        if cert.status is CertStatus.INCONCLUSIVE:
            verdict.gray(lambda: f"{pool.tag(i).label()}: {cert.reason}")
            continue
        verdict.margin(cert.min_modulus)
    return verdict.certificate({"kernels_in_transpose": len(pool.coeffs)})


# -- functional images ------------------------------------------------------------


@dataclass(frozen=True)
class _DeferredLabels:
    """``count`` cloud labels, formatted by ``make()`` when first read."""

    count: int
    make: Callable[[], Iterable[str]]

    def __len__(self) -> int:
        return self.count


class _LabelsField:
    """The ``RegionCloud.labels`` field: a tuple of strings when read.

    A ``_DeferredLabels`` value is stored as given and replaced by its tuple
    on first read.  As a descriptor-typed dataclass field it has no default
    (class access raises AttributeError), so ``labels`` stays required.
    """

    def __get__(self, cloud, owner=None):
        if cloud is None:
            raise AttributeError("labels")
        labels = cloud.__dict__["labels"]
        if isinstance(labels, _DeferredLabels):
            labels = cloud.__dict__["labels"] = tuple(labels.make())
        return labels

    def __set__(self, cloud, labels) -> None:
        cloud.__dict__["labels"] = labels


@dataclass(frozen=True)
class RegionCloud:
    """Certified point cloud approximating a functional image ``lam(V)``.

    Every point carries the evaluation error bound, the member tag it came
    from, and the evaluation point in the z-plane.  ``boundary_flags`` marks
    boundary candidates; for the direct route these come from a coverage
    probe (a point is interior when every direction at twice the mesh
    spacing is backed by a nearby cloud point; non-finite points are never
    flagged), for the border route they are the images of the outermost
    evaluation radius.

    On both routes the sampled members, dilated ones included, form one
    table of leading coefficients; every member whose product with the
    kernel is an exact polynomial with finite coefficients is evaluated in
    one batched pass, at ``z = 1`` or on the whole border mesh, and only
    the others (products with a tail) build their series one by one.
    ``mesh_spacing`` (unless given) and the probe measure against the
    distinct finite points, deduplicated once per cloud by a sort (of the
    real parts first, from 4096 points on, unless the cloud is
    conjugate-symmetric), and run on a uniform cell grid: about
    ``O(n log n)`` time for ``n`` points spread without dense clusters.
    The spacing settles only the nearer half of the nearest distances, on a
    ladder of cells that starts at about one point per occupied cell and
    doubles.  The probe builds its probes in blocks of about 5 MB whatever
    ``n`` is; the dedupe and the reference set take ``O(n)`` memory, about
    90 bytes per point.  The probe measures each distinct point once and
    settles most probes on one representative point per cell.  A cell grid
    finds its cells in a dense start table when that has at most
    ``8 * len(ref) + 2**16`` entries, and in the sorted cell keys otherwise.
    ``labels`` built by ``functional_image`` are formatted on first access,
    from the member table (:func:`~convdual.family.leading_rows`) listed
    again then, so unread labels keep no member arrays.
    ``nearest_distance`` measures every point on each call.
    """

    points: np.ndarray
    errors: np.ndarray
    labels: tuple[str, ...] = _LabelsField()
    eval_points: np.ndarray
    boundary_flags: np.ndarray
    mesh_spacing: float
    route: str

    def __post_init__(self) -> None:
        n = len(self.points)
        # the stored labels are counted, not formatted
        if not (len(self.errors) == len(self.__dict__["labels"]) == len(self.eval_points) == n
                and len(self.boundary_flags) == n):
            raise ValueError("cloud arrays must have equal length")
        if n and not np.all(np.isfinite(self.errors)):
            raise ValueError("every cloud point must carry a finite error bound")

    def __getstate__(self) -> dict:
        # deferred labels hold a closure, which does not pickle
        return {**self.__dict__, "labels": self.labels}

    def boundary_candidates(self) -> np.ndarray:
        return self.points[self.boundary_flags]

    def nearest_distance(self, c: complex) -> float:
        if len(self.points) == 0:
            return math.inf
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN distance, as numpy gives it
            return float(np.min(np.abs(self.points - c)))

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["re", "im", "tag", "flag"])
            for p, lab, flag in zip(self.points, self.labels, self.boundary_flags):
                w.writerow([repr(float(p.real)), repr(float(p.imag)), lab, int(flag)])


# Nearest-point geometry uses the cell method for fixed-radius near neighbours
# (Bentley, Stanat & Williams 1977): reference points are bucketed by square
# cells, and a query only measures the points in the 3x3 block of cells around
# its own.  Every other point is at least one cell side away, so a block
# minimum below the side is the exact minimum.  Distances are the same
# expression ``np.abs(q - r)`` as a brute-force pass, so results match it
# bitwise.

_PAIR_BUDGET = 1 << 16  # pairs measured, or probes built, at once: ~5 MB of temporaries
_CELL_SLACK = 1e-9  # covers rounding in cell indices (at most ~2**20 cells per axis)
_MAX_CELLS_PER_AXIS = 1 << 20
# cells a dense start table may hold beyond 8 per reference point (512 kB):
# the circle clouds of a few hundred points span grids of about 30000 cells,
# and a sorted-key lookup there doubles their probe time
_DENSE_TABLE_FLOOR = 1 << 16
# the spacing ladder starts at about _LADDER_FILL points per occupied cell and
# grows the side by _LADDER_GROWTH: measured per image-cloud template, one
# point and doubling measure about a third fewer pairs than two points and
# quadrupling (46165 against 72693 on the largest border cloud) and slow no
# template
_LADDER_FILL = 1.0
_LADDER_GROWTH = 2.0
# values from which _distinct argsorts real parts instead of complex values
_REAL_SORT_FROM = 4096
# the 3x3 block, own cell first: most covered probes settle on it
_BLOCK = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))
# the coverage probe's 16 unit directions, and its cover radius in spacings
_PROBE_RING = np.exp(2j * np.pi * np.arange(16) / 16)
_PROBE_COVER = 1.3


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """True at the first element of each run of equal values."""
    starts = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def _lexicographic_order(values: np.ndarray) -> np.ndarray:
    """An argsort of finite complex values by real, then imaginary part.

    The real parts are argsorted as floats, which is several times faster
    than sorting complex values; the imaginary parts are then put in order
    only within the runs of equal real parts that have them out of order.
    """
    order = np.argsort(values.real)
    real, imag = values.real[order], values.imag[order]
    tied = real[1:] == real[:-1]
    descents = np.flatnonzero(tied & (imag[1:] < imag[:-1]))
    if len(descents):
        run = np.zeros(len(values), dtype=np.intp)
        np.cumsum(~tied, out=run[1:])
        unsorted = np.zeros(run[-1] + 1, dtype=bool)
        unsorted[run[descents]] = True
        at = np.flatnonzero(unsorted[run])
        # the real parts order the runs, so one complex sort orders them all
        order[at] = order[at][np.argsort(values[order[at]])]
    return order


def _distinct(values: np.ndarray, return_inverse: bool = False):
    """Sorted distinct values of a finite 1-d array, as ``np.unique``: a sort and a run mask.

    From ``_REAL_SORT_FROM`` values on, the sort is
    :func:`_lexicographic_order`, unless the values hold the conjugate of
    their highest one: conjugate-symmetric clouds (kernels with real
    coefficients over conjugate-symmetric families) tie nearly every real
    part with a different imaginary part, and a complex sort is faster
    there.  ``0.0`` and ``-0.0`` are one value, and which of them is kept may
    differ from ``np.unique``; no distance measured here tells them apart.
    """
    n = len(values)
    if n >= _REAL_SORT_FROM and not np.any(values == np.conj(values[np.argmax(values.imag)])):
        order = _lexicographic_order(values)
    elif return_inverse:
        order = np.argsort(values)
    else:
        order = None
    ordered = np.sort(values) if order is None else values[order]
    starts = _run_starts(ordered)
    if not return_inverse:
        return ordered[starts]
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def _reference_set(points: np.ndarray) -> np.ndarray:
    """The distinct finite cloud points, rounded to 12 decimals.

    Spacing and coverage measure against this set; rounding merges points
    that differ only by evaluation noise.  Non-finite points are left out.
    A coordinate above about 1.8e296 overflows when scaled by ``10**12``; it
    has no fractional digits, so it is kept as it is.
    """
    with np.errstate(over="ignore"):
        rounded = np.round(points, 12)
    finite = np.isfinite(rounded)
    if not finite.all():
        for part, raw in ((rounded.real, points.real), (rounded.imag, points.imag)):
            overflowed = np.isinf(part) & np.isfinite(raw)
            part[overflowed] = raw[overflowed]
        finite = np.isfinite(rounded)
    return _distinct(rounded if finite.all() else rounded[finite])


class _CellGrid:
    """Square cells of side ``cell`` over the bounding box of finite ``ref``.

    The grid is padded by three cells on each side and cells are keyed
    ``(ix + 3) * (ny + 6) + iy + 3``.  It lies on the points multiplied by
    ``scale`` (``cell`` is measured there); see :func:`_extent`.
    """

    def __init__(self, ref: np.ndarray, cell: float, scale: float = 1.0):
        self.scale = scale
        self.x0 = float(ref.real.min()) * scale
        self.y0 = float(ref.imag.min()) * scale
        self.cell = cell
        self.nx = int((float(ref.real.max()) * scale - self.x0) / cell) + 1
        self.ny = int((float(ref.imag.max()) * scale - self.y0) / cell) + 1
        self.width = self.ny + 6

    def _cells(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # far (and infinite) queries are clipped two cells off the grid, where
        # their block is empty; fmax parks NaN queries there as well.  A far
        # offset or its quotient overflows to inf, which is clipped alike.
        if self.scale != 1.0:
            pts = pts * self.scale
        with np.errstate(over="ignore"):
            ix, iy = (
                np.fmin(np.fmax(np.floor(offset / self.cell), -2.0), top + 1).astype(np.int64)
                for offset, top in ((pts.real - self.x0, self.nx), (pts.imag - self.y0, self.ny))
            )
        return ix, iy

    def _keys(self, pts: np.ndarray) -> np.ndarray:
        ix, iy = self._cells(pts)
        return (ix + 3) * self.width + (iy + 3)


class _CellIndex(_CellGrid):
    """Finite reference points bucketed by the cells of a :class:`_CellGrid`.

    The points are sorted by key, so the three cells of one column of a 3x3
    block form one contiguous run.  Clipped queries (far, infinite or NaN)
    have their blocks in the padding, which holds no point, so block keys
    need no bounds check.  When the padded grid has at most ``8 * len(ref)
    + _DENSE_TABLE_FLOOR`` cells (at most 64 bytes per point beyond 512 kB)
    a dense start table, built by ``bincount`` and ``cumsum``, gives the
    first point of every cell with one lookup; sparse and collinear grids,
    up to 2**40 cells, look their keys up in the sorted keys by
    ``searchsorted`` instead.  Distances are measured on the points
    themselves.
    """

    def __init__(self, ref: np.ndarray, cell: float, scale: float = 1.0):
        super().__init__(ref, cell, scale)
        keys = self._keys(ref)
        # no distance depends on the order of the points within a cell
        order = np.argsort(keys)
        self.keys = keys[order]
        # the sorted points and a NaN sentinel, never within any radius, at
        # the position of the cells past the last point
        self.ref = np.append(ref[order], complex(math.nan, math.nan))
        size = (self.nx + 6) * self.width
        self.start = None
        if size <= 8 * len(ref) + _DENSE_TABLE_FLOOR:
            # start[k] counts the points keyed below k
            self.start = np.bincount(self.keys + 1, minlength=size + 1)
            np.cumsum(self.start, out=self.start)

    def _first(self, keys: np.ndarray) -> np.ndarray:
        """Sorted position of the first point whose key is at least ``keys``."""
        if self.start is not None:
            return self.start[keys]
        return np.searchsorted(self.keys, keys)

    def block_min(self, queries: np.ndarray, positive: bool = False) -> np.ndarray:
        """Minimum of ``|q - r|`` over the 3x3 cell block around each query.

        ``inf`` where the block holds no point.  With ``positive``, distances
        of zero are left out (see :func:`_grid_nearest`).
        Each column of the block is one run of sorted points, from the first
        point of its lowest cell to the first point past its highest.
        Candidates are measured in runs of at most ``_PAIR_BUDGET`` pairs, so
        memory stays bounded however many points share a cell.
        """
        n = len(queries)
        low = self._keys(queries)[:, None] + np.array([-self.width - 1, -1, self.width - 1])
        starts = self._first(low)
        lens = self._first(low + 3) - starts
        per_query = lens.sum(axis=1)
        cum = np.cumsum(per_query)
        out = np.full(n, np.inf)
        i = 0
        while i < n:
            done = int(cum[i - 1]) if i else 0
            j = max(int(np.searchsorted(cum, done + _PAIR_BUDGET, "right")), i + 1)
            counts = per_query[i:j]
            total = int(counts.sum())
            if total:
                run_len = lens[i:j].ravel()
                run_at = np.cumsum(run_len) - run_len
                cand = np.repeat(starts[i:j].ravel() - run_at, run_len) + np.arange(total)
                d = np.abs(np.repeat(queries[i:j], counts) - self.ref[cand])
                if positive:
                    d[d == 0.0] = np.inf
                hit = np.flatnonzero(counts)
                first = (np.cumsum(counts) - counts)[hit]
                out[i + hit] = np.minimum.reduceat(d, first)
            i = j
        return out

    def near_representative(self, queries: np.ndarray, radius: float) -> np.ndarray:
        """Whether a cell representative in the query's 3x3 block is within ``radius``.

        The representative of a non-empty cell is its first sorted point.
        An empty cell reads the first point after it, which is still a
        reference point (or the NaN sentinel), so True proves that some
        reference point is within ``radius`` of the query, by the comparison
        ``np.abs(q - r) <= radius`` a block minimum would make; False leaves
        the query open.
        """
        keys = self._keys(queries)
        near = np.zeros(len(queries), dtype=bool)
        pending = np.arange(len(queries))
        for dx, dy in _BLOCK:
            slot = self._first(keys[pending] + (dx * self.width + dy))
            with np.errstate(over="ignore"):  # an empty cell's far point may be inf away: no hit
                hit = np.abs(queries[pending] - self.ref[slot]) <= radius
            near[pending[hit]] = True
            pending = pending[~hit]
            if not len(pending):
                break
        return near


def _extent(ref: np.ndarray) -> tuple[float, float, float]:
    """Extent of ``ref`` along each axis, at the scale (1 or 1/2) that keeps it finite.

    Finite points more than about 1.8e308 apart have an infinite extent;
    halved they do not, so the cell grid of such a cloud is laid on its
    halves.  Halving is exact above about 2.2e-308, and below it the error
    is far smaller than any cell side of such a cloud.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ys = float(np.ptp(ref.real)), float(np.ptp(ref.imag))
    if max(xs, ys) == math.inf and np.all(np.isfinite(ref)):
        return float(np.ptp(ref.real * 0.5)), float(np.ptp(ref.imag * 0.5)), 0.5
    return xs, ys, 1.0


def _brute_nearest(queries: np.ndarray, ref: np.ndarray, positive: bool = False) -> np.ndarray:
    """All-pairs nearest distance, in blocks of at most ``_PAIR_BUDGET`` pairs."""
    out = np.empty(len(queries))
    step = max(1, _PAIR_BUDGET // max(len(ref), 1))
    for i in range(0, len(queries), step):
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN distance, as numpy gives it
            d = np.abs(queries[i : i + step, None] - ref[None, :])
        if positive:
            d[d == 0.0] = np.inf
        out[i : i + step] = np.min(d, axis=1)
    return out


def _grid_nearest(
    queries: np.ndarray, ref: np.ndarray, positive: bool = False, enough: Optional[int] = None
) -> np.ndarray:
    """Exact nearest distance through cell indexes of growing side.

    The first index has about one reference point per cell of the bounding
    box.  When its occupied cells hold ``m > 1`` points on average (rings
    and curves, as in border clouds), the ladder starts from that side
    shrunk by ``sqrt(1 / m)``, about one point per occupied cell, near the
    median spacing of such clouds.  A query is settled once its block
    minimum is at most the cell side times ``1 - _CELL_SLACK``; the rest
    retry with cells twice as large, and whatever is left once the side
    exceeds the extent of ``ref`` (queries far outside the cloud) takes the
    all-pairs pass.  Neither the start nor the growth changes a distance,
    only how many cells are tried and how many pairs each one measures.

    With ``positive``, distances of zero are left out.  Two distinct points
    are never at distance zero (a floating-point difference of distinct
    values is never zero), so for queries drawn from a ``ref`` without
    repeated values this is the distance to the nearest other point.

    With ``enough``, the ladder stops as soon as that many queries are
    settled and leaves the others at ``inf``.  Every point outside a
    query's block is at least a cell side away, so an unsettled query's
    nearest distance is at least every settled one's: the ``enough``
    smallest distances are exact.
    """
    out = np.full(len(queries), np.inf)
    if len(queries) == 0 or len(ref) == 0:
        return out
    pending = np.arange(len(queries))
    needed = len(queries) if enough is None else enough
    xs, ys, scale = _extent(ref)
    span = max(xs, ys)
    if 0.0 < span < math.inf and np.all(np.isfinite(ref)):
        # about one point per cell; the floor keeps collinear clouds from
        # piling sqrt(n) points into each cell, and the key range bounded
        floor = span / min(len(ref), _MAX_CELLS_PER_AXIS)
        cell = max(math.sqrt(xs) * math.sqrt(ys / len(ref)), floor)
        occupied = np.count_nonzero(_run_starts(np.sort(_CellGrid(ref, cell, scale)._keys(ref))))
        occupancy = len(ref) / occupied
        if occupancy > _LADDER_FILL:
            cell = max(cell * math.sqrt(_LADDER_FILL / occupancy), span / _MAX_CELLS_PER_AXIS)
        while cell <= span:
            d = _CellIndex(ref, cell, scale).block_min(queries[pending], positive)
            settled = d * scale <= cell * (1.0 - _CELL_SLACK)
            out[pending[settled]] = d[settled]
            pending = pending[~settled]
            needed -= int(np.count_nonzero(settled))
            if needed <= 0 or not len(pending):
                return out
            cell *= _LADDER_GROWTH
    if len(pending):
        out[pending] = _brute_nearest(queries[pending], ref, positive)
    return out


def _nearest_in_set(queries: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Distance from each query to the nearest reference point.

    Exact: equal, bitwise, to the minimum of ``np.abs(q - ref)`` over all of
    ``ref`` (``inf`` when ``ref`` is empty).  ``ref`` is deduplicated
    (:func:`_exact_reference`) and bucketed into a uniform cell grid, so
    queries near the cloud cost about
    ``O(len(ref) log len(ref) + len(queries))`` instead of
    ``O(len(queries) * len(ref))``; queries far outside it fall back to the
    all-pairs pass.  Temporaries stay below ``_PAIR_BUDGET`` query-candidate
    pairs (about 5 MB).
    """
    return _grid_nearest(np.asarray(queries, dtype=complex), _exact_reference(ref))


def _exact_reference(points) -> np.ndarray:
    """The distinct finite ``points``, unrounded, then every non-finite one.

    ``np.unique`` alone would merge all values holding a NaN into one, and
    ``inf + nan j`` is ``inf`` away from a finite query where ``0.5 + nan j``
    is ``nan``; keeping them all keeps the all-pairs minimum.
    """
    points = np.asarray(points, dtype=complex)
    finite = np.isfinite(points)
    return np.concatenate([np.unique(points[finite]), points[~finite]])


def _coverage_boundary_flags(
    points: np.ndarray, spacing: float, probe: float = 2.0, ref: Optional[np.ndarray] = None
) -> np.ndarray:
    """Flag points whose probe circle is not fully backed by the cloud.

    A finite point is flagged when one of its 16 probes at ``probe *
    spacing`` has no point of the reference set (``ref``, by default
    ``_reference_set(points)``) within ``1.3 * spacing``; non-finite points
    are never flagged.  Image clouds probe at 2 spacings, C1's falsified
    candidates at 3 (:func:`_preimage_measures`).  Flags depend only on a
    point's value, so each distinct point is probed once, in blocks of at
    most ``_PAIR_BUDGET`` probes.  With cells just larger than the cover
    radius every point within it of a probe lies in the probe's 3x3 block,
    and most probes settle on one representative per cell
    (``_probe_holes``).  A ``ref`` with a non-finite point takes the
    all-pairs pass, where a NaN distance backs its probe.
    """
    flags = np.zeros(len(points), dtype=bool)
    finite = np.isfinite(points)
    distinct, inverse = _distinct(points[finite], return_inverse=True)
    if not len(distinct):
        return flags
    if ref is None:
        ref = _reference_set(points)
    steps = probe * spacing * _PROBE_RING
    radius = _PROBE_COVER * spacing
    xs, ys, scale = _extent(ref) if len(ref) else (0.0, 0.0, 1.0)
    span = max(xs, ys)
    index = None
    # a non-finite reference point leaves the extent of its axis non-finite
    if 0.0 < span and np.all(np.isfinite((xs, ys, radius))) and np.all(np.isfinite(steps)):
        cell = max(radius * scale / (1.0 - _CELL_SLACK), span / _MAX_CELLS_PER_AXIS)
        index = _CellIndex(ref, cell, scale)
    hole = np.empty(len(distinct), dtype=bool)
    block = max(1, _PAIR_BUDGET // len(_PROBE_RING))
    for i in range(0, len(distinct), block):
        probes = distinct[i : i + block, None] + steps
        if index is not None:
            hole[i : i + block] = _probe_holes(index, probes, radius)
        else:  # at most one or a non-finite reference point, or non-finite steps: all pairs
            dist = _grid_nearest(probes.ravel(), ref).reshape(probes.shape)
            hole[i : i + block] = (dist > radius).any(axis=1)
    flags[finite] = hole[inverse]
    return flags


def _probe_holes(index: _CellIndex, probes: np.ndarray, radius: float) -> np.ndarray:
    """Rows of ``probes`` with a probe that has no reference point within ``radius``.

    Probes a cell representative does not settle are measured exactly, one
    per row first: off a curve or an edge that one is usually a hole, which
    settles the row without measuring its other probes.  On the 351- and
    700-point circle clouds of the image-cloud workload this first round
    settles 97-98% of the open rows, and 411 and 828 probes are measured
    instead of 3304 and 6569.
    """
    open_ = ~index.near_representative(probes.ravel(), radius).reshape(probes.shape)
    rows = np.flatnonzero(open_.any(axis=1))
    cols = open_[rows].argmax(axis=1)
    hole = np.zeros(len(probes), dtype=bool)
    hole[rows] = index.block_min(probes[rows, cols]) > radius
    open_[rows, cols] = False
    open_[hole] = False
    rows, cols = np.nonzero(open_)
    hole[rows[index.block_min(probes[rows, cols]) > radius]] = True
    return hole


def _median_spacing(points: np.ndarray, ref: Optional[np.ndarray] = None) -> float:
    """Median nearest-neighbour distance within the reference set.

    ``ref`` (distinct values) defaults to ``_reference_set(points)``; 1.0
    when it holds fewer than two points.  ``np.median`` of ``n`` distances reads only the
    ``n // 2 + 1`` smallest, so the ladder of :func:`_grid_nearest` stops
    once that many are settled; the value is bitwise that of all ``n``.
    """
    if ref is None:
        ref = _reference_set(points)
    if len(ref) < 2:
        return 1.0
    if len(ref) > 4096:  # spacing estimate only; the subsample keeps the value stable
        ref = ref[:: len(ref) // 4096 + 1]
    nn = _grid_nearest(ref, ref, positive=True, enough=len(ref) // 2 + 1)
    return float(np.median(nn))


def _image_rows(
    lam: Functional, V: FamilySpec, grid: ParamGrid, zs: np.ndarray, route: str
) -> tuple[np.ndarray, np.ndarray, _DeferredLabels]:
    """Every sampled member's ``convolve(f, lam.kernel)`` evaluated at ``zs``.

    Returns the values and error bounds, one row per member in sample
    order and one column per point, and the labels of their flattened
    values (each member's label once per point), formatted on first read
    by :meth:`~convdual.family.LeadingRows.labels` of the members listed
    again, so unread labels keep no member arrays.  The members are one
    :func:`_sampled_table` and take the row pass of :func:`_table_products`;
    the first other member whose bound is not finite at some point raises
    ValueError.
    """
    table, orders, exact, _ = _sampled_table(V, range(len(V.generators)), lam.kernel, grid)
    values, filled = _table_products(table, orders, exact, lam.kernel, zs)
    bounds = np.zeros(values.shape)
    for i in np.flatnonzero(~filled):
        values[i], bounds[i] = evaluate_many(convolve(table.member(V, i), lam.kernel), zs)
        if not np.all(np.isfinite(bounds[i])):
            raise ValueError(
                f"{route} bound unusable on member {table.tag(V, i).label()} "
                "(convolution tail radius does not exceed one)"
            )
    per_member = len(zs)
    labels = _DeferredLabels(len(values) * per_member, lambda: itertools.chain.from_iterable(
        itertools.repeat(label, per_member) for label in leading_rows(V, grid, 1).labels(V)))
    return values, bounds, labels


def functional_image(
    lam: Functional,
    V: FamilySpec,
    grid: Optional[ParamGrid] = None,
    via_border: bool = False,
    mesh_depth: int = 8,
    mesh_angles: int = 64,
    mesh_spacing: Optional[float] = None,
    boundary: bool = True,
) -> RegionCloud:
    """Certified point cloud for ``lam(V)``.

    Direct route: evaluate the functional at every sampled member and flag
    boundary candidates by coverage probing (skipped when ``boundary`` is
    off; region-equality checks only need the raw cloud).  Border route:
    restrict to the border elements and evaluate each convolution
    ``f * kernel`` on a disk mesh (radius schedule times angles, plus the
    unit circle); the images of the outermost radius are the boundary
    candidates, which carries the region boundary whenever the border
    representation does.

    Cost: on both routes the sampled members are one table of leading
    coefficients (:func:`~convdual.family.leading_rows`, dilations by
    column scaling), and every member whose product with the kernel is an
    exact polynomial is evaluated with the others in one array product and
    one Horner pass, at ``z = 1`` or on the whole mesh, bitwise equal to
    evaluating each member on its own (:func:`_image_rows`).  Only members
    whose products carry a tail (a non-exact kernel truncated below the
    member's order, or a non-exact member under a kernel with later
    coefficients) build a series each.  The geometry on top (median nearest-neighbour
    spacing, and the 16-direction coverage probe of the direct route) is
    grid-indexed: about ``O(n log n)`` for ``n`` evenly spread cloud points
    rather than quadratic, with bounded temporaries.  Both measure against
    one set of distinct finite points, built once per cloud
    (:func:`_distinct`); the spacing measures only the nearer half of its
    nearest distances (:func:`_median_spacing`), and the probe runs once per
    distinct point and settles most probes on cell representatives (see
    ``_coverage_boundary_flags``).  Each cell grid reads its 3x3 blocks and
    representatives from one table of cell starts (:class:`_CellIndex`).
    Labels are formatted when ``RegionCloud.labels`` is first read.
    """
    grid = grid or ParamGrid()
    if not via_border:
        values, bounds, labels = _image_rows(lam, V, grid, _AT_ONE, "functional")
        points = values.ravel()
        ref = _reference_set(points) if mesh_spacing is None or boundary else None
        spacing = mesh_spacing if mesh_spacing is not None else _median_spacing(points, ref)
        if boundary:
            flags = _coverage_boundary_flags(points, spacing, ref=ref)
        else:
            flags = np.zeros(len(points), dtype=bool)
        return RegionCloud(
            points=points,
            errors=bounds.ravel(),
            labels=labels,
            eval_points=np.full(len(points), 1.0 + 0.0j),
            boundary_flags=flags,
            mesh_spacing=spacing,
            route="direct",
        )
    radii = [r for r in radius_schedule(mesh_depth)] + [1.0]
    angles = np.exp(2j * np.pi * np.arange(mesh_angles) / mesh_angles)
    mesh = np.concatenate(
        [np.zeros(1, dtype=complex), np.asarray([r * a for r in radii for a in angles])]
    )
    mesh_flags = np.abs(mesh) >= 1.0 - 1e-15
    values, bounds, labels = _image_rows(lam, border_elements(V), grid, mesh, "border-route")
    points = values.ravel()
    spacing = mesh_spacing if mesh_spacing is not None else _median_spacing(points)
    return RegionCloud(
        points=points,
        errors=bounds.ravel(),
        labels=labels,
        eval_points=np.tile(mesh, len(values)),
        boundary_flags=np.tile(mesh_flags, len(values)),
        mesh_spacing=spacing,
        route="border",
    )


# -- theorem verifiers -------------------------------------------------------------


@dataclass(frozen=True)
class VerifierConfig:
    """Knobs for the verifier suites; defaults keep each suite under a minute.

    The family grid (default per suite), the kernel family, the border mesh
    depth and the tolerances.  The kernel grid and cap, the dilation radii,
    the band about the unit circle and the candidate lattice are module
    constants.
    """

    grid: Optional[ParamGrid] = None
    kernels: Optional[FamilySpec] = None
    mesh_depth: int = 8
    tol: Tolerances = DEFAULT_TOL


# the suites' kernels: the kernel family on this grid, at most _MAX_KERNELS of them
_KERNEL_GRID = ParamGrid(disk_radial=4, disk_angular=6, circle=12, segment=6)
_MAX_KERNELS = 40


# the coefficient functional a_1, f -> (f * z)(1)
_A1 = Functional(TruncSeries.polynomial([0.0, 1.0]), label="a1")
# dilation radii a dual member is taken to on its way into the hull transpose
_DILATION_RADII = (0.9, 0.99, 0.999)
# half-width of the band about |c| = 1 that C1 leaves out, and CE's slack
_BAND = 1e-3
# candidates 1 + c z of T3 and C1: c on a 21 x 21 lattice over [-2, 2]^2
_CANDIDATES = tuple(complex(re, im) for re in np.linspace(-2.0, 2.0, 21)
                    for im in np.linspace(-2.0, 2.0, 21))


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    status: str  # "pass" | "fail" | "inconclusive"
    detail: str = ""
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        d = {"check_id": self.check_id, "status": self.status, "detail": self.detail}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass(frozen=True)
class VerifierReport:
    theorem: str
    checks: tuple[CheckRecord, ...]
    summary: str  # "PASS" | "FAIL" | "INCONCLUSIVE"
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "summary": self.summary,
            "checks": [c.to_dict() for c in self.checks],
            "config": self.config,
        }


def _report(theorem: str, checks: Sequence[CheckRecord], cfg: VerifierConfig) -> VerifierReport:
    statuses = {c.status for c in checks}
    summary = "FAIL" if "fail" in statuses else (
        "INCONCLUSIVE" if "inconclusive" in statuses else "PASS")
    config = {"max_kernels": _MAX_KERNELS, "mesh_depth": cfg.mesh_depth, "band": _BAND,
              "r_list": list(_DILATION_RADII)}
    return VerifierReport(theorem, tuple(checks), summary, config)


def _kernel_pool(
    cfg: VerifierConfig, grid: ParamGrid = _KERNEL_GRID, cap: int = _MAX_KERNELS
) -> list[tuple[TruncSeries, MemberTag]]:
    """The suites' kernels: ``cfg``'s kernel family sampled on ``grid``,
    capped at ``cap`` by a stride within each generator's rows so every
    kernel kind (and the boundary rings of each block) stays represented.
    Only the kept kernels are built, in sample order."""
    kernels = cfg.kernels or default_kernel_family()
    rows = leading_rows(kernels, grid, 1)
    keep: Iterable[int] = range(len(rows.gen_index))
    if len(rows.gen_index) > cap:
        bounds = np.searchsorted(rows.gen_index, np.arange(len(kernels.generators) + 1)).tolist()
        budget = max(1, cap // len(kernels.generators))
        keep = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo <= budget:
                keep.extend(range(lo, hi))
                continue
            step = (hi - lo - 1) / max(budget - 1, 1)
            keep.extend(lo + min(int(round(i * step)), hi - lo - 1) for i in range(budget))
    return [(rows.member(kernels, i), rows.tag(kernels, i)) for i in keep]


def _preimage_setup(V: FamilySpec, cfg: VerifierConfig) -> tuple[RegionCloud, float, KernelPool]:
    """T2's and C1's set-up: the flag-free ``a_1`` image cloud of ``V`` (on a
    12 x 64 disk grid unless ``cfg.grid``), its reach of three mesh
    spacings, and the transpose pool of ``V``."""
    cloud = functional_image(
        _A1, V, cfg.grid or ParamGrid(disk_radial=12, disk_angular=64), boundary=False
    )
    pool = build_transpose_pool(V, cfg.kernels, grid=cfg.grid, tol=cfg.tol)
    return cloud, 3.0 * cloud.mesh_spacing, pool


def _direct_and_border(V: FamilySpec, cfg: VerifierConfig) -> tuple[RegionCloud, RegionCloud]:
    """T5's and CE's clouds: the ``a_1`` image of ``V`` by the direct route,
    flagged at the grid's structural spacing, and by the border route (on a
    16 x 128 disk and 64-point circle grid unless ``cfg.grid``)."""
    grid = cfg.grid or ParamGrid(disk_radial=16, disk_angular=128, circle=64)
    direct = functional_image(_A1, V, grid, mesh_spacing=_structural_spacing(V, grid))
    return direct, functional_image(_A1, V, grid, via_border=True, mesh_depth=cfg.mesh_depth)


def _structural_spacing(V: FamilySpec, grid: ParamGrid) -> float:
    """Image-space mesh spacing of ``a_1`` from the parameter grid geometry.

    ``a_1`` maps the members of a pencil ``1 + x z + ...`` to circles of
    radius ``|x|`` (and pencils without a ``z`` term to zero); the grid
    spacing maps through that scaling, so the max of radial and angular
    steps bounds the true gap.
    """
    scale = max([0.0] + [d.max_abs for gen in V.generators if isinstance(gen, Pencil)
                         for k, d in zip(gen.exponents, gen.domains) if k == 1]) or 1.0
    radial = scale / max(grid.disk_radial, 1)
    angular = 2.0 * math.pi * scale / max(grid.disk_angular, 1)
    return max(radial, angular)


def _nested_pairs() -> list[tuple[str, FamilySpec, FamilySpec, bool]]:
    """L4's and C2's pairs: a family inside a larger one, and whether the
    two should be indistinguishable."""
    base = pencil_family()
    return [
        ("pencil-vs-hull", base, complete_hull(base), True),
        ("circled-vs-pencil", FamilySpec((Pencil((1,), (Circle(1.0),)),)), base, False),
        ("half-vs-full-radius", pencil_family(radius=0.5), base, False),
    ]


def _status_cert(cert: Certificate) -> str:
    if cert.verified:
        return "pass"
    if cert.falsified:
        return "fail"
    return "inconclusive"


def _verify_T1(V: FamilySpec, cfg: VerifierConfig) -> VerifierReport:
    """Dual as closure of the hull transpose, both inclusions on samples."""
    checks: list[CheckRecord] = []
    hull = complete_hull(V)
    pool = _kernel_pool(cfg)
    forward = reverse = 0
    for g, tag in pool:
        dcert = in_dual(g, V, cfg.grid, tol=cfg.tol)
        if dcert.verified:
            forward += 1
            check_id = f"dual-dilates-into-hull-transpose[{tag.label()}]"
            for r in _DILATION_RADII:
                tcert = in_T(dilate(g, r), hull, cfg.grid, cfg.tol)
                if not tcert.verified:
                    checks.append(
                        CheckRecord(
                            check_id,
                            _status_cert(tcert),
                            detail=f"r = {r}: {tcert.status.value}: {tcert.reason or ''}",
                            witness=tcert.params or None,
                        )
                    )
                    break
            else:
                checks.append(CheckRecord(check_id, "pass"))
        try:
            tcert = in_T(g, hull, cfg.grid, cfg.tol)
        except ValueError:
            continue
        if tcert.verified:
            reverse += 1
            checks.append(
                CheckRecord(
                    f"hull-transpose-inside-dual[{tag.label()}]",
                    _status_cert(dcert),
                    detail=dcert.reason or "",
                )
            )
    if forward == 0 or reverse == 0:
        checks.append(
            CheckRecord(
                "coverage",
                "inconclusive",
                detail=f"kernel pool hit {forward} dual members, {reverse} hull-transpose members",
            )
        )
    return _report("T1", checks, cfg)


def _verify_T2(V: FamilySpec, cfg: VerifierConfig) -> VerifierReport:
    """Duality principle: the hull does not change certified images.

    On the two-pencil family the double dual strictly contains the family,
    yet every certified image value of a double-dual candidate must sit
    inside the image cloud of the family itself.
    """
    checks: list[CheckRecord] = []
    cloud, tolr, pool = _preimage_setup(V, cfg)
    candidates = [
        TruncSeries.polynomial([1.0, al, be * 1j])
        for al, be in itertools.product((0.0, 0.35, 0.6), (0.0, 0.3, 0.39))
        if not (al == be == 0.0 or al + be >= 1.0)
    ]
    for i, h in enumerate(candidates):
        hull_cert = in_dual_hull(h, V, grid=cfg.grid, tol=cfg.tol, pool=pool)
        if not hull_cert.verified:
            checks.append(
                CheckRecord(
                    f"candidate-{i}-in-double-dual",
                    "inconclusive",
                    detail=hull_cert.reason or hull_cert.status.value,
                )
            )
            continue
        val = apply(_A1, h)
        dist = cloud.nearest_distance(val.value)
        checks.append(
            CheckRecord(
                f"candidate-{i}-image-in-family-image",
                "pass" if dist <= tolr + val.error_bound else "fail",
                detail=f"distance {dist:.3e} vs tolerance {tolr:.3e}",
            )
        )
    return _report("T2", checks, cfg)


def _verify_T3(V: FamilySpec, cfg: VerifierConfig) -> VerifierReport:
    """Double dual equals the perp of the transpose, on a candidate grid."""
    pool = build_transpose_pool(V, cfg.kernels, grid=cfg.grid, tol=cfg.tol)
    if not len(pool.coeffs):
        empty = CheckRecord("coverage", "inconclusive", detail="empty transpose sample")
        return _report("T3", [empty], cfg)
    step = max(1, len(pool.coeffs) // _MAX_KERNELS)
    tfam = FamilySpec(tuple(Fixed(pool.kernel(i)) for i in range(0, len(pool.coeffs), step)))
    mismatches = gray = 0
    for c in _CANDIDATES:
        h = TruncSeries.polynomial([1.0, c])
        a = _status_cert(in_dual_hull(h, V, grid=cfg.grid, tol=cfg.tol, pool=pool))
        b = _status_cert(in_perp(h, tfam, tol=cfg.tol))
        if "inconclusive" in (a, b):
            gray += 1
        elif a == "pass" and b == "fail":
            # relative Verified must never contradict a conclusive perp zero
            mismatches += 1
    check = CheckRecord(
        "double-dual-agrees-with-transpose-perp",
        "fail" if mismatches else "pass",
        detail=f"{len(_CANDIDATES)} candidates, {mismatches} contradictions, {gray} inconclusive",
    )
    return _report("T3", [check], cfg)


def _verify_T4(V: FamilySpec, cfg: VerifierConfig) -> VerifierReport:
    """Transpose members admit a certified dilation margin above one."""
    checks: list[CheckRecord] = []
    pool = _kernel_pool(cfg)
    hits = 0
    for g, tag in pool:
        try:
            base = in_T(g, V, cfg.grid, cfg.tol)
        except ValueError:
            continue
        if not base.verified:
            continue
        hits += 1
        try:
            sig = sigma_search(V, g, grid=cfg.grid)
        except ValueError as exc:
            checks.append(
                CheckRecord(f"dilation-margin[{tag.label()}]", "inconclusive", detail=str(exc))
            )
            continue
        tcert = in_T(dilate(g, sig), V, cfg.grid, cfg.tol)
        ok = sig > 1.0 and tcert.verified
        a1 = None
        try:
            a1 = g.coefficient(1)
        except ValueError:
            pass
        checks.append(
            CheckRecord(
                f"dilation-margin[{tag.label()}]",
                "pass" if ok else ("fail" if tcert.falsified else "inconclusive"),
                detail=f"sigma = {sig:.6f}",
                witness={
                    "sigma": sig,
                    "a1": None if a1 is None else [a1.real, a1.imag],
                },
            )
        )
    if hits == 0:
        checks.append(CheckRecord("coverage", "inconclusive", detail="empty transpose sample"))
    return _report("T4", checks, cfg)


def _verify_T5(V: FamilySpec, cfg: VerifierConfig) -> VerifierReport:
    """Region boundary is carried by border-element images of the unit circle."""
    direct, border = _direct_and_border(V, cfg)
    cand = direct.boundary_candidates()
    ring = border.boundary_candidates()
    if len(cand) == 0 or len(ring) == 0:
        detail = f"{len(cand)} direct candidates, {len(ring)} border-ring images"
        return _report("T5", [CheckRecord("coverage", "inconclusive", detail)], cfg)
    tolr = 3.0 * direct.mesh_spacing
    worst = float(np.max(_nearest_in_set(cand, ring)))
    worst_in = float(np.max(_nearest_in_set(ring, direct.points)))
    checks = [
        CheckRecord(
            "boundary-candidates-near-border-circle-images",
            "pass" if worst <= tolr else "fail",
            detail=f"max distance {worst:.3e} vs tolerance {tolr:.3e} over {len(cand)} candidates",
        ),
        CheckRecord(
            "border-images-inside-region-cloud",
            "pass" if worst_in <= tolr else "fail",
            detail=f"max distance {worst_in:.3e} vs tolerance {tolr:.3e}",
        ),
    ]
    return _report("T5", checks, cfg)


def _verify_T6(V: FamilySpec, cfg: VerifierConfig) -> VerifierReport:
    """Dual border: dual members outside the hull transpose, dilations inside it."""
    checks: list[CheckRecord] = []
    hull = complete_hull(V)
    pool = _kernel_pool(cfg)
    outside = inside = 0
    for g, tag in pool:
        try:
            tcert = in_T(g, hull, cfg.grid, cfg.tol)
        except ValueError:
            continue
        dcert = in_dual(g, V, cfg.grid, tol=cfg.tol)
        if dcert.verified and tcert.falsified:
            # a dual member off the hull transpose: some dilation must enter it
            outside += 1
            entered = next(
                (r for r in _DILATION_RADII
                 if in_T(dilate(g, r), hull, cfg.grid, cfg.tol).verified),
                None,
            )
            checks.append(
                CheckRecord(
                    f"border-member-dilates-inside[{tag.label()}]",
                    "pass" if entered is not None else "fail",
                    detail="" if entered is None else f"entered at r = {entered}",
                )
            )
        elif dcert.verified and tcert.verified:
            inside += 1
            # hull-transpose dual members are not border members: strict margin
            checks.append(
                CheckRecord(
                    f"interior-member-has-margin[{tag.label()}]",
                    "pass" if tcert.min_modulus > cfg.tol.margin_floor else "inconclusive",
                    detail=f"transpose margin {tcert.min_modulus:.3e}",
                )
            )
    if outside == 0:
        checks.append(
            CheckRecord(
                "coverage",
                "inconclusive",
                detail=f"no dual member found outside the hull transpose ({inside} inside)",
            )
        )
    return _report("T6", checks, cfg)


def _t_filter_labels(
    fam: FamilySpec, pool: Sequence[tuple[TruncSeries, MemberTag]], cfg: VerifierConfig
) -> tuple[set[str], int]:
    labels = set()
    gray = 0
    for g, tag in pool:
        try:
            cert = in_T(g, fam, cfg.grid, cfg.tol)
        except ValueError:
            gray += 1
            continue
        if cert.verified:
            labels.add(tag.label())
        elif not cert.falsified:
            gray += 1
    return labels, gray


def _verify_L4(_: None, cfg: VerifierConfig) -> VerifierReport:
    """Image equality across nested families tracks transpose equality."""
    checks: list[CheckRecord] = []
    grid = cfg.grid or ParamGrid(disk_radial=6, disk_angular=24, circle=32)
    pool = _kernel_pool(cfg)
    for name, small, big, expect_equal in _nested_pairs():
        # smaller family inside the larger one; clouds compared without flags
        cloud_small = functional_image(_A1, small, grid, boundary=False)
        cloud_big = functional_image(_A1, big, grid, boundary=False)
        d_sb = float(np.max(_nearest_in_set(cloud_small.points, cloud_big.points)))
        d_bs = float(np.max(_nearest_in_set(cloud_big.points, cloud_small.points)))
        tolr = 3.0 * max(cloud_small.mesh_spacing, cloud_big.mesh_spacing)
        images_equal = max(d_sb, d_bs) <= tolr
        tsmall, gray_s = _t_filter_labels(small, pool, cfg)
        tbig, gray_b = _t_filter_labels(big, pool, cfg)
        tequal = tsmall == tbig
        if images_equal == tequal == expect_equal:
            status = "pass"
            detail = f"images {'equal' if images_equal else 'differ'} and transpose sets agree"
        elif gray_s or gray_b:
            status = "inconclusive"
            detail = f"{gray_s + gray_b} kernels inconclusive in the transpose filter"
        else:
            status = "fail"
            detail = (
                f"image equality {images_equal} vs transpose equality {tequal} "
                f"(expected {expect_equal}); hausdorff {max(d_sb, d_bs):.3e} vs {tolr:.3e}"
            )
        checks.append(CheckRecord(f"equivalence[{name}]", status, detail=detail))
    return _report("L4", checks, cfg)


def _preimage_measures(
    cloud: RegionCloud, verified: Sequence[complex], falsified: Sequence[complex]
) -> tuple[np.ndarray, np.ndarray]:
    """C1's measures: each verified candidate's distance to the cloud, and
    whether each finite falsified one sits deep inside it (every probe at
    three mesh spacings backed within 1.3).  Both read every distinct point
    (:func:`_exact_reference`), so each distance is bitwise the minimum of
    ``np.abs(points - q)`` over the whole cloud."""
    ref = _exact_reference(cloud.points)
    deep = ~_coverage_boundary_flags(
        np.asarray(falsified, dtype=complex), cloud.mesh_spacing, probe=3.0, ref=ref
    )
    return _grid_nearest(np.asarray(verified, dtype=complex), ref), deep


def _verify_C1(V: FamilySpec, cfg: VerifierConfig) -> VerifierReport:
    """Double dual as the joint preimage of the family images.

    Verified double-dual members must land within mesh reach of the image
    cloud; falsified candidates must not sit deep inside it.  Candidates in
    the unresolved shell around the cloud boundary are out of reach of the
    mesh and are not counted either way.
    """
    cloud, tolr, pool = _preimage_setup(V, cfg)
    verified: list[complex] = []
    falsified: list[complex] = []
    total = gray = 0
    for c in _CANDIDATES:
        if abs(abs(c) - 1.0) <= _BAND:
            continue
        total += 1
        cert = in_dual_hull(TruncSeries.polynomial([1.0, c]), V, grid=cfg.grid, tol=cfg.tol,
                            pool=pool)
        if cert.verified:
            verified.append(c)
        elif cert.falsified:
            falsified.append(c)
        else:
            gray += 1
    dist, deep = _preimage_measures(cloud, verified, falsified)
    bad = int(np.count_nonzero(dist > tolr)) + int(np.count_nonzero(deep))
    check = CheckRecord(
        "double-dual-matches-image-preimage",
        "fail" if bad else ("inconclusive" if gray else "pass"),
        detail=f"{total} candidates off the band, {bad} disagreements, {gray} inconclusive",
    )
    return _report("C1", [check], cfg)


def _verify_C2(_: None, cfg: VerifierConfig) -> VerifierReport:
    """Equal double duals, equal transposes, equal duals ride together."""
    checks: list[CheckRecord] = []
    pool = _kernel_pool(cfg)
    for name, A, B, expect_equal in _nested_pairs():
        if name == "circled-vs-pencil":
            continue
        ta, gray_a = _t_filter_labels(A, pool, cfg)
        tb, gray_b = _t_filter_labels(B, pool, cfg)
        da = {tag.label() for g, tag in pool if in_dual(g, A, cfg.grid, tol=cfg.tol).verified}
        db = {tag.label() for g, tag in pool if in_dual(g, B, cfg.grid, tol=cfg.tol).verified}
        t_eq, d_eq = ta == tb, da == db
        if t_eq == d_eq == expect_equal:
            status, detail = "pass", ""
        elif gray_a or gray_b:
            status, detail = "inconclusive", f"{gray_a + gray_b} kernels inconclusive"
        else:
            status = "fail"
            detail = f"transpose equality {t_eq}, dual equality {d_eq}, expected {expect_equal}"
        checks.append(CheckRecord(f"consistency[{name}]", status, detail=detail))
    return _report("C2", checks, cfg)


def _verify_C3(V: FamilySpec, cfg: VerifierConfig) -> VerifierReport:
    """Border elements have the same dual as the full family."""
    try:
        B = border_elements(V)
    except Exception as exc:
        return _report("C3", [CheckRecord("border-construction", "inconclusive", str(exc))], cfg)
    pool = _kernel_pool(cfg)
    mismatches = gray = 0
    for g, tag in pool:
        cv = in_dual(g, V, cfg.grid, tol=cfg.tol)
        cb = in_dual(g, B, cfg.grid, tol=cfg.tol)
        a, b = _status_cert(cv), _status_cert(cb)
        if "inconclusive" in (a, b):
            gray += 1
        elif a != b:
            mismatches += 1
    check = CheckRecord(
        "dual-certificates-match-on-border",
        "fail" if mismatches else ("inconclusive" if gray else "pass"),
        detail=f"{len(pool)} kernels, {mismatches} mismatches, {gray} inconclusive",
    )
    return _report("C3", [check], cfg)


def _verify_CE(V: FamilySpec, cfg: VerifierConfig) -> VerifierReport:
    """Two-pencil counterexample: border images over-cover the boundary.

    The coefficient functional sends the second pencil to zero, so the
    border-image union contains an interior point far from the true
    boundary circle; the boundary candidates themselves still trace the
    circle.  This is the one-sidedness of the border representation.
    """
    direct, border = _direct_and_border(V, cfg)
    cand = direct.boundary_candidates()
    if len(cand) == 0:
        empty = CheckRecord("coverage", "inconclusive", detail="no boundary candidates")
        return _report("CE", [empty], cfg)
    radial_err = float(np.max(np.abs(np.abs(cand) - 1.0)))
    tolr = 3.0 * direct.mesh_spacing
    zero_dist = border.nearest_distance(0.0)
    zero_to_boundary = float(np.min(np.abs(cand)))
    checks = [
        CheckRecord(
            "boundary-candidates-on-unit-circle",
            "pass" if radial_err <= tolr else "fail",
            detail=f"max radial error {radial_err:.3e} vs tolerance {tolr:.3e}",
        ),
        CheckRecord(
            "border-image-union-contains-zero",
            "pass" if zero_dist <= 1e-12 else "fail",
            detail=f"distance {zero_dist:.3e}",
            witness={"value": [0.0, 0.0], "distance": zero_dist},
        ),
        CheckRecord(
            "zero-is-interior-to-the-region",
            "pass" if zero_to_boundary >= 1.0 - _BAND else "fail",
            detail=f"nearest boundary candidate at {zero_to_boundary:.6f}",
        ),
    ]
    return _report("CE", checks, cfg)


# suite and default family of each verifier; L4 and C2 build their own families
# and take none
_SUITES = {
    "T1": (_verify_T1, pencil_family),
    "T2": (_verify_T2, counterexample_family),
    "T3": (_verify_T3, pencil_family),
    "T4": (_verify_T4, pencil_family),
    "T5": (_verify_T5, counterexample_family),
    "T6": (_verify_T6, pencil_family),
    "L4": (_verify_L4, None),
    "C1": (_verify_C1, pencil_family),
    "C2": (_verify_C2, None),
    "C3": (_verify_C3, pencil_family),
    "CE": (_verify_CE, counterexample_family),
}
THEOREM_NAMES = tuple(_SUITES)


def verify_theorem(
    name: str, V: Optional[FamilySpec] = None, config: Optional[VerifierConfig] = None
) -> VerifierReport:
    """Run one verifier suite and return its per-check report.

    ``V`` defaults to the suite's family in ``_SUITES``: the
    single-coefficient pencil family, except for the suites built around
    the two-pencil counterexample (T2, T5, CE), which default to that
    family.  L4 and C2 compare nested pencil families of their own and
    raise when given ``V``.
    """
    cfg = config or VerifierConfig()
    name = name.upper()
    if name not in _SUITES:
        raise ValueError(f"unknown verifier {name!r}; expected one of {THEOREM_NAMES}")
    suite, default_family = _SUITES[name]
    if default_family is None:
        if V is not None:
            raise ValueError(f"{name} compares its own nested pencil pairs and takes no family")
        return suite(None, cfg)
    return suite(V or default_family(), cfg)
