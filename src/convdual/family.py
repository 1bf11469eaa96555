"""Parameterized compact families of normalized analytic functions.

A :class:`FamilySpec` is a finite union of generators, each producing
members of ``A_0`` (constant term one) from parameters ranging over compact
domains:

* :class:`Pencil` with exponents ``k_1 < ... < k_m``: ``1 + sum_j x_j z^{k_j}``,
  exact polynomials;
* :class:`Rational`: ``(1 + x z)/(1 + y z)`` with ``|y| < 1``;
* :class:`Fixed`: a single explicit series.

``dilation_slot=True`` closes the family under dilations ``P_x`` with
``|x| <= 1`` (the complete hull ``cm``).  Sampling is deterministic: grids
nest under refinement and members carry stable tags.  :func:`leading_rows`
lists a family's members; :func:`sample` builds the same members as series.

The module also contains the exact geometry used for pencil pairings: the
set of values ``sum_j x_j c_j`` over independent disk/circle parameter
domains is an annulus, so nonvanishing of ``1 + sum_j x_j c_j`` reduces to
a distance computation, with constructive witnesses when zero is attained.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .series import (
    DEFAULT_ORDER,
    TruncSeries,
    _modulus,
    dilate,
    from_rational,
    is_normalized,
    rational_leading_rows,
    series_distance,
)

__all__ = [
    "Disk",
    "Circle",
    "Segment",
    "Domain",
    "ParamGrid",
    "COARSE_GRID",
    "Pencil",
    "Rational",
    "Fixed",
    "Generator",
    "FamilySpec",
    "MemberTag",
    "LeadingRows",
    "sample",
    "leading_rows",
    "complete_hull",
    "border_elements",
    "border_decompose",
    "BorderDecomposition",
    "counterexample_family",
    "default_kernel_family",
    "pencil_family",
    "nearest_member_distance",
    "UnsupportedFamilyError",
]


class UnsupportedFamilyError(ValueError):
    """A structural operation was asked of a generator kind it does not support."""


# -- parameter domains -------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _unit_roots(n: int) -> tuple[complex, ...]:
    """``exp(2 pi i j / n)`` for ``j < n``, shared by the disk and circle grids."""
    return tuple(cmath.exp(2j * math.pi * j / n) for j in range(n))


@dataclass(frozen=True)
class Disk:
    """Closed disk ``|x| <= radius`` centered at the origin."""

    radius: float

    def __post_init__(self) -> None:
        if not self.radius >= 0:
            raise ValueError("disk radius must be nonnegative")

    kind = "disk"

    def points(self, grid: "ParamGrid") -> list[complex]:
        nr = grid.disk_radial
        units = _unit_roots(grid.disk_angular)
        pts: list[complex] = [0.0 + 0.0j]
        for i in range(1, nr + 1):
            r = self.radius * i / nr
            pts.extend([r * u for u in units])
        return pts

    def point_count(self, grid: "ParamGrid") -> int:
        return 1 + grid.disk_radial * grid.disk_angular

    def contains(self, x: complex, tol: float = 1e-9) -> bool:
        return abs(x) <= self.radius + tol

    @property
    def max_abs(self) -> float:
        return self.radius


@dataclass(frozen=True)
class Circle:
    """Circle ``|x| = radius``."""

    radius: float

    def __post_init__(self) -> None:
        if not self.radius >= 0:
            raise ValueError("circle radius must be nonnegative")

    kind = "circle"

    def points(self, grid: "ParamGrid") -> list[complex]:
        return [self.radius * u for u in _unit_roots(grid.circle)]

    def point_count(self, grid: "ParamGrid") -> int:
        return grid.circle

    def contains(self, x: complex, tol: float = 1e-9) -> bool:
        return abs(abs(x) - self.radius) <= tol

    @property
    def max_abs(self) -> float:
        return self.radius


@dataclass(frozen=True)
class Segment:
    """Straight segment from ``start`` to ``end`` in the parameter plane."""

    start: complex
    end: complex

    kind = "segment"

    def __post_init__(self) -> None:
        # max_abs and contains take these moduli; past the float range abs() overflows
        for z in (self.start, self.end, self.end - self.start):
            _modulus(z, "segment endpoint or length")

    def points(self, grid: "ParamGrid") -> list[complex]:
        n = grid.segment
        return [self.start + (self.end - self.start) * i / n for i in range(n + 1)]

    def point_count(self, grid: "ParamGrid") -> int:
        return grid.segment + 1

    def contains(self, x: complex, tol: float = 1e-9) -> bool:
        d = self.end - self.start
        L = abs(d)
        if L == 0:
            return abs(x - self.start) <= tol
        t = ((x - self.start) / d).real
        proj = self.start + max(0.0, min(1.0, t)) * d
        return abs(x - proj) <= tol

    @property
    def max_abs(self) -> float:
        return max(abs(self.start), abs(self.end))


Domain = Union[Disk, Circle, Segment]


@dataclass(frozen=True)
class ParamGrid:
    """Sampling resolution; refinement doubles every count and nests."""

    disk_radial: int = 8
    disk_angular: int = 16
    circle: int = 32
    segment: int = 16
    max_members: int = 1_000_000

    def __post_init__(self) -> None:
        for name in ("disk_radial", "disk_angular", "circle", "segment"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    def refine(self) -> "ParamGrid":
        return ParamGrid(
            2 * self.disk_radial,
            2 * self.disk_angular,
            2 * self.circle,
            2 * self.segment,
            self.max_members,
        )


# coarse grid of kernel sampling: transpose pools, completeness checks,
# sigma search and border round trips
COARSE_GRID = ParamGrid(disk_radial=4, disk_angular=8, circle=16, segment=8)


def dilation_points(grid: ParamGrid) -> list[complex]:
    """Dilation parameters ``x`` of the unit-disk grid, clamped to ``|x| <= 1``.

    Boundary points of the grid can overshoot the unit circle by an ulp;
    those are projected back onto it.
    """
    return [w / abs(w) if abs(w) > 1.0 else w for w in Disk(1.0).points(grid)]


# -- generators ---------------------------------------------------------------


@dataclass(frozen=True)
class Pencil:
    """``1 + sum_j x_j z^{k_j}`` with independent parameter domains."""

    exponents: tuple[int, ...]
    domains: tuple[Domain, ...]

    kind = "pencil"

    def __post_init__(self) -> None:
        exps = tuple(int(k) for k in self.exponents)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "domains", tuple(self.domains))
        if not exps:
            raise ValueError("pencil needs at least one exponent")
        if any(k < 1 for k in exps):
            raise ValueError("pencil exponents must be >= 1")
        if len(set(exps)) != len(exps):
            raise ValueError("pencil exponents must be distinct")
        if len(self.domains) != len(exps):
            raise ValueError("one parameter domain per exponent required")

    def instantiate(self, params: Sequence[complex]) -> TruncSeries:
        coeffs = np.zeros(max(self.exponents) + 1, dtype=complex)
        coeffs[0] = 1.0
        for k, x in zip(self.exponents, params):
            coeffs[k] = x
        return TruncSeries.polynomial(coeffs)

    def param_lists(self, grid: ParamGrid) -> list[list[complex]]:
        return [d.points(grid) for d in self.domains]

    @property
    def order(self) -> int:
        return max(self.exponents)

    def base_rows(self, params: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        """The members with these parameter rows, at once: each one's
        :func:`~convdual.series.leading_block` ``width`` wide and its tail
        radius.  :class:`Rational` has the same method; a run of
        :class:`Fixed` generators is listed by :func:`_fixed_rows`."""
        if not np.all(np.isfinite(params)):
            raise ValueError("coefficients must be finite")
        rows = np.zeros((len(params), width), dtype=complex)
        rows[:, 0] = 1.0
        inside = [j for j, k in enumerate(self.exponents) if k < width]
        rows[:, [self.exponents[j] for j in inside]] = params[:, inside]
        return rows, np.full(len(params), math.inf)


@dataclass(frozen=True)
class Rational:
    """``(1 + x z)/(1 + y z)`` over domains with ``max |y| < 1``."""

    x_domain: Domain
    y_domain: Domain
    order: int = DEFAULT_ORDER

    kind = "rational"

    def __post_init__(self) -> None:
        if self.y_domain.max_abs >= 1.0:
            raise ValueError("pole domain must satisfy |y| < 1")

    def instantiate(self, params: Sequence[complex]) -> TruncSeries:
        x, y = params
        return from_rational(x, y, order=self.order)

    @property
    def domains(self) -> tuple[Domain, Domain]:
        return (self.x_domain, self.y_domain)

    def param_lists(self, grid: ParamGrid) -> list[list[complex]]:
        return [self.x_domain.points(grid), self.y_domain.points(grid)]

    def base_rows(self, params: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`Pencil.base_rows` (:func:`~convdual.series.rational_leading_rows`)."""
        return rational_leading_rows(params[:, 0], params[:, 1], self.order, width)


@dataclass(frozen=True)
class Fixed:
    """A single explicit member of ``A_0``."""

    series: TruncSeries

    kind = "fixed"
    domains = ()

    def __post_init__(self) -> None:
        if not is_normalized(self.series):
            raise ValueError("fixed members must be normalized (constant term one)")

    def instantiate(self, params: Sequence[complex]) -> TruncSeries:
        return self.series

    @property
    def order(self) -> int:
        return self.series.order

    def param_lists(self, grid: ParamGrid) -> list[list[complex]]:
        return []


def _fixed_rows(gens: Sequence[Fixed], width: int) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`Pencil.base_rows` for a run of fixed generators, one member
    each: every row bitwise :func:`~convdual.series.leading_block` of the
    stored series, filled in one pass."""
    series = [gen.series for gen in gens]
    rows = np.full((len(series), width), np.nan, dtype=complex)
    rows[[s.is_exact for s in series]] = 0.0
    sizes = np.array([s.coeffs.size for s in series])
    rows[np.arange(width) < sizes[:, None]] = np.concatenate([s.coeffs[:width] for s in series])
    return rows, np.array([s.tail_radius for s in series])


Generator = Union[Pencil, Rational, Fixed]


@dataclass(frozen=True)
class FamilySpec:
    """Finite union of generators, optionally closed under dilation."""

    generators: tuple[Generator, ...]
    dilation_slot: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ValueError("family needs at least one generator")


@dataclass(frozen=True)
class MemberTag:
    """Stable identity of a sampled member."""

    gen_index: int
    kind: str
    params: tuple[complex, ...]
    dilation: Optional[complex] = None

    def label(self) -> str:
        base = f"g{self.gen_index}:{self.kind}({','.join(_cfmt(p) for p in self.params)})"
        return base if self.dilation is None else base + _dilation_suffix(self.dilation)


def _cfmt(z: complex) -> str:
    return f"{z.real:.10g}{z.imag:+.10g}j"


def _dilation_suffix(w: complex) -> str:
    return f"@P[{_cfmt(w)}]"


def _member_count(V: FamilySpec, gen: Generator, grid: ParamGrid) -> int:
    """How many members :func:`leading_rows` lists for ``gen``, a generator
    of ``V``, counted without listing a parameter."""
    dilations = Disk(1.0).point_count(grid) if V.dilation_slot else 1
    return math.prod(d.point_count(grid) for d in gen.domains) * dilations


def _check_member_budget(total: int, grid: ParamGrid) -> None:
    if total > grid.max_members:
        raise ValueError(
            f"grid would produce more than {grid.max_members} members; "
            "coarsen the grid or raise max_members"
        )


# coefficients one member table may hold (512 MiB of complex rows)
_MAX_TABLE_ENTRIES = 1 << 25


def _check_table_budget(members: int, width: int) -> None:
    if members * width > _MAX_TABLE_ENTRIES:
        raise ValueError(
            f"member table of {members} members x {width} coefficients exceeds the limit of "
            f"{_MAX_TABLE_ENTRIES} entries; coarsen the grid or lower the order"
        )


def sample(V: FamilySpec, grid: Optional[ParamGrid] = None) -> list[tuple[TruncSeries, MemberTag]]:
    """The members of ``leading_rows(V, grid, 1)`` as series, with their tags.

    Bitwise ``LeadingRows.member`` and ``.tag`` of each row, with the same
    budget errors, but each base member is built once and then dilated.
    """
    grid = grid or ParamGrid()
    out: list[tuple[TruncSeries, MemberTag]] = []
    for run, params, dil in _param_blocks(V, grid, 1):
        dil = None if dil is None else dil.tolist()
        for gi, p in zip(np.repeat(run, len(params) // len(run)).tolist(), params.tolist()):
            gen = V.generators[gi]
            member, p = gen.instantiate(p), tuple(p)
            if dil is None:
                out.append((member, MemberTag(gi, gen.kind, p)))
            else:
                out.extend((dilate(member, w), MemberTag(gi, gen.kind, p, w)) for w in dil)
    return out


class LeadingRows(NamedTuple):
    """A family's sampled members as leading-coefficient rows (:func:`leading_rows`).

    ``coeffs[i]`` is :func:`~convdual.series.leading_block` of member ``i``
    and ``regular[i]`` says whether that member is regular beyond the
    closed disk (exact, or tail radius above one).  Member ``i`` comes from
    generator ``gen_index[i]`` with the parameters in ``params[i]`` (one
    per domain of the generator, then NaN-padded to the widest) and, in a
    family with a dilation slot, the dilation ``dilations[i]``;
    :meth:`member` and :meth:`tag` give it as a series and its tag, which
    is what :func:`sample` gives for it.
    """

    coeffs: np.ndarray  # (members, width)
    regular: np.ndarray  # (members,) bool
    gen_index: np.ndarray  # (members,) int
    params: np.ndarray  # (members, widest parameter count)
    dilations: Optional[np.ndarray]  # (members,), None without a dilation slot

    def take(self, mask: np.ndarray) -> "LeadingRows":
        """The rows selected by a boolean mask, in order."""
        dil = None if self.dilations is None else self.dilations[mask]
        return LeadingRows(
            self.coeffs[mask], self.regular[mask], self.gen_index[mask], self.params[mask], dil
        )

    def tag(self, V: FamilySpec, i: int) -> MemberTag:
        gen = V.generators[int(self.gen_index[i])]
        params = tuple(self.params[i, : len(gen.domains)].tolist())
        dil = None if self.dilations is None else complex(self.dilations[i])
        return MemberTag(int(self.gen_index[i]), gen.kind, params, dil)

    def labels(self, V: FamilySpec) -> list[str]:
        """``tag(V, i).label()`` of every row, in order; each distinct base
        member and dilation, told apart by its bytes, is formatted once."""
        keys = np.column_stack([self.gen_index.astype(complex), self.params])
        _, first, base = np.unique(keys.view(f"V{keys.itemsize * keys.shape[1]}").ravel(),
                                   return_index=True, return_inverse=True)
        texts = [replace(self.tag(V, i), dilation=None).label() for i in first.tolist()]
        if self.dilations is None:
            return [texts[k] for k in base.tolist()]
        _, first, dil = np.unique(self.dilations.view("V16"), return_index=True, return_inverse=True)
        suffixes = [_dilation_suffix(w) for w in self.dilations[first].tolist()]
        return [texts[k] + suffixes[j] for k, j in zip(base.tolist(), dil.tolist())]

    def member(self, V: FamilySpec, i: int) -> TruncSeries:
        tag = self.tag(V, i)
        member = V.generators[tag.gen_index].instantiate(tag.params)
        return member if tag.dilation is None else dilate(member, tag.dilation)


def leading_rows(V: FamilySpec, grid: ParamGrid, width: int) -> LeadingRows:
    """The family's sampled members, as their first ``width`` coefficients.

    The one lister of a family's members: generators in order, parameter
    combinations with the last domain varying fastest, each base member
    followed by its dilations.  Each generator, or run of fixed generators,
    gives its members' rows at once (``base_rows``, :func:`_fixed_rows`),
    and a dilation slot scales them by ``w ** k`` (:func:`_dilated_rows`);
    no series is built.  Raises the budget errors of :func:`_param_blocks`.
    """
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (params, coeffs, regular)
    gens: list[int] = []  # each block's generators, in order, and the members each lists
    per_gen: list[int] = []
    for run, params, dil in _param_blocks(V, grid, width):
        gen = V.generators[run.start]
        if isinstance(gen, Fixed):
            rows, radius = _fixed_rows(V.generators[run.start : run.stop], width)
        else:
            rows, radius = gen.base_rows(params, width)
        if dil is not None:  # one generator per block
            params = np.repeat(params, len(dil), axis=0)
            rows, radius = _dilated_rows(rows, radius, dil, min(width, gen.order + 1))
        blocks.append((params, rows, radius > 1.0))
        gens.extend(run)
        per_gen.extend([len(rows) // len(run)] * len(run))
    counts = [len(p) for p, _, _ in blocks]
    params = np.full((sum(counts), max(p.shape[1] for p, _, _ in blocks)), np.nan, dtype=complex)
    for (p, _, _), end in zip(blocks, itertools.accumulate(counts)):
        params[end - len(p) : end, : p.shape[1]] = p
    return LeadingRows(
        np.concatenate([c for _, c, _ in blocks]),
        np.concatenate([r for _, _, r in blocks]),
        np.repeat(gens, per_gen),
        params,
        None if dil is None else np.tile(dil, len(params) // len(dil)),
    )


def _param_blocks(
    V: FamilySpec, grid: ParamGrid, width: int
) -> Iterator[tuple[range, np.ndarray, Optional[np.ndarray]]]:
    """V's members in blocks, with the indices of the block's generators
    and the dilation parameters of a slot family: one generator's parameter
    combinations, one row each (the last domain varying fastest), or, in a
    family without a dilation slot, a run of consecutive fixed generators,
    one empty row each.

    The members so far are counted against ``grid.max_members`` and, as
    rows ``width`` wide, the table limit before a block's rows (and, the
    first time, the dilations) are listed.  A run of fixed generators ends
    at the first one that breaks a budget, so the error and its member
    count are those of a count generator by generator.
    """
    total = 0
    dil = None
    gens = V.generators
    start = 0
    while start < len(gens):
        gen, stop = gens[start], start + 1
        if isinstance(gen, Fixed) and not V.dilation_slot:  # one member each
            room = min(grid.max_members, _MAX_TABLE_ENTRIES // width) - total
            while stop < len(gens) and stop - start <= room and isinstance(gens[stop], Fixed):
                stop += 1
            total += stop - start
        else:
            total += _member_count(V, gen, grid)
        _check_member_budget(total, grid)
        _check_table_budget(total, width)
        if V.dilation_slot and dil is None:
            dil = np.asarray(dilation_points(grid), dtype=complex)
        if isinstance(gen, Fixed):
            yield range(start, stop), np.empty((stop - start, 0), dtype=complex), dil
        else:
            lists = gen.param_lists(grid)
            shape = [len(ps) for ps in lists]
            params = np.empty((math.prod(shape), len(lists)), dtype=complex)
            for j, ps in enumerate(lists):
                column = np.tile(np.asarray(ps, dtype=complex), math.prod(shape[:j]))
                params[:, j] = np.repeat(column, math.prod(shape[j + 1 :]))
            yield range(start, stop), params, dil
        start = stop


def _dilated_rows(
    rows: np.ndarray, radius: np.ndarray, w: np.ndarray, block: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every member dilated by every ``w`` (member-major), and its tail radius.

    Entries before ``block`` (the stored block) are bitwise ``dilate``'s
    ``rows[:, k] * w ** k``, later ones keep their ``leading_block``
    markers, and ``w = 0`` gives the exact constant; raises as ``dilate``
    does on a product that is not finite."""
    m, width = rows.shape
    with np.errstate(over="ignore", invalid="ignore"):
        out = rows[:, None, :] * w[:, None] ** np.arange(width)
    if not np.all(np.isfinite(out[:, :, :block])):
        raise ValueError("coefficients must be finite")
    out[:, :, block:] = rows[:, None, block:]
    zero = w == 0
    out[:, zero] = 0.0
    out[:, zero, 0] = rows[:, None, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.where(zero, math.inf, radius[:, None] / np.hypot(w.real, w.imag))
    return out.reshape(m * len(w), width), radius.ravel()


def complete_hull(V: FamilySpec) -> FamilySpec:
    """Close the family under dilations ``P_x``, ``|x| <= 1`` (idempotent)."""
    return V if V.dilation_slot else replace(V, dilation_slot=True)


# -- border ------------------------------------------------------------------


def _is_const_one(f: TruncSeries) -> bool:
    return bool(f.is_exact and f.coeffs[0] == 1 and not np.any(f.coeffs[1:]))


def border_elements(V: FamilySpec) -> FamilySpec:
    """Closed-form border: members not expressible as strict-interior dilations.

    For a pencil over independent closed disks the border is the union of
    copies with one parameter domain at a time restricted to its boundary
    circle (a joint scaling ``x_j -> x_j s^{k_j}``, ``s > 1``, must exit some
    domain).  All-circle pencils and circle-domain rationals are entirely
    border; a fixed member is its own border (``{e}`` for the constant).
    """
    if V.dilation_slot:
        raise UnsupportedFamilyError(
            "border of a dilation-slot family is not supported; take the border of the base family"
        )
    new_gens: list[Generator] = []
    for gen in V.generators:
        if isinstance(gen, Fixed):
            new_gens.append(gen)
        elif isinstance(gen, Pencil):
            if any(isinstance(d, Segment) for d in gen.domains):
                raise UnsupportedFamilyError("pencil border requires disk or circle domains")
            # a positive-radius circle domain pins every member to the border
            # (no dilation with |x| < 1 can keep that parameter on its circle)
            if any(isinstance(d, Circle) and d.radius > 0 for d in gen.domains):
                new_gens.append(gen)
                continue
            disk_idx = [i for i, d in enumerate(gen.domains) if isinstance(d, Disk) and d.radius > 0]
            if not disk_idx:
                new_gens.append(gen)
            else:
                for i in disk_idx:
                    doms = list(gen.domains)
                    doms[i] = Circle(doms[i].radius)
                    new_gens.append(Pencil(gen.exponents, tuple(doms)))
        elif isinstance(gen, Rational):
            if isinstance(gen.x_domain, Circle) and isinstance(gen.y_domain, Circle):
                new_gens.append(gen)
            else:
                raise UnsupportedFamilyError(
                    "rational border supported only for circle parameter domains"
                )
        else:  # pragma: no cover - future generator kinds
            raise UnsupportedFamilyError(f"unsupported generator kind {gen!r}")
    return FamilySpec(tuple(new_gens), dilation_slot=False)


@dataclass(frozen=True)
class BorderDecomposition:
    """``member = dilate(g, x)`` with ``g`` on the border and ``|x|`` minimal."""

    g: TruncSeries
    x: complex
    gen_index: int
    g_params: tuple[complex, ...]


def border_decompose(V: FamilySpec, tag: MemberTag, branch: int = 0) -> BorderDecomposition:
    """Factor a sampled member through the border of its generator.

    ``|x|`` is the infimum of dilation radii reaching the member, so the
    factorization is minimal; the border representative is canonicalized so its lowest
    nonconstant nonzero coefficient has argument 0 (``branch=1`` selects the
    argument-pi representative of the same rotation orbit, useful for
    uniqueness checks).  Residual root-of-unity freedom for multi-exponent
    pencils is resolved lexicographically over the remaining coefficient
    arguments.
    """
    if V.dilation_slot:
        raise UnsupportedFamilyError("decompose against the base family, not its hull")
    if not 0 <= tag.gen_index < len(V.generators):
        raise ValueError("tag does not belong to this family")
    gen = V.generators[tag.gen_index]
    target_arg = 0.0 if branch == 0 else math.pi

    if isinstance(gen, Fixed):
        if _is_const_one(gen.series):
            return BorderDecomposition(gen.series, 0.0 + 0.0j, tag.gen_index, ())
        return BorderDecomposition(gen.series, 1.0 + 0.0j, tag.gen_index, ())

    if isinstance(gen, Pencil):
        if any(isinstance(d, Segment) for d in gen.domains):
            raise UnsupportedFamilyError("pencil decomposition requires disk or circle domains")
        params = tag.params
        exps = gen.exponents
        nz = [j for j, a in enumerate(params) if a != 0]
        if not nz:
            b = []
            j0 = min(range(len(exps)), key=lambda j: exps[j])
            for j, d in enumerate(gen.domains):
                if isinstance(d, Circle) or j == j0:
                    b.append(complex(d.max_abs))
                else:
                    b.append(0.0 + 0.0j)
            g = gen.instantiate(b)
            return BorderDecomposition(g, 0.0 + 0.0j, tag.gen_index, tuple(b))
        # largest joint scale-up x_j -> x_j s^{k_j} staying inside the domains
        scale = math.inf
        for j in nz:
            d = gen.domains[j]
            if isinstance(d, Disk):
                scale = min(scale, (d.radius / abs(params[j])) ** (1.0 / exps[j]))
            else:
                scale = min(scale, 1.0)
        r0 = 1.0 / scale
        j0 = min(nz, key=lambda j: exps[j])
        k0 = exps[j0]
        base_arg = (cmath.phase(params[j0]) - target_arg) / k0
        best: Optional[tuple] = None
        for m in range(k0):
            x = r0 * cmath.exp(1j * (base_arg + 2.0 * math.pi * m / k0))
            b = tuple(params[j] * x ** (-exps[j]) if x != 0 else params[j] for j in range(len(exps)))
            key = tuple(
                round(cmath.phase(b[j]) % (2.0 * math.pi), 12)
                for j in sorted(nz, key=lambda j: exps[j])
                if j != j0
            )
            if best is None or key < best[0]:
                best = (key, x, b)
        _, x, b = best
        g = gen.instantiate(b)
        return BorderDecomposition(g, x, tag.gen_index, b)

    if isinstance(gen, Rational):
        if not (isinstance(gen.x_domain, Circle) and isinstance(gen.y_domain, Circle)):
            raise UnsupportedFamilyError(
                "rational decomposition supported only for circle parameter domains"
            )
        xp, yp = tag.params
        if xp == yp:
            b = (complex(gen.x_domain.radius), complex(-gen.y_domain.radius))
            return BorderDecomposition(gen.instantiate(b), 0.0 + 0.0j, tag.gen_index, b)
        c1 = xp - yp
        u = c1.conjugate() / abs(c1)
        if branch != 0:
            u = -u
        b = (xp * u, yp * u)
        return BorderDecomposition(gen.instantiate(b), u.conjugate(), tag.gen_index, b)

    raise UnsupportedFamilyError(f"unsupported generator kind {gen!r}")  # pragma: no cover


# -- exact pencil pairing geometry --------------------------------------------


def pencil_term_radii(gen: Pencil, kernel: TruncSeries) -> Optional[list[tuple[float, str]]]:
    """Moduli ``R_j |a_{k_j}(kernel)|`` with domain kinds.

    Returns None when a needed kernel coefficient is not determined
    (beyond the stored block of a non-exact kernel) or a domain is not
    rotation invariant; callers then fall back to sampling.
    """
    out: list[tuple[float, str]] = []
    for k, d in zip(gen.exponents, gen.domains):
        if isinstance(d, Segment):
            return None
        try:
            c = kernel.coefficient(k)
        except ValueError:
            return None
        out.append((d.max_abs * _modulus(c, "kernel coefficient"), d.kind))
    return out


def pairing_interval(radii: Sequence[tuple[float, str]]) -> tuple[float, float]:
    """Reachable moduli ``[lo, hi]`` of ``sum_j w_j`` with ``|w_j|`` in the
    given disk/circle radii (Minkowski sum of disks and circles is an annulus).

    The outer edge is summed left to right, the order
    :func:`pencil_margin_rows` repeats.
    """
    hi = 0.0
    for s, _ in radii:
        hi += s
    circ = [s for s, kind in radii if kind == "circle"]
    lo = max(0.0, 2.0 * max(circ) - hi) if circ else 0.0
    return lo, hi


def pairing_margin(radii: Sequence[tuple[float, str]], slot: bool) -> float:
    """Distance from modulus one to the annulus of reachable pairing values.

    With the dilation ``slot`` only the outer edge protects: dilating sweeps
    the inner edge continuously through one whenever the outer edge is at
    least one.  Zero when the annulus reaches modulus one.
    """
    lo, hi = pairing_interval(radii)
    return max(0.0, 1.0 - hi) if slot else max(0.0, 1.0 - hi, lo - 1.0)


def _max_rows(a, b):
    """Elementwise ``max(a, b)`` as Python's ``max`` picks: ``b`` only when ``b > a``."""
    return np.where(b > a, b, a)


def pencil_margin_rows(gen: Pencil, coeffs: np.ndarray, slot: bool) -> np.ndarray:
    """:func:`pairing_margin` for many kernels at once.

    Row ``i`` of ``coeffs`` holds the leading coefficients of kernel ``i``
    (NaN where not determined); the result is bitwise the margin
    ``pairing_margin(pencil_term_radii(gen, kernel_i), slot)``, as the
    same operations run in the same order, and NaN where that route is not
    available to the scalar code (a needed coefficient undetermined) or a
    radius is not finite.  ``gen`` must have disk/circle domains and
    exponents below ``coeffs.shape[1]``.
    """
    radii = []
    # overflowing radii are not determined; the scalar code raises no warning either
    with np.errstate(over="ignore", invalid="ignore"):
        for k, d in zip(gen.exponents, gen.domains):
            c = coeffs[:, k]
            # abs(c) of a Python complex is hypot(re, im); np.abs may round differently
            radii.append((d.max_abs * np.hypot(c.real, c.imag), d.kind))
        hi = 0.0
        for s, _ in radii:
            hi = hi + s
        circ = [s for s, kind in radii if kind == "circle"]
        lo = 0.0
        if circ:
            top = circ[0]
            for s in circ[1:]:
                top = _max_rows(top, s)
            lo = _max_rows(0.0, 2.0 * top - hi)
        margin = _max_rows(0.0, 1.0 - hi)
        if not slot:
            margin = _max_rows(margin, lo - 1.0)
    determined = np.all(np.isfinite([s for s, _ in radii]), axis=0)
    return np.where(determined, margin, np.nan)


def _fold_weights(target: complex, radii: list[float]) -> list[complex]:
    """Constructive phases: weights ``|w_j| = radii[j]`` with ``sum w_j = target``.

    Law-of-cosines folding, one circle at a time; assumes feasibility
    (``|target|`` inside the reachable annulus of the radii).
    """
    if not radii:
        return []
    if len(radii) == 1:
        # keep the weight exactly on its circle; the residual sum error is fp-size
        s = radii[0]
        v = abs(target)
        if v == 0:
            return [complex(s)]
        return [s * target / v]
    s1, rest = radii[0], radii[1:]
    lo_r = max(0.0, 2.0 * max(rest) - sum(rest))
    hi_r = sum(rest)
    v = abs(target)
    if v == 0:
        u1 = complex(s1)
    else:
        m = min(max(lo_r, abs(v - s1)), hi_r, v + s1)
        cos_t = (v * v + s1 * s1 - m * m) / (2.0 * v * s1) if s1 > 0 else 1.0
        cos_t = max(-1.0, min(1.0, cos_t))
        u1 = s1 * cmath.exp(1j * math.acos(cos_t)) * (target / v)
    return [u1] + _fold_weights(target - u1, rest)


def pairing_zero_weights(
    radii: Sequence[tuple[float, str]], slack: float = 0.0
) -> Optional[list[complex]]:
    """Weights with ``1 + sum_j w_j = 0`` respecting disk/circle constraints.

    Returns None when zero is unreachable (the annulus misses modulus one by
    more than ``slack``).  Disks are scaled freely; circles are folded with
    exact phases.  With nonzero slack the construction projects onto the
    reachable annulus, so callers near the annulus edge must re-verify the
    residual ``|1 + sum w_j|`` against their witness bar.
    """
    lo, hi = pairing_interval(radii)
    if not (lo - slack <= 1.0 <= hi + slack):
        return None
    circles = [(i, s) for i, (s, kind) in enumerate(radii) if kind == "circle"]
    disks = [(i, s) for i, (s, kind) in enumerate(radii) if kind == "disk"]
    out: list[complex] = [0.0 + 0.0j] * len(radii)
    dsum = sum(s for _, s in disks)
    if circles:
        csum = sum(s for _, s in circles)
        lo_c = max(0.0, 2.0 * max(s for _, s in circles) - csum)
        # circle resultant magnitude the disks can still bridge to one
        cstar = min(max(1.0, lo_c, 1.0 - dsum), csum, 1.0 + dsum)
        ws = _fold_weights(complex(-cstar), [s for _, s in circles])
        for (i, _), w in zip(circles, ws):
            out[i] = w
    else:
        cstar = 0.0
    rem = cstar - 1.0  # disks carry the real-axis remainder
    if dsum > 0.0 and rem != 0.0:
        factor = rem / dsum
        if abs(factor) > 1.0:  # annulus edge missed by at most slack
            factor = math.copysign(1.0, factor)
        for i, s in disks:
            out[i] = s * factor
    return out


def nearest_member_distance(
    f: TruncSeries, V: FamilySpec, grid: Optional[ParamGrid] = None
) -> tuple[float, Optional[MemberTag]]:
    """Coefficient distance from ``f`` to the nearest sampled member."""
    best: tuple[float, Optional[MemberTag]] = (math.inf, None)
    for member, tag in sample(V, grid or ParamGrid()):
        d = series_distance(member, f)
        if d < best[0]:
            best = (d, tag)
    return best


# -- stock families ------------------------------------------------------------


def pencil_family(exponent: int = 1, radius: float = 1.0) -> FamilySpec:
    """The closed pencil ``{1 + x z^k : |x| <= radius}``."""
    return FamilySpec((Pencil((exponent,), (Disk(radius),)),))


def counterexample_family() -> FamilySpec:
    """``{1 + x z} u {1 + y z^2}`` over closed unit disks, the stock family
    separating the border-image inclusion from its converse."""
    return FamilySpec((Pencil((1,), (Disk(1.0),)), Pencil((2,), (Disk(1.0),))))


def default_kernel_family(max_degree: int = 4, y_max: float = 0.8) -> FamilySpec:
    """Kernel pool: low-degree coefficient pencils plus rational kernels."""
    gens: list[Generator] = [Pencil((k,), (Disk(1.0),)) for k in range(1, max_degree + 1)]
    gens.append(Pencil((1, 2), (Disk(0.6), Disk(0.6))))
    gens.append(Rational(Disk(1.0), Disk(y_max)))
    return FamilySpec(tuple(gens))
