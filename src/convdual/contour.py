"""Argument-principle zero counting and zero-freeness certification.

The central object is the :class:`Certificate`: every decision procedure
returns ``Verified``, ``Falsified`` (with a concrete witness point), or
``Inconclusive`` (with a machine-readable reason), never a bare boolean.
Soundness convention: a ``Verified`` answer may only be produced when the
winding number on a certifiable circle is zero and the sampled modulus
clears the error bounds by the configured margin; anything short of that
degrades to ``Inconclusive`` rather than guessing.

Open-disk semantics: zero-freeness on the open unit disk is certified up to
the outermost certifiable radius of the schedule ``r_j = 1 - 2**-j``; the
achieved radius is recorded in ``params["r_certified"]``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .series import TruncSeries, eval_samples, modulus_derivative_bound

__all__ = [
    "CertStatus",
    "Certificate",
    "InconclusiveError",
    "Tolerances",
    "radius_schedule",
    "winding_number",
    "min_modulus_on_circle",
    "nonvanishing_in_disk",
    "row_margins",
]


class CertStatus(str, Enum):
    VERIFIED = "Verified"
    FALSIFIED = "Falsified"
    INCONCLUSIVE = "Inconclusive"


class InconclusiveError(Exception):
    """Raised when a sampling budget or modulus margin rules out a sound answer."""


@dataclass(frozen=True)
class Tolerances:
    """Decision thresholds shared by the certification procedures.

    ``witness_bar``: a point is a Falsified witness when ``|f| + err`` falls
    below it.  ``margin_floor``: certified margins below this (but above the
    bar) yield Inconclusive.  The two are separated by two orders of
    magnitude so double-precision noise cannot flip a verdict.
    """

    witness_bar: float = 1e-9
    margin_floor: float = 1e-7
    initial_samples: int = 256
    sample_budget: int = 2**20
    phase_step: float = math.pi / 2
    newton_iterations: int = 60

    def with_bar(self, bar: float) -> "Tolerances":
        return Tolerances(
            witness_bar=bar,
            margin_floor=max(100.0 * bar, bar),
            initial_samples=self.initial_samples,
            sample_budget=self.sample_budget,
            phase_step=self.phase_step,
            newton_iterations=self.newton_iterations,
        )


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class Certificate:
    """Outcome of a certification run.

    ``witness`` is a concrete point (root location, offending parameter)
    present exactly when the status is Falsified.  ``min_modulus`` is a
    certified lower bound on the modulus over the tested set for Verified
    results.  ``params`` records radii, sample counts, and scope notes.
    """

    status: CertStatus
    witness: Optional[complex] = None
    min_modulus: Optional[float] = None
    winding: Optional[int] = None
    reason: Optional[str] = None
    params: dict = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return self.status is CertStatus.VERIFIED

    @property
    def falsified(self) -> bool:
        return self.status is CertStatus.FALSIFIED

    def __post_init__(self) -> None:
        if self.status is CertStatus.FALSIFIED and self.witness is None:
            raise ValueError("Falsified certificates must carry a witness")
        if self.status is CertStatus.VERIFIED:
            if self.min_modulus is None or not self.min_modulus > 0:
                raise ValueError("Verified certificates must carry a positive min_modulus")

    def to_dict(self) -> dict:
        def _c(z):
            return None if z is None else [float(z.real), float(z.imag)]

        return {
            "status": self.status.value,
            "witness": _c(self.witness),
            "min_modulus": self.min_modulus,
            "winding": self.winding,
            "reason": self.reason,
            "params": _jsonable(self.params),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    return obj


def radius_schedule(depth: int = 12, r_max: Optional[float] = None) -> list[float]:
    """Radii ``1 - 2**-j`` for ``j = 1..depth``, optionally capped at ``r_max``."""
    if not 1 <= depth <= 40:
        raise ValueError("schedule depth out of range")
    radii = [1.0 - 2.0**-j for j in range(1, depth + 1)]
    if r_max is not None:
        if not 0 < r_max < 1:
            raise ValueError("r_max must lie in (0, 1)")
        radii = sorted({min(r, r_max) for r in radii})
    return radii


Evaluable = Union[TruncSeries, Callable]


# -- sampling helpers --------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _unit_ring(n: int) -> np.ndarray:
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    ring.flags.writeable = False
    return ring


def _circle_points(r: float, n: int) -> np.ndarray:
    """``n`` equally spaced points on ``|z| = r``, starting at ``z = r``."""
    return r * _unit_ring(n)


def _derivative_evaluator(f: Evaluable):
    """Callable z -> f'(z): exact for series blocks, central difference otherwise.

    The series-block derivative ignores the tail; Newton refinement only uses
    it as a search direction, the witness test is on |f| itself.
    """
    if isinstance(f, TruncSeries):
        rev = np.polyder(f.coeffs[::-1])

        def d(z: complex) -> complex:
            return complex(np.polyval(rev, z))

        return d

    def d(z: complex) -> complex:
        h = 1e-6 * max(1.0, abs(z))
        vp, _ = eval_samples(f, np.asarray([z + h, z - h], dtype=complex))
        return complex((vp[0] - vp[1]) / (2 * h))

    return d


def _refine_root(f: Evaluable, z0: complex, tol: Tolerances, r_limit: float) -> Optional[complex]:
    """Damped Newton iteration from ``z0``; returns a witness meeting the bar.

    Success requires ``|f(z)| + err < witness_bar`` and ``|z| <= r_limit``.
    """
    deriv = _derivative_evaluator(f)
    z = complex(z0)
    for _ in range(tol.newton_iterations):
        vals, errs = eval_samples(f, np.asarray([z], dtype=complex))
        v, e = complex(vals[0]), float(errs[0])
        if math.isfinite(e) and abs(v) + e < tol.witness_bar:
            return z if abs(z) <= r_limit else None
        dv = deriv(z)
        if dv == 0 or not math.isfinite(abs(dv)):
            return None
        step = -v / dv
        if abs(step) > 0.25:
            step *= 0.25 / abs(step)
        z = z + step
        if abs(z) > 2.0:
            return None
    return None


# -- winding number -----------------------------------------------------------


def winding_number(
    f: Evaluable,
    r: float,
    min_samples: int = 256,
    tol: Tolerances = DEFAULT_TOL,
) -> int:
    """Winding number of ``f`` around 0 along ``|z| = r`` (zeros inside, by
    the argument principle).

    Adaptive phase unwrapping: sample counts double until every adjacent
    phase increment is below ``tol.phase_step`` (a quarter turn), which pins
    the continuous argument branch.  Raises :class:`InconclusiveError` when
    a sample modulus fails to clear its error bound or the budget runs out.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    n = max(8, min_samples)
    while True:
        zs = _circle_points(r, n)
        vals, errs = eval_samples(f, zs)
        mods = np.abs(vals)
        margin = mods - errs
        if not np.all(np.isfinite(errs)) or float(np.min(margin)) <= 0:
            raise InconclusiveError(
                f"modulus margin insufficient on |z| = {r:.6g} with {n} samples"
            )
        steps = np.angle(np.roll(vals, -1) / vals)
        if float(np.max(np.abs(steps))) < tol.phase_step:
            total = float(np.sum(steps)) / (2.0 * math.pi)
            k = round(total)
            if abs(total - k) > 0.25:
                raise InconclusiveError(
                    f"phase sum {total:.6g} not close to an integer on |z| = {r:.6g}"
                )
            return int(k)
        if 2 * n > tol.sample_budget:
            raise InconclusiveError(
                f"sample budget {tol.sample_budget} exceeded on |z| = {r:.6g}"
            )
        n *= 2


# -- minimum modulus -----------------------------------------------------------

_FIRST_MESH = 512  # the row pass evaluates this mesh once; its even points are the scan ring
_MAX_MESH = 2**17


def min_modulus_on_circle(
    f: Evaluable,
    r: float,
    tol: Tolerances = DEFAULT_TOL,
    initial_samples: int = _FIRST_MESH,
    max_samples: int = _MAX_MESH,
) -> tuple[float, complex]:
    """Certified lower bound for ``|f|`` on ``|z| = r`` plus the sampled argmin.

    Error bounds are subtracted pointwise; when the series carries tail data
    the spacing is shrunk until the Lipschitz deflation ``L * h / 2`` (with
    ``L`` a derivative bound on the circle) is dominated by the observed
    minimum, making the bound valid for the whole circle rather than just
    the mesh.  Without derivative data the bound is mesh-scoped.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0:
        vals, errs = eval_samples(f, np.zeros(1, dtype=complex))
        return float(abs(vals[0]) - errs[0]), 0.0 + 0.0j
    L = modulus_derivative_bound(f, r) if isinstance(f, TruncSeries) else math.inf
    n = initial_samples
    prev = -math.inf
    while True:
        zs = _circle_points(r, n)
        vals, errs = eval_samples(f, zs)
        margin = np.abs(vals) - errs
        i = int(np.argmin(margin))
        mesh_min = float(margin[i])
        argmin = complex(zs[i])
        if not math.isfinite(mesh_min):
            return mesh_min, argmin  # error bounds dominate; nothing certifiable here
        if math.isfinite(L):
            deflation = L * (math.pi * r / n)  # half the arc step, chord-majorized
            lower = mesh_min - deflation
            if deflation <= 0.005 * max(mesh_min, tol.witness_bar) or n >= max_samples:
                return lower, argmin
        else:
            if (mesh_min - prev) <= 1e-3 * max(abs(mesh_min), 1e-30) and n > initial_samples:
                return mesh_min, argmin  # mesh-scoped: no Lipschitz data
            if n >= max_samples:
                return mesh_min, argmin
            prev = mesh_min
        n *= 2


# -- zero-freeness on the disk ---------------------------------------------


def _interior_candidate(f: Evaluable, r: float) -> complex:
    """Coarse polar-mesh argmin of |f| over the closed disk of radius r."""
    radii = np.linspace(0.0, r, 17)[1:]
    thetas = 2.0 * np.pi * np.arange(64) / 64
    grid = np.concatenate([[0.0 + 0.0j], (radii[:, None] * np.exp(1j * thetas)[None, :]).ravel()])
    vals, _ = eval_samples(f, grid)
    return complex(grid[int(np.argmin(np.abs(vals)))])


def _schedule(r_max: Optional[float], schedule: Optional[Sequence[float]]) -> list[float]:
    """The radii :func:`nonvanishing_in_disk` walks, sorted ascending."""
    sched = list(schedule) if schedule is not None else radius_schedule(12, r_max)
    if not sched:
        raise ValueError("empty radius schedule")
    return sorted(sched)


def nonvanishing_in_disk(
    f: Evaluable,
    r_max: Optional[float] = None,
    schedule: Optional[Sequence[float]] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Certificate:
    """Certify that ``f`` has no zeros in the open disk, up to radius ``r_max``.

    Walks the radius schedule outward-in: the outermost circle whose samples
    clear their error bounds gives the verdict via its winding number.  A
    positive winding is chased to a concrete witness with Newton refinement;
    margins below ``tol.margin_floor`` (but above the witness bar) yield
    Inconclusive rather than an unsound Verified.
    """
    sched = _schedule(r_max, schedule)
    limit = r_max if r_max is not None else sched[-1]
    base_params = {"r_max": float(limit), "schedule_depth": len(sched)}

    skipped: list[float] = []
    for r in reversed(sched):
        # cheap scan for a near-zero on this circle first
        zs = _circle_points(r, max(256, tol.initial_samples))
        vals, errs = eval_samples(f, zs)
        mods = np.abs(vals)
        i = int(np.argmin(mods))
        if math.isfinite(float(errs[i])) and mods[i] + errs[i] < 10 * tol.witness_bar:
            w = _refine_root(f, complex(zs[i]), tol, limit)
            if w is not None:
                return Certificate(
                    CertStatus.FALSIFIED,
                    witness=w,
                    winding=None,
                    reason="near-zero on sampled circle confirmed by local refinement",
                    params={**base_params, "r_detect": float(r)},
                )
        try:
            k = winding_number(f, r, tol=tol)
        except InconclusiveError as exc:
            w = _refine_root(f, complex(zs[i]), tol, limit)
            if w is not None:
                return Certificate(
                    CertStatus.FALSIFIED,
                    witness=w,
                    reason="margin failure traced to a confirmed zero",
                    params={**base_params, "r_detect": float(r)},
                )
            skipped.append(r)
            continue
        if k != 0:
            cand = _interior_candidate(f, r)
            w = _refine_root(f, cand, tol, limit)
            if w is not None:
                return Certificate(
                    CertStatus.FALSIFIED,
                    witness=w,
                    winding=k,
                    reason=f"winding {k} on |z| = {r:.6g}",
                    params={**base_params, "r_detect": float(r)},
                )
            return Certificate(
                CertStatus.INCONCLUSIVE,
                winding=k,
                reason=f"winding {k} on |z| = {r:.6g} but witness refinement failed",
                params={**base_params, "r_detect": float(r)},
            )
        lb, zmin = min_modulus_on_circle(f, r, tol=tol)
        if lb > tol.margin_floor:
            return Certificate(
                CertStatus.VERIFIED,
                min_modulus=lb,
                winding=0,
                params={**base_params, "r_certified": float(r), "skipped_radii": skipped},
            )
        w = _refine_root(f, zmin, tol, limit)
        if w is not None:
            return Certificate(
                CertStatus.FALSIFIED,
                witness=w,
                winding=0,
                reason="thin margin traced to a confirmed zero",
                params={**base_params, "r_detect": float(r)},
            )
        skipped.append(r)
    return Certificate(
        CertStatus.INCONCLUSIVE,
        reason="no certifiable circle in the radius schedule",
        params={**base_params, "skipped_radii": skipped},
    )


# -- row pass over many exact polynomials ------------------------------------

_ROW_BUDGET = 1 << 14  # values evaluated at once, ~256 KB of complex temporaries
_FIRST_BLOCK = 4  # rows of the first block; blocks double up to the budget


def _horner_rows(rows: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Every row polynomial at every point, in ``np.polyval``'s operation order."""
    vals = np.zeros((len(rows), len(zs)), dtype=complex)
    for column in rows.T[::-1]:  # highest degree first
        vals = vals * zs + column[:, None]
    return vals


def _first_pass(
    rows: np.ndarray, orders: np.ndarray, r: float, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One evaluation on ``|z| = r`` serving the scan, the first winding pass
    and the first minimum-modulus mesh of :func:`nonvanishing_in_disk`.

    Returns which rows pass the scan and the winding pass with winding zero,
    each row's minimum modulus over the 512-point mesh, and its
    :func:`~convdual.series.modulus_derivative_bound` on the circle.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = _horner_rows(rows, _circle_points(r, _FIRST_MESH))
        mods = np.abs(vals)
        ring = vals[:, ::2]  # bitwise the 256-point ring of the scan and winding pass
        steps = np.angle(np.roll(ring, -1, axis=1) / ring)
        total = np.sum(steps, axis=1) / (2.0 * math.pi)
        L = np.zeros(len(rows))
        for n in np.unique(orders):
            if n >= 1:  # a constant has derivative bound 0
                sel = orders == n
                ks = np.arange(1, n + 1, dtype=float)
                L[sel] = np.sum(ks * np.abs(rows[sel, 1 : n + 1]) * r ** (ks - 1), axis=1)
    scan = mods[:, ::2].min(axis=1)
    ok = (
        np.all(np.isfinite(vals), axis=1)
        & (scan >= 10 * tol.witness_bar)  # no near-zero for the scan to chase
        & (scan > 0.0)  # the winding pass's modulus margin
        & (np.max(np.abs(steps), axis=1) < tol.phase_step)
        & (np.abs(total) <= 0.25)  # rounds to winding 0 within the pass's tolerance
        & np.isfinite(L)
    )
    return ok, mods.min(axis=1), L


def _refine_rows(
    rows: np.ndarray, mesh: np.ndarray, L: np.ndarray, r: float, tol: Tolerances
) -> np.ndarray:
    """:func:`min_modulus_on_circle`'s lower bound for each row, from the
    minimum ``mesh`` over its first 512 points; NaN where a new point is not
    finite.

    The mesh doubles as in the scalar loop, but each doubling evaluates only
    the new odd points: the minimum over the union is exact, so every bound
    is bitwise the scalar one.
    """
    mesh = mesh.copy()
    lower = np.full(len(rows), math.nan)
    active = np.arange(len(rows))
    n = _FIRST_MESH
    while True:
        deflation = L[active] * (math.pi * r / n)
        done = (deflation <= 0.005 * np.maximum(mesh[active], tol.witness_bar)) | (n >= _MAX_MESH)
        lower[active[done]] = mesh[active[done]] - deflation[done]
        active = active[~done]
        if not len(active):
            return lower
        n *= 2
        zs = _circle_points(r, n)[1::2]
        step = max(1, _ROW_BUDGET // len(zs))
        for s in range(0, len(active), step):
            idx = active[s : s + step]
            with np.errstate(over="ignore", invalid="ignore"):
                new = np.abs(_horner_rows(rows[idx], zs))
            finite = np.all(np.isfinite(new), axis=1)
            mesh[idx] = np.where(finite, np.minimum(mesh[idx], new.min(axis=1)), math.nan)
        active = active[np.isfinite(mesh[active])]


def row_margins(
    rows: np.ndarray,
    orders: np.ndarray,
    r_max: Optional[float] = None,
    schedule: Optional[Sequence[float]] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Iterator[float]:
    """Verified margins of :func:`nonvanishing_in_disk` for many exact
    polynomials, one per row in order, NaN where the row pass leaves the
    decision to it.

    Row ``i`` holds the coefficients of an exact polynomial of order
    ``orders[i]`` (later columns zero).  The pass follows the scalar
    certification on the outermost schedule circle: one Horner pass over the
    rows at 512 points gives the 256-point scan, the first winding pass, the
    derivative bound and the first minimum-modulus mesh; the mesh then
    doubles as in :func:`min_modulus_on_circle`.  A margin is yielded only
    where :func:`nonvanishing_in_disk` returns Verified at that circle, and
    it is bitwise its ``min_modulus``.  Near-zeros, winding passes that need
    more samples, non-zero windings, thin margins (inner radii),
    non-finite values and rows with a non-finite coefficient yield NaN.

    Rows are taken in blocks of at most 32 (the first blocks smaller), and
    a run of rows is refined only when the first of them is asked for, so a
    caller that stops at a NaN row pays for little past it.
    """
    rows = np.asarray(rows, dtype=complex)
    orders = np.asarray(orders, dtype=int)
    r = _schedule(r_max, schedule)[-1]
    if r <= 0 or max(256, tol.initial_samples) != _FIRST_MESH // 2:
        yield from itertools.repeat(math.nan, len(rows))
        return
    start, size = 0, _FIRST_BLOCK
    while start < len(rows):
        block = rows[start : start + size]
        ok, mesh, L = _first_pass(block, orders[start : start + size], r, tol)
        i = 0
        for good, run in itertools.groupby(ok.tolist()):
            k = i + len(list(run))
            if good:
                lb = _refine_rows(block[i:k], mesh[i:k], L[i:k], r, tol)
                yield from np.where((lb > tol.margin_floor) & (lb > 0.0), lb, math.nan).tolist()
            else:
                yield from itertools.repeat(math.nan, k - i)
            i = k
        start += size
        size = min(2 * size, _ROW_BUDGET // _FIRST_MESH)
