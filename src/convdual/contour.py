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

One circle pass, :class:`_CirclePass`, owns the tests made on a circle: the
near-zero scan, the winding pass and the minimum-modulus mesh with the stop
rule of its doubling, over ``(rows, points)`` arrays.  The scalar walk
(:func:`nonvanishing_in_disk`, :func:`winding_number`,
:func:`min_modulus_on_circle`) runs it with one row, :func:`row_margins`
with many.  Each circle of the walk is evaluated once, at 512 points; only
doublings, a scan ring of another size and witness refinement evaluate more.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .series import TruncSeries, eval_samples, horner_rows, modulus_derivative_bound

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
    "row_bounds",
    "ring_bounds",
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


def _quiet() -> np.errstate:
    """Non-finite samples are for the certification tests to judge, not to warn about."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


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


# -- the circle pass -----------------------------------------------------------

_FIRST_MESH = 512  # the walk evaluates each circle here once; its even points are the scan ring
_MAX_MESH = 2**17
_ROW_BUDGET = 1 << 14  # values evaluated at once, ~256 KB of complex temporaries


def _margin(vals: np.ndarray, errs: Optional[np.ndarray]) -> np.ndarray:
    return np.abs(vals) if errs is None else np.abs(vals) - errs


class _CirclePass:
    """The tests made on one circle ``|z| = r``, for one row or many.

    ``evaluate(rows, zs)`` gives the values at ``zs`` of the rows that the
    index ``rows`` picks, and their error bounds (None for exact rows).  The
    ring of ``n`` points is evaluated once, here; its even half is the ring
    of ``n / 2`` points, bitwise, as the rings of :func:`_circle_points` nest.
    """

    @_quiet()
    def __init__(self, evaluate: Callable, r: float, n: int, tol: Tolerances):
        self.evaluate, self.r, self.n, self.tol = evaluate, r, n, tol
        self.vals, self.errs = evaluate(slice(None), _circle_points(r, n))
        self.margin = _margin(self.vals, self.errs)

    def _ring(self, n: int, rows=slice(None)):
        """Values, error bounds and margins of ``rows`` on the ``n``-point ring."""
        if n == self.n or 2 * n == self.n:
            s = slice(None, None, self.n // n)
            errs = None if self.errs is None else self.errs[rows, s]
            return self.vals[rows, s], errs, self.margin[rows, s]
        vals, errs = self.evaluate(rows, _circle_points(self.r, n))
        return vals, errs, _margin(vals, errs)

    def scan(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Each row's index of least modulus on the ``n``-point ring, and
        whether that modulus and its finite error bound sum below ten
        witness bars: a near-zero to refine."""
        vals, errs, margin = self._ring(n)
        mods = margin if errs is None else np.abs(vals)
        at, every = np.argmin(mods, axis=1), np.arange(len(mods))
        err = 0.0 if errs is None else errs[every, at]
        return at, np.isfinite(err) & (mods[every, at] + err < 10 * self.tol.witness_bar)

    @_quiet()
    def winding(self, n: int, budget: int):
        """Each row's winding number around 0 (NaN where the pass fails), phase
        sum in turns (NaN where the steps never settle), last ring size, and
        whether a sample's modulus failed to clear its error bound there.

        A row's ring doubles from ``n`` points, up to ``budget``, until every
        adjacent phase step is below ``tol.phase_step``, which pins the
        argument branch; the sum must be within a quarter turn of an integer.
        """
        vals, errs, margin = self._ring(n)
        rows = np.arange(len(vals))
        turns, samples, thin = np.empty(len(rows)), np.empty(len(rows), int), np.empty(len(rows), bool)
        while True:
            bad = np.min(margin, axis=1) <= 0
            bad |= errs is not None and ~np.all(np.isfinite(errs), axis=1)
            steps = np.angle(np.roll(vals, -1, axis=1) / vals)
            settled = ~bad & (np.max(np.abs(steps), axis=1) < self.tol.phase_step)
            thin[rows], samples[rows] = bad, n
            turns[rows] = np.where(settled, np.sum(steps, axis=1) / (2.0 * math.pi), math.nan)
            more = ~bad & ~settled
            if 2 * n > budget or not more.any():
                k = np.round(turns)
                k[~(np.abs(turns - k) <= 0.25)] = math.nan
                return k, turns, samples, thin
            rows, n = rows[more], 2 * n
            vals, errs, margin = self._ring(n, rows)

    @_quiet()
    def lower(self, rows: np.ndarray, L: np.ndarray, max_samples: int):
        """Certified lower bounds for the modulus of ``rows`` on the circle,
        and the points of their least sampled margins.

        Where ``L`` bounds a row's derivative on the circle, its mesh doubles
        until the Lipschitz deflation ``L h / 2`` is dominated by the minimum:
        the bound holds on the whole circle.  Otherwise it doubles once (the
        minimum of a doubled mesh cannot rise), and the bound is mesh-scoped.
        Doublings evaluate only the new odd points; ties keep the lowest index.
        """
        n, r, bar = self.n, self.r, self.tol.witness_bar
        margin, every, bounded = self.margin[rows], np.arange(len(rows)), np.isfinite(L)
        at, low, L = np.argmin(margin, axis=1), margin.min(axis=1), np.where(bounded, L, 0.0)
        lower, argmin = np.empty(len(rows)), np.empty(len(rows), dtype=complex)
        while True:
            deflation = L * (math.pi * r / n)  # half the arc step
            done = np.where(bounded, deflation <= 0.005 * np.maximum(low, bar), n > self.n)
            done |= ~np.isfinite(low) | (n >= max_samples)  # non-finite: nothing certifiable
            if done.any():
                lower[every[done]] = (low - deflation)[done]
                argmin[every[done]] = r * _unit_ring(n)[at[done]]
                if done.all():
                    return lower, argmin
                keep = ~done
                every, L, bounded, low, at = every[keep], L[keep], bounded[keep], low[keep], at[keep]
            n *= 2
            zs, step = _circle_points(r, n)[1::2], max(1, _ROW_BUDGET // (n // 2))
            for s in range(0, len(every), step):
                part = slice(s, s + step)
                new = _margin(*self.evaluate(rows[every[part]], zs))
                j, got, old, old_at = np.argmin(new, axis=1), new.min(axis=1), low[part], at[part]
                odd = np.where(got == old, j < old_at, ~(got >= old))  # NaN is the least
                low[part], at[part] = np.where(odd, got, old), np.where(odd, 2 * j + 1, 2 * old_at)


def _one_row(f: Evaluable) -> Callable:  # the evaluate of a _CirclePass over f alone
    return lambda rows, zs: [a[None] for a in eval_samples(f, zs)]


def _min_modulus(circle: _CirclePass, f: Evaluable, max_samples: int) -> tuple[float, complex]:
    L = modulus_derivative_bound(f, circle.r) if isinstance(f, TruncSeries) else math.inf
    lower, argmin = circle.lower(np.zeros(1, dtype=int), np.array([L]), max_samples)
    return float(lower[0]), complex(argmin[0])


def winding_number(
    f: Evaluable,
    r: float,
    min_samples: int = 256,
    tol: Tolerances = DEFAULT_TOL,
) -> int:
    """Winding number of ``f`` around 0 along ``|z| = r`` (zeros inside, by
    the argument principle): the winding pass of :class:`_CirclePass` from
    ``max(8, min_samples)`` points.  Raises :class:`InconclusiveError` when
    a sample modulus fails to clear its error bound, the budget runs out or
    the phase sum is not close to an integer.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    n = max(8, min_samples)
    k, turns, samples, thin = _CirclePass(_one_row(f), r, n, tol).winding(n, tol.sample_budget)
    if thin[0]:
        raise InconclusiveError(f"modulus margin insufficient on |z| = {r:.6g} with {samples[0]} samples")
    if math.isnan(turns[0]):
        raise InconclusiveError(f"sample budget {tol.sample_budget} exceeded on |z| = {r:.6g}")
    if math.isnan(k[0]):
        raise InconclusiveError(f"phase sum {turns[0]:.6g} not close to an integer on |z| = {r:.6g}")
    return int(k[0])


@_quiet()
def min_modulus_on_circle(
    f: Evaluable,
    r: float,
    tol: Tolerances = DEFAULT_TOL,
    initial_samples: int = _FIRST_MESH,
    max_samples: int = _MAX_MESH,
) -> tuple[float, complex]:
    """Certified lower bound for ``|f|`` on ``|z| = r`` plus the sampled
    argmin: the minimum-modulus mesh of :class:`_CirclePass` from
    ``initial_samples`` points.  With tail data the bound holds on the whole
    circle; without derivative data it is mesh-scoped.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0:
        vals, errs = eval_samples(f, np.zeros(1, dtype=complex))
        return float(abs(vals[0]) - errs[0]), 0.0 + 0.0j
    return _min_modulus(_CirclePass(_one_row(f), r, initial_samples, tol), f, max_samples)


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


def _unbounded_off_origin(f: Evaluable, sched: list[float], tol: Tolerances) -> bool:
    """Whether :func:`nonvanishing_in_disk` must skip every circle of ``sched``:
    a series whose evaluation bound is infinite off the origin (no tail, or
    ``M = inf``) and whose value at the origin, ``c_0``, is no witness."""
    return (
        isinstance(f, TruncSeries)
        and (f.tail is None or math.isinf(f.tail.M))
        and bool(np.all(np.isfinite(f.coeffs)))
        and float(np.abs(f.coeffs[0])) >= tol.witness_bar
        and all(r > 0 for r in sched)
    )


@_quiet()
def nonvanishing_in_disk(
    f: Evaluable,
    r_max: Optional[float] = None,
    schedule: Optional[Sequence[float]] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Certificate:
    """Certify that ``f`` has no zeros in the open disk, up to radius ``r_max``.

    Walks the radius schedule outward-in: the outermost circle whose samples
    clear their error bounds gives the verdict via its winding number.  Each
    circle is evaluated once, at 512 points, for all the tests of
    :class:`_CirclePass`.  A positive winding is chased to a concrete witness
    with Newton refinement; margins below ``tol.margin_floor`` (but above
    the witness bar) yield Inconclusive rather than an unsound Verified.
    """
    sched = _schedule(r_max, schedule)
    limit = r_max if r_max is not None else sched[-1]
    base_params = {"r_max": float(limit), "schedule_depth": len(sched)}
    skipped: list[float] = []
    if _unbounded_off_origin(f, sched, tol):
        # every sample off the origin has an infinite error bound, so each
        # circle fails its winding pass, and _refine_root accepts only a point
        # with a finite bound: z = 0, where |f| = |c_0| clears the bar
        sched, skipped = [], sched[::-1]

    def refined(z: complex, reason: str, winding: Optional[int] = None) -> Optional[Certificate]:
        """Falsified, where Newton refinement from ``z`` confirms a zero (circle ``r``)."""
        w, params = _refine_root(f, z, tol, limit), {**base_params, "r_detect": float(r)}
        return None if w is None else Certificate(
            CertStatus.FALSIFIED, witness=w, winding=winding, reason=reason, params=params
        )

    evaluate = _one_row(f)
    for r in reversed(sched):
        circle = _CirclePass(evaluate, r, _FIRST_MESH, tol)
        n = max(256, tol.initial_samples)
        at, near = circle.scan(n)  # the scan for a near-zero on this circle first
        z_scan = complex(_circle_points(r, n)[at[0]])
        near_zero = "near-zero on sampled circle confirmed by local refinement"
        if near[0] and (cert := refined(z_scan, near_zero)):
            return cert
        if r <= 0:
            raise ValueError("radius must be positive")
        k = circle.winding(_FIRST_MESH // 2, tol.sample_budget)[0][0]
        if math.isnan(k):
            if cert := refined(z_scan, "margin failure traced to a confirmed zero"):
                return cert
            skipped.append(r)
            continue
        if k != 0:
            k = int(k)
            return refined(_interior_candidate(f, r), f"winding {k} on |z| = {r:.6g}", k) or Certificate(
                CertStatus.INCONCLUSIVE,
                winding=k,
                reason=f"winding {k} on |z| = {r:.6g} but witness refinement failed",
                params={**base_params, "r_detect": float(r)},
            )
        lb, zmin = _min_modulus(circle, f, _MAX_MESH)
        if lb > tol.margin_floor:
            return Certificate(
                CertStatus.VERIFIED,
                min_modulus=lb,
                winding=0,
                params={**base_params, "r_certified": float(r), "skipped_radii": skipped},
            )
        if cert := refined(zmin, "thin margin traced to a confirmed zero", 0):
            return cert
        skipped.append(r)
    return Certificate(
        CertStatus.INCONCLUSIVE,
        reason="no certifiable circle in the radius schedule",
        params={**base_params, "skipped_radii": skipped},
    )


# -- row pass over many exact polynomials ------------------------------------

_FIRST_BLOCK = 4  # rows of the first block; blocks double up to the budget


def _row_circle(
    r_max: Optional[float], schedule: Optional[Sequence[float]], tol: Tolerances
) -> Optional[float]:
    """The outermost schedule circle, where the row passes follow the scalar
    certification; None where they do not apply (the scan ring is not the
    512-point mesh's even half, or the circle is not positive)."""
    r = _schedule(r_max, schedule)[-1]
    if r <= 0 or max(256, tol.initial_samples) != _FIRST_MESH // 2:
        return None
    return r


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
    ``orders[i]`` (later columns zero).  The walk's own :class:`_CirclePass`
    runs on the outermost schedule circle with a block of rows, from one
    Horner pass at 512 points.  A margin is yielded only where
    :func:`nonvanishing_in_disk` returns Verified at that circle, bitwise its
    ``min_modulus``.  Near-zeros, winding passes that need more than 512
    samples, non-zero windings, thin margins (inner radii) and rows with a
    non-finite coefficient yield NaN.

    Each distinct pair of row (its bytes) and order is certified once, in
    the order of first occurrence, and a repeat yields the same margin;
    the distinct rows are found as the blocks need them.  They are taken
    in blocks of at most 32 (the first blocks smaller), and a run of them
    is refined only when the first of them is asked for, so a caller that
    stops at a NaN row pays for little past it.

    Each yielded margin is at least :func:`row_bounds`' coefficient bound
    of its row, where given, and at most the least modulus ``m`` of its
    first 512-point ring, since the mesh keeps those points.  It is also at
    least the ring bound ``0.995 (m - E - L pi r / 512)`` of
    :func:`ring_bounds`, where given: a point of a finer mesh lies within
    ``pi r / 512`` of a ring point, and the mesh ends within 0.005 of its
    least modulus, or at ``2**17`` points where that bound requires it.
    """
    rows = np.asarray(rows, dtype=complex)
    orders = np.asarray(orders, dtype=int)
    r = _row_circle(r_max, schedule, tol)
    if r is None:
        yield from itertools.repeat(math.nan, len(rows))
        return
    pairs = np.empty((len(rows), rows.shape[1] + 1), dtype=complex)
    pairs[:, :-1], pairs[:, -1] = rows, orders
    keys = pairs.view(f"V{pairs.itemsize * pairs.shape[1]}").ravel().tolist()
    margins = _distinct_margins(rows, orders, _first_occurrences(keys), r, tol)
    known: dict[bytes, float] = {}
    for key in keys:  # a key not known yet is the next distinct row's
        if key not in known:
            known[key] = next(margins)
        yield known[key]


def _first_occurrences(keys: list) -> Iterator[int]:
    """The index of each key's first occurrence, in order, found lazily."""
    seen = set()
    for i, key in enumerate(keys):
        if key not in seen:
            seen.add(key)
            yield i


def _distinct_margins(
    rows: np.ndarray, orders: np.ndarray, picks: Iterator[int], r: float, tol: Tolerances
) -> Iterator[float]:
    """:func:`row_margins` of the rows ``picks`` names, in its order, on the
    circle ``|z| = r``, block by block; a block's rows are picked only when
    its first margin is asked for."""
    size = _FIRST_BLOCK
    while (picked := np.fromiter(itertools.islice(picks, size), dtype=int)).size:
        block, order = rows[picked], orders[picked]
        circle = _CirclePass(
            lambda idx, zs, b=block: (horner_rows(b[idx], zs), None), r, _FIRST_MESH, tol
        )
        near = circle.scan(_FIRST_MESH // 2)[1]
        k = circle.winding(_FIRST_MESH // 2, min(tol.sample_budget, _FIRST_MESH))[0]
        L = np.zeros(len(block))  # modulus_derivative_bound of each row, bitwise
        with _quiet():
            for n in np.unique(order):
                if n >= 1:  # a constant has derivative bound 0
                    sel = order == n
                    ks = np.arange(1, n + 1, dtype=float)
                    L[sel] = np.sum(ks * np.abs(block[sel, 1 : n + 1]) * r ** (ks - 1), axis=1)
        ok = np.all(np.isfinite(block), axis=1) & ~near & (k == 0)
        i = 0
        for good, run in itertools.groupby(ok.tolist()):
            j = i + len(list(run))
            if good:
                lb = circle.lower(np.arange(i, j), L[i:j], _MAX_MESH)[0]
                yield from np.where((lb > tol.margin_floor) & (lb > 0.0), lb, math.nan).tolist()
            else:
                yield from itertools.repeat(math.nan, j - i)
            i = j
        size = min(2 * size, _ROW_BUDGET // _FIRST_MESH)


_EPS = float(np.finfo(float).eps)  # 2u, twice the unit roundoff
_SLACK = 2.0**-30  # relative slack of the bound's comparisons, far above its roundings
_ANGLE_SLACK = 2.0**-40  # radians kept clear of the phase step, far above the phase pass's errors
_NORMAL = (2.0**-900, 2.0**1000)  # every value and partial sum stays normal and finite


def _horner_terms(rows: np.ndarray, r: float) -> tuple[np.ndarray, ...]:
    """The coefficient sums the row bounds rest on, for rows on ``|z| = r``.

    Returns ``|c_k|``; ``spread``, above ``sum_{k>=1} |c_k| |z|^k``, and
    ``L``, above the derivative bound ``sum_{k>=1} k |c_k| |z|^(k-1)``, at
    every computed point ``z`` of a mesh (``|z| <= R``, just above ``r``);
    and ``gamma`` and ``under``, with which ``gamma (|c_0| + spread) +
    under`` is at least twice Horner's running error bound for a value at
    such a point (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., 2002, §5.1).  Callers run it with overflow ignored.
    """
    width = rows.shape[1]
    R = r * (1.0 + 4.0 * _EPS)  # above |z| of every computed point r * _unit_ring(n)
    # Horner's rule errs by at most gamma_(4 width + 1) sum_k |c_k| |z|^k: a
    # complex product by sqrt(2) gamma_2 <= gamma_3, a sum by u; gamma_n <=
    # n eps.  The widening doubles that to cover the rounding of the sums below.
    gamma = (8.0 * width + 16.0) * _EPS
    ks = np.arange(1.0, width)
    powers = R**ks
    mods = np.abs(rows)
    # sum |c_k| R^k, and above the scalar derivative bound sum k |c_k| r^(k-1)
    sums = mods[:, 1:] @ np.stack([powers, ks * R ** (ks - 1.0)], axis=1)
    spread, L = sums.T * (1.0 + gamma)
    # a product that underflows errs by up to 2**-1072 more, carried on
    # by |z|^j; 2**-1070 leaves a factor of four
    under = 2.0**-1070 * (1.0 + powers.sum())
    return mods, spread, L, gamma, under


def row_bounds(
    rows: np.ndarray,
    r_max: Optional[float] = None,
    schedule: Optional[Sequence[float]] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Rows that :func:`row_margins` verifies, proven from their coefficients
    alone: for each row a lower bound of its margin, NaN where nothing is
    proven.

    Rows are those of :func:`row_margins` (zero past each row's order, which
    the bound therefore does not need).  Where a bound is
    given, :func:`nonvanishing_in_disk` of the row's polynomial is Verified
    on the outermost schedule circle ``r`` with ``min_modulus`` at least the
    bound, which :func:`row_margins` yields bitwise.  No value is evaluated:
    ``rho`` bounds ``|p(z) - c_0|`` as computed by Horner's rule at every
    mesh point, ``sum_{k>=1} |c_k| |z|^k`` widened by the running error
    analysis of Horner's rule (:func:`_horner_terms`), so every sample lies
    in the disk of radius ``rho`` about ``c_0``.  A row is proven when that
    disk

    * keeps the argument within ``min(phase_step / 2, pi / 2)`` of ``c_0``'s,
      so the winding pass takes every phase step below ``phase_step`` and
      sums them to winding zero;
    * keeps ``|p|`` above ten witness bars, so the scan chases no near-zero;
    * leaves the mesh's Lipschitz deflation at ``2**17`` points within
      0.005 of ``|c_0| - rho``, so :func:`min_modulus_on_circle` ends with
      at least ``0.995 (|c_0| - rho)``, which must clear the margin floor.

    Each comparison keeps a relative slack far above the roundings it
    omits, and values must stay normal and far from overflow.  The bound
    ignores the phases of the terms, so it can lie well below the margin;
    :func:`ring_bounds` gives a closer one from evaluated values.
    """
    rows = np.asarray(rows, dtype=complex)
    lower = np.full(len(rows), math.nan)
    r = _row_circle(r_max, schedule, tol)
    if r is None or not rows.size:
        return lower
    with np.errstate(over="ignore", invalid="ignore"):
        mods, spread, L, gamma, under = _horner_terms(rows, r)
        c0 = mods[:, 0] * (1.0 - 2.0 * _EPS)  # at most |c_0|
        rho = spread + gamma * mods[:, 0] + under
        gap = (c0 - rho) * (1.0 - _SLACK)
        # bounds every partial sum of Horner's rule; finite only if every coefficient is
        reach = mods.sum(axis=1) + spread
    angle = min(tol.phase_step / 2.0, math.pi / 2.0) - _ANGLE_SLACK
    bound = 0.995 * gap * (1.0 - _SLACK)
    ok = (
        (rho * (1.0 + _SLACK) < c0 * math.sin(angle))
        & (gap > 10 * tol.witness_bar)
        & (L * (math.pi * r / _MAX_MESH) <= 0.005 * gap)
        & (bound > max(tol.margin_floor, 0.0))
        & (gap > _NORMAL[0])
        & (reach <= _NORMAL[1])
    )
    lower[ok] = bound[ok]
    return lower


def ring_bounds(
    rows: np.ndarray,
    r_max: Optional[float] = None,
    schedule: Optional[Sequence[float]] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """A lower bound of each row's :func:`row_margins` value from its 512
    values on the outermost schedule circle, NaN where none is given, and
    the least computed modulus among those values, an upper bound of the
    margin (the mesh keeps these points and only lowers their minimum).

    Rows are those of :func:`row_margins`.  The ring bound is
    ``0.995 B`` with ``B = m - E - L pi r / 512``: ``m`` the least computed
    modulus on the 512-point ring that the row pass evaluates first, ``E``
    twice Horner's running error bound and ``L`` the derivative bound of
    :func:`_horner_terms`.  Every point of a finer mesh lies within the
    arc ``pi r / 512`` of a ring point, and the segment between them within
    ``|z| <= R``, so the modulus computed there is at least ``B``: the
    values at both points differ from the polynomial's by at most half of
    ``E`` each, and the polynomial's by at most ``L pi r / 512``.  The
    minimum-modulus mesh therefore ends with a least modulus ``low >= B``,
    and stops where its deflation is at most ``0.005 max(low, bar)``
    (``B`` at least the witness bar makes that ``0.005 low``) or at
    ``2**17`` points, where the deflation ``L pi r / 2**17`` is required to
    be at most ``0.005 B``: either way the margin is at least ``0.995 B``.
    A row whose margin :func:`row_margins` does not give (NaN) has no
    claim to check.  As in :func:`row_bounds`, each comparison keeps a
    relative slack and values must stay normal and far from overflow.
    """
    rows = np.asarray(rows, dtype=complex)
    lower, least = np.full(len(rows), math.nan), np.full(len(rows), math.nan)
    r = _row_circle(r_max, schedule, tol)
    if r is None or not rows.size:
        return lower, least
    zs, step = _circle_points(r, _FIRST_MESH), _ROW_BUDGET // _FIRST_MESH
    with _quiet():
        mods, spread, L, gamma, under = _horner_terms(rows, r)
        error = gamma * (mods[:, 0] + spread) + under
        for s in range(0, len(rows), step):
            part = slice(s, s + step)
            least[part] = np.abs(horner_rows(rows[part], zs)).min(axis=1)
        # the rounding of each term is taken against the bound
        drift = L * (math.pi * r / _FIRST_MESH)
        low = least * (1.0 - 8.0 * _EPS) - (error + drift) * (1.0 + 8.0 * _EPS)
        reach = mods.sum(axis=1) + spread
    bound = 0.995 * low * (1.0 - _SLACK)
    ok = (
        (low * (1.0 - _SLACK) >= tol.witness_bar)
        & (L * (math.pi * r / _MAX_MESH) <= 0.005 * low * (1.0 - _SLACK))
        & (low > _NORMAL[0])
        & (reach <= _NORMAL[1])
    )
    lower[ok] = bound[ok]
    return lower, least
