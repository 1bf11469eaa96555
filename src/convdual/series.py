"""Truncated power series with certified geometric tail bounds.

A :class:`TruncSeries` stores the coefficients ``c_0 .. c_N`` of an analytic
function ``f(z) = sum_k a_k z^k`` together with an optional tail bound
``(M, rho)`` asserting ``|a_k| <= M * rho**-k`` for every ``k > N``.  All
operations propagate the tail so that evaluation anywhere inside the tail
radius returns a value together with a rigorous error bound.

Three tail states are distinguished:

* ``tail=(M, rho)`` with ``M > 0``: the usual geometric bound.
* ``tail=(0, inf)``: the series is an exact polynomial (every coefficient
  beyond the stored block is zero).  Constructed via :meth:`TruncSeries.polynomial`.
* ``tail=None``: nothing is known beyond order ``N``; evaluation away from
  the origin reports an infinite error bound.

The normalized class ``A_0`` consists of series with ``c_0 == 1`` exactly;
its convolution identity is :func:`ones` (all coefficients one, the
truncation of ``(1-z)**-1``) and the constant function is :func:`const_one`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

__all__ = [
    "DEFAULT_ORDER",
    "Tail",
    "EvalResult",
    "TruncSeries",
    "convolve",
    "exact_product",
    "horner_rows",
    "evaluate",
    "evaluate_many",
    "dilate",
    "from_rational",
    "ones",
    "const_one",
    "cauchy_tail_from_samples",
    "convolution_convergence_bound",
    "modulus_derivative_bound",
    "series_distance",
    "is_normalized",
    "regular_beyond_disk",
    "leading_block",
    "rational_leading_rows",
]

# Default truncation degree; callers may override per construction.
DEFAULT_ORDER = 64

_EPS = np.finfo(float).eps


class Tail(NamedTuple):
    """Geometric tail bound: ``|a_k| <= M * rho**-k`` for all ``k > order``."""

    M: float
    rho: float


class EvalResult(NamedTuple):
    """Value of a series at a point together with a certified error bound."""

    value: complex
    error_bound: float


def _as_coeff_array(coeffs: Sequence[complex]) -> np.ndarray:
    arr = np.ascontiguousarray(coeffs, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficients must be a nonempty one-dimensional sequence")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("coefficients must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TruncSeries:
    """Immutable truncated power series with an optional certified tail."""

    coeffs: np.ndarray
    tail: Optional[Tail] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _as_coeff_array(self.coeffs))
        if self.tail is not None:
            M, rho = float(self.tail[0]), float(self.tail[1])
            if not (M >= 0.0) or math.isnan(rho) or rho <= 0.0:
                raise ValueError("tail must satisfy M >= 0 and rho > 0")
            object.__setattr__(self, "tail", Tail(M, rho))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def polynomial(coeffs: Sequence[complex]) -> "TruncSeries":
        """Exact polynomial: every coefficient beyond the block is zero."""
        return TruncSeries(coeffs, Tail(0.0, math.inf))

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_exact(self) -> bool:
        """True when the tail certifies all higher coefficients vanish."""
        return self.tail is not None and self.tail.M == 0.0

    @property
    def tail_radius(self) -> float:
        """Radius within which evaluation error bounds are finite."""
        if self.tail is None:
            return 0.0
        if self.is_exact:
            return math.inf
        return self.tail.rho

    def coefficient(self, k: int) -> complex:
        """Stored coefficient ``a_k``; zero beyond the block when exact."""
        if k < 0:
            raise ValueError("coefficient index must be nonnegative")
        if k <= self.order:
            return complex(self.coeffs[k])
        if self.is_exact:
            return 0.0 + 0.0j
        raise ValueError(f"coefficient {k} beyond truncation order {self.order} is not stored")

    def at(self, z: complex) -> EvalResult:
        return evaluate(self, z)

    def __repr__(self) -> str:  # compact, deterministic
        head = np.array2string(self.coeffs[: min(5, self.coeffs.size)], precision=6)
        t = "exact" if self.is_exact else (None if self.tail is None else f"(M={self.tail.M:.6g}, rho={self.tail.rho:.6g})")
        return f"TruncSeries(order={self.order}, coeffs={head}..., tail={t})"


def regular_beyond_disk(f: TruncSeries) -> bool:
    """Whether ``f`` certifiably extends beyond the closed unit disk: exact,
    or a tail radius above one."""
    return f.tail is not None and (f.is_exact or f.tail.rho > 1.0)


def is_normalized(f: TruncSeries) -> bool:
    """Membership test for ``A_0``: the constant term is exactly one."""
    c0 = f.coeffs[0]
    return c0.real == 1.0 and c0.imag == 0.0


def series_distance(f: TruncSeries, g: TruncSeries) -> float:
    """Max absolute coefficient difference over the common stored block."""
    n = min(f.order, g.order) + 1
    d = float(np.max(np.abs(f.coeffs[:n] - g.coeffs[:n])))
    fx = f.coeffs[n:]
    gx = g.coeffs[n:]
    for extra, other in ((fx, g), (gx, f)):
        if extra.size and other.is_exact:
            d = max(d, float(np.max(np.abs(extra))))
    return d


# -- evaluation ------------------------------------------------------------


def _tail_eval_bound(tail: Optional[Tail], order: int, absz: np.ndarray) -> np.ndarray:
    """Vectorized tail-sum bound ``M t^{N+1} / (1-t)`` with ``t = |z|/rho``."""
    if tail is None:
        return np.where(absz == 0.0, 0.0, math.inf)
    M, rho = tail
    if M == 0.0:
        return np.zeros_like(absz)
    if math.isinf(M):
        # every tail term vanishes at the origin; anywhere else nothing is bounded
        return np.where(absz == 0.0, 0.0, math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = absz / rho
        bound = np.where(t < 1.0, M * t ** (order + 1) / (1.0 - t), math.inf)
    return bound


def evaluate_many(f: TruncSeries, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate at an array of points; returns (values, error bounds).

    Uses Horner's scheme.  The bound combines the geometric tail sum with a
    first-order rounding allowance for non-exact series; exact polynomials
    evaluate with a reported bound of zero, the decision thresholds used by
    the certification layers sit far above double-precision noise.
    """
    zs = np.asarray(zs, dtype=complex)
    rev = f.coeffs[::-1]
    values = np.polyval(rev, zs)
    absz = np.abs(zs)
    if f.is_exact:
        errors = np.zeros_like(absz)
    else:
        errors = _tail_eval_bound(f.tail, f.order, absz)
        scale = np.polyval(np.abs(rev), absz)
        finite = np.isfinite(errors) & (absz > 0.0)  # Horner at 0 returns c_0 exactly
        errors = np.where(finite, errors + 2.0 * (f.order + 1) * _EPS * scale, errors)
    return values, errors


def evaluate(f: TruncSeries, z: complex) -> EvalResult:
    """Evaluate ``f`` at a single point with a certified error bound."""
    values, errors = evaluate_many(f, np.asarray([z], dtype=complex))
    return EvalResult(complex(values[0]), float(errors[0]))


def modulus_derivative_bound(f: TruncSeries, r: float) -> float:
    """Upper bound for ``|f'(z)|`` on ``|z| = r``, infinite without tail data.

    Sums ``k |c_k| r^{k-1}`` over the stored block and closes the tail with
    ``M/rho * sum_{k>N} k t^{k-1}`` evaluated in closed form, ``t = r/rho``.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    ks = np.arange(1, f.order + 1, dtype=float)
    block = float(np.sum(ks * np.abs(f.coeffs[1:]) * r ** (ks - 1))) if f.order >= 1 else 0.0
    if f.is_exact:
        return block
    if f.tail is None:
        return math.inf
    M, rho = f.tail
    t = r / rho
    if t >= 1.0:
        return math.inf
    n = f.order
    tail_sum = ((n + 1) * t**n * (1.0 - t) + t ** (n + 1)) / (1.0 - t) ** 2
    return block + (M / rho) * tail_sum


# -- arithmetic ------------------------------------------------------------


def _effective_tail(s: TruncSeries, order: int) -> Optional[Tail]:
    """Tail pair valid for every ``k > order`` where ``order <= s.order``.

    The stored tail only covers ``k > s.order``; explicit coefficients in
    ``(order, s.order]`` are folded in by inflating ``M``.  Exact series with
    nonzero discarded coefficients are covered with ``rho = 1`` (any finite
    block admits that normalization).
    """
    if s.tail is None:
        return None
    M, rho = s.tail
    hi = np.abs(s.coeffs[order + 1 :])
    if M == 0.0:
        if hi.size == 0 or float(np.max(hi)) == 0.0:
            return Tail(0.0, math.inf)
        return Tail(float(np.max(hi)), 1.0)
    if hi.size:
        ks = np.arange(order + 1, s.order + 1, dtype=float)
        # an underflowed coefficient at an overflowing power gives 0 * inf =
        # NaN, which is not finite and takes the overflow fallback below
        with np.errstate(over="ignore", invalid="ignore"):
            inflated = hi * rho**ks
        if np.all(np.isfinite(inflated)):
            M = max(M, float(np.max(inflated)))
        else:
            # folding the block at this radius overflows; rho = 1 keeps the
            # envelope finite (rho > 1 here, so the old tail only shrinks)
            M = max(float(np.max(hi)), M * rho ** -(order + 1.0))
            rho = 1.0
    return Tail(M, rho)


def convolve(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """Hadamard convolution ``(f*g)(z) = sum a_k(f) a_k(g) z^k``.

    The result is truncated at ``min(order f, order g)`` and carries the
    product tail ``(M_f M_g, rho_f rho_g)``.  When the shorter factor is an
    exact polynomial the result is exact (all higher products vanish).
    """
    n = min(f.order, g.order)
    coeffs = f.coeffs[: n + 1] * g.coeffs[: n + 1]
    tf = _effective_tail(f, n)
    tg = _effective_tail(g, n)
    tail: Optional[Tail]
    if (tf is not None and tf.M == 0.0) or (tg is not None and tg.M == 0.0):
        tail = Tail(0.0, math.inf)
    elif tf is not None and tg is not None:
        M = tf.M * tg.M
        rho = tf.rho * tg.rho
        if not (math.isfinite(M) and math.isfinite(rho)):
            # the direct product leaves float range; rebuild the envelope
            # from its value at the first dropped index with a capped radius
            t_raw = (tf.M * tf.rho ** -(n + 1.0)) * (tg.M * tg.rho ** -(n + 1.0))
            t = 4.0 * t_raw + 1e-290  # absorbs rounding and underflow
            if math.isfinite(t):
                log_cap = (math.log(1e300) - math.log(t)) / (n + 1.0)
                rho = min(tf.rho, tg.rho, rho)
                if math.log(rho) > log_cap:
                    rho = math.exp(log_cap)
                M = 1.01 * math.exp(math.log(t) + (n + 1.0) * math.log(rho))
            else:
                M, rho = math.inf, 1.0  # unusable but never understated
        tail = Tail(M, rho)
    else:
        tail = None
    return TruncSeries(coeffs, tail)


def exact_product(g: TruncSeries, order: int) -> bool:
    """True when ``convolve(p, g)`` is exact for every exact polynomial ``p``
    of the given order: ``g`` is exact, or stores every coefficient ``p`` can
    pair with."""
    return g.is_exact or g.order >= order


def horner_rows(rows: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Every row polynomial (coefficients ascending) at every point of ``zs``.

    Horner's scheme in ``np.polyval``'s operation order, the multiplication
    of the zero start by ``z`` included, so row ``i`` is bitwise
    ``np.polyval(rows[i][::-1], zs)``.
    """
    values = np.zeros((len(rows), len(zs)), dtype=complex)
    for column in np.ascontiguousarray(rows.T[::-1])[:, :, None]:  # highest degree first
        values *= zs
        values += column
    return values


def dilate(f: TruncSeries, x: complex) -> TruncSeries:
    """Dilation ``(P_x f)(z) = f(xz)``: coefficientwise ``a_k -> a_k x^k``.

    ``dilate(f, 0)`` collapses to the constant ``f(0)`` padded to the same
    order.  ``|x| > 1`` is permitted only when the tail radius certifies
    regularity on the dilated disk.
    """
    x = complex(x)
    if x == 0:
        coeffs = np.zeros(f.order + 1, dtype=complex)
        coeffs[0] = f.coeffs[0]
        return TruncSeries(coeffs, Tail(0.0, math.inf))
    ax = abs(x)
    if ax > 1.0 and not f.is_exact:
        if f.tail is None or f.tail.rho <= ax:
            raise ValueError(
                f"dilation by |x| = {ax:.6g} > 1 requires a tail radius beyond |x|"
            )
    powers = x ** np.arange(f.order + 1)
    coeffs = f.coeffs * powers
    if f.tail is None:
        tail = None
    elif f.is_exact:
        tail = Tail(0.0, math.inf)
    else:
        tail = Tail(f.tail.M, f.tail.rho / ax)
    return TruncSeries(coeffs, tail)


_RATIONAL_RHO_CAP = 1e300  # keeps the tail of a tiny pole parameter finite


def _modulus(z: complex, what: str) -> float:
    """``abs(z)``, with a ValueError where the modulus of a finite ``z``
    passes the float range (``abs`` raises OverflowError there)."""
    try:
        return abs(z)
    except OverflowError:
        raise ValueError(f"{what} has a modulus beyond the float range") from None


def from_rational(x: complex, y: complex, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Expansion of ``(1 + x z) / (1 + y z)`` about the origin, ``|y| < 1``.

    Coefficients are ``c_0 = 1`` and ``c_k = (x - y)(-y)^{k-1}`` for
    ``k >= 1``; the tail ``(|x-y|/|y|, 1/|y|)`` is tight.  ``y = 0`` and
    ``x = y`` degenerate to exact polynomials.  For ``|y| < 1e-300`` the
    radius is capped at ``1e300`` so the tail stays finite.  A ``|x - y|``
    past the float range raises ValueError.
    """
    x = complex(x)
    y = complex(y)
    if order < 0:
        raise ValueError("order must be nonnegative")
    if abs(y) >= 1.0:
        raise ValueError("pole parameter must satisfy |y| < 1")
    gap = _modulus(x - y, "x - y")
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[0] = 1.0
    if x == y:
        return TruncSeries(coeffs, Tail(0.0, math.inf))
    if y == 0:
        if order >= 1:
            coeffs[1] = x
        return TruncSeries(coeffs, Tail(0.0, math.inf))
    ks = np.arange(0, order, dtype=float)
    coeffs[1:] = (x - y) * (-y) ** ks
    rho = 1.0 / abs(y)
    if rho > _RATIONAL_RHO_CAP:
        # tiny |y| (1/|y| overflows once |y| is subnormal): any radius
        # rho' <= 1/|y| still bounds |a_k| = |x-y| |y|^(k-1) by (|x-y| rho') rho'^-k
        return TruncSeries(coeffs, Tail(gap * _RATIONAL_RHO_CAP, _RATIONAL_RHO_CAP))
    return TruncSeries(coeffs, Tail(gap / abs(y), rho))


def leading_block(f: TruncSeries, width: int) -> np.ndarray:
    """The first ``width`` coefficients of ``f`` as one row.

    Entries beyond the stored block are zero for an exact polynomial and NaN
    otherwise (the coefficient is not determined).
    """
    row = np.full(width, np.nan, dtype=complex)
    n = min(width, f.order + 1)
    row[:n] = f.coeffs[:n]
    if f.is_exact:
        row[n:] = 0.0
    return row


def rational_leading_rows(
    x: np.ndarray, y: np.ndarray, order: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`leading_block` rows of ``from_rational(x_i, y_i, order)`` at once.

    Returns the ``(len(x), width)`` rows and each expansion's tail radius
    (``TruncSeries.tail_radius``: infinite when exact).  The
    closed form runs :func:`from_rational`'s operations in its order, exact
    cases ``x = y`` and ``y = 0`` included, so every row is bitwise equal to
    the scalar expansion's.  Pairs whose coefficients it cannot vouch for
    (``|y| >= 1``, a difference ``x - y`` near overflow or not finite) are
    expanded by :func:`from_rational` itself, in order, which raises as it
    does.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if order < 0:
        raise ValueError("order must be nonnegative")
    d = x - y
    ay = np.hypot(y.real, y.imag)  # abs(y) as Python's complex abs computes it
    safe = (ay < 1.0) & (np.maximum(np.abs(d.real), np.abs(d.imag)) <= 1e307)
    exact = (x == y) | (y == 0)
    n = min(width, order + 1)
    rows = np.full((len(x), width), np.nan, dtype=complex)
    rows[:, :n] = 0.0
    rows[:, 0] = 1.0
    rows[exact, n:] = 0.0
    pole = ~exact
    if n > 1:
        rows[(y == 0) & ~(x == y), 1] = x[(y == 0) & ~(x == y)]
        ks = np.arange(0, order, dtype=float)[: n - 1]
        # |(x - y) (-y)^k| <= |x - y| once |y| < 1, so a difference below
        # 1e307 per component keeps every stored coefficient finite
        rows[pole & safe, 1:n] = d[pole & safe, None] * (-y[pole & safe, None]) ** ks
    with np.errstate(divide="ignore", over="ignore"):  # 1/|y| of a tiny y is capped
        radius = np.where(exact, math.inf, np.minimum(1.0 / ay, _RATIONAL_RHO_CAP))
    for i in np.flatnonzero(~safe):
        f = from_rational(x[i], y[i], order=order)
        rows[i] = leading_block(f, width)
        radius[i] = f.tail_radius
    return rows, radius


def ones(order: int = DEFAULT_ORDER) -> TruncSeries:
    """Convolution identity: all coefficients one, the truncation of ``(1-z)^-1``."""
    return TruncSeries(np.ones(order + 1, dtype=complex), Tail(1.0, 1.0))


def const_one(order: int = 0) -> TruncSeries:
    """The constant function ``e(z) = 1`` as an exact polynomial."""
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[0] = 1.0
    return TruncSeries(coeffs, Tail(0.0, math.inf))


# -- tail estimation and convergence --------------------------------------

Evaluable = Union[TruncSeries, Callable[[np.ndarray], np.ndarray]]


def eval_samples(f: Evaluable, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a series or a plain callable on an array of points.

    Callables are assumed exact (zero error bound) and must either accept an
    array or be applied pointwise.
    """
    if isinstance(f, TruncSeries):
        return evaluate_many(f, zs)
    try:
        vals = np.asarray(f(zs), dtype=complex)
        if vals.shape != zs.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.asarray([f(z) for z in zs], dtype=complex)
    return vals, np.zeros(zs.shape, dtype=float)


def cauchy_tail_from_samples(
    f: Evaluable,
    rho1: float,
    num_samples: int = 512,
    max_error_fraction: float = 0.25,
) -> Tail:
    """Certified tail via Cauchy's estimate from samples on ``|z| = rho1``.

    Returns ``(M, rho1)`` where ``M`` majorizes ``max |f|`` on the circle:
    the sampled maximum inflated by per-point error bounds and a sampling
    modulus-of-continuity allowance (the largest adjacent-sample jump).
    Fails when the evaluation bounds exceed ``max_error_fraction`` of the
    sampled maximum, since the estimate would then be dominated by noise.
    """
    if rho1 <= 0:
        raise ValueError("sampling radius must be positive")
    if num_samples < 8:
        raise ValueError("need at least 8 samples")
    theta = 2.0 * np.pi * np.arange(num_samples) / num_samples
    zs = rho1 * np.exp(1j * theta)
    vals, errs = eval_samples(f, zs)
    if not np.all(np.isfinite(errs)):
        raise ValueError(f"evaluation on |z| = {rho1:.6g} has unbounded error; no usable tail")
    peak = float(np.max(np.abs(vals)))
    worst_err = float(np.max(errs))
    if peak > 0 and worst_err > max_error_fraction * peak:
        raise ValueError(
            f"per-point error bound {worst_err:.3g} exceeds {max_error_fraction:.0%} "
            f"of the sampled maximum {peak:.3g}"
        )
    jumps = np.abs(np.roll(vals, -1) - vals)
    allowance = float(np.max(jumps)) if jumps.size else 0.0
    return Tail(peak + worst_err + allowance, float(rho1))


def convolution_convergence_bound(
    eps1: float,
    eps2: float,
    M1: float,
    M2: float,
    rho: float,
    rho1: float,
    rho2: float,
) -> float:
    """Uniform bound for ``|f_n * g_n - f * g|`` on ``|z| <= rho``.

    With ``max|f_n - f| <= eps1`` on ``|z| = rho1``, ``max|g_n - g| <= eps2``
    on ``|z| = rho2``, and ``M1, M2`` majorizing ``|f_n|, |g|`` there, the
    coefficientwise Cauchy estimates sum to a geometric series whose value is

        ``(eps2*M1 + eps1*M2) * (1 - rho/(rho1*rho2))**-1``.

    The reciprocal factor is the closed geometric sum; dropping it would
    understate the bound whenever ``rho`` is close to ``rho1*rho2``.
    """
    for name, v in (("eps1", eps1), ("eps2", eps2), ("M1", M1), ("M2", M2)):
        if v < 0:
            raise ValueError(f"{name} must be nonnegative")
    if not (0 <= rho < rho1 * rho2):
        raise ValueError("requires 0 <= rho < rho1 * rho2")
    return (eps2 * M1 + eps1 * M2) / (1.0 - rho / (rho1 * rho2))
