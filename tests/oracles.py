"""Independent oracles used to pin expected values in the test suite.

Everything here is implemented from first principles (quadrature, dense
sweeps, brute-force searches) without calling the code paths under test, so
that agreement is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from convdual.family import (
    COARSE_GRID,
    Circle,
    FamilySpec,
    MemberTag,
    ParamGrid,
    Pencil,
    Rational,
    Segment,
    _check_member_budget,
    _member_count,
    dilation_points,
    pairing_margin,
)
from convdual.series import Tail, TruncSeries, convolve, dilate, evaluate, is_normalized

# -- the member lister -------------------------------------------------------------
# ``sample`` and ``sample_generator`` as ``convdual.family`` had them before
# ``leading_rows`` became its only lister: ``itertools.product`` over each
# generator's parameter lists and one series per member, copied verbatim.
# The oracles below list members with them.


def sample(V: FamilySpec, grid: Optional[ParamGrid] = None) -> list[tuple[TruncSeries, MemberTag]]:
    """Deterministic finite sample of the family over the grid.

    When the family carries a dilation slot every base member is paired with
    every dilation parameter from the unit-disk grid.
    """
    grid = grid or ParamGrid()
    out: list[tuple[TruncSeries, MemberTag]] = []
    for gi in range(len(V.generators)):
        out.extend(sample_generator(V, gi, grid, sampled_before=len(out)))
    return out


def sample_generator(
    V: FamilySpec, gen_index: int, grid: ParamGrid, sampled_before: int = 0
) -> list[tuple[TruncSeries, MemberTag]]:
    """The members :func:`sample` draws from one generator of ``V``.

    ``sampled_before`` members of earlier generators count against
    ``grid.max_members``, which is checked before any parameter is listed.
    """
    gen = V.generators[gen_index]
    _check_member_budget(sampled_before + _member_count(V, gen, grid), grid)
    out: list[tuple[TruncSeries, MemberTag]] = []
    dil_points = dilation_points(grid) if V.dilation_slot else [None]
    lists = gen.param_lists(grid)
    combos = itertools.product(*lists) if lists else iter([()])
    for params in combos:
        member = gen.instantiate(params)
        for w in dil_points:
            if w is None:
                out.append((member, MemberTag(gen_index, gen.kind, tuple(params))))
            else:
                out.append(
                    (dilate(member, w), MemberTag(gen_index, gen.kind, tuple(params), dilation=w))
                )
    return out


# -- the sampled sigma search -----------------------------------------------------
# ``pencil_term_radii``, ``_pairing_margin_at`` and ``sigma_search`` as
# ``convdual.family`` had them before ``sigma_search`` decided its probes
# through ``in_T``, copied verbatim: the pencil closed form at ``|t|`` and
# every other member sampled, convolved once and evaluated at each probe.


def pencil_term_radii(gen: Pencil, kernel: TruncSeries, t: complex) -> Optional[list[tuple[float, str]]]:
    """Moduli ``R_j |a_{k_j}(kernel)| |t|^{k_j}`` with domain kinds.

    Returns None when a needed kernel coefficient is not determined
    (beyond the stored block of a non-exact kernel) or a domain is not
    rotation invariant; callers then fall back to sampling.
    """
    out: list[tuple[float, str]] = []
    at = abs(t)
    for k, d in zip(gen.exponents, gen.domains):
        if isinstance(d, Segment):
            return None
        try:
            c = kernel.coefficient(k)
        except ValueError:
            return None
        out.append((d.max_abs * abs(c) * at**k, d.kind))
    return out



def _pairing_margin_at(
    V: FamilySpec,
    g: TruncSeries,
    t: float,
    grid: ParamGrid,
    products: dict[int, list[TruncSeries]],
) -> Optional[float]:
    """Certified lower bound for ``|(f*g)(t)|`` over the family, or None.

    Exact for pencil generators via the annulus distance; sampled members of
    other generators contribute their evaluated margins (None when any
    evaluation there has an unusable bound).  ``products`` keeps the sampled
    members' products, convolved by the first call as it reaches them.
    """
    worst = math.inf
    for gi, gen in enumerate(V.generators):
        if isinstance(gen, Pencil):
            radii = pencil_term_radii(gen, g, t)
        else:
            radii = None
        if radii is not None:
            worst = min(worst, pairing_margin(radii, V.dilation_slot))
            continue
        hs = products.setdefault(gi, [])
        members = None if hs else sample(FamilySpec((gen,), V.dilation_slot), grid)
        for j in range(len(hs) if members is None else len(members)):
            if members is not None:
                hs.append(convolve(members[j][0], g))
            h = hs[j]
            if h.tail_radius <= t and not h.is_exact:
                return None
            v = evaluate(h, t)
            if not math.isfinite(v.error_bound):
                return None
            worst = min(worst, abs(v.value) - v.error_bound)
    return worst


def sigma_search(
    V: FamilySpec,
    g: TruncSeries,
    sigma_max: float = 8.0,
    grid: Optional[ParamGrid] = None,
    margin_floor: float = 1e-12,
    refine_gap: float = 2e-4,
) -> Optional[float]:
    """Largest certifiable ``sigma`` in ``(1, sigma_max)`` for the pairing.

    Certifies ``(f*g)(sigma) != 0`` over the family (exactly for pencil
    generators, over the sampled members otherwise).  Walks the shrinking
    schedule ``sigma_j = 1 + (sigma_max - 1) 2^-j``, ``j >= 1``, until a
    certifiable point appears, then bisects upward against ``sigma_{j-1}``
    so the result is within ``refine_gap`` of the supremum on families where
    certifiability is an interval (pencils).  ``sigma`` is additionally
    capped by the kernel's tail radius (the dilated kernel must stay regular
    on the closed disk).  Returns None when nothing above one certifies.
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

    cap = math.inf if g.is_exact else g.tail.rho
    products: dict[int, list[TruncSeries]] = {}  # filled at z = 1, read by every probe
    base = _pairing_margin_at(V, g, 1.0, grid, products)
    if base is None or base <= 0.0:
        raise ValueError("pairing at z = 1 is not certifiably nonvanishing for this kernel")

    def ok(s: float) -> bool:
        if s >= cap:
            return False
        m = _pairing_margin_at(V, g, s, grid, products)
        return m is not None and m > margin_floor

    lo = None
    hi = None
    for j in range(1, 49):
        s = 1.0 + (sigma_max - 1.0) * 2.0**-j
        if ok(s):
            lo = s
            hi = 1.0 + (sigma_max - 1.0) * 2.0 ** -(j - 1)
            break
    if lo is None:
        return None
    hi = min(hi, cap, sigma_max)
    while hi - lo > refine_gap:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


# -- first-principles values and searches ----------------------------------------


def contour_convolution_value(f_coeffs, g_coeffs, z: complex, rho: float = 1.0, nodes: int = 256) -> complex:
    """Hadamard product value via the contour integral

        (f*g)(z) = (1/2pi) \\int_0^{2pi} f(rho e^{i t}) g(z e^{-i t} / rho) dt.

    Trapezoid quadrature on the circle is exact for polynomial integrands as
    soon as ``nodes`` exceeds the sum of the degrees (aliasing argument), so
    for polynomial inputs this is an independent closed evaluation.
    """
    f_coeffs = np.asarray(f_coeffs, dtype=complex)
    g_coeffs = np.asarray(g_coeffs, dtype=complex)
    t = 2.0 * np.pi * np.arange(nodes) / nodes
    w = rho * np.exp(1j * t)
    fv = np.polyval(f_coeffs[::-1], w)
    gv = np.polyval(g_coeffs[::-1], z * np.exp(-1j * t) / rho)
    return complex(np.mean(fv * gv))


def direct_pairing(f_coeffs, g_coeffs) -> complex:
    """Direct coefficient pairing sum_k a_k(f) a_k(g) (the value at z = 1)."""
    f_coeffs = np.asarray(f_coeffs, dtype=complex)
    g_coeffs = np.asarray(g_coeffs, dtype=complex)
    n = min(f_coeffs.size, g_coeffs.size)
    return complex(np.sum(f_coeffs[:n] * g_coeffs[:n]))


def rational_coefficients(x: complex, y: complex, order: int) -> np.ndarray:
    """Long-division expansion of (1+xz)/(1+yz) up to ``order``.

    Computed by recurrence from (1+yz) * sum c_k z^k = 1 + xz, independent of
    the closed form used in the library.
    """
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    if order >= 1:
        c[1] = x - y * c[0]
    for k in range(2, order + 1):
        c[k] = -y * c[k - 1]
    return c


def planted_polynomial(roots, lead: complex = 1.0) -> np.ndarray:
    """Coefficients (ascending) of lead * prod (z - r) for planted roots."""
    p = np.atleast_1d(np.poly(np.asarray(roots, dtype=complex)))  # descending
    return (lead * p)[::-1].astype(complex)


def count_roots_inside(roots, r: float) -> int:
    return int(np.sum(np.abs(np.asarray(roots, dtype=complex)) < r))


def dense_min_modulus(coeffs, r: float, n: int = 200_000) -> tuple[float, complex]:
    """Dense sweep of |p(z)| on |z| = r; returns (min value, argmin point)."""
    t = 2.0 * np.pi * np.arange(n) / n
    zs = r * np.exp(1j * t)
    vals = np.abs(np.polyval(np.asarray(coeffs, dtype=complex)[::-1], zs))
    i = int(np.argmin(vals))
    return float(vals[i]), complex(zs[i])


def brute_force_decompose(member_coeffs, border_params_grid, x_grid, instantiate):
    """Search (g, x) with dilate(g, x) == member over finite grids.

    ``instantiate`` maps a border parameter tuple to coefficient array; the
    dilation is applied directly on coefficients.  Returns the best
    (params, x, residual).
    """
    member = np.asarray(member_coeffs, dtype=complex)
    ks = np.arange(member.size)
    best = (None, None, np.inf)
    for params in border_params_grid:
        g = np.asarray(instantiate(params), dtype=complex)
        if g.size < member.size:
            g = np.pad(g, (0, member.size - g.size))
        for x in x_grid:
            cand = g[: member.size] * (x**ks)
            res = float(np.max(np.abs(cand - member)))
            if res < best[2]:
                best = (params, x, res)
    return best


def brute_nearest_distance(queries, ref) -> np.ndarray:
    """Distance from each query to its nearest reference point, all pairs.

    ``inf`` for every query when ``ref`` is empty.
    """
    queries = np.asarray(queries, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if len(ref) == 0:
        return np.full(len(queries), np.inf)
    return np.array([np.min(np.abs(q - ref)) for q in queries], dtype=float)


def _finite_rounded(points) -> np.ndarray:
    """The distinct points rounded to 12 decimals, non-finite values left out.

    A finite coordinate whose rounding overflows (above about 1.8e296) is a
    whole number already and is kept unrounded.
    """
    points = np.asarray(points, dtype=complex)
    rounded = np.empty_like(points)
    for part, raw in (("real", points.real), ("imag", points.imag)):
        with np.errstate(over="ignore"):
            r = np.round(raw, 12)
        setattr(rounded, part, np.where(np.isfinite(raw) & ~np.isfinite(r), raw, r))
    return np.unique(rounded[np.isfinite(rounded)])


def brute_median_spacing(points) -> float:
    """Median nearest-neighbour distance of the distinct finite points
    (rounded to 12 decimals), over every ``len // 4096 + 1``-th one when
    there are more than 4096; 1.0 for fewer than two distinct points."""
    ref = _finite_rounded(points)
    if len(ref) < 2:
        return 1.0
    if len(ref) > 4096:
        ref = ref[:: len(ref) // 4096 + 1]
    nn = [np.min(np.abs(q - np.delete(ref, i))) for i, q in enumerate(ref)]
    return float(np.median(nn))


def brute_coverage_flags(points, spacing: float, directions: int = 16,
                         probe: float = 2.0, cover: float = 1.3) -> np.ndarray:
    """A finite point is flagged when some probe at ``probe * spacing`` in one
    of ``directions`` equally spaced directions has no distinct finite
    (rounded) cloud point within ``cover * spacing``; non-finite points are
    never flagged."""
    points = np.asarray(points, dtype=complex)
    ref = _finite_rounded(points)
    finite = np.isfinite(points)
    flags = np.zeros(len(points), dtype=bool)
    for a in np.exp(2j * np.pi * np.arange(directions) / directions):
        dist = brute_nearest_distance(points[finite] + probe * spacing * a, ref)
        flags[finite] |= dist > cover * spacing
    return flags


def cloud_nearest_distance(cloud, c: complex) -> float:
    """Distance from ``c`` to the nearest point of a ``RegionCloud``: one scan
    of every point (the body of ``RegionCloud.nearest_distance``)."""
    if len(cloud.points) == 0:
        return math.inf
    return float(np.min(np.abs(cloud.points - c)))


def deep_interior(c: complex, cloud, radius: float) -> bool:
    """Every probe direction at the given radius is backed by the cloud.

    A cloud only resolves the region up to its mesh, so points outside but
    within one mesh of it are indistinguishable from members; this test
    picks out candidates that sit at least a probe radius inside.  (The
    per-candidate probe C1 used before its batched pass.)
    """
    for a in np.exp(2j * np.pi * np.arange(16) / 16):
        if cloud_nearest_distance(cloud, c + radius * a) > 1.3 * cloud.mesh_spacing:
            return False
    return True


def per_member_image(lam, V, grid, mesh_spacing=None, boundary: bool = True) -> dict:
    """Direct-route ``functional_image`` fields by the member-by-member loop.

    Every sampled member is built as a series and the functional applied to
    it on its own (``sample`` + ``apply``), the route the batched pencil
    evaluation replaces; spacing and boundary flags come from the all-pairs
    oracles above.  Raises ValueError where that loop does.
    """
    import math

    from convdual.duality import apply

    pts, errs, labels = [], [], []
    for f, tag in sample(V, grid):
        v = apply(lam, f)
        if not math.isfinite(v.error_bound):
            raise ValueError(f"functional bound unusable on member {tag.label()}")
        pts.append(v.value)
        errs.append(v.error_bound)
        labels.append(tag.label())
    points = np.asarray(pts, dtype=complex)
    spacing = brute_median_spacing(points) if mesh_spacing is None else mesh_spacing
    if boundary:
        flags = brute_coverage_flags(points, spacing)
    else:
        flags = np.zeros(len(points), dtype=bool)
    return {
        "points": points,
        "errors": np.asarray(errs, dtype=float),
        "labels": tuple(labels),
        "eval_points": np.full(len(points), 1.0 + 0.0j),
        "boundary_flags": flags,
        "mesh_spacing": spacing,
        "route": "direct",
    }


def per_member_border_image(lam, V, grid, mesh_depth: int = 8, mesh_angles: int = 64,
                            mesh_spacing=None) -> dict:
    """Border-route ``functional_image`` fields by the member-by-member loop.

    Every sampled border element is built as a series, convolved with the
    kernel and evaluated on the whole mesh on its own (``sample`` +
    ``convolve`` + ``evaluate_many``), the route the batched pencil pass
    replaces; the spacing comes from the all-pairs oracle above.  Raises
    ValueError where that loop does, with its message.
    """
    from convdual.contour import radius_schedule
    from convdual.family import border_elements
    from convdual.series import convolve, evaluate_many

    radii = list(radius_schedule(mesh_depth)) + [1.0]
    angles = np.exp(2j * np.pi * np.arange(mesh_angles) / mesh_angles)
    mesh = np.concatenate(
        [np.zeros(1, dtype=complex), np.asarray([r * a for r in radii for a in angles])]
    )
    mesh_flags = np.abs(mesh) >= 1.0 - 1e-15
    members = sample(border_elements(V), grid)
    pts, errs, labels = [], [], []
    for f, tag in members:
        vals, bounds = evaluate_many(convolve(f, lam.kernel), mesh)
        if not np.all(np.isfinite(bounds)):
            raise ValueError(f"border-route bound unusable on member {tag.label()} "
                             "(convolution tail radius does not exceed one)")
        pts.append(vals)
        errs.append(bounds)
        labels.extend([tag.label()] * len(mesh))
    points = np.concatenate(pts)
    return {
        "points": points,
        "errors": np.concatenate(errs),
        "labels": tuple(labels),
        "eval_points": np.tile(mesh, len(members)),
        "boundary_flags": np.tile(mesh_flags, len(members)),
        "mesh_spacing": brute_median_spacing(points) if mesh_spacing is None else mesh_spacing,
        "route": "border",
    }


def _oracle_verdict(worst: float, gray: list, params: dict):
    """The Verified/Inconclusive form of a decision with every gray reason kept."""
    import math

    from convdual.contour import Certificate, CertStatus

    if gray:
        more = f" (+{len(gray) - 3} more)" if len(gray) > 3 else ""
        return Certificate(
            status=CertStatus.INCONCLUSIVE,
            reason="; ".join(gray[:3]) + more,
            params={"gray_members": len(gray)},
        )
    return Certificate(
        status=CertStatus.VERIFIED,
        min_modulus=worst if math.isfinite(worst) else 1.0,
        winding=0,
        params=params,
    )


def _oracle_modulus(value) -> float:
    """``abs`` of a pairing value that may become a margin; a value that is
    not finite (an overflow in the sum) raises ValueError, as the decisions
    do."""
    import cmath

    if not cmath.isfinite(value):
        raise ValueError("pairing value is not finite (overflow in the sum)")
    return abs(value)


def _oracle_clist(zs) -> list:
    return [[complex(z).real, complex(z).imag] for z in zs]


def per_kernel_pool(V, kernels=None, kernel_grid=None, grid=None, tol=None) -> dict:
    """``build_transpose_pool`` by the per-kernel loop the array pass replaces.

    Every sampled kernel is built as a series and decided by ``in_T`` on
    its own; kernels whose decision raises ValueError or is not Verified
    are skipped.  Returns the kernel family ``spec``, the kept ``members``
    (series, tag), their leading-coefficient rows ``coeffs`` and
    ``skipped``.
    """
    from convdual.contour import DEFAULT_TOL
    from convdual.duality import _POOL_KMAX, in_T
    from convdual.family import COARSE_GRID, default_kernel_family

    tol = tol or DEFAULT_TOL
    kernels = kernels or default_kernel_family()
    kernel_grid = kernel_grid or COARSE_GRID
    kept = []
    rows = []
    skipped = 0
    for g, tag in sample(kernels, kernel_grid):
        try:
            cert = in_T(g, V, grid, tol)
        except ValueError:
            skipped += 1
            continue
        if not cert.verified:
            skipped += 1
            continue
        kept.append((g, tag))
        row = np.full(_POOL_KMAX + 1, np.nan, dtype=complex)
        for k in range(min(_POOL_KMAX, g.order) + 1):
            row[k] = g.coeffs[k]
        if g.is_exact:
            row[g.order + 1 :] = 0.0
        rows.append(row)
    coeffs = np.vstack(rows) if rows else np.zeros((0, _POOL_KMAX + 1), dtype=complex)
    return {"spec": kernels, "members": kept, "coeffs": coeffs, "skipped": skipped}


def per_kernel_hull(h, V, pool: dict, grid=None, tol=None):
    """``in_dual_hull(h, V, pool=...)`` against a :func:`per_kernel_pool`
    result: every kernel's tag and series at hand, every gray reason kept."""
    import math

    from convdual.contour import DEFAULT_TOL, Certificate, CertStatus
    from convdual.duality import _knapsack_falsifier, _pairing_value, in_T

    tol = tol or DEFAULT_TOL
    members = pool["members"]

    def annihilates(tag, value):
        return Certificate(
            status=CertStatus.FALSIFIED,
            witness=1.0 + 0.0j,
            reason="pool transpose kernel annihilates the series",
            params={
                "kernel": tag.label(),
                "kernel_params": _oracle_clist(tag.params),
                "pairing_value": [value.real, value.imag],
            },
        )

    hit = _knapsack_falsifier(h, V, pool["spec"])
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
    if not members:
        return Certificate(
            status=CertStatus.INCONCLUSIVE,
            reason="no sampled kernel certified in the transpose set",
            params={"kernels_skipped": pool["skipped"]},
        )
    worst = math.inf
    gray = []
    for g, tag in members:
        v = _pairing_value(g, h)
        if not math.isfinite(v.error_bound):
            gray.append(f"{tag.label()}: unusable pairing bound")
            continue
        modulus = _oracle_modulus(v.value)
        if modulus + v.error_bound < tol.witness_bar:
            return annihilates(tag, v.value)
        margin = modulus - v.error_bound
        if margin <= tol.margin_floor:
            gray.append(f"{tag.label()}: pairing margin {margin:.3e} below the floor")
            continue
        worst = min(worst, margin)
    return _oracle_verdict(
        worst,
        gray,
        {
            "scope": "relative to the sampled kernel family",
            "kernels_in_transpose": len(members),
            "kernels_skipped": pool["skipped"],
        },
    )


def per_kernel_complete(V, pool: dict, grid=None, tol=None):
    """``is_complete_T`` over a :func:`per_kernel_pool` result: ``in_T``
    against the complete hull for every kept kernel, in pool order."""
    import math

    from convdual.contour import DEFAULT_TOL, Certificate, CertStatus
    from convdual.duality import in_T
    from convdual.family import complete_hull

    tol = tol or DEFAULT_TOL
    hull = complete_hull(V)
    worst = math.inf
    gray = []
    for g, tag in pool["members"]:
        cert = in_T(g, hull, grid, tol)
        if cert.falsified:
            params = dict(cert.params)
            params["kernel"] = tag.label()
            params["kernel_params"] = _oracle_clist(tag.params)
            return Certificate(
                status=CertStatus.FALSIFIED,
                witness=cert.witness,
                reason="transpose kernel fails against a dilated member",
                params=params,
            )
        if cert.status is CertStatus.INCONCLUSIVE:
            gray.append(f"{tag.label()}: {cert.reason}")
            continue
        worst = min(worst, cert.min_modulus)
    return _oracle_verdict(worst, gray, {"kernels_in_transpose": len(pool["members"])})


def per_member_dual(g, V, grid=None, r_max=None, schedule=None, tol=None):
    """``in_dual`` by the member-by-member loop the row pass replaces.

    Pencils the closed form decides are decided by it; every other sampled
    member is built as a series, convolved with ``g`` and certified by
    ``nonvanishing_in_disk`` on its own, in sample order, every gray reason
    kept.  Raises where that loop raises.
    """
    import math
    from dataclasses import replace

    from convdual.contour import DEFAULT_TOL, Certificate, CertStatus, nonvanishing_in_disk
    from convdual.duality import _pencil_dual_certificate
    from convdual.family import Pencil
    from convdual.series import convolve

    tol = tol or DEFAULT_TOL
    grid = grid or ParamGrid()
    base = replace(V, dilation_slot=False) if V.dilation_slot else V
    worst = math.inf
    gray = []
    all_exact = True
    members_checked = 0
    for gi, gen in enumerate(V.generators):
        if isinstance(gen, Pencil):
            cert = _pencil_dual_certificate(gi, gen, g, tol)
            if cert is not None:
                if cert.falsified:
                    return cert
                if cert.status is CertStatus.INCONCLUSIVE:
                    gray.append(cert.reason or f"generator {gi} inconclusive")
                    all_exact = False
                    continue
                if cert.min_modulus <= tol.margin_floor:
                    gray.append(f"generator {gi}: dual margin {cert.min_modulus:.3e} below the floor")
                    all_exact = False
                    continue
                worst = min(worst, cert.min_modulus)
                continue
        all_exact = False
        for f, tag in sample_generator(base, gi, grid):
            members_checked += 1
            inner = nonvanishing_in_disk(convolve(f, g), r_max=r_max, schedule=schedule, tol=tol)
            if inner.falsified:
                return Certificate(
                    status=CertStatus.FALSIFIED,
                    witness=inner.witness,
                    reason="convolution with a sampled member vanishes inside the disk",
                    params={
                        "generator": gi,
                        "kind": gen.kind,
                        "member_params": _oracle_clist(tag.params),
                        "member": tag.label(),
                    },
                )
            if inner.status is CertStatus.INCONCLUSIVE:
                gray.append(f"{tag.label()}: {inner.reason}")
                continue
            worst = min(worst, inner.min_modulus)
    return _oracle_verdict(
        worst, gray, {"scope": "exact" if all_exact else "sampled", "members_checked": members_checked}
    )


def _rational_slice(
    gen: Rational, kernel: TruncSeries, y: complex, u: complex
) -> tuple[float, Optional[tuple[complex, complex, float]]]:
    """Exact-in-x pairing decision for one ``(y, dilation)`` slice.

    ``convdual.duality``'s per-slice engine, as it was before one array
    pass served every slice.  The pairing of ``P_u((1+xz)/(1+yz))`` with
    the kernel is affine in x: ``1 + (x - y) S`` with
    ``S = sum_{k>=1} a_k(kernel) u^k (-y)^{k-1}`` computed over the stored
    block, plus a tail slack for non-exact kernels.  Returns the certified
    margin over the x-domain and, when the margin is nonpositive, the
    candidate root ``(x*, pairing, residual bound)`` if it lies in the
    domain.  A kernel without tail data has an infinite tail constant, so
    a slack is bounded only where ``u = 0`` (the member is the constant
    one) or ``y = 0`` and the block holds ``a_1``.
    """
    N = kernel.order
    ks = np.arange(1, N + 1)
    S = complex(np.sum(kernel.coeffs[1:] * u**ks * (-y) ** (ks - 1))) if N >= 1 else 0.0
    tail = 0.0
    if not kernel.is_exact:  # no tail data: an unbounded tail constant
        M, rho = kernel.tail or Tail(math.inf, 1.0)
        if y == 0:
            tail = M * abs(u) / rho if N < 1 else 0.0
        else:
            t = abs(u) * abs(y) / rho
            tail = (M / abs(y)) * t ** (N + 1) / (1.0 - t) if t < 1.0 else math.inf
        if u == 0:
            tail = 0.0  # the dilated member is the constant one
    R = gen.x_domain.max_abs
    m0 = 1.0 - y * S
    reach = R * abs(S)
    if isinstance(gen.x_domain, Circle):
        dist = abs(abs(m0) - reach)
    else:
        dist = max(0.0, abs(m0) - reach)
    slack = (R + abs(y)) * tail
    margin = dist - slack
    if margin > 0.0 or S == 0:
        return margin, None
    xstar = y - 1.0 / S
    if not gen.x_domain.contains(xstar, 1e-12):
        return margin, None
    value = complex(1.0 + (xstar - y) * S)
    residual = tail / abs(S)
    return margin, (complex(xstar), value, residual)


def per_member_pairing(kernel, family, grid=None, tol=None):
    """``in_T``/``in_perp``'s shared pairing decision by the member loop the
    table pass replaces: every sampled member outside the closed forms is
    built as a series and paired with the kernel on its own, in sample
    order, every gray reason kept.  Raises where that loop raises."""
    import math

    from convdual.contour import DEFAULT_TOL
    from convdual.duality import _falsified_pairing, _pairing_value, _pencil_pairing_at_one
    from convdual.family import Pencil, Rational

    tol = tol or DEFAULT_TOL
    grid = grid or ParamGrid()
    worst = math.inf
    gray = []
    all_exact = True
    members_checked = 0
    for gi, gen in enumerate(family.generators):
        if isinstance(gen, Pencil):
            outcome = _pencil_pairing_at_one(gen, kernel, family.dilation_slot)
            if outcome is not None:
                if outcome.params is not None:
                    if abs(outcome.value) < tol.witness_bar:
                        return _falsified_pairing(
                            gi, gen, outcome.params, outcome.value, outcome.dilation
                        )
                    gray.append(
                        f"generator {gi}: constructed witness residual "
                        f"{abs(outcome.value):.3e} exceeds the witness bar"
                    )
                    all_exact = False
                    continue
                if outcome.margin > tol.margin_floor:
                    worst = min(worst, outcome.margin)
                    continue
                gray.append(
                    f"generator {gi}: exact pairing margin {outcome.margin:.3e} "
                    "below the decision floor"
                )
                all_exact = False
                continue
        all_exact = False
        if isinstance(gen, Rational):
            us = dilation_points(grid) if family.dilation_slot else [1.0 + 0.0j]
            for y in gen.y_domain.points(grid):
                for u in us:
                    members_checked += 1
                    margin, root = _rational_slice(gen, kernel, y, u)
                    if margin > tol.margin_floor:
                        worst = min(worst, margin)
                        continue
                    if root is not None:
                        xstar, value, residual = root
                        if abs(value) + residual < tol.witness_bar:
                            return _falsified_pairing(
                                gi, gen, (xstar, y), value,
                                u if family.dilation_slot else None,
                            )
                    gray.append(f"generator {gi} at y = {y:.6g}: x-slice margin {margin:.3e} not decidable")
            continue
        for f, tag in sample_generator(family, gi, grid):
            members_checked += 1
            v = _pairing_value(kernel, f)
            if not math.isfinite(v.error_bound):
                gray.append(f"{tag.label()}: pairing bound unusable (tail radius <= 1)")
                continue
            modulus = _oracle_modulus(v.value)
            if modulus + v.error_bound < tol.witness_bar:
                return _falsified_pairing(gi, gen, tag.params, v.value, tag.dilation)
            margin = modulus - v.error_bound
            if margin <= tol.margin_floor:
                gray.append(f"{tag.label()}: pairing margin {margin:.3e} below the floor")
                continue
            worst = min(worst, margin)
    return _oracle_verdict(
        worst, gray, {"scope": "exact" if all_exact else "sampled", "members_checked": members_checked}
    )


# -- the scalar circle walk ------------------------------------------------------
# ``convdual.contour``'s winding_number, min_modulus_on_circle and
# nonvanishing_in_disk, with their helpers _refine_root and
# _interior_candidate, verbatim as they were before one circle pass served
# both the walk and the row pass.  Each radius is sampled three times here:
# the scan ring, the winding ring and the minimum-modulus mesh.  They are
# the reference the circle pass is checked against, bitwise.

import math  # noqa: E402
from typing import Optional, Sequence  # noqa: E402

from convdual.contour import (  # noqa: E402
    DEFAULT_TOL,
    Certificate,
    CertStatus,
    Evaluable,
    InconclusiveError,
    Tolerances,
    _circle_points,
    _derivative_evaluator,
    _schedule,
    _unbounded_off_origin,
)
from convdual.series import TruncSeries, eval_samples, modulus_derivative_bound  # noqa: E402

_FIRST_MESH = 512
_MAX_MESH = 2**17


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


def _interior_candidate(f: Evaluable, r: float) -> complex:
    """Coarse polar-mesh argmin of |f| over the closed disk of radius r."""
    radii = np.linspace(0.0, r, 17)[1:]
    thetas = 2.0 * np.pi * np.arange(64) / 64
    grid = np.concatenate([[0.0 + 0.0j], (radii[:, None] * np.exp(1j * thetas)[None, :]).ravel()])
    vals, _ = eval_samples(f, grid)
    return complex(grid[int(np.argmin(np.abs(vals)))])


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
    if _unbounded_off_origin(f, sched, tol):
        # every sample off the origin has an infinite error bound, so each
        # circle fails its winding pass, and _refine_root accepts only a point
        # with a finite bound: z = 0, where |f| = |c_0| clears the bar
        return Certificate(
            CertStatus.INCONCLUSIVE,
            reason="no certifiable circle in the radius schedule",
            params={**base_params, "skipped_radii": sched[::-1]},
        )

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
