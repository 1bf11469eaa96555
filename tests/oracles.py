"""Independent oracles used to pin expected values in the test suite.

Everything here is implemented from first principles (quadrature, dense
sweeps, brute-force searches) without calling the code paths under test, so
that agreement is evidence rather than tautology.
"""

from __future__ import annotations

import numpy as np


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


def brute_median_spacing(points) -> float:
    """Median nearest-neighbour distance of the distinct points (rounded to
    12 decimals), over every ``len // 4096 + 1``-th one when there are more
    than 4096; 1.0 for fewer than two distinct points."""
    ref = np.unique(np.round(np.asarray(points, dtype=complex), 12))
    if len(ref) < 2:
        return 1.0
    if len(ref) > 4096:
        ref = ref[:: len(ref) // 4096 + 1]
    nn = [np.min(np.abs(q - np.delete(ref, i))) for i, q in enumerate(ref)]
    return float(np.median(nn))


def brute_coverage_flags(points, spacing: float, directions: int = 16,
                         probe: float = 2.0, cover: float = 1.3) -> np.ndarray:
    """A point is flagged when some probe at ``probe * spacing`` in one of
    ``directions`` equally spaced directions has no distinct (rounded) cloud
    point within ``cover * spacing``."""
    points = np.asarray(points, dtype=complex)
    ref = np.unique(np.round(points, 12))
    flags = np.zeros(len(points), dtype=bool)
    for a in np.exp(2j * np.pi * np.arange(directions) / directions):
        flags |= brute_nearest_distance(points + probe * spacing * a, ref) > cover * spacing
    return flags


def per_member_image(lam, V, grid, mesh_spacing=None, boundary: bool = True) -> dict:
    """Direct-route ``functional_image`` fields by the member-by-member loop.

    Every sampled member is built as a series and the functional applied to
    it on its own (``sample`` + ``apply``), the route the batched pencil
    evaluation replaces; spacing and boundary flags come from the all-pairs
    oracles above.  Raises ValueError where that loop does.
    """
    import math

    from convdual.duality import apply
    from convdual.family import sample

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


def _oracle_clist(zs) -> list:
    return [[complex(z).real, complex(z).imag] for z in zs]


def per_kernel_pool(V, kernels=None, kernel_grid=None, grid=None, tol=None) -> dict:
    """``build_transpose_pool`` by the per-kernel loop the array pass replaces.

    Every sampled kernel is built as a series and decided by ``in_T`` on
    its own; kernels whose decision raises ValueError or is not Verified
    are skipped.  Returns the kernel family ``spec``, the kept ``members``
    (series, tag), their leading-coefficient rows ``coeffs``, ``kmax`` and
    ``skipped``.
    """
    from convdual.contour import DEFAULT_TOL
    from convdual.duality import _POOL_KMAX, in_T
    from convdual.family import COARSE_GRID, default_kernel_family, sample

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
    return {"spec": kernels, "members": kept, "coeffs": coeffs, "kmax": _POOL_KMAX, "skipped": skipped}


def per_kernel_hull(h, V, pool: dict, grid=None, tol=None):
    """``in_dual_hull(h, V, pool=...)`` against a :func:`per_kernel_pool`
    result: every kernel's tag and series at hand, every gray reason kept."""
    import math

    from convdual.contour import DEFAULT_TOL, Certificate, CertStatus
    from convdual.duality import _knapsack_falsifier, _pairing_value, in_T

    tol = tol or DEFAULT_TOL
    members, coeffs = pool["members"], pool["coeffs"]

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
    if h.is_exact and h.order <= pool["kmax"]:
        cols = coeffs[:, 1 : h.order + 1]
        ok_rows = ~np.any(np.isnan(cols), axis=1)
        vals = 1.0 + cols[ok_rows] @ h.coeffs[1:]
        margins = np.abs(vals)
        idx_ok = np.nonzero(ok_rows)[0]
        j = int(np.argmin(margins)) if len(margins) else 0
        if len(margins) and margins[j] < tol.witness_bar:
            return annihilates(members[idx_ok[j]][1], vals[j])
        low = margins <= tol.margin_floor
        for i in np.nonzero(low)[0]:
            gray.append(f"{members[idx_ok[i]][1].label()}: pairing margin {margins[i]:.3e} below the floor")
        if np.any(~low):
            worst = min(worst, float(np.min(margins[~low])))
        slow = [i for i in range(len(members)) if not ok_rows[i]]
    else:
        slow = list(range(len(members)))
    for i in slow:
        g, tag = members[i]
        v = _pairing_value(g, h)
        if not math.isfinite(v.error_bound):
            gray.append(f"{tag.label()}: unusable pairing bound")
            continue
        if abs(v.value) + v.error_bound < tol.witness_bar:
            return annihilates(tag, v.value)
        margin = abs(v.value) - v.error_bound
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
    from convdual.family import ParamGrid, Pencil, sample_generator
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


def per_member_pairing(kernel, family, grid=None, tol=None):
    """``in_T``/``in_perp``'s shared pairing decision by the member loop the
    table pass replaces: every sampled member outside the closed forms is
    built as a series and paired with the kernel on its own, in sample
    order, every gray reason kept.  Raises where that loop raises."""
    import math

    from convdual.contour import DEFAULT_TOL
    from convdual.duality import (
        _falsified_pairing,
        _pairing_value,
        _pencil_pairing_at_one,
        _rational_slice,
    )
    from convdual.family import ParamGrid, Pencil, Rational, dilation_points, sample_generator

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
            if abs(v.value) + v.error_bound < tol.witness_bar:
                return _falsified_pairing(gi, gen, tag.params, v.value, tag.dilation)
            margin = abs(v.value) - v.error_bound
            if margin <= tol.margin_floor:
                gray.append(f"{tag.label()}: pairing margin {margin:.3e} below the floor")
                continue
            worst = min(worst, margin)
    return _oracle_verdict(
        worst, gray, {"scope": "exact" if all_exact else "sampled", "members_checked": members_checked}
    )
