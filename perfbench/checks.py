"""Independent correctness oracles for benchmark outputs.

Written from first principles on the request's own data (spec documents as
dicts, kernels as coefficient tuples) with numpy only; nothing here imports
``convdual``.  Each ``check_*`` function returns a list of problems, empty
when the output is correct.

* Falsified certificates: the witness is re-evaluated by direct coefficient
  pairing (transpose, perp, dual hull) or polynomial evaluation (dual), and
  the member or kernel parameters must lie in their domains.
* Pencil families over disks and circles: the verdict must match the
  closed-form annulus criterion (the pairing values ``1 + sum x_j c_kj`` fill
  an annulus; see ``annulus``).
* Verified certificates on sampled families: every sampled member gets a
  dense-mesh spot check of ``|f*g|`` against the certified floor, and members
  whose convolution has closed-form roots must have none inside the disk.
* Image clouds: expected point count, finite error bounds, every point equal
  to its closed-form value, and boundary candidates within three mesh
  spacings of the known boundary circles.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Optional

import numpy as np

DEFAULT_ORDER = 64  # truncation of rat(x, y) expressions and rational generators
DEFAULT_GRID = (8, 16, 32, 16)  # (disk_radial, disk_angular, circle, segment)
KERNEL_GRID = (4, 8, 16, 8)  # grid of the stock transpose kernel pool
WITNESS_TOL = 1e-8  # a re-evaluated witness must vanish to this level
BAND = 1e-6  # closed-form margins closer to zero than this decide nothing
FLOOR_TOL = 1e-9  # slack when comparing a certified floor with recomputed values
R_OUTER = 1.0 - 2.0**-12  # outermost radius of the default radius schedule


def _c(v) -> complex:
    if isinstance(v, list):
        return complex(v[0], v[1])
    return complex(v)


# -- members and kernels -------------------------------------------------------


def rational_coeffs(x: complex, y: complex, order: int) -> np.ndarray:
    """Coefficients of (1+xz)/(1+yz) by the recurrence (1+yz) sum c_k z^k = 1+xz.

    ``c_0 = 1``, ``c_1 = x - y`` and ``c_k = -y c_(k-1)``, run as a
    cumulative product.
    """
    steps = np.full(order + 1, -complex(y))
    steps[0], steps[1:2] = 1.0, complex(x) - complex(y)
    return np.cumprod(steps)


def kernel_coeffs(kernel: tuple) -> np.ndarray:
    if kernel[0] == "poly":
        return np.asarray(kernel[1], dtype=complex)
    return rational_coeffs(kernel[1], kernel[2], DEFAULT_ORDER)


def kernel_exact(kernel: tuple) -> bool:
    return kernel[0] == "poly"


def domain_points(dom: dict, grid: tuple) -> list[complex]:
    """Grid nodes of a parameter domain, in the documented sampling order."""
    nr, na, nc, ns = grid
    if dom["shape"] == "disk":
        R = dom["radius"]
        pts = [0j]
        for i in range(1, nr + 1):
            pts.extend(R * i / nr * np.exp(2j * np.pi * np.arange(na) / na))
        return [complex(p) for p in pts]
    if dom["shape"] == "circle":
        return [complex(p) for p in dom["radius"] * np.exp(2j * np.pi * np.arange(nc) / nc)]
    a, b = _c(dom["from"]), _c(dom["to"])
    return [a + (b - a) * i / ns for i in range(ns + 1)]


def in_domain(dom: dict, x: complex, tol: float = 1e-9) -> bool:
    if dom["shape"] == "disk":
        return abs(x) <= dom["radius"] + tol
    if dom["shape"] == "circle":
        return abs(abs(x) - dom["radius"]) <= tol
    a, b = _c(dom["from"]), _c(dom["to"])
    d = b - a
    t = 0.0 if d == 0 else min(1.0, max(0.0, ((x - a) / d).real))
    return abs(x - (a + t * d)) <= tol


def member_coeffs(gen: dict, params) -> np.ndarray:
    if gen["kind"] == "pencil":
        c = np.zeros(max(gen["exponents"]) + 1, dtype=complex)
        c[0] = 1.0
        for k, x in zip(gen["exponents"], params):
            c[k] = x
        return c
    if gen["kind"] == "rational":
        return rational_coeffs(params[0], params[1], gen.get("order", DEFAULT_ORDER))
    return np.asarray([_c(v) for v in gen["coeffs"]], dtype=complex)


def member_exact(gen: dict) -> bool:
    return gen["kind"] == "pencil" or (gen["kind"] == "fixed" and gen.get("tail") == "exact")


def gen_domains(gen: dict) -> list[dict]:
    if gen["kind"] == "pencil":
        return gen["domains"]
    if gen["kind"] == "rational":
        return [gen["x_domain"], gen["y_domain"]]
    return []


def sampled_members(fam: dict, grid: Optional[tuple]):
    """(generator index, params, coefficients) of every sampled member."""
    grid = grid or DEFAULT_GRID
    out = []
    for gi, gen in enumerate(fam["generators"]):
        lists = [domain_points(d, grid) for d in gen_domains(gen)]
        for params in itertools.product(*lists):
            out.append((gi, params, member_coeffs(gen, params)))
    return out


def conv(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    n = min(len(f), len(g))
    return f[:n] * g[:n]


def poly_eval(c: np.ndarray, z) -> np.ndarray:
    return np.polyval(c[::-1], z)


# -- closed-form pencil geometry -----------------------------------------------


def is_exact_family(fam: dict) -> bool:
    return all(
        g["kind"] == "pencil" and all(d["shape"] in ("disk", "circle") for d in g["domains"])
        for g in fam["generators"]
    )


def _kc(kc: np.ndarray, k: int) -> complex:
    return complex(kc[k]) if k < len(kc) else 0j


def annulus(gen: dict, kc: np.ndarray) -> tuple[float, float]:
    """Moduli ``[lo, hi]`` of ``sum_j x_j c_kj`` over the pencil's domains.

    A disk term ranges over ``|w| <= s`` and a circle term over ``|w| = s``
    with ``s = R |c_k|``; their sum fills the annulus with outer radius
    ``sum s`` and inner radius ``max(0, 2 max_circle s - sum s)``.
    """
    terms = [(d["radius"] * abs(_kc(kc, k)), d["shape"]) for k, d in zip(gen["exponents"], gen["domains"])]
    hi = sum(s for s, _ in terms)
    circ = [s for s, shape in terms if shape == "circle"]
    lo = max(0.0, 2.0 * max(circ) - hi) if circ else 0.0
    return lo, hi


def pairing_margin(gen: dict, kc: np.ndarray, slot: bool) -> float:
    """Signed distance of 1 from the pairing value set (negative: zero attained).

    With a dilation slot the annulus shrinks continuously to the origin, so
    zero is attained exactly when the outer edge reaches one.
    """
    lo, hi = annulus(gen, kc)
    if slot or hi < 1.0:
        return 1.0 - hi
    if lo > 1.0:
        return lo - 1.0
    return -min(hi - 1.0, 1.0 - lo)


def dual_margin(gen: dict, kc: np.ndarray) -> float:
    """``1 - hi``: the convolution has a zero in the open disk iff negative."""
    return 1.0 - annulus(gen, kc)[1]


# -- membership certificates ---------------------------------------------------

STATUSES = ("Verified", "Falsified", "Inconclusive")
EXIT_CODES = {"Verified": 0, "Falsified": 1, "Inconclusive": 2}


def _expected_exact(command: str, fam: dict, kc: np.ndarray) -> Optional[str]:
    """Closed-form verdict for pencil families, None inside the margin band."""
    if command == "dual-check":
        margins = [dual_margin(g, kc) for g in fam["generators"]]
    else:
        margins = [pairing_margin(g, kc, fam["dilation_slot"]) for g in fam["generators"]]
    if any(m < -BAND for m in margins):
        return "Falsified"
    if all(m > BAND for m in margins):
        return "Verified"
    return None


def _member_from_params(fam: dict, params: dict) -> tuple[dict, list, list[str]]:
    problems = []
    gi = params.get("generator")
    if not isinstance(gi, int) or not 0 <= gi < len(fam["generators"]):
        return {}, [], [f"witness names no generator of the family: {gi!r}"]
    gen = fam["generators"][gi]
    xs = [_c(v) for v in params.get("member_params", [])]
    doms = gen_domains(gen)
    if len(xs) != len(doms):
        return gen, xs, [f"witness carries {len(xs)} member parameters, generator has {len(doms)}"]
    for x, d in zip(xs, doms):
        if not in_domain(d, x, 1e-9 * max(1.0, abs(x))):
            problems.append(f"witness parameter {x} lies outside its {d['shape']} domain")
    return gen, xs, problems


def _check_pairing_witness(fam: dict, kc: np.ndarray, cert: dict) -> list[str]:
    params = cert["params"]
    gen, xs, problems = _member_from_params(fam, params)
    if problems:
        return problems
    f = member_coeffs(gen, xs)
    if "dilation" in params:
        u = _c(params["dilation"])
        if abs(u) > 1.0 + 1e-12:
            problems.append(f"witness dilation {u} lies outside the closed disk")
        f = f * u ** np.arange(len(f))
    v = complex(np.sum(conv(f, kc)))
    if not abs(v) <= WITNESS_TOL:
        problems.append(f"witness pairing re-evaluates to |{v:.3e}| > {WITNESS_TOL:g}")
    return problems


def _check_dual_witness(fam: dict, kc: np.ndarray, cert: dict) -> list[str]:
    z = _c(cert["witness"])
    gen, xs, problems = _member_from_params(fam, cert["params"])
    if problems:
        return problems
    if not abs(z) < 1.0:
        problems.append(f"dual witness {z} is not inside the open disk")
    v = complex(poly_eval(conv(member_coeffs(gen, xs), kc), z))
    if not abs(v) <= WITNESS_TOL:
        problems.append(f"witness re-evaluates to |(f*g)(z)| = {abs(v):.3e} > {WITNESS_TOL:g}")
    return problems


def _mesh() -> np.ndarray:
    """Dense polar mesh of the disk of the outermost schedule radius."""
    ring = R_OUTER * np.exp(2j * np.pi * np.arange(1024) / 1024)
    inner = np.concatenate(
        [r * np.exp(2j * np.pi * np.arange(128) / 128) for r in (0.25, 0.5, 0.75, 0.9, 0.99)]
    )
    return np.concatenate([[0j], inner, ring])


_MESH = _mesh()


def _closed_form_root(gen: dict, xs, kernel: tuple, h: np.ndarray, exact: bool) -> Optional[float]:
    """Smallest root modulus of f*g when it has a closed form, else None."""
    if exact:
        c = np.trim_zeros(h, "b")
        roots = np.roots(c[::-1]) if len(c) > 1 else np.zeros(0)
        return float(np.min(np.abs(roots))) if len(roots) else math.inf
    if gen["kind"] == "rational" and kernel[0] == "rat":
        # (1+xz)/(1+yz) * (1+az)/(1+bz) = 1 + (x-y)(a-b) z / (1 - y b z)
        x, y = xs
        d = (x - y) * (kernel[1] - kernel[2]) - y * kernel[2]
        return math.inf if d == 0 else 1.0 / abs(d)
    return None


def _check_sampled_dual_verified(req, fam: dict, kc: np.ndarray, floor: float) -> list[str]:
    problems = []
    members = sampled_members(fam, req.grid)
    rows = [conv(c, kc) for _, _, c in members]
    width = max(len(r) for r in rows)
    H = np.zeros((len(rows), width), dtype=complex)
    for i, r in enumerate(rows):
        H[i, : len(r)] = r
    vals = np.abs(H @ (_MESH[None, :] ** np.arange(width)[:, None]))
    low = np.min(vals, axis=1)
    worst = int(np.argmin(low))
    if low[worst] < floor - FLOOR_TOL:
        problems.append(
            f"member {members[worst][1]} reaches |f*g| = {low[worst]:.3e} below the "
            f"certified floor {floor:.3e}"
        )
    for (gi, xs, _), h in zip(members, rows):
        gen = fam["generators"][gi]
        r = _closed_form_root(gen, xs, req.kernel, h, member_exact(gen) or kernel_exact(req.kernel))
        if r is not None and r < 0.99 * R_OUTER:
            problems.append(f"Verified, but member {xs} convolves to a zero at |z| = {r:.4f}")
            break
    return problems


def _check_sampled_pairing_verified(req, fam: dict, kc: np.ndarray, floor: float) -> list[str]:
    vals = [abs(complex(np.sum(conv(c, kc)))) for _, _, c in sampled_members(fam, req.grid)]
    if min(vals) < floor - FLOOR_TOL:
        return [f"a sampled member pairs to {min(vals):.3e}, below the certified floor {floor:.3e}"]
    return []


# the stock kernel family behind hull checks (convdual.default_kernel_family)
_KERNEL_FAMILY = {
    "generators": [
        {"kind": "pencil", "exponents": [k], "domains": [{"shape": "disk", "radius": 1.0}]}
        for k in range(1, 5)
    ]
    + [
        {"kind": "pencil", "exponents": [1, 2],
         "domains": [{"shape": "disk", "radius": 0.6}, {"shape": "disk", "radius": 0.6}]},
        {"kind": "rational", "x_domain": {"shape": "disk", "radius": 1.0},
         "y_domain": {"shape": "disk", "radius": 0.8}},
    ],
    "dilation_slot": False,
}


@functools.lru_cache(maxsize=1)
def _kernel_pool() -> tuple:
    """Coefficients of every sampled stock kernel (read-only, built once)."""
    return tuple(g for _, _, g in sampled_members(_KERNEL_FAMILY, KERNEL_GRID))


def _t_margin(fam: dict, g: np.ndarray) -> float:
    return min(pairing_margin(gen, g, fam["dilation_slot"]) for gen in fam["generators"])


def _check_hull(fam: dict, h: np.ndarray, cert: dict) -> list[str]:
    params = cert["params"]
    if cert["status"] == "Falsified":
        if "kernel_coeffs" in params:
            g = np.asarray([_c(v) for v in params["kernel_coeffs"]], dtype=complex)
        else:
            m = re.match(r"^g(\d+):", str(params.get("kernel", "")))
            gens = _KERNEL_FAMILY["generators"]
            if not m or int(m.group(1)) >= len(gens):
                return [f"hull witness names no stock kernel: {params.get('kernel')!r}"]
            gen = gens[int(m.group(1))]
            g = member_coeffs(gen, [_c(v) for v in params.get("kernel_params", [])])
        problems = []
        if not _t_margin(fam, g) > 0.0:
            problems.append("hull witness kernel is not in the transpose set")
        v = complex(np.sum(conv(g, h)))
        if not abs(v) <= WITNESS_TOL:
            problems.append(f"hull witness pairing re-evaluates to |{v:.3e}|")
        return problems
    if cert["status"] == "Verified":
        worst = math.inf
        for g in _kernel_pool():
            if _t_margin(fam, g) > BAND:
                worst = min(worst, abs(complex(np.sum(conv(g, h)))))
        if worst < cert["min_modulus"] - FLOOR_TOL:
            return [f"a transpose kernel pairs to {worst:.3e}, below the certified floor"]
    return []


def check_membership(req, cert: dict) -> list[str]:
    """Problems with a membership certificate (``Certificate.to_dict`` form)."""
    status = cert.get("status")
    if status not in STATUSES:
        return [f"unknown certificate status {status!r}"]
    if status == "Falsified" and cert.get("witness") is None:
        return ["Falsified certificate without a witness"]
    if status == "Verified" and not (cert.get("min_modulus") or 0) > 0:
        return ["Verified certificate without a positive floor"]
    kc = kernel_coeffs(req.kernel)
    fam = req.family
    if req.command == "hull-check":
        return _check_hull(fam, kc, cert)
    problems = []
    if is_exact_family(fam):
        expected = _expected_exact(req.command, fam, kc)
        if expected is not None and status != expected:
            problems.append(f"closed-form annulus criterion says {expected}, got {status}")
    if status == "Falsified":
        if req.command == "dual-check":
            problems += _check_dual_witness(fam, kc, cert)
        else:
            if _c(cert["witness"]) != 1:
                problems.append("pairing witness is not the point z = 1")
            problems += _check_pairing_witness(fam, kc, cert)
    elif status == "Verified" and not is_exact_family(fam):
        if req.command == "dual-check":
            problems += _check_sampled_dual_verified(req, fam, kc, cert["min_modulus"])
        else:
            problems += _check_sampled_pairing_verified(req, fam, kc, cert["min_modulus"])
    return problems


# -- image clouds ----------------------------------------------------------------


def border_generators(fam: dict) -> list[dict]:
    """Closed-form border of a pencil family over disks and circles.

    A generator with a positive circle domain is all border; otherwise each
    disk domain in turn is restricted to its boundary circle.
    """
    out = []
    for gen in fam["generators"]:
        doms = gen["domains"]
        if any(d["shape"] == "circle" and d["radius"] > 0 for d in doms):
            out.append(gen)
            continue
        disks = [i for i, d in enumerate(doms) if d["shape"] == "disk" and d["radius"] > 0]
        if not disks:
            out.append(gen)
        for i in disks:
            nd = [dict(d) for d in doms]
            nd[i] = {"shape": "circle", "radius": doms[i]["radius"]}
            out.append({**gen, "domains": nd})
    return out


def expected_cloud(req, fam: dict) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form cloud points in sampling order, and the boundary flags."""
    kc = kernel_coeffs(req.kernel)
    if not req.via_border:
        pts = [complex(np.sum(conv(c, kc))) for _, _, c in sampled_members(fam, req.grid)]
        return np.asarray(pts, dtype=complex), np.zeros(0, dtype=bool)
    radii = [1.0 - 2.0**-j for j in range(1, req.mesh_depth + 1)] + [1.0]
    angles = np.exp(2j * np.pi * np.arange(req.mesh_angles) / req.mesh_angles)
    mesh = np.concatenate([[0j], np.asarray([r * a for r in radii for a in angles])])
    border = {"generators": border_generators(fam), "dilation_slot": False}
    blocks = [poly_eval(conv(c, kc), mesh) for _, _, c in sampled_members(border, req.grid)]
    flags = np.tile(np.abs(mesh) >= 1.0 - 1e-15, len(blocks))
    return np.concatenate(blocks), flags


def boundary_circles(req, fam: dict) -> list[tuple[complex, float]]:
    """Known boundary circles (center, radius) of each generator's image."""
    kc = kernel_coeffs(req.kernel)
    out = []
    for gen in fam["generators"]:
        lo, hi = annulus(gen, kc)
        out.append((complex(kc[0]), hi))
        if lo > 0:
            out.append((complex(kc[0]), lo))
    return out


def check_image(req, points, errors, flags, spacing: float, route: str) -> list[str]:
    problems = []
    want_route = "border" if req.via_border else "direct"
    if route != want_route:
        problems.append(f"cloud came from the {route} route, asked for {want_route}")
    fam = req.family
    expected, want_flags = expected_cloud(req, fam)
    if len(points) != len(expected):
        return problems + [f"cloud has {len(points)} points, expected {len(expected)}"]
    if not np.all(np.isfinite(errors)) or np.any(errors < 0):
        problems.append("cloud carries a non-finite or negative error bound")
    dev = np.abs(points - expected) - errors - 1e-12 * (1.0 + np.abs(expected))
    if np.any(dev > 0):
        i = int(np.argmax(dev))
        problems.append(f"point {i} is {points[i]}, closed form gives {expected[i]}")
    if req.via_border and not np.array_equal(flags, want_flags):
        problems.append("border-route boundary flags are not the unit-circle images")
    cand = points[flags]
    if len(cand) == 0:
        problems.append("cloud has no boundary candidates")
    elif not math.isfinite(spacing) or spacing <= 0:
        problems.append(f"cloud mesh spacing {spacing} is not a positive number")
    else:
        dist = np.min(
            [np.abs(np.abs(cand - c) - r) for c, r in boundary_circles(req, fam)], axis=0
        )
        if np.max(dist) > 3.0 * spacing:
            problems.append(
                f"boundary candidate {np.max(dist) / spacing:.2f} mesh spacings off the known circles"
            )
    return problems
