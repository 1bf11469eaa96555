"""Seeded request streams for the convdual benchmark.

A request is the wire form a caller sends: a command name, a family spec
document (the JSON format ``convdual.specfile`` reads), a series expression
and an optional parameter grid.  Everything here is plain data drawn from a
``random.Random`` seeded by the workload name and seed; nothing imports
``convdual``, so the program under test only ever sees the generated inputs.

Streams are built from rounds.  Each round holds one request per template of
the workload in shuffled order, so the cost mix of any long enough prefix is
fixed by design and only the continuous parameters depend on the seed.

Workloads:

* ``sampled-dual``: dual/transpose/perp checks on families that must be
  decided by sampling (rational generators, segment-domain pencils, fixed
  non-exact members).  Every request is distinct.
* ``exact-mix``: pencil families over disks and circles, drawn from a small
  fixed set, decided by the closed-form engine; 10% hull checks (transpose
  pool rebuilds, one per hull family and round), most requests through the
  in-process CLI, and a share of exact repeats.
* ``image-cloud``: functional image clouds through the direct route (with
  boundary probing) and the border route; no job repeats.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("sampled-dual", "exact-mix", "image-cloud")


@dataclass(frozen=True)
class Request:
    """One request of a stream; ``family_text`` is the spec document."""

    rid: int
    template: str
    command: str  # dual-check, t-check, perp-check, hull-check or image
    route: str  # "api" (library calls) or "cli" (convdual.cli.main)
    family_text: str
    kernel: tuple  # ("poly", [c_0, c_1, ...]) or ("rat", a, b)
    kernel_expr: str
    grid: Optional[tuple] = None  # (disk_radial, disk_angular, circle, segment)
    via_border: bool = False
    mesh_depth: int = 8
    mesh_angles: int = 64

    @property
    def family(self) -> dict:
        """The spec document, parsed on each access so streams stay small."""
        return json.loads(self.family_text)

    def key(self) -> tuple:
        """Identity of the request's inputs; equal keys are exact repeats."""
        return (
            self.command, self.route, self.family_text, self.kernel_expr,
            self.grid, self.via_border, self.mesh_depth, self.mesh_angles,
        )


# -- spec documents and expressions ------------------------------------------


def _num(z: complex):
    z = complex(z)
    return z.real if z.imag == 0 else [z.real, z.imag]


def disk(r: float) -> dict:
    return {"shape": "disk", "radius": r}


def circle(r: float) -> dict:
    return {"shape": "circle", "radius": r}


def segment(a: complex, b: complex) -> dict:
    return {"shape": "segment", "from": _num(a), "to": _num(b)}


def pencil(exps, doms) -> dict:
    return {"kind": "pencil", "exponents": list(exps), "domains": list(doms)}


def rational(xd: dict, yd: dict) -> dict:
    return {"kind": "rational", "x_domain": xd, "y_domain": yd}


def family(gens, slot: bool = False) -> dict:
    return {"generators": list(gens), "dilation_slot": slot}


def _cexpr(c: complex) -> str:
    c = complex(c)
    if c.imag == 0:
        return repr(c.real)
    return f"({c.real!r}{c.imag:+}j)"


def poly_expr(coeffs) -> str:
    """Polynomial literal such as ``1+0.5z-0.25z^2+(0.1+0.2j)z^3``."""
    terms = []
    for k, c in enumerate(coeffs):
        c = complex(c)
        if c == 0:
            continue
        zk = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
        if c.imag == 0:
            terms.append(f"{c.real:+}{zk}")
        else:
            terms.append(f"+{_cexpr(c)}{zk}")
    return "".join(terms).lstrip("+") or "0"


def poly(coeffs) -> tuple:
    return ("poly", [complex(c) for c in coeffs])


def rat(a: complex, b: complex) -> tuple:
    return ("rat", complex(a), complex(b))


def kernel_expr(kernel: tuple) -> str:
    if kernel[0] == "poly":
        return poly_expr(kernel[1])
    return f"rat({_cexpr(kernel[1])},{_cexpr(kernel[2])})"


def _r4(x: float) -> float:
    return round(x, 4)


def _polar(rng: random.Random, r: float) -> complex:
    z = r * cmath.exp(2j * math.pi * rng.random())
    return complex(_r4(z.real), _r4(z.imag))


def _grid(disk_radial=8, disk_angular=16, circle=32, segment=16) -> tuple:
    return (disk_radial, disk_angular, circle, segment)


# -- sampled-dual ------------------------------------------------------------
#
# Each template fixes the family shape, the grid, the command and the verdict
# it is built to produce; the seed draws radii and phases.  Grids differ
# between templates (81 to 289 sampled members) but not within one, which
# keeps the cost of a round steady across seeds.  Verdicts
# follow from closed forms: a rational member (1+xz)/(1+yz) convolved with
# 1 + c z is 1 + (x-y) c z, and with rat(a, b) it is
# 1 + (x-y)(a-b) z / (1 - y b z).  Kernels are mostly low-degree
# polynomials, so most products are exact low-degree polynomials; the
# non-exact rat(a, b) kernels appear where a tail-less member must leave the
# product without an error bound (the Inconclusive walk) and in a perp check.


def _sd_rat_poly(verified: bool) -> Callable:
    def make(rng: random.Random):
        rx, ry = _r4(rng.uniform(0.3, 0.6)), _r4(rng.uniform(0.2, 0.45))
        if verified:
            c = _polar(rng, rng.uniform(0.6, 0.75) / (rx + ry))
            grid = _grid(disk_radial=2, disk_angular=8)
        else:
            # |y c| > 1 on the pole ring, so the members (0, y) sampled right
            # after (0, 0) already convolve to a zero inside the disk
            c = _polar(rng, rng.uniform(1.2, 1.5) / ry)
            grid = _grid(disk_radial=1, disk_angular=8)
        return "dual-check", family([rational(disk(rx), disk(ry))]), poly([1, c]), grid
    return make


def _sd_rat_cubic(rng: random.Random):
    rx, ry = _r4(rng.uniform(0.3, 0.6)), _r4(rng.uniform(0.2, 0.45))
    # the member pairs with 1 + c1 z + c2 z^2 + c3 z^3 into
    # 1 + (x-y) (c1 z - c2 y z^2 + c3 y^2 z^3), bounded by (rx+ry) sum |c_k| ry^(k-1)
    w = [rng.uniform(0.2, 1.0) for _ in range(3)]
    scale = rng.uniform(0.6, 0.75) / ((rx + ry) * (w[0] + w[1] * ry + w[2] * ry * ry))
    kern = poly([1] + [_polar(rng, wk * scale) for wk in w])
    grid = _grid(disk_radial=1, disk_angular=12)
    return "dual-check", family([rational(disk(rx), disk(ry))]), kern, grid


def _seg_pencil(rng: random.Random, s1: float, s2: float, k1: int, k2: int):
    """Two-segment pencil and a kernel with ``max|x_j c_kj| = s_j``.

    Returns the generator, the kernel coefficients and the segment starts.
    """
    e1, e2 = _polar(rng, 1.0), _polar(rng, 1.0)
    a1, a2 = _polar(rng, 0.2), _polar(rng, 0.2)
    r1, r2 = max(abs(a1), abs(e1)), max(abs(a2), abs(e2))
    coeffs = [0j] * (k2 + 1)
    coeffs[0] = 1
    coeffs[k1] = _polar(rng, s1 / r1)
    coeffs[k2] = _polar(rng, s2 / r2)
    gen = pencil([k1, k2], [segment(a1, e1), segment(a2, e2)])
    return gen, coeffs, (a1, a2)


def _sd_seg(verified: bool) -> Callable:
    def make(rng: random.Random):
        k1, k2 = rng.choice([(1, 2), (1, 3), (2, 3)])
        if verified:
            total = rng.uniform(0.6, 0.75)
            s1 = total * rng.uniform(0.3, 0.7)
            s2 = total - s1
        else:
            # |x1 c1| > 1 + |x2 c2| at the x1 end point: Rouche puts k1 zeros inside
            s2 = rng.uniform(0.1, 0.3)
            s1 = 1.0 + s2 + rng.uniform(0.3, 0.6)
        gen, coeffs, _ = _seg_pencil(rng, s1, s2, k1, k2)
        if not verified:
            # sample from the falsifying end so the first members already fail
            d = gen["domains"][0]
            d["from"], d["to"] = d["to"], d["from"]
        return "dual-check", family([gen]), poly(coeffs), _grid(segment=12)
    return make


def _fixed_members(rng: random.Random, n: int, budget: tuple, order: int = 16) -> list[dict]:
    """Non-exact members whose coefficient sums beyond c_0 lie in ``budget``."""
    g = np.random.default_rng(rng.getrandbits(64))
    rho = g.uniform(1.6, 3.0, (n, 1))
    weights = g.uniform(0.2, 1.0, (n, order)) * rho ** -np.arange(1.0, order + 1)
    scale = g.uniform(*budget, (n, 1)) / weights.sum(axis=1, keepdims=True)
    cs = np.round(weights * scale * np.exp(2j * np.pi * g.random((n, order))), 4)
    pairs = np.stack([cs.real, cs.imag], axis=-1).tolist()
    return [
        {"kind": "fixed", "coeffs": [1.0] + p, "tail": {"M": _r4(m), "rho": _r4(r)}}
        for p, m, r in zip(pairs, scale[:, 0].tolist(), rho[:, 0].tolist())
    ]


def _sd_fixed(rng: random.Random):
    kern = poly([1, _polar(rng, 0.9), _polar(rng, 0.9), _polar(rng, 0.9)])
    return "dual-check", family(_fixed_members(rng, 50, (0.2, 0.7))), kern, None


def _sd_fixed_notail(rng: random.Random):
    # one member without tail data: the non-exact kernel leaves the product
    # without an error bound, so every circle of the radius schedule is skipped
    gens = _fixed_members(rng, 5, (0.2, 0.6))
    gens[rng.randrange(len(gens))]["tail"] = None
    kern = rat(_polar(rng, 0.7), _polar(rng, rng.uniform(0.2, 0.5)))
    return "dual-check", family(gens), kern, None


def _sd_rat_t(falsified: bool) -> Callable:
    def make(rng: random.Random):
        rx, ry = _r4(rng.uniform(0.3, 0.6)), _r4(rng.uniform(0.2, 0.45))
        # pairing 1 + (x - y) c vanishes at x = y - 1/c
        reach = rng.uniform(1.5, 2.5) if falsified else rng.uniform(0.4, 0.85)
        c = _polar(rng, reach / (rx + ry))
        grid = _grid(disk_radial=3, disk_angular=8)
        return "t-check", family([rational(disk(rx), disk(ry))]), poly([1, c]), grid
    return make


def _sd_seg_t(falsified: bool) -> Callable:
    def make(rng: random.Random):
        k1, k2 = rng.choice([(1, 2), (1, 3), (2, 3)])
        total = rng.uniform(0.5, 0.85)
        s1 = total * rng.uniform(0.3, 0.7)
        gen, coeffs, (_, a2) = _seg_pencil(rng, s1, total - s1, k1, k2)
        if falsified:
            # start the x1 segment at the root of the pairing for the first
            # x2 grid point, so a sampled member pairs to zero
            gen["domains"][0]["from"] = _num(-(1 + a2 * coeffs[k2]) / coeffs[k1])
        return "t-check", family([gen]), poly(coeffs), _grid(segment=16)
    return make


def _sd_fixed_perp(rng: random.Random):
    gens = _fixed_members(rng, 50, (0.2, 0.7))
    h = poly([1, _polar(rng, 0.9), _polar(rng, 0.9), _polar(rng, 0.9)])
    return "perp-check", family(gens), h, None


def _sd_rat_perp(rng: random.Random):
    rx, ry = _r4(rng.uniform(0.3, 0.6)), _r4(rng.uniform(0.2, 0.45))
    b = _polar(rng, rng.uniform(0.1, 0.5))
    # S = (a-b)/(1-b y); the x-slice root y - 1/S lies in the disk at y = 0
    d = _polar(rng, rng.uniform(1.3, 2.0) / rx)
    a = complex(_r4((b + d).real), _r4((b + d).imag))
    grid = _grid(disk_radial=3, disk_angular=8)
    return "perp-check", family([rational(disk(rx), disk(ry))]), rat(a, b), grid


SAMPLED_DUAL = {
    "rat-poly-verified": _sd_rat_poly(True),
    "rat-poly-falsified": _sd_rat_poly(False),
    "rat-cubic-verified": _sd_rat_cubic,
    "seg-verified": _sd_seg(True),
    "seg-falsified": _sd_seg(False),
    "fixed-verified": _sd_fixed,
    "fixed-notail": _sd_fixed_notail,
    "rat-t-verified": _sd_rat_t(False),
    "rat-t-falsified": _sd_rat_t(True),
    "seg-t-verified": _sd_seg_t(False),
    "seg-t-falsified": _sd_seg_t(True),
    "fixed-perp": _sd_fixed_perp,
    "rat-perp-falsified": _sd_rat_perp,
}


# -- exact-mix ---------------------------------------------------------------

EXACT_FAMILIES = (
    family([pencil([1], [disk(1.0)])]),
    family([pencil([2], [disk(0.8)])]),
    family([pencil([1, 3], [disk(0.5), disk(0.5)])]),
    family([pencil([1], [circle(0.7)])]),
    family([pencil([1, 2], [circle(0.6), disk(0.3)])]),
    family([pencil([1], [disk(1.0)])], slot=True),
    family([pencil([1], [disk(1.0)]), pencil([2], [disk(1.0)])]),
    family([pencil([2], [circle(0.9)])], slot=True),
)

# all-disk pencils, where the exact knapsack falsifier applies
HULL_FAMILIES = (0, 1, 2, 6)

EXACT_KERNELS = (
    poly([1, 0.5]),
    poly([1, 1.3]),
    poly([1, -0.4, 0.3]),
    poly([1, 0, 0.2 + 0.6j]),
    poly([1, 0, 0, 0.9]),
    poly([1, 0.3, 0.3, 0.3]),
    poly([1, 0, -1.5]),
    poly([1, 0.45, 0, -0.45]),
    poly([1, 2.0]),
    poly([1, 0.5 - 0.5j, 0.25]),
    poly([1, 0, 0, -0.2]),
    poly([1, 0, 0.7]),
)

HULL_KERNELS = (
    poly([1, 0.5]),
    poly([1, 0.3, 0.2]),
    poly([1, 0, 1.5]),
    poly([1, -0.6, 0, 0.6]),
    poly([1, 0.9]),
    poly([1, 0, 0.3 + 0.3j, 0, 0.1]),
)

EXACT_ROUTES = ("cli",) * 6 + ("api",) * 3  # nine non-hull requests per hull check
EXACT_ROUND = len(HULL_FAMILIES) * (len(EXACT_ROUTES) + 1)
EXACT_REPEAT_SHARE = 0.3


def _exact_round(rng: random.Random, history: dict) -> list[tuple]:
    """One hull check per hull family and nine other requests per hull check.

    Every round has the same route and command mix, so per-round throughput
    is comparable across rounds; a share of requests repeat an earlier
    request of the same route exactly.
    """
    out = []
    for route in EXACT_ROUTES * len(HULL_FAMILIES):
        seen = history.setdefault(route, [])
        if seen and rng.random() < EXACT_REPEAT_SHARE:
            out.append(rng.choice(seen))
            continue
        item = (rng.choice(["t-check", "dual-check", "perp-check"]), route,
                rng.choice(EXACT_FAMILIES), rng.choice(EXACT_KERNELS))
        seen.append(item)
        out.append(item)
    for i, fi in enumerate(HULL_FAMILIES):
        out.append(("hull-check", ("cli", "api")[i % 2], EXACT_FAMILIES[fi], rng.choice(HULL_KERNELS)))
    rng.shuffle(out)
    return out


# -- image-cloud ---------------------------------------------------------------


def _functional(rng: random.Random, kind: str) -> tuple:
    if kind == "z":
        return poly([0, 1])
    if kind == "z2":
        return poly([0, 0, 1])
    b = _polar(rng, rng.uniform(0.2, 0.6))
    a = _polar(rng, rng.uniform(0.5, 1.0))
    return rat(a, b)


def _img(route: str, fam_kind: str, lam: str, grid: tuple, depth: int = 8,
         angles: int = 64, exp: int = 1) -> Callable:
    def make(rng: random.Random):
        r1, r2 = _r4(rng.uniform(0.5, 1.0)), _r4(rng.uniform(0.5, 1.0))
        if fam_kind == "pencil":
            gens = [pencil([exp], [disk(r1)])]
        elif fam_kind == "circled":
            gens = [pencil([exp], [circle(r1)])]
        elif fam_kind == "counterexample":
            gens = [pencil([1], [disk(r1)]), pencil([2], [disk(r2)])]
        else:  # circled counterexample
            gens = [pencil([1], [circle(r1)]), pencil([2], [circle(r2)])]
        return family(gens), _functional(rng, lam), grid, route == "border", depth, angles
    return make


# Sizes are fixed per template (direct-route clouds of 600 to 1900 points,
# border-route clouds of 5.8*10^3 to 3*10^4) so that a round costs the same
# for every seed; the seed draws radii and functionals.  The direct
# counterexample job is the heaviest and one job in ten, so latency_p95_ms
# sits in the middle of its distribution; it is compute-bound, while the
# largest border job's cost swings with page faults on its 134 MB temporaries.
# Direct-route disk grids keep disk_angular / disk_radial between 6 and 6.5:
# on strongly anisotropic polar grids the coverage probe flags interior points
# (see test_defect_direct_route_flags_interior_on_anisotropic_grid).
IMAGE_CLOUD = {
    "direct-pencil-z": _img("direct", "pencil", "z", _grid(11, 66)),
    "direct-ce-z2": _img("direct", "counterexample", "z2", _grid(12, 78)),
    "direct-circled-rat": _img("direct", "circled", "rat", _grid(circle=700)),
    "direct-pencil2-rat": _img("direct", "pencil", "rat", _grid(10, 60), exp=2),
    "direct-circled-ce-z": _img("direct", "circled-ce", "z", _grid(circle=350)),
    "border-pencil-z": _img("border", "pencil", "z", _grid(circle=10)),
    "border-ce-rat": _img("border", "counterexample", "rat", _grid(circle=12), 7, 72),
    "border-circled-ce-z2": _img("border", "circled-ce", "z2", _grid(circle=14), 6, 80),
    "border-pencil2-z2": _img("border", "pencil", "z2", _grid(circle=16), exp=2),
    "border-pencil-rat-large": _img("border", "pencil", "rat", _grid(circle=52)),
}


# -- streams -------------------------------------------------------------------


def _make(rid: int, template: str, command: str, route: str, fam: dict, kern: tuple,
          grid=None, via_border=False, depth=8, angles=64) -> Request:
    return Request(
        rid=rid, template=template, command=command, route=route,
        family_text=json.dumps(fam, sort_keys=True), kernel=kern,
        kernel_expr=kernel_expr(kern), grid=grid, via_border=via_border,
        mesh_depth=depth, mesh_angles=angles,
    )


def round_size(workload: str) -> int:
    return {"sampled-dual": len(SAMPLED_DUAL), "exact-mix": EXACT_ROUND,
            "image-cloud": len(IMAGE_CLOUD)}[workload]


def generate(workload: str, seed: int, rounds: int) -> list[Request]:
    """The first ``rounds`` rounds of the workload's stream for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    out: list[Request] = []
    history: dict = {}
    for _ in range(rounds):
        if workload == "sampled-dual":
            names = list(SAMPLED_DUAL)
            rng.shuffle(names)
            for name in names:
                command, fam, kern, grid = SAMPLED_DUAL[name](rng)
                out.append(_make(len(out), name, command, "api", fam, kern, grid))
        elif workload == "exact-mix":
            for command, route, fam, kern in _exact_round(rng, history):
                out.append(_make(len(out), f"{command}:{route}", command, route, fam, kern))
        else:
            names = list(IMAGE_CLOUD)
            rng.shuffle(names)
            for name in names:
                fam, kern, grid, border, depth, angles = IMAGE_CLOUD[name](rng)
                out.append(_make(len(out), name, "image", "api", fam, kern, grid,
                                 border, depth, angles))
    return out
