"""Command-line front end for the certified duality toolkit.

Subcommands: convolve, zeros, dual-check, t-check, perp-check, hull-check,
image, border, verify.  Reports are JSON written with sorted keys and no
timestamps, so identical configurations produce byte-identical output; point
clouds export as CSV with columns re, im, tag, flag.

Exit status: 0 when everything is Verified or PASS, 1 on any Falsified or
FAIL, 2 when some check is Inconclusive and nothing is Falsified, 3 on
usage or spec-file errors (with a diagnostic, never a traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Optional

import numpy as np

from .contour import (
    DEFAULT_TOL,
    Certificate,
    InconclusiveError,
    min_modulus_on_circle,
    winding_number,
)
from .duality import (
    Functional,
    THEOREM_NAMES,
    VerifierConfig,
    functional_image,
    in_T,
    in_dual,
    in_dual_hull,
    in_perp,
    verify_theorem,
)
from .family import COARSE_GRID, ParamGrid, border_decompose, border_elements, sample
from .series import TruncSeries, convolve, dilate, evaluate, series_distance
from .specfile import MAX_ORDER, SpecFileError, family_to_dict, load_family, parse_series, tail_to_json

__all__ = ["main", "console_main", "build_parser"]

_GRID_RE = re.compile(r"^(\d+)\s*[x×]\s*(\d+)$")


def _grid_arg(text: str) -> ParamGrid:
    m = _GRID_RE.match(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"grid must look like 8x16, got {text!r}")
    r, a = int(m.group(1)), int(m.group(2))
    if r < 1 or a < 1:
        raise argparse.ArgumentTypeError("grid counts must be positive")
    return ParamGrid(disk_radial=r, disk_angular=a, circle=a, segment=r)


def _trunc_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"truncation order must be an integer, got {text!r}")
    if not 8 <= n <= MAX_ORDER:
        raise argparse.ArgumentTypeError(f"truncation order must lie in 8..{MAX_ORDER}")
    return n


def _depth_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"mesh depth must be an integer, got {text!r}")
    if not 4 <= n <= 20:
        raise argparse.ArgumentTypeError("mesh depth must lie in 4..20")
    return n


def _tol_arg(text: str) -> float:
    try:
        t = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {text!r}")
    if not (0.0 < t < 1.0) or not math.isfinite(t):
        raise argparse.ArgumentTypeError("tolerance must lie strictly between 0 and 1")
    return t


def _complex_arg(text: str) -> complex:
    try:
        z = complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a complex number, got {text!r}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise argparse.ArgumentTypeError("evaluation point must be finite")
    return z


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the command line (:func:`main` reuses one per process)."""
    parser = argparse.ArgumentParser(
        prog="convdual",
        description="certified convolution-duality computations on the unit disk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, family=False, kernel=False, kernels=False):
        if family:
            p.add_argument("--family", required=True, help="family spec file (JSON)")
        if kernel:
            p.add_argument("--kernel", required=True, help="series expression")
        if kernels:
            p.add_argument("--kernels", help="kernel family spec file")
        p.add_argument("--grid", type=_grid_arg, help="parameter grid, e.g. 8x16")
        p.add_argument("--trunc", type=_trunc_arg, default=64, help=f"truncation order (8..{MAX_ORDER})")
        p.add_argument("--tol", type=_tol_arg, help="witness bar override")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument(
            "--format",
            choices=("structured-record", "csv"),
            default="structured-record",
            help="output format (csv applies to image clouds)",
        )

    p = sub.add_parser("convolve", help="Hadamard convolution of two series")
    p.add_argument("--f", required=True, help="series expression")
    p.add_argument("--g", required=True, help="series expression")
    p.add_argument("--eval", type=_complex_arg, help="also evaluate the result here")
    add_common(p)

    p = sub.add_parser("zeros", help="winding number and modulus floor on a circle")
    p.add_argument("--series", required=True, help="series expression")
    p.add_argument("--radius", type=float, required=True, help="circle radius in (0, 1]")
    add_common(p)

    for name, help_text in (
        ("dual-check", "kernel membership in the dual of a family"),
        ("t-check", "kernel membership in the transpose of a family"),
        ("perp-check", "series membership in the perp of a family"),
        ("hull-check", "series membership in the double dual of a family"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p, family=True, kernel=True, kernels=(name == "hull-check"))

    p = sub.add_parser("image", help="functional image cloud of a family")
    p.add_argument("--kernel", default="z", help="functional kernel expression")
    p.add_argument("--via-border", action="store_true", help="use the border-element route")
    p.add_argument("--mesh-depth", type=_depth_arg, default=8, help="radius schedule depth")
    add_common(p, family=True)

    p = sub.add_parser("border", help="border elements and decomposition round trip")
    add_common(p, family=True)

    p = sub.add_parser("verify", help="run a structural verifier suite")
    p.add_argument("--theorem", required=True, help="one of " + ", ".join(THEOREM_NAMES))
    p.add_argument("--family", help="family spec file (defaults per suite; L4 and C2 take none)")
    p.add_argument("--mesh-depth", type=_depth_arg, default=8)
    add_common(p, kernels=True)

    return parser


def _tolerances(ns):
    return DEFAULT_TOL.with_bar(ns.tol) if ns.tol is not None else DEFAULT_TOL


def _cert_exit(cert: Certificate) -> int:
    if cert.verified:
        return 0
    if cert.falsified:
        return 1
    return 2


def _series_summary(f: TruncSeries) -> dict:
    return {
        "order": f.order,
        "coeffs": [[complex(c).real, complex(c).imag] for c in f.coeffs],
        "tail": tail_to_json(f),
    }


def _run_convolve(ns) -> tuple[dict, int]:
    f = parse_series(ns.f, order=ns.trunc)
    g = parse_series(ns.g, order=ns.trunc)
    h = convolve(f, g)
    report = {"command": "convolve", "result": _series_summary(h)}
    if ns.eval is not None:
        v = evaluate(h, ns.eval)
        report["value"] = {
            "at": [ns.eval.real, ns.eval.imag],
            "value": [v.value.real, v.value.imag],
            "error_bound": v.error_bound,
        }
    return report, 0


def _run_zeros(ns) -> tuple[dict, int]:
    f = parse_series(ns.series, order=ns.trunc)
    if not (0.0 < ns.radius <= 1.0):
        raise ValueError("radius must lie in (0, 1]")
    tol = _tolerances(ns)
    w = winding_number(f, ns.radius, tol=tol)
    bound, argmin = min_modulus_on_circle(f, ns.radius, tol=tol)
    report = {
        "command": "zeros",
        "radius": ns.radius,
        "winding": w,
        "min_modulus": bound,
        "argmin": [argmin.real, argmin.imag],
    }
    return report, 0


def _run_membership(ns) -> tuple[dict, int]:
    V = load_family(ns.family)
    g = parse_series(ns.kernel, order=ns.trunc)
    tol = _tolerances(ns)
    grid = ns.grid
    if ns.command == "dual-check":
        cert = in_dual(g, V, grid=grid, tol=tol)
    elif ns.command == "t-check":
        cert = in_T(g, V, grid=grid, tol=tol)
    elif ns.command == "perp-check":
        cert = in_perp(g, V, grid=grid, tol=tol)
    else:
        kernels = load_family(ns.kernels) if ns.kernels else None
        cert = in_dual_hull(g, V, kernels=kernels, grid=grid, tol=tol)
    report = {
        "command": ns.command,
        "family": str(ns.family),
        "kernel": ns.kernel,
        "certificate": cert.to_dict(),
    }
    return report, _cert_exit(cert)


def _run_image(ns) -> tuple[dict, int]:
    V = load_family(ns.family)
    lam = Functional(parse_series(ns.kernel, order=ns.trunc), label=ns.kernel)
    cloud = functional_image(
        lam, V, grid=ns.grid, via_border=ns.via_border, mesh_depth=ns.mesh_depth
    )
    if ns.format == "csv":
        if not ns.out:
            raise ValueError("csv output needs --out")
        cloud.to_csv(ns.out)
    cand = cloud.boundary_candidates()
    report = {
        "command": "image",
        "family": str(ns.family),
        "kernel": ns.kernel,
        "route": cloud.route,
        "points": len(cloud.points),
        "boundary_candidates": len(cand),
        "mesh_spacing": cloud.mesh_spacing,
        "max_error_bound": float(cloud.errors.max()) if len(cloud.errors) else 0.0,
    }
    return report, 0


def _run_border(ns) -> tuple[dict, int]:
    V = load_family(ns.family)
    B = border_elements(V)
    grid = ns.grid or COARSE_GRID
    worst = 0.0
    count = 0
    for f, tag in sample(V, grid):
        dec = border_decompose(V, tag)
        count += 1
        worst = max(worst, series_distance(dilate(dec.g, dec.x), f))
    report = {
        "command": "border",
        "family": str(ns.family),
        "border": family_to_dict(B),
        "decompositions": {"count": count, "max_reconstruction_error": worst},
    }
    return report, 0 if worst <= 1e-9 else 1


def _run_verify(ns) -> tuple[dict, int]:
    name = ns.theorem
    V = load_family(ns.family) if ns.family else None
    kernels = load_family(ns.kernels) if ns.kernels else None
    cfg = VerifierConfig(
        grid=ns.grid,
        kernels=kernels,
        mesh_depth=ns.mesh_depth,
        tol=_tolerances(ns),
    )
    rep = verify_theorem(name, V, cfg)
    code = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 2}[rep.summary]
    return rep.to_dict(), code


_RUNNERS = {
    "convolve": _run_convolve,
    "zeros": _run_zeros,
    "dual-check": _run_membership,
    "t-check": _run_membership,
    "perp-check": _run_membership,
    "hull-check": _run_membership,
    "image": _run_image,
    "border": _run_border,
    "verify": _run_verify,
}


def _emit(report: dict, ns) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out = getattr(ns, "out", None)
    # with csv the --out path holds the cloud, so the summary stays on stdout
    if out and getattr(ns, "format", "structured-record") != "csv":
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one per process serves every call
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage diagnostic; --help exits cleanly
        return 0 if exc.code == 0 else 3
    if getattr(ns, "format", "structured-record") == "csv" and ns.command != "image":
        print("error: csv format applies to the image command only", file=sys.stderr)
        return 3
    try:
        # an overflow ends in a non-finite check's ValueError, reported below without numpy's warning
        with np.errstate(over="ignore", invalid="ignore"):
            report, code = _RUNNERS[ns.command](ns)
    except SpecFileError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 3
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:  # abs() of a huge complex overflows
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # contract: never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _emit(report, ns)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
