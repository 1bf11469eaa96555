"""Golden image clouds: a SHA-256 of every ``RegionCloud`` field, per case.

The cases have the shapes of the perfbench image-cloud templates (direct
clouds over disk, counterexample and circle pencils, border clouds over the
same families, exact and rational functionals) with fixed radii and
functionals, plus one border family whose members all take the per-member
path.  Each field's digest is compared with ``clouds_golden.json``: points,
errors, evaluation points and flags by dtype, shape and bytes, the spacing
by its bytes, the labels joined by newlines, the route as text.  A change
that claims to leave clouds bitwise unchanged is held to it here.

Regenerate the data file only for an intended change of clouds:

    PYTHONPATH=src python tests/test_clouds_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from convdual.duality import Functional, RegionCloud, functional_image
from convdual.family import Circle, Disk, FamilySpec, Fixed, ParamGrid, Pencil, Rational
from convdual.series import TruncSeries, from_rational

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clouds_golden.json")

P = TruncSeries.polynomial
Z = Functional(P([0.0, 1.0]))
Z2 = Functional(P([0.0, 0.0, 1.0]))
RAT = Functional(from_rational(0.6124 - 0.3891j, -0.2437 + 0.1705j))


def pencil(exp: int, domain) -> FamilySpec:
    return FamilySpec((Pencil((exp,), (domain,)),))


def two_pencils(dom1, dom2) -> FamilySpec:
    return FamilySpec((Pencil((1,), (dom1,)), Pencil((2,), (dom2,))))


def grid(disk_radial=8, disk_angular=16, circle=32, segment=16) -> ParamGrid:
    return ParamGrid(disk_radial, disk_angular, circle, segment)


CASES = {
    "direct-pencil-z": lambda: functional_image(Z, pencil(1, Disk(0.8312)), grid(11, 66)),
    "direct-ce-z2": lambda: functional_image(
        Z2, two_pencils(Disk(0.7141), Disk(0.9326)), grid(12, 78)),
    "direct-circled-rat": lambda: functional_image(
        RAT, pencil(1, Circle(0.6619)), grid(circle=700)),
    "direct-pencil2-rat": lambda: functional_image(RAT, pencil(2, Disk(0.9047)), grid(10, 60)),
    "direct-circled-ce-z": lambda: functional_image(
        Z, two_pencils(Circle(0.7735), Circle(0.5812)), grid(circle=350)),
    "border-pencil-z": lambda: functional_image(
        Z, pencil(1, Disk(0.8014)), grid(circle=10), via_border=True),
    "border-ce-rat": lambda: functional_image(
        RAT, two_pencils(Disk(0.6558), Disk(0.9713)), grid(circle=12), via_border=True,
        mesh_depth=7, mesh_angles=72),
    "border-circled-ce-z2": lambda: functional_image(
        Z2, two_pencils(Circle(0.8842), Circle(0.5269)), grid(circle=14), via_border=True,
        mesh_depth=6, mesh_angles=80),
    "border-pencil2-z2": lambda: functional_image(
        Z2, pencil(2, Disk(0.7366)), grid(circle=16), via_border=True),
    "border-pencil-rat-large": lambda: functional_image(
        RAT, pencil(1, Disk(0.9158)), grid(circle=52), via_border=True),
    # a kernel shorter than the pencil, a rational and a fixed generator:
    # every member builds its series
    "border-per-member": lambda: functional_image(
        Functional(from_rational(0.5, 0.2, order=2)),
        FamilySpec((Pencil((1, 3), (Disk(0.8), Circle(0.5))),
                    Rational(Circle(0.6), Circle(0.3), order=6), Fixed(P([1.0, 0.2])))),
        grid(circle=6), via_border=True, mesh_depth=4, mesh_angles=16),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(cloud: RegionCloud) -> dict:
    out = {}
    for name in ("points", "errors", "eval_points", "boundary_flags"):
        a = np.ascontiguousarray(getattr(cloud, name))
        out[name] = _sha(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    out["mesh_spacing"] = np.float64(cloud.mesh_spacing).tobytes().hex()
    out["labels"] = _sha("\n".join(cloud.labels).encode())
    out["route"] = cloud.route
    out["size"] = len(cloud.points)
    return out


def _load() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cloud_matches_golden(name):
    assert digests(CASES[name]()) == _load()[name]


def test_golden_file_covers_every_case():
    assert sorted(_load()) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w") as fh:
        json.dump({k: digests(CASES[k]()) for k in sorted(CASES)}, fh, indent=1, sort_keys=True)
        fh.write("\n")
