"""Golden certificates: one pinned ``to_dict()`` per branch of each decision.

The decision procedures share one verdict path (worst margin, gray list,
Verified/Inconclusive forms) and each has its own Falsified constructions.
Every case below reaches one of those branches; its certificate is compared
field by field with ``verdicts_golden.json`` (floats to 1e-12 relative,
everything else exactly).  Sampled members are labelled ``g{i}:...`` by the
index ``i`` of their generator in the family.

Regenerate the data file only for an intended change of verdicts:

    PYTHONPATH=src python tests/test_verdicts.py --write
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

from convdual.contour import DEFAULT_TOL
from convdual.duality import in_dual, in_dual_hull, in_perp, in_T, is_complete_T
from convdual.family import Circle, Disk, FamilySpec, Fixed, Pencil, Rational, pencil_family
from convdual.series import TruncSeries, from_rational

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verdicts_golden.json")

P = TruncSeries.polynomial
V1 = pencil_family()


def notail(coeffs) -> TruncSeries:
    return TruncSeries([complex(c) for c in coeffs], tail=None)


def fixed_family(*series) -> FamilySpec:
    return FamilySpec(tuple(Fixed(s) for s in series))


# |x| = 0.5 pins no coefficient bound the knapsack can use, so hull checks
# against it go through the transpose pool
CIRCLE_HALF = FamilySpec((Pencil((1,), (Circle(0.5),)),))

CASES = {
    # transpose and perp
    "in_T/exact-verified": lambda: in_T(P([1.0, 0.5]), V1),
    "in_T/sampled-verified": lambda: in_T(
        P([1.0, 0.3]), FamilySpec((Rational(Disk(0.5), Disk(0.4)), Fixed(P([1.0, 0.2]))))
    ),
    "in_T/inconclusive-gray": lambda: in_T(
        from_rational(0.5, 0.2), fixed_family(*(notail([1.0, 0.1 * i]) for i in range(1, 6)))
    ),
    "in_T/falsified-pencil": lambda: in_T(P([1.0, 1.0]), V1),
    "in_T/falsified-rational-slice": lambda: in_T(
        P([1.0, 2.0]), FamilySpec((Rational(Disk(1.0), Disk(0.5)),))
    ),
    "in_T/falsified-sampled-member": lambda: in_T(
        P([1.0, 2.0]), fixed_family(P([1.0, 0.1]), P([1.0, -0.5]))
    ),
    "in_T/inconclusive-tailless-second-member": lambda: in_T(
        from_rational(0.5, 0.2), fixed_family(P([1.0, 0.3]), notail([1.0, 0.3]))
    ),
    "in_T/inconclusive-exact-margin": lambda: in_T(P([1.0, 1.0 - 5e-8]), V1),
    # a bar below the rounding of the constructed member's pairing value
    "in_T/inconclusive-witness-residual": lambda: in_T(
        P([1.0, 0.3 + 0.7j]),
        FamilySpec((Pencil((1,), (Disk(2.0),)),)),
        tol=DEFAULT_TOL.with_bar(1e-20),
    ),
    "in_perp/exact-verified": lambda: in_perp(P([1.0, 0.5]), V1),
    "in_perp/falsified-sampled-member": lambda: in_perp(
        P([1.0, 2.0]), fixed_family(P([1.0, 0.1]), P([1.0, -0.5]))
    ),
    # dual
    "in_dual/exact-verified": lambda: in_dual(P([1.0, 0.5]), V1),
    "in_dual/sampled-verified": lambda: in_dual(
        P([1.0, 0.3]), fixed_family(P([1.0, 0.5]), P([1.0, -0.2]))
    ),
    "in_dual/sampled-falsified": lambda: in_dual(
        P([1.0, 0.4]),
        FamilySpec((Pencil((1,), (Disk(1.0),)), Fixed(P([1.0, 0.3])), Fixed(P([1.0, 3.0])))),
    ),
    "in_dual/inconclusive-tailless-member": lambda: in_dual(
        from_rational(0.5, 0.2), fixed_family(P([1.0, 0.3]), notail([1.0, 0.3]))
    ),
    "in_dual/inconclusive-witness-verification": lambda: in_dual(
        P([1.0, 1e7, 1.0000001e7]), FamilySpec((Pencil((1, 2), (Circle(1.0), Circle(1.0))),))
    ),
    "in_dual/inconclusive-dual-margin": lambda: in_dual(
        P([1.0, 1.0]), V1, tol=DEFAULT_TOL.with_bar(1e-5)
    ),
    # dual hull
    "in_dual_hull/falsified-knapsack": lambda: in_dual_hull(P([1.0, 2.0]), V1),
    "in_dual_hull/falsified-matrix": lambda: in_dual_hull(P([1.0, 2.0]), CIRCLE_HALF),
    "in_dual_hull/falsified-per-kernel": lambda: in_dual_hull(
        from_rational(1.5, -0.5), CIRCLE_HALF
    ),
    "in_dual_hull/verified": lambda: in_dual_hull(P([1.0, 0.1]), V1),
    "in_dual_hull/inconclusive": lambda: in_dual_hull(notail([1.0, 0.1]), V1),
    # completeness of the transpose
    "is_complete_T/verified": lambda: is_complete_T(V1),
    "is_complete_T/falsified": lambda: is_complete_T(fixed_family(P([1.0, 1.0]))),
    "is_complete_T/inconclusive-kernel-margin": lambda: is_complete_T(
        fixed_family(P([1.0, 0.5])), kernels=fixed_family(P([1.0, -4.0 * (1.0 - 5e-8)]))
    ),
}


def _load() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def _assert_same(got, want, path: str) -> None:
    if isinstance(want, float) and isinstance(got, float):
        ok = got == want or math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14)
        assert ok, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{path}: keys differ"
        for k in want:
            _assert_same(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    else:
        assert got == want and type(got) is type(want), f"{path}: {got!r} != {want!r}"


def _as_json(cert) -> dict:
    return json.loads(json.dumps(cert.to_dict()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_matches_golden(name):
    _assert_same(_as_json(CASES[name]()), _load()[name], name)


def test_golden_file_covers_every_case():
    assert sorted(_load()) == sorted(CASES)


def test_every_status_and_branch_is_reached():
    golden = _load()
    for name, cert in golden.items():
        assert cert["status"].lower() in name, name
    assert golden["in_T/inconclusive-gray"]["reason"].endswith(" (+2 more)")
    assert golden["in_T/inconclusive-gray"]["params"] == {"gray_members": 5}
    assert "kernel_coeffs" in golden["in_dual_hull/falsified-knapsack"]["params"]
    for name in ("in_dual_hull/falsified-matrix", "in_dual_hull/falsified-per-kernel"):
        assert golden[name]["reason"] == "pool transpose kernel annihilates the series"
    gray = {
        "in_T/inconclusive-exact-margin":
            "generator 0: exact pairing margin 5.000e-08 below the decision floor",
        "in_T/inconclusive-witness-residual":
            "generator 0: constructed witness residual 2.289e-16 exceeds the witness bar",
        "in_dual/inconclusive-witness-verification":
            "zero indicated inside the disk but witness verification failed",
        "in_dual/inconclusive-dual-margin": "generator 0: dual margin 2.441e-04 below the floor",
        "is_complete_T/inconclusive-kernel-margin":
            "g0:fixed(): g0:fixed()@P[0.5+0j]: pairing margin 5.000e-08 below the floor",
    }
    for name, reason in gray.items():
        assert golden[name]["reason"] == reason, name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w") as fh:
        json.dump({k: _as_json(CASES[k]()) for k in sorted(CASES)}, fh, indent=1, sort_keys=True)
        fh.write("\n")
