"""Golden certificates of sampled decisions, bitwise.

A corpus seeded here, in the shapes of the benchmark's sampled-dual
templates: 50-member fixed families under dual, perp and transpose checks,
rational families with linear and cubic kernels, segment pencils, and a
fixed family with a tail-less member.  Families are written as spec
documents and read by ``parse_family``, so the corpus also pins how
coefficient lists are parsed.  Each certificate's ``to_dict()`` must equal
``sampled_golden.json`` as JSON text (every float bit, ``-0.0`` included),
where ``test_verdicts.py`` compares floats only to 1e-12.

Regenerate the data file only for an intended change of verdicts:

    PYTHONPATH=src python tests/test_sampled_golden.py --write
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys

import numpy as np
import pytest

from convdual.duality import in_dual, in_perp, in_T
from convdual.family import ParamGrid
from convdual.series import TruncSeries, from_rational
from convdual.specfile import parse_family

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sampled_golden.json")
SEEDS = (1, 2, 3)

P = TruncSeries.polynomial


def _polar(rng, r: float) -> complex:
    return complex(cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi)))


def _num(z: complex):
    return [z.real, z.imag]


def _disk(r: float) -> dict:
    return {"shape": "disk", "radius": r}


def _circle(r: float) -> dict:
    return {"shape": "circle", "radius": r}


def _family(gens) -> str:
    return json.dumps({"generators": gens})


def _fixed_members(rng, n: int, budget: tuple, order: int = 16) -> list:
    """Members with tails whose coefficient sums beyond ``c_0`` lie in ``budget``."""
    rho = rng.uniform(1.6, 3.0, (n, 1))
    weights = rng.uniform(0.2, 1.0, (n, order)) * rho ** -np.arange(1.0, order + 1)
    scale = rng.uniform(*budget, (n, 1)) / weights.sum(axis=1, keepdims=True)
    cs = np.round(weights * scale * np.exp(2j * np.pi * rng.random((n, order))), 4)
    pairs = np.stack([cs.real, cs.imag], axis=-1).tolist()
    return [
        {"kind": "fixed", "coeffs": [1.0] + p, "tail": {"M": round(m, 4), "rho": round(r, 4)}}
        for p, m, r in zip(pairs, scale[:, 0].tolist(), rho[:, 0].tolist())
    ]


def _cubic(rng, rx: float, ry: float) -> TruncSeries:
    w = rng.uniform(0.2, 1.0, 3)
    scale = rng.uniform(0.6, 0.75) / ((rx + ry) * (w[0] + w[1] * ry + w[2] * ry * ry))
    return P([1.0] + [_polar(rng, wk * scale) for wk in w])


def _segment_pencil(rng, s1: float, s2: float, k1: int, k2: int, falsify: bool = False):
    e1, e2, a1, a2 = (_polar(rng, r) for r in (1.0, 1.0, 0.2, 0.2))
    coeffs = [0j] * (k2 + 1)
    coeffs[0] = 1.0
    coeffs[k1] = _polar(rng, s1 / max(abs(a1), abs(e1)))
    coeffs[k2] = _polar(rng, s2 / max(abs(a2), abs(e2)))
    ends = (e1, a1) if falsify else (a1, e1)
    doms = [{"shape": "segment", "from": _num(ends[0]), "to": _num(ends[1])},
            {"shape": "segment", "from": _num(a2), "to": _num(e2)}]
    return {"kind": "pencil", "exponents": [k1, k2], "domains": doms}, P(coeffs)


def _corpus(seed: int) -> dict:
    """Decisions named by shape, each a thunk giving its certificate."""
    rng = np.random.default_rng(seed)
    cases = {}
    fixed = parse_family(_family(_fixed_members(rng, 50, (0.2, 0.7))))
    kern = P([1.0] + [_polar(rng, 0.9) for _ in range(3)])
    cases["fixed-dual-50"] = lambda: in_dual(kern, fixed)
    cases["fixed-perp-50"] = lambda: in_perp(kern, fixed)
    cases["fixed-t-50"] = lambda: in_T(kern, fixed)
    loose = parse_family(_family(_fixed_members(rng, 50, (0.8, 1.6))))
    cases["fixed-dual-50-wide"] = lambda: in_dual(kern, loose)
    notail = _fixed_members(rng, 5, (0.2, 0.6))
    notail[int(rng.integers(5))]["tail"] = None
    notail_family = parse_family(_family(notail))
    rat_kernel = from_rational(_polar(rng, 0.7), _polar(rng, rng.uniform(0.2, 0.5)))
    cases["fixed-notail-dual"] = lambda: in_dual(rat_kernel, notail_family)
    cases["fixed-notail-t"] = lambda: in_T(rat_kernel, notail_family)

    rx, ry = round(rng.uniform(0.3, 0.6), 4), round(rng.uniform(0.2, 0.45), 4)
    disks = parse_family(_family([{"kind": "rational", "x_domain": _disk(rx),
                                   "y_domain": _disk(ry)}]))
    circles = parse_family(_family([{"kind": "rational", "x_domain": _circle(rx),
                                     "y_domain": _circle(ry)}]))
    cubic = _cubic(rng, rx, ry)
    cases["rat-cubic-dual"] = lambda: in_dual(cubic, disks, ParamGrid(1, 12, 32, 16))
    cases["rat-cubic-circles-dual"] = lambda: in_dual(cubic, circles, ParamGrid(1, 12, 32, 16))
    mild = P([1.0, _polar(rng, rng.uniform(0.6, 0.75) / (rx + ry))])
    steep = P([1.0, _polar(rng, rng.uniform(1.2, 1.5) / ry)])
    cases["rat-poly-dual-verified"] = lambda: in_dual(mild, disks, ParamGrid(2, 8, 32, 16))
    cases["rat-poly-dual-falsified"] = lambda: in_dual(steep, disks, ParamGrid(1, 8, 32, 16))
    cases["rat-t-verified"] = lambda: in_T(mild, disks, ParamGrid(3, 8, 32, 16))
    far = P([1.0, _polar(rng, rng.uniform(1.5, 2.5) / (rx + ry))])
    cases["rat-t-falsified"] = lambda: in_T(far, disks, ParamGrid(3, 8, 32, 16))

    k1, k2 = [(1, 2), (1, 3), (2, 3)][int(rng.integers(3))]
    total = rng.uniform(0.6, 0.75)
    s1 = total * rng.uniform(0.3, 0.7)
    gen, seg_kernel = _segment_pencil(rng, s1, total - s1, k1, k2)
    segs = parse_family(_family([gen]))
    cases["seg-dual-verified"] = lambda: in_dual(seg_kernel, segs, ParamGrid(8, 16, 32, 12))
    cases["seg-t-verified"] = lambda: in_T(seg_kernel, segs, ParamGrid(8, 16, 32, 16))
    s2 = rng.uniform(0.1, 0.3)
    gen, seg_kernel2 = _segment_pencil(rng, 1.0 + s2 + rng.uniform(0.3, 0.6), s2, k1, k2, True)
    bad_segs = parse_family(_family([gen]))
    cases["seg-dual-falsified"] = lambda: in_dual(seg_kernel2, bad_segs, ParamGrid(8, 16, 32, 12))
    return cases


CASES = {f"{name}/seed{seed}": thunk for seed in SEEDS for name, thunk in _corpus(seed).items()}


def _text(cert) -> str:
    return json.dumps(cert.to_dict(), sort_keys=True)


def _load() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sampled_certificate_is_bitwise_golden(name):
    assert _text(CASES[name]()) == json.dumps(_load()[name], sort_keys=True)


def test_golden_file_covers_every_case():
    golden = _load()
    assert sorted(golden) == sorted(CASES)
    statuses = {cert["status"] for cert in golden.values()}
    assert statuses == {"Verified", "Falsified", "Inconclusive"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w") as fh:
        json.dump({k: CASES[k]().to_dict() for k in sorted(CASES)}, fh, indent=1, sort_keys=True)
        fh.write("\n")
