"""Golden verifier reports: every ``verify_theorem`` suite, pinned.

Each suite's ``to_dict()`` (checks, details, summary and config) is
compared field by field with ``verify_golden.json``, as the certificates
of ``test_verdicts.py`` are (floats to 1e-12 relative, everything else
exactly).  The suites sample their kernels and members, so the file pins
which members are listed, in which order and under which labels.

``verify_families_golden.json`` pins every suite again on five families
beyond the defaults (``FAMILIES``), reports that read FAIL or
INCONCLUSIVE included; a suite that raises on a family is pinned by the
exception's type and text.

Regenerate the data files only for an intended change of reports:

    PYTHONPATH=src python tests/test_verify_golden.py --write
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from convdual.duality import THEOREM_NAMES, verify_theorem
from convdual.family import (
    Circle,
    Disk,
    FamilySpec,
    Fixed,
    Pencil,
    Rational,
    counterexample_family,
    pencil_family,
)
from convdual.series import TruncSeries

from test_verdicts import _assert_same

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "verify_golden.json")
FAMILIES_GOLDEN = os.path.join(HERE, "verify_families_golden.json")

FAMILIES = {
    "counterexample": counterexample_family,
    "pencil-z2-r0.8": lambda: pencil_family(2, 0.8),
    "circled-r0.7": lambda: FamilySpec((Pencil((1,), (Circle(0.7),)),)),
    "fixed-and-half-disk": lambda: FamilySpec(
        (Fixed(TruncSeries.polynomial([1.0, 0.3])), Pencil((1,), (Disk(0.5),)))
    ),
    # (1 + xz)/(1 + yz) with |x| = 0.5 and |y| = 0.3
    "rational-c0.5-c0.3": lambda: FamilySpec((Rational(Circle(0.5), Circle(0.3), order=16),)),
}


def _report(name: str, V=None) -> dict:
    return json.loads(json.dumps(verify_theorem(name, V).to_dict()))


def _family_report(name: str, family: str) -> dict:
    try:
        return _report(name, FAMILIES[family]())
    except Exception as exc:  # pinned as it is raised
        return {"raises": type(exc).__name__, "message": str(exc)}


def _load(path: str = GOLDEN) -> dict:
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", THEOREM_NAMES)
def test_report_matches_golden(name):
    _assert_same(_report(name), _load()[name], name)


def test_golden_file_covers_every_suite():
    assert sorted(_load()) == sorted(THEOREM_NAMES)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("name", THEOREM_NAMES)
def test_family_report_matches_golden(name, family):
    _assert_same(_family_report(name, family), _load(FAMILIES_GOLDEN)[family][name],
                 f"{family}.{name}")


def test_families_golden_covers_every_suite_and_family():
    golden = _load(FAMILIES_GOLDEN)
    assert sorted(golden) == sorted(FAMILIES)
    assert all(sorted(reports) == sorted(THEOREM_NAMES) for reports in golden.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    for path, data in (
        (GOLDEN, {k: _report(k) for k in THEOREM_NAMES}),
        (FAMILIES_GOLDEN,
         {f: {k: _family_report(k, f) for k in THEOREM_NAMES} for f in FAMILIES}),
    ):
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
