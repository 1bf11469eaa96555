"""Golden verifier reports: every default ``verify_theorem`` suite, pinned.

Each suite's ``to_dict()`` (checks, details, summary and config) is
compared field by field with ``verify_golden.json``, as the certificates
of ``test_verdicts.py`` are (floats to 1e-12 relative, everything else
exactly).  The suites sample their kernels and members, so the file pins
which members are listed, in which order and under which labels.

Regenerate the data file only for an intended change of reports:

    PYTHONPATH=src python tests/test_verify_golden.py --write
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from convdual.duality import THEOREM_NAMES, verify_theorem

from test_verdicts import _assert_same

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verify_golden.json")


def _report(name: str) -> dict:
    return json.loads(json.dumps(verify_theorem(name).to_dict()))


def _load() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", THEOREM_NAMES)
def test_report_matches_golden(name):
    _assert_same(_report(name), _load()[name], name)


def test_golden_file_covers_every_suite():
    assert sorted(_load()) == sorted(THEOREM_NAMES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w") as fh:
        json.dump({k: _report(k) for k in THEOREM_NAMES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
