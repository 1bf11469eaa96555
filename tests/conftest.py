"""Suite-wide settings for ``tests/``: a RuntimeWarning fails its test.

numpy reports overflow and invalid values (``inf - inf``, ``0 * inf``) as
RuntimeWarnings; the library either avoids them or silences them where a
non-finite result is expected and handled, so one that escapes is a defect
at its source.  The filter is the lowest-precedence mark of each test here,
so a test's own ``filterwarnings`` mark still decides; ``perfbench/`` is not
affected.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    error = pytest.mark.filterwarnings("error::RuntimeWarning")
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(error, append=False)
