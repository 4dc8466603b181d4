"""Child processes that the tests start import umbra from this tree's src/ too.

``pythonpath`` in pyproject.toml covers imports inside the pytest process only.
The ``corrupt_entry`` fixture makes one closed-form coefficient wrong, for the
tests of FAIL reports.
"""

import os
from pathlib import Path

import pytest

import umbra.identities as identities

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def corrupt_entry(monkeypatch):
    """corrupt_entry(tid, n, k): tid's row builder adds 1 to its entry (n, k) and to no other.

    The corrupted rows a tN_coeff call left in the row memo are dropped when the test ends.
    """
    def corrupt(tid, n, k):
        *entry, build = identities._CATALOG[tid]

        def corrupted(*args):
            rows = list(build(*args))
            nums, d = rows[n]
            rows[n] = ([x + d if i == k else x for i, x in enumerate(nums)], d)
            return rows

        monkeypatch.setitem(identities._CATALOG, tid, (*entry, corrupted))

    yield corrupt
    identities._cell_rows.cache_clear()
