"""Child processes that the tests start import umbra from this tree's src/ too.

``pythonpath`` in pyproject.toml covers imports inside the pytest process only.
`cli_env` gives a CLI child the environment the benchmark gives its children, so a
test of stdout buffering tests the mode it names, not the one its shell set.
The ``corrupt_entry`` fixture makes one closed-form coefficient wrong, for the
tests of FAIL reports; ``triangle_without_factorials`` drops the n!/k! of every
table the series kernel builds, for the tests of what catches that.
`catalog_entry`, `cell_rows` and `wrap_row_builder` are the one place the tests read
and patch the identity catalog's entries.
"""

import os
from itertools import chain
from math import factorial, gcd
from pathlib import Path

import pytest

import umbra.families as families
import umbra.identities as identities
import umbra.umbral as umbral

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def cli_env(**settings) -> dict[str, str]:
    """The caller's environment without its PYTHON* and UMBRA_* variables, as
    bench/run.py gives its children, importing umbra from src; then ``settings``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "UMBRA_"))}
    return {**env, "PYTHONPATH": _SRC, **settings}


def catalog_entry(tid):
    """(family kind paired with Hermite, row builder) of tid's catalog entry."""
    entry = identities._CATALOG[tid]
    return entry[0], entry[-1]


def cell_rows(tid, spec, n_max):
    """(rows, d) of tid's closed form for spec through n_max, as a cell builds them."""
    return catalog_entry(tid)[1](spec, n_max, identities._hermite_table(tid, n_max))


def wrap_row_builder(monkeypatch, tid, wrap):
    """Make wrap(build) tid's row builder until the test ends; return build, the one it had."""
    *entry, build = identities._CATALOG[tid]
    monkeypatch.setitem(identities._CATALOG, tid, (*entry, wrap(build)))
    return build


@pytest.fixture
def corrupt_entry(monkeypatch):
    """corrupt_entry(tid, n, k): tid's row builder adds 1 to its entry (n, k) and to no other.

    The corrupted rows a tN_coeff call left in the family store, under (id, spec), are
    dropped when the test ends.
    """
    def corrupt(tid, n, k):
        def wrap(build):
            def corrupted(*args):
                rows, d = build(*args)
                rows = list(rows)
                rows[n] = [x + d if i == k else x for i, x in enumerate(rows[n])]
                return rows, d
            return corrupted

        wrap_row_builder(monkeypatch, tid, wrap)

    yield corrupt
    for key in [key for key in families._store if isinstance(key, tuple)]:
        del families._store[key]


@pytest.fixture
def triangle_without_factorials(monkeypatch):
    """`umbral._triangle` gives [t^n] (a b^k) itself, without its n!/k!, over the least d.

    The triangle takes a and b as divided powers and reads (n!/k!) [t^n] (a b^k) off its
    columns with no rescale, so the fault is made here, on the table it returns; both the
    Sheffer and the transfer tables come from that one `_triangle`.
    """
    build = umbral._triangle

    def unscaled(a, b, n_max):
        rows, d = build(a, b, n_max)
        top = factorial(n_max)  # entry (n, k) times k!/n! is x k! (top/n!) / (d top)
        nums = [[x * factorial(k) * (top // factorial(n)) for k, x in enumerate(row)]
                for n, row in enumerate(rows)]
        g = gcd(d * top, *chain.from_iterable(nums))
        return tuple(tuple(x // g for x in row) for row in nums), d * top // g

    monkeypatch.setattr(umbral, "_triangle", unscaled)
