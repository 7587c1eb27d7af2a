from __future__ import annotations

import functools

import pytest

from idemforge import engine, fields, structure

#: every table the library builds once per process, by the function that
#: caches it: extension moduli and fields, roots of unity, minimal
#: polynomials, factorizations, the closed form's trace tables and the
#: oracle's stacks of B rows
TABLE_CACHES = (
    (fields, "find_irreducible"),
    (fields, "_extension_field"),
    (fields, "_root_search"),
    (structure, "_minimal_polynomials"),
    (structure, "_factor_cached"),
    (engine, "_sigma_table"),
    (engine, "_euclid_rows"),
)


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty caches for every table of TABLE_CACHES during the test, so that
    tables built by earlier tests do not bypass its monkeypatches; the warm
    caches come back after it, and nothing the test builds outlives it.
    Calling the returned function empties them again."""

    def refresh():
        for module, name in TABLE_CACHES:
            fresh = functools.lru_cache(maxsize=None)(getattr(module, name).__wrapped__)
            monkeypatch.setattr(module, name, fresh)

    refresh()
    return refresh
