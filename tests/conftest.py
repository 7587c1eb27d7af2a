from __future__ import annotations

import functools

import pytest
from reference import field_modulus, ref_roots

from idemforge import _fastpoly, engine, fields, structure

#: every table the library builds once per process, by the function that
#: caches it: extension moduli and fields, roots of unity, the trace tables
#: of the closed form and the factorization, minimal polynomials, the
#: certified factor lists of each level with their placement plans, whole
#: factorizations, and the oracle's stacks of B rows
TABLE_CACHES = (
    (fields, "find_irreducible"),
    (fields, "_extension_field"),
    (fields, "_root_search"),
    (structure, "_sigma_table"),
    (structure, "_minimal_polynomials"),
    (structure, "_factor_level"),
    (structure, "_factor_cached"),
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


def _second_root(field, order: int):
    """The root of the search's rule at its second passing candidate u, in
    plain ints; None when fewer than two candidates pass."""
    roots = ref_roots(field.q, field_modulus(field), order)
    next(roots, None)
    zeta = next(roots, None)
    return None if zeta is None else fields.FieldElement(field, zeta)


@pytest.fixture
def second_choice(monkeypatch, fresh_caches):
    """The library makes one choice of modulus of F_{q^t} and of root of
    unity; calling the returned function switches `fields` to a second one
    for the rest of the test, with empty caches.  The modulus is
    `lex_irreducible`'s next one when t > 1, and the root comes from the
    second passing candidate u of the search's rule (`reference.ref_roots`),
    so a second choice that does not exist is a UsageError."""
    lex = _fastpoly.lex_irreducible

    def switch():
        monkeypatch.setattr(_fastpoly, "lex_irreducible", lambda q, t: lex(q, t, 1 if t > 1 else 0))
        monkeypatch.setattr(fields, "_root_search", functools.lru_cache(maxsize=None)(_second_root))
        fresh_caches()

    return switch
