"""Minimal cyclic codes generated by primitive idempotents: generator
polynomial, dimension, and exact minimum distance by exhaustive search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import IdempotentRecord, _element
from .errors import BudgetExceededError, UsageError
from .polys import Poly

DEFAULT_DISTANCE_BUDGET = 1 << 24


@dataclass(frozen=True)
class CyclicCodeSummary:
    n: int
    generator: Poly
    dimension: int
    min_distance: int | None
    label: str

    def params(self) -> str:
        if self.min_distance is None:
            return f"[{self.n},{self.dimension}]"
        return f"[{self.n},{self.dimension},{self.min_distance}]"


def generator_polynomial(e, n: int) -> Poly:
    """Monic generator of the ideal generated by the idempotent:
    g = gcd(e, x^n - 1)."""
    value = _element(e)
    if value.n != n:
        raise UsageError(f"ring length mismatch: element has n={value.n}")
    if value.is_zero():
        raise UsageError("the zero element generates no code")
    poly = value.to_poly()
    return poly.gcd(Poly.x_pow_minus_one(poly.field, n))


def min_distance_exhaustive(
    g: Poly, n: int, q: int, budget: int = DEFAULT_DISTANCE_BUDGET
) -> int:
    """Minimum Hamming weight over all nonzero codewords of the cyclic code
    generated by g, by full enumeration of the message space."""
    deg = g.degree
    if not isinstance(deg, int):
        raise UsageError("generator polynomial must be nonzero")
    dim = n - deg
    if dim <= 0:
        raise UsageError("code has dimension 0")
    total = q**dim
    if total > budget:
        raise BudgetExceededError(
            f"enumerating {total} codewords exceeds the budget {budget}", required=total
        )
    if total > (1 << 40):  # int64 radix arithmetic below must stay exact
        raise BudgetExceededError(
            "exhaustive enumeration is capped at 2^40 codewords", required=total
        )
    gen_rows = np.zeros((dim, n), dtype=np.int64)
    g_vec = np.array(g.int_coeffs(), dtype=np.int64)
    for i in range(dim):
        gen_rows[i, i : i + deg + 1] = g_vec
    radix = q ** np.arange(dim, dtype=np.int64)
    best = n + 1
    chunk = 1 << 13
    for start in range(1, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // radix) % q
        words = (digits @ gen_rows) % q
        weights = np.count_nonzero(words, axis=1)
        best = min(best, int(weights.min()))
    return best


def code_summary(
    record,
    n: int,
    q: int,
    *,
    with_distance: bool = False,
    budget: int = DEFAULT_DISTANCE_BUDGET,
) -> CyclicCodeSummary:
    g = generator_polynomial(record, n)
    dim = n - g.degree
    dist = min_distance_exhaustive(g, n, q, budget) if with_distance else None
    label = record.label if isinstance(record, IdempotentRecord) else ""
    return CyclicCodeSummary(n=n, generator=g, dimension=dim, min_distance=dist, label=label)


def summaries_for(
    records, n: int, q: int, *, with_distance: bool = False, budget: int = DEFAULT_DISTANCE_BUDGET
) -> list[CyclicCodeSummary]:
    return [
        code_summary(r, n, q, with_distance=with_distance, budget=budget) for r in records
    ]
