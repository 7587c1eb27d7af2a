"""Minimal cyclic codes generated by primitive idempotents: generator
polynomial, dimension, and exact minimum distance, by one codeword per
orbit of <x, F_q^*> when the code is minimal and by exhaustive search
otherwise."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from . import _fastpoly as fp
from .engine import IdempotentRecord, _element
from .errors import BudgetExceededError, UsageError
from .fields import ExtensionField, factor_integer, get_prime_field, primitive_element
from .polys import Poly

DEFAULT_DISTANCE_BUDGET = 1 << 24

# Codeword entries per block of the orbit walk: a block of codewords takes
# 512 KB in int64 and stays in cache.
_BLOCK_ENTRIES = 1 << 16


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


def _dimension(g: Poly, n: int) -> int:
    deg = g.degree
    if not isinstance(deg, int):
        raise UsageError("generator polynomial must be nonzero")
    dim = n - deg
    if dim <= 0:
        raise UsageError("code has dimension 0")
    return dim


def _generator_rows(g: Poly, n: int, dim: int) -> np.ndarray:
    """The dim x n generator matrix of rows x^i * g, i < dim."""
    rows = np.zeros((dim, n), dtype=np.int64)
    g_vec = fp.as_vec(g.int_coeffs())
    for i in range(dim):
        rows[i, i : i + g_vec.size] = g_vec
    return rows


def min_distance_exhaustive(
    g: Poly, n: int, q: int, budget: int = DEFAULT_DISTANCE_BUDGET
) -> int:
    """Minimum Hamming weight over all nonzero codewords of the cyclic code
    generated by g, by full enumeration of the message space.  `budget`
    bounds the number of codewords."""
    dim = _dimension(g, n)
    total = q**dim
    if total > budget:
        raise BudgetExceededError(
            f"enumerating {q}^{dim} codewords exceeds the budget {budget}", required=total
        )
    if total > (1 << 40):  # int64 radix arithmetic below must stay exact
        raise BudgetExceededError(
            "exhaustive enumeration is capped at 2^40 codewords", required=total
        )
    gen_rows = _generator_rows(g, n, dim)
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


def min_distance(g: Poly, n: int, q: int, budget: int = DEFAULT_DISTANCE_BUDGET) -> int:
    """Minimum Hamming weight over all nonzero codewords of the cyclic code
    generated by g.

    When h = (x^n - 1)/g is irreducible the code is minimal: theta -> theta*g
    maps the field K = F_q[x]/(h) onto it, and a cyclic shift is
    multiplication by x.  Weight is then constant on the cosets of the
    subgroup <x, F_q^*> of K^*, of order lcm(d, q-1) where d is the order
    of x, so the walk visits one codeword gamma^a * g per coset, with gamma
    primitive and a < (q^dim - 1)/lcm(d, q-1) (Baumert & McEliece,
    "Weights of irreducible cyclic codes", Inf. Control 20, 1972).  There
    `budget` bounds the orbits walked.  Otherwise this is
    `min_distance_exhaustive`, and `budget` bounds the codewords."""
    dim = _dimension(g, n)
    # d divides n, so there are at least this many orbits, and at least as
    # many codewords; refuse before anything is built
    floor = lcm(n, q - 1)
    least = (q**dim - 1) // floor
    if least > budget:
        raise BudgetExceededError(
            f"the minimum distance needs at least ({q}^{dim} - 1)/{floor} orbits or "
            f"codewords, over the budget {budget}",
            required=least,
        )
    h, rem = Poly.x_pow_minus_one(g.field, n).divrem(g)
    h = h.monic()
    if not rem.is_zero() or not fp.is_irreducible(q, h.int_coeffs()):
        return min_distance_exhaustive(g, n, q, budget)

    field = ExtensionField(get_prime_field(q), h)
    ring = field.ring
    x, one = ring.x(), ring.one()
    d = n
    for r in factor_integer(n):
        while d % r == 0 and np.array_equal(ring.pow(x, d // r), one):
            d //= r
    order = lcm(d, q - 1)
    orbits = (q**dim - 1) // order
    if orbits > budget:
        raise BudgetExceededError(
            f"walking ({q}^{dim} - 1)/{order} orbits of <x, F_q^*> exceeds the budget {budget}",
            required=orbits,
        )
    gamma = fp.as_vec(primitive_element(field).coeffs)
    block = min(orbits, max(1, _BLOCK_ENTRIES // n))
    theta = ring.powers(gamma, block)  # gamma^a, a < block
    # block j holds the codewords of gamma^(jB + a) = theta[a] @ M(gamma^B)^j
    # @ rows, so the walk advances the small dim x n matrix, not theta
    advance = ring.matrix(ring.pow(gamma, block))
    rows = _generator_rows(g, n, dim)
    best = n
    for start in range(0, orbits, block):
        words = fp.mat_mul(theta[: orbits - start], rows, q)
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
        rows = fp.mat_mul(advance, rows, q)
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
    dist = min_distance(g, n, q, budget) if with_distance else None
    label = record.label if isinstance(record, IdempotentRecord) else ""
    return CyclicCodeSummary(n=n, generator=g, dimension=dim, min_distance=dist, label=label)


def summaries_for(records, n: int, q: int) -> list[CyclicCodeSummary]:
    return [code_summary(r, n, q) for r in records]
