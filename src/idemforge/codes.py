"""Minimal cyclic codes generated by primitive idempotents: generator
polynomial, dimension, and exact minimum distance.  A minimal code is
weighed by one codeword per Frobenius orbit of the cosets of <x, F_q^*>,
formed from the rows x^i * e of its idempotent e, with the orbits' least
exponents marked in wide spans and a coset generator searched among the
candidates that can be the first; any other code by exhaustive search."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from . import _fastpoly as fp
from .engine import IdempotentRecord, _element
from .errors import BudgetExceededError, UsageError
from .fields import ExtensionField, _canonical_search, _index_rows, factor_integer, get_prime_field
from .polys import Poly
from .structure import multiplicative_order

DEFAULT_DISTANCE_BUDGET = 1 << 24

# Codeword entries per block of the orbit walk, were every exponent of the
# block walked: a block of codewords takes at most 512 KB in int64 and stays
# in cache.
_BLOCK_ENTRIES = 1 << 16
# Exponents per marking of orbit minima: per-step numpy calls dominate
# shorter spans, and its few int64 arrays take about 2 MB.
_MARK_SPAN = 1 << 16
# The walk marks orbit minima by products a * q mod N of int64 values below N.
_MAX_COSETS = 1 << 31


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

    When h = (x^n - 1)/g is irreducible and q does not divide n, the code
    is minimal with idempotent e = g * u, u = 1/g mod h, and theta ->
    theta*e maps the field K = F_q[x]/(h) onto it; its generator rows are
    x^i * e.  A cyclic shift is multiplication by x, so weight is constant
    on the N = (q^dim - 1)/lcm(d, q-1) cosets gamma^a * H of the subgroup
    H = <x, F_q^*> of K^*, where d is the order of x and gamma is any
    element that generates K^*/H: here the first one past x in canonical
    order, searched among `_generator_candidates` only.  Since e(x^q) = e,
    Frobenius sends the codeword c(x) of theta to c(x^q), that of
    theta^q, a permutation of coordinates; so weight is constant on the
    orbits of a -> q*a mod N too, and the walk forms one codeword
    gamma^a * e per orbit, at its least exponent a (Baumert & McEliece,
    "Weights of irreducible cyclic codes", Inf. Control 20, 1972), marked
    `_MARK_SPAN` exponents at a time.  There `budget` bounds the orbits
    walked, counted before the walk by Burnside's lemma.  Otherwise this is
    `min_distance_exhaustive`, and `budget` bounds the codewords."""
    dim = _dimension(g, n)
    # d divides n, so there are at least (q^dim - 1)/lcm(n, q - 1) cosets, an
    # orbit holds at most dim of them, and there are more codewords than
    # cosets; refuse before anything is built
    floor = lcm(n, q - 1)
    least = (q**dim - 1) // floor // dim
    if least > budget:
        raise BudgetExceededError(
            f"the minimum distance needs at least ({q}^{dim} - 1)/{floor}/{dim} orbits or "
            f"codewords, over the budget {budget}",
            required=least,
        )
    h, rem = Poly.x_pow_minus_one(g.field, n).divrem(g)
    h = h.monic()
    if not rem.is_zero() or n % q == 0 or not fp.is_irreducible(q, h.int_coeffs()):
        return min_distance_exhaustive(g, n, q, budget)

    field = ExtensionField._certified(get_prime_field(q), h)
    ring = field.ring
    x, one = ring.x(), ring.one()
    d = n
    for r in factor_integer(n):
        while d % r == 0 and np.array_equal(ring.pow(x, d // r), one):
            d //= r
    order = lcm(d, q - 1)
    cosets = (q**dim - 1) // order
    # q^steps = 1 mod N: every orbit is met within `steps` Frobenius steps
    steps = multiplicative_order(q, cosets)
    # Burnside: the orbits number the mean over j < steps of the exponents
    # that q^j fixes, gcd(q^j - 1, N); grouped by e = gcd(j, steps), that is
    # (1/steps) * sum over e | steps of phi(steps/e) * gcd(q^e - 1, N)
    orbits = sum(gcd(pow(q, j, cosets) - 1, cosets) for j in range(steps)) // steps
    if orbits > budget:
        raise BudgetExceededError(
            f"walking the {orbits} Frobenius orbits of the ({q}^{dim} - 1)/{order} cosets "
            f"of <x, F_q^*> exceeds the budget {budget}",
            required=orbits,
        )
    if cosets > _MAX_COSETS:
        raise BudgetExceededError("the orbit walk is capped at 2^31 cosets", required=cosets)
    gamma = one
    if cosets > 1:  # then dim > 1
        exponents = [(q**dim - 1) // r for r in factor_integer(cosets)]
        index = _canonical_search(field, _generator_candidates(q, dim), exponents)
        gamma = _index_rows(q, dim, [index])[0]
    # a = N - b with q*b < N maps to N - q*b < a: no such a is least in its orbit
    span = cosets - (cosets - 1) // q
    block = min(span, max(1, _BLOCK_ENTRIES // n))
    theta = ring.powers(gamma, block)  # gamma^a, a < block
    # block j holds the codewords of gamma^(jB + a) = theta[a] @ M(gamma^B)^j
    # @ rows, so the walk advances the small dim x n matrix, not theta
    advance = ring.matrix(ring.pow(gamma, block))
    # u = x*h'/n mod h, from the derivative of x^n - 1 = g*h taken mod h
    u = ring.reduce(np.arange(dim + 1) * fp.as_vec(h.int_coeffs()) % q * pow(n, -1, q))
    rows = fp.mat_mul(ring.matrix(u), _generator_rows(g, n, dim), q)  # x^i * e
    best = n
    for start, walked in _block_minima(span, block, q % cosets, cosets, steps):
        if start:
            rows = fp.mat_mul(advance, rows, q)
        words = fp.mat_mul(theta[walked - start], rows, q)
        best = min(best, int(np.count_nonzero(words, axis=1).min(initial=best)))
    return best


def _generator_candidates(q: int, dim: int):
    """Indices, in canonical order past x, of the candidates for the first
    generator of K^*/H, K = F_q[x]/(h) of degree dim: the monic c with
    c(0) != 0 that are not c'(x^q).  Any other element past x is x*c',
    lambda*c' or c'(x^q) = c'^q for an earlier c' whose class generates
    K^*/H exactly when its own does (H holds x and F_q^*, and a -> a^q is
    an automorphism of K^*/H since q is prime to |K^*|), so it is never
    the first."""
    for degree in range(1, dim):
        low = q**degree  # x^degree: the monic c of this degree are low .. 2*low - 1
        for index in range(low + 1, 2 * low):
            if index % q and (degree % q or not _frobenius_image(index, q)):
                yield index


def _frobenius_image(index: int, q: int) -> bool:
    """Whether the element of this canonical index is c'(x^q) = c'^q: every
    nonzero coefficient sits at a power of x divisible by q."""
    position = 0
    while index:
        index, digit = divmod(index, q)
        if digit and position % q:
            return False
        position += 1
    return True


def _block_minima(span: int, block: int, q: int, orbits: int, steps: int):
    """(start, minima) for each block of `block` exponents in [0, span): the
    exponents of the block that are least in their orbit (`_orbit_minima`),
    marked `_MARK_SPAN` exponents at a time whatever the block."""
    pending, marked = np.empty(0, dtype=np.int64), 0
    for start in range(0, span, block):
        stop = min(start + block, span)
        while marked < stop:
            count = min(_MARK_SPAN, span - marked)
            pending = np.concatenate((pending, _orbit_minima(marked, count, q, orbits, steps)))
            marked += count
        cut = int(np.searchsorted(pending, stop))
        yield start, pending[:cut]
        pending = pending[cut:]


def _orbit_minima(start: int, count: int, q: int, orbits: int, steps: int) -> np.ndarray:
    """The exponents a in [start, start + count) that are least in their
    orbit under a -> q*a mod `orbits`, ascending; q^steps = 1 mod `orbits`.
    Each Frobenius step keeps only the exponents that are still least,
    after the multiples a = q*b > 0 are dropped: b < a lies in a's orbit."""
    least = np.arange(start, start + count, dtype=np.int64)
    if q > 1:  # q = 1 fixes every exponent, and q = 0 leaves one orbit
        least = least[(least % q != 0) | (least == 0)]
    image = least
    for _ in range(steps - 1):
        image = image * q % orbits
        keep = image >= least
        least, image = least[keep], image[keep]
    return least


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
