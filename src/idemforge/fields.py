"""The prime field F_q, one extension F_{q^t}, and the one search that
picks every root of unity.

Values have one representation: Python ints in F_q, and int64 rows of t
coefficients over F_q (ascending powers of y) in F_{q^t}, which the field's
`ring`, a `_fastpoly.ReducedRing`, multiplies and raises to powers.  The
fields, and the roots the search returns (`FieldElement`, a tuple of
residues with no arithmetic of its own), are immutable, so they are safe to
share across threads.

Determinism: `find_irreducible` scans monic candidates in ascending order of
the integer value sum(c_i * q^i) of their non-leading coefficients, and the
root search walks field elements in the same integer order.  So every
derived object is reproducible byte for byte.

Every root of unity the library uses is chosen here, by one rule: a root of
order r (r dividing |F| - 1) is u^((|F| - 1)/r) for the first element u
with u^((|F| - 1)/l) != 1 for every prime l dividing r, walked from 1, or
from index q when no constant can pass (`_root_search`, which factors r
alone).  The factorization and the closed form ask for r = p^m', so nothing
factors |F| - 1.  In F_{q^t} the search tests candidates in blocks of 1, 2,
4, ... int64 rows by one stacked `ReducedRing.pow` each, and returns the
first candidate that passes in index order: the element a one-at-a-time
walk finds.  Each (field, order) is searched once, and
`get_extension_field` builds each (q, t) once.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import _fastpoly as fp
from ._fastpoly import index_rows as _index_rows
from .errors import BudgetExceededError, InvariantViolation, UsageError
from .polys import Poly, render_poly

#: Bit-size bound on q^t - 1 for the t > 1 instances that
#: `structure.instance_parameters` admits, but for one unit orbit
#: (t = p - 1, m' = 1), which builds no F_{q^t}.  No step factors q^t - 1,
#: so it bounds admission only.
DEFAULT_ORDER_BUDGET_BITS = 96

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXTRA = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101)


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3.3e24 (extra witnesses beyond)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _MR_WITNESSES if n < 3_317_044_064_679_887_385_961_981 else _MR_WITNESSES + _MR_EXTRA
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_integer(n: int) -> dict[int, int]:
    """Prime factorization by trial division, with a Miller-Rabin certificate
    to stop early once the cofactor is prime."""
    if n < 1:
        raise UsageError("can only factor positive integers")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while n > 1 and not is_prime(n):
        while n % d and n % (d + 2):
            d += 6
            if d > 10_000_000:
                raise BudgetExceededError(
                    "trial-division budget exceeded while factoring", required=n
                )
        p = d if n % d == 0 else d + 2
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class FieldElement:
    """A root of unity the search found in F_q or F_{q^t}, as a tuple of
    residues in [0, q): a value, with no arithmetic of its own."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return render_poly(self.coeffs, "y")


class PrimeField:
    """The prime field F_q."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or not is_prime(q):
            raise UsageError(f"{q} is not a prime modulus")
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeField is immutable")

    @property
    def degree(self) -> int:
        return 1

    @property
    def order(self) -> int:
        return self.q

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"F_{self.q}"


class ExtensionField:
    """F_{q^t} presented as F_q[y] modulo a monic irreducible of degree t.

    The modulus is verified irreducible at construction; `_certified` builds
    the field on a modulus its caller has just proved irreducible, and
    leaves that test out.  `ring` is the `_fastpoly.ReducedRing` of the
    modulus: power tables and multiplication matrices on int64 rows, for
    callers that work on many elements at once.
    """

    __slots__ = ("base", "t", "modulus", "ring")

    def __init__(self, base: PrimeField, modulus: Poly):
        self._build(base, modulus)
        if not fp.is_irreducible(base.q, modulus.int_coeffs()):
            raise UsageError(f"modulus {modulus!r} is reducible over {base!r}")

    @classmethod
    def _certified(cls, base: PrimeField, modulus: Poly) -> "ExtensionField":
        field = object.__new__(cls)
        field._build(base, modulus)
        return field

    def _build(self, base: PrimeField, modulus: Poly) -> None:
        if modulus.field != base:
            raise UsageError("modulus must be a polynomial over the base field")
        t = modulus.degree
        if not isinstance(t, int) or t < 1:
            raise UsageError("modulus must have degree >= 1")
        mod_ints = modulus.int_coeffs()
        if mod_ints[-1] != 1:
            raise UsageError("modulus must be monic")
        ring = fp.ReducedRing(base.q, mod_ints)  # refuses q past the int64 rule
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "ring", ring)

    def __setattr__(self, name, value):
        raise AttributeError("ExtensionField is immutable")

    @property
    def q(self) -> int:
        return self.base.q

    @property
    def degree(self) -> int:
        return self.t

    @property
    def order(self) -> int:
        return self.q**self.t

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.q == self.q
            and other.modulus.coeffs == self.modulus.coeffs
        )

    def __hash__(self):
        return hash(("ExtensionField", self.q, self.modulus.coeffs))

    def __repr__(self):
        return f"F_{{{self.q}^{self.t}}}"


@functools.lru_cache(maxsize=None)
def get_prime_field(q: int) -> PrimeField:
    return PrimeField(q)


@functools.lru_cache(maxsize=None)
def find_irreducible(q: int, t: int) -> Poly:
    """The smallest monic irreducible of degree t over F_q, candidates
    ordered by integer value of the coefficient sequence read from the
    constant term up.  Deterministic across runs."""
    if t < 1:
        raise UsageError("extension degree must be >= 1")
    field = get_prime_field(q)
    return Poly.from_ints(field, fp.lex_irreducible(q, t))


def get_extension_field(q: int, t: int) -> ExtensionField:
    """F_{q^t} modulo find_irreducible(q, t), built once per (q, t)."""
    return _extension_field(q, t)


@functools.lru_cache(maxsize=None)
def _extension_field(q: int, t: int) -> ExtensionField:
    # the cache sits behind get_extension_field, which structure imports by
    # name: a test that empties or patches it reaches it through this
    # module attribute
    return ExtensionField._certified(get_prime_field(q), find_irreducible(q, t))


def _canonical_search(field, candidates, exponents: list[int]) -> int | None:
    """The index of the first of the `candidates` (indices in canonical
    order) none of whose powers to `exponents` is one; None when the
    candidates run out.

    Candidates go in blocks of 1, 2, 4, ... (doubled after each block in
    which none passes), each block raised to every exponent by one stacked
    `ReducedRing.pow`, so a hit at the first candidate costs one walk over
    the exponent bits."""
    ring, q, t = field.ring, field.q, field.degree
    # the stacked product holds 2*t*t entries per row and exponent
    most = max(1, fp.TABLE_ENTRIES // (2 * t * t * max(1, len(exponents))))
    candidates = iter(candidates)
    size = 1
    while (block := np.fromiter(itertools.islice(candidates, size), np.int64)).size:
        powers = ring.pow(_index_rows(q, t, block), exponents)
        passing = np.flatnonzero(~(powers == ring.one()).all(axis=-1).any(axis=0))
        if passing.size:
            return int(block[passing[0]])
        size = min(2 * size, most)
    return None


@functools.lru_cache(maxsize=None)
def _root_search(field, order: int) -> FieldElement | None:
    """zeta = u^((|F| - 1)/order) for the first element u, in canonical
    order, with u^((|F| - 1)/r) != 1 for every prime r dividing
    `order` (so zeta has exact order `order`, which divides |F| - 1); None
    when the elements run out.  Only `order` is factored.  The walk starts
    at index 1 when some constant passes, and at index q, past the
    constants, otherwise: a constant's zeta lies in F_q^*, and the powers
    c^((|F| - 1)/order) of its constants c form the subgroup of order
    (q - 1)/gcd(q - 1, (|F| - 1)/order).  Each (field, order) is searched
    once."""
    group, q = field.order - 1, field.q
    exponents = [group // r for r in factor_integer(order)]
    start = 1 if (q - 1) // math.gcd(q - 1, group // order) % order == 0 else q
    if isinstance(field, PrimeField):  # q may pass int64: Python ints
        found = (u for u in range(start, q) if all(pow(u, e, q) != 1 for e in exponents))
        u = next(found, None)
        return None if u is None else FieldElement(field, (pow(u, group // order, q),))
    u = _canonical_search(field, range(start, field.order), exponents)
    if u is None:
        return None
    zeta = field.ring.pow(_index_rows(q, field.t, [u])[0], group // order)
    return FieldElement(field, tuple(zeta.tolist()))


def _check_order(order: int, is_one) -> None:
    """Raise InvariantViolation unless zeta has exact multiplicative order
    `order`, where is_one(e) says whether zeta^e = 1."""
    if not is_one(order):
        raise InvariantViolation("root of unity failed its order check")
    if any(is_one(order // r) for r in factor_integer(order)):
        raise InvariantViolation("root of unity is not primitive")


def _root_powers(field, order: int):
    """zeta^i for i < order, for the zeta of the root search: the one root
    of the factorization and of the closed form.  Python ints in F_q (q
    may pass int64), int64 rows in F_{q^t}.  The table runs one power past
    `order`, so zeta's exact order is read from it."""
    zeta = _root_search(field, order)
    if zeta is None:
        raise UsageError(f"no primitive {order}-th root of unity")
    if isinstance(field, PrimeField):
        q, z = field.q, zeta.coeffs[0]
        table = list(itertools.accumulate(range(order), lambda a, _: a * z % q, initial=1))
        _check_order(order, lambda e: table[e] == 1)
    else:
        ring = field.ring
        table = ring.powers(fp.as_vec(zeta.coeffs), order + 1)
        _check_order(order, lambda e: np.array_equal(table[e], ring.one()))
    return table[:order]
