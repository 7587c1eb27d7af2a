"""Exact arithmetic in the prime field F_q and one extension F_{q^t}.

Elements carry their coefficient sequence over the prime field (length =
extension degree, every entry reduced mod q) plus a handle to their parent
field.  All values are immutable; every operation is a pure function, so
elements are safe to share across threads.

Determinism: `find_irreducible` scans monic candidates in ascending order of
the integer value sum(c_i * q^i) of their non-leading coefficients, and
`primitive_element` walks field elements in the same integer order: from 1
in F_q, and in F_{q^t} (t > 1) from index q, past the constants, whose
orders divide q - 1.  So every derived object is reproducible byte for byte.

Every root of unity the library uses is chosen here, by one of two rules:
g^((|F|-1)/order) for the (skip+1)-th generator g (`root_of_unity`, and
`_root_powers` for the closed forms and for the factorization when p^k does
not divide |F| - 1), or u^((|F|-1)/n) for the first u whose power has exact
order n (`_nth_root_of_unity`, the factorization's rule when p^k does).  In F_{q^t} the walks test candidates in blocks of 1,
2, 4, ... int64 rows by one stacked `ReducedRing.pow` each, and return the
first candidate that passes in index order: the element a one-at-a-time
walk finds.  Each field and skip is searched once, F_{q^1} sharing the
search of F_q, and `get_extension_field` builds each (q, t, skip) once.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import _fastpoly as fp
from .errors import BudgetExceededError, InvariantViolation, UsageError
from .polys import Poly, extended_gcd

#: Default bit-size guard on q^t - 1 for operations that must factor it.
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
    """An element of F_q or F_{q^t} as a tuple of residues in [0, q)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_int(self) -> int:
        """The value as a base-field integer; requires a constant element."""
        if any(self.coeffs[1:]):
            raise UsageError("element does not lie in the base field")
        return self.coeffs[0]

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, int):
            return self.field.element(other)
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise UsageError(f"field mismatch: {self.field} vs {other.field}")
            return other
        raise UsageError(f"cannot operate on {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        q = self.field.q
        return FieldElement(self.field, tuple((a + b) % q for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        q = self.field.q
        return FieldElement(self.field, tuple((a - b) % q for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        q = self.field.q
        return FieldElement(self.field, tuple((-a) % q for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return FieldElement(self.field, self.field._inv(self.coeffs))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElement(self.field, self.field._pow(self.coeffs, e))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            try:
                other = self.field.element(other)
            except UsageError:
                return NotImplemented
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if len(self.coeffs) == 1:
            return str(self.coeffs[0])
        terms = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                terms.append(str(c))
            else:
                ys = "y" if e == 1 else f"y^{e}"
                terms.append(ys if c == 1 else f"{c}*{ys}")
        return " + ".join(terms) if terms else "0"


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

    def element(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field != self:
                raise UsageError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, (value % self.q,))
        seq = tuple(value)
        if len(seq) != 1:
            raise UsageError("prime-field elements have a single coefficient")
        return FieldElement(self, (seq[0] % self.q,))

    def zero(self) -> FieldElement:
        return FieldElement(self, (0,))

    def one(self) -> FieldElement:
        return FieldElement(self, (1 % self.q,))

    def _mul(self, a, b):
        return ((a[0] * b[0]) % self.q,)

    def _inv(self, a):
        return (pow(a[0], -1, self.q),)

    def _pow(self, a, e):
        return (pow(a[0], e, self.q),)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"F_{self.q}"


class ExtensionField:
    """F_{q^t} presented as F_q[y] modulo a monic irreducible of degree t.

    The modulus is verified irreducible at construction; `_certified` builds
    the field on a modulus its caller has just proved irreducible, and skips
    that test.  `ring` is the `_fastpoly.ReducedRing` of the modulus: power
    tables and multiplication matrices on int64 rows, for callers that work
    on many elements at once.
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

    def element(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field == self:
                return value
            if value.field == self.base:
                return self.embed(value)
            raise UsageError("element belongs to a different field")
        if isinstance(value, int):
            return self.embed(value)
        seq = [c % self.q for c in value]
        if len(seq) > self.t:
            raise UsageError(f"coefficient sequence longer than degree {self.t}")
        seq.extend([0] * (self.t - len(seq)))
        return FieldElement(self, tuple(seq))

    def embed(self, value) -> FieldElement:
        """Embed a base-field value as a constant."""
        c = value.coeffs[0] if isinstance(value, FieldElement) else value % self.q
        return FieldElement(self, (c,) + (0,) * (self.t - 1))

    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.t)

    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.t - 1))

    def gen(self) -> FieldElement:
        """The residue class of y."""
        return FieldElement(self, tuple(int(v) for v in self.ring.x()))

    def _mul(self, a, b):
        return tuple(int(v) for v in self.ring.mul(fp.as_vec(a), fp.as_vec(b)))

    def _inv(self, a):
        g, u, _ = extended_gcd(Poly(self.base, a), self.modulus)
        if g.degree != 0:
            raise InvariantViolation("modulus shares a factor with a nonzero element")
        return u.coeffs + (0,) * (self.t - len(u.coeffs))  # g = 1, so u = 1/a

    def _pow(self, a, e):
        return tuple(int(v) for v in self.ring.pow(fp.as_vec(a), e))

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
def find_irreducible(q: int, t: int, skip: int = 0) -> Poly:
    """The (skip+1)-th smallest monic irreducible of degree t over F_q,
    candidates ordered by integer value of the coefficient sequence read
    from the constant term up.  Deterministic across runs."""
    if t < 1:
        raise UsageError("extension degree must be >= 1")
    field = get_prime_field(q)
    return Poly.from_ints(field, fp.lex_irreducible(q, t, skip))


def get_extension_field(q: int, t: int, skip: int = 0) -> ExtensionField:
    """F_{q^t} modulo find_irreducible(q, t, skip), built once per (q, t, skip)."""
    return _extension_field(q, t, skip)


@functools.lru_cache(maxsize=None)
def _extension_field(q: int, t: int, skip: int) -> ExtensionField:
    # one cache entry however the caller spells skip (lru_cache keys on the
    # call's form, so f(a) and f(a, 0) would be two entries)
    return ExtensionField._certified(get_prime_field(q), find_irreducible(q, t, skip))


def element_by_index(field, index: int) -> FieldElement:
    """The index-th field element in the canonical enumeration: digits of
    index base q, constant term first."""
    q = field.q
    digits = []
    for _ in range(field.degree):
        digits.append(index % q)
        index //= q
    if index:
        raise UsageError("element index out of range")
    if field.degree == 1:
        return field.element(digits[0])
    return field.element(digits)


def _index_rows(q: int, t: int, index) -> np.ndarray:
    """Coefficient rows of the elements with the given indices in the
    canonical enumeration (`element_by_index`)."""
    index = np.asarray(index, dtype=np.int64)
    rows = np.zeros((index.size, t), dtype=np.int64)
    j, top = 0, int(index.max(initial=0))
    while top:  # as many digits as the largest index has
        index, rows[:, j] = np.divmod(index, q)
        j, top = j + 1, top // q
    return rows


def _canonical_search(field, candidates, exponents: list[int], skip: int = 0):
    """(index, powers) for the (skip+1)-th of the `candidates` (indices in
    canonical order) none of whose powers to `exponents` is one; `powers`
    has one row per exponent.  None when the candidates run out.

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
        if skip < passing.size:
            return int(block[passing[skip]]), powers[:, passing[skip]]
        skip -= passing.size
        if not passing.size:
            size = min(2 * size, most)
    return None


def primitive_element(field, skip: int = 0) -> FieldElement:
    """First element (in canonical enumeration order) of multiplicative
    order q^t - 1; `skip` asks for a later one.  Requires factoring
    q^t - 1, guarded by DEFAULT_ORDER_BUDGET_BITS.  For t > 1 the walk
    starts at index q: the constants before it have orders dividing q - 1.
    Each (field, skip) is searched once, and a degree-1 extension reuses
    the search of F_q, whose elements and order it shares."""
    if isinstance(field, ExtensionField) and field.degree == 1:
        return field.embed(_primitive_element(field.base, skip))
    return _primitive_element(field, skip)


@functools.lru_cache(maxsize=None)
def _primitive_element(field, skip: int) -> FieldElement:
    n = field.order - 1
    if n.bit_length() > DEFAULT_ORDER_BUDGET_BITS:
        raise BudgetExceededError(
            f"group order needs {n.bit_length()} bits; budget is {DEFAULT_ORDER_BUDGET_BITS}",
            required=n.bit_length(),
        )
    # g is primitive iff g^(n/r) != 1 for every prime r dividing n
    exponents = [n // r for r in factor_integer(n)] if n > 1 else []
    if isinstance(field, PrimeField):  # q may pass int64: Python ints
        q = field.q
        found = (g for g in range(1, q) if all(pow(g, e, q) != 1 for e in exponents))
        g = next(itertools.islice(found, skip, None), None)
        if g is not None:
            return field.element(g)
    else:
        hit = _canonical_search(field, range(field.q, field.order), exponents, skip)
        if hit is not None:
            return element_by_index(field, hit[0])
    raise UsageError("no primitive element found for requested skip")


def _check_order(order: int, is_one) -> None:
    """Raise InvariantViolation unless zeta has exact multiplicative order
    `order`, where is_one(e) says whether zeta^e = 1."""
    if not is_one(order):
        raise InvariantViolation("root of unity failed its order check")
    if any(is_one(order // r) for r in factor_integer(order)):
        raise InvariantViolation("root of unity is not primitive")


def root_of_unity(field, order: int) -> FieldElement:
    """zeta = g^((q^t-1)/order) for the canonical generator g; verified to
    have exact multiplicative order `order`."""
    n = field.order - 1
    if order < 1:
        raise UsageError("root order must be positive")
    if order == 1:
        return field.one()
    if n % order:
        raise UsageError(f"{order} does not divide the group order {n}")
    zeta, one = primitive_element(field) ** (n // order), field.one()
    _check_order(order, lambda e: zeta**e == one)
    return zeta


def _root_powers(field, order: int, skip: int = 0):
    """zeta^i for i < order, where zeta = g^((|F| - 1)/order) for the
    (skip+1)-th generator g: the rule of `root_of_unity`, which is zeta at
    skip 0, and of the closed forms' `generator_skip`.  Python ints in F_q
    (q may pass int64), int64 rows in F_{q^t}.  The table runs one power
    past `order`, so zeta's exact order is read from it (an order that does
    not divide |F| - 1 fails there too)."""
    exponent = (field.order - 1) // order
    g = primitive_element(field, skip).coeffs
    if isinstance(field, PrimeField):
        q = field.q
        zeta = pow(g[0], exponent, q)
        table = list(itertools.accumulate(range(order), lambda a, _: a * zeta % q, initial=1))
        _check_order(order, lambda e: table[e] == 1)
    else:
        ring = field.ring
        table = ring.powers(ring.pow(fp.as_vec(g), exponent), order + 1)
        _check_order(order, lambda e: np.array_equal(table[e], ring.one()))
    return table[:order]


def _nth_root_of_unity(field, n: int, p: int) -> FieldElement:
    """Deterministic primitive n-th root of unity, n = p^k: u^((|F| - 1)/n)
    for the first enumerated element u for which it has exact order n.
    The factorization's rule while n divides |F| - 1; it needs no
    generator, so |F| - 1 is never factored."""
    if n == 1:
        return field.one()
    group = field.order - 1
    if group % n:
        raise InvariantViolation("field does not contain the requested roots")
    # a constant has order dividing q - 1, so it can serve only if n | q - 1
    start = 2 if (field.q - 1) % n == 0 else field.q
    # zeta = u^(group/n) has order n iff zeta != 1 and zeta^(n/p) = u^(group/p) != 1
    stop = min(field.order, start + (1 << 20))
    hit = _canonical_search(field, range(start, stop), [group // n, group // p])
    if hit is None:
        raise InvariantViolation("no primitive root of unity found")
    return FieldElement(field, tuple(hit[1][0].tolist()))


def frobenius(a: FieldElement) -> FieldElement:
    """a -> a^q; applying it `degree` times is the identity."""
    return a**a.field.q


def trace_sigma1(a: FieldElement) -> FieldElement:
    """Sum of all Galois conjugates a + a^q + ... + a^(q^(t-1)), returned
    as an element of the prime field."""
    field = a.field
    t = field.degree
    acc = a
    cur = a
    for _ in range(t - 1):
        cur = frobenius(cur)
        acc = acc + cur
    if any(acc.coeffs[1:]):
        raise InvariantViolation("trace left the base field")
    base = field.base if isinstance(field, ExtensionField) else field
    return base.element(acc.coeffs[0])
