"""Dense univariate polynomials over a prime field F_q, and the cyclic
quotient ring F_q[x]/(x^n - 1).

Coefficients are Python ints in [0, q), stored ascending (index = exponent)
with the leading coefficient nonzero; the zero polynomial is the empty tuple
and its degree is the distinguished NEG_INFINITY marker.  Products,
divisions and gcds run through the numpy kernels in `_fastpoly`.  Extension
fields are rejected: `fields` does its own arithmetic in F_{q^t}.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _fastpoly as fp
from .errors import UsageError

NEG_INFINITY = float("-inf")


def render_poly(coeffs, var: str = "x") -> str:
    """Descending-power text of ascending coefficients, zero terms left out:
    `Poly`, `FieldElement` (in y) and the CLI's text output all use it."""
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            power = var if e == 1 else f"{var}^{e}"
            terms.append(power if c == 1 else f"{c}*{power}")
    return " + ".join(terms) if terms else "0"


def _prime_modulus(field) -> int:
    if field.degree != 1:
        raise UsageError(f"polynomials need a prime field, not {field!r}")
    return field.q


def _same_field(a, b) -> None:
    if a.field != b.field:
        raise UsageError(f"operands live in different fields: {a.field} vs {b.field}")


class Poly:
    """Immutable dense polynomial over a prime field from `fields`."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        q = _prime_modulus(field)
        coeffs = [c % q for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_ints(cls, field, ints) -> "Poly":
        return cls(field, ints)

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def x_pow_minus_one(cls, field, n: int) -> "Poly":
        if n < 1:
            raise UsageError("exponent must be >= 1")
        ints = [0] * (n + 1)
        ints[0], ints[n] = -1, 1
        return cls(field, ints)

    # -- structure -----------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise UsageError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def int_coeffs(self) -> tuple[int, ...]:
        return self.coeffs

    def _vec(self) -> np.ndarray:
        return fp.as_vec(self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _same_field(self, other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(self.field, out)

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        _same_field(self, other)
        prod = fp.poly_mul(self._vec(), other._vec(), self.field.q)
        return Poly(self.field, prod.tolist())

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        _same_field(self, other)
        quot, rem = fp.poly_divmod(self._vec(), other._vec(), self.field.q)
        return Poly(self.field, quot.tolist()), Poly(self.field, rem.tolist())

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[1]

    def monic(self) -> "Poly":
        inv_lead = pow(self.lead, -1, self.field.q)
        if inv_lead == 1:
            return self
        return Poly(self.field, [c * inv_lead for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        _same_field(self, other)
        return Poly(self.field, fp.poly_gcd(self._vec(), other._vec(), self.field.q).tolist())

    # -- identity --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return render_poly(self.coeffs)


def extended_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (g, u, v) with u*a + v*b = g, g the monic gcd.

    Cofactors are the canonical minimal-degree ones: deg(u) < deg(b) - deg(g)
    whenever b does not divide a.
    """
    _same_field(a, b)
    field = a.field
    if a.is_zero() and b.is_zero():
        raise UsageError("extended gcd of two zero polynomials")
    r0, r1 = a, b
    u0, u1 = Poly.one(field), Poly.zero(field)
    v0, v1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        quot, rem = r0.divrem(r1)
        r0, r1 = r1, rem
        u0, u1 = u1, u0 - quot * u1
        v0, v1 = v1, v0 - quot * v1
    scale = Poly(field, (pow(r0.lead, -1, field.q),))
    return r0 * scale, u0 * scale, v0 * scale


@functools.lru_cache(maxsize=None)
def _cyclotomic_cached(d: int, field) -> Poly:
    xd_minus_1 = Poly.x_pow_minus_one(field, d)
    if d == 1:
        return xd_minus_1
    quot = xd_minus_1
    for e in range(1, d):
        if d % e == 0:
            quot, rem = quot.divrem(_cyclotomic_cached(e, field))
            if not rem.is_zero():
                raise UsageError("cyclotomic recursion produced a nonzero remainder")
    return quot


def cyclotomic_poly(d: int, field) -> Poly:
    """d-th cyclotomic polynomial reduced into the field, via the recursive
    quotient (x^d - 1) / prod of lower cyclotomics."""
    if d < 1:
        raise UsageError("cyclotomic index must be positive")
    if d % field.q == 0:
        raise UsageError(f"field characteristic {field.q} divides {d}")
    return _cyclotomic_cached(d, field)


def inflate(a: Poly, r: int) -> Poly:
    """Substitute x^r for x."""
    if r < 1:
        raise UsageError("inflation factor must be positive")
    if a.is_zero() or r == 1:
        return a
    out = [0] * ((len(a.coeffs) - 1) * r + 1)
    out[::r] = a.coeffs
    return Poly(a.field, out)


class CyclicRingElement:
    """Element of F_q[x]/(x^n - 1): exactly n int coefficients in [0, q),
    exponents wrap."""

    __slots__ = ("field", "n", "coeffs")

    def __init__(self, field, n: int, coeffs):
        q = _prime_modulus(field)
        coeffs = tuple([c % q for c in coeffs])
        if n < 1 or len(coeffs) != n:
            raise UsageError(f"cyclic element needs exactly n={n} coefficients")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicRingElement is immutable")

    @classmethod
    def from_ints(cls, field, ints) -> "CyclicRingElement":
        return cls(field, len(ints), ints)

    @classmethod
    def _reduced(cls, field, coeffs: tuple[int, ...]) -> "CyclicRingElement":
        """From a nonempty tuple of ints already in [0, q): the constructor
        without its reduction, for rows that `engine` and `cli` hold reduced."""
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", len(coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def identity(cls, field, n: int) -> "CyclicRingElement":
        return cls.from_ints(field, [1] + [0] * (n - 1))

    @classmethod
    def from_poly(cls, poly: Poly, n: int) -> "CyclicRingElement":
        """Reduce a polynomial modulo x^n - 1 (exponents wrap mod n)."""
        out = [0] * n
        for e, c in enumerate(poly.coeffs):
            out[e % n] += c
        return cls(poly.field, n, out)

    def to_poly(self) -> Poly:
        return Poly(self.field, self.coeffs)

    def int_coeffs(self) -> tuple[int, ...]:
        return self.coeffs

    def key(self):
        """Hashable identity of the underlying ring element."""
        return (self.n, self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "CyclicRingElement") -> "CyclicRingElement":
        self._check(other)
        return CyclicRingElement(
            self.field, self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "CyclicRingElement") -> "CyclicRingElement":
        self._check(other)
        return CyclicRingElement(
            self.field, self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "CyclicRingElement":
        return CyclicRingElement(self.field, self.n, [-c for c in self.coeffs])

    def __mul__(self, other: "CyclicRingElement") -> "CyclicRingElement":
        self._check(other)
        rows = fp.as_vec([self.coeffs, other.coeffs])
        prod = fp.conv_rows(rows[:1], rows[1:], self.field.q, self.n)
        return CyclicRingElement(self.field, self.n, prod[0].tolist())

    def _check(self, other) -> None:
        if not isinstance(other, CyclicRingElement):
            raise UsageError("expected a cyclic ring element")
        _same_field(self, other)
        if self.n != other.n:
            raise UsageError(f"ring length mismatch: {self.n} vs {other.n}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CyclicRingElement)
            and self.field == other.field
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.n, self.coeffs))

    def __repr__(self) -> str:
        return f"{self.to_poly()!r} (mod x^{self.n}-1)"
