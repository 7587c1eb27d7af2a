"""Dense univariate polynomials over a field, and the cyclic quotient ring
F[x]/(x^n - 1).

Coefficients are stored ascending (index = exponent) with the leading
coefficient nonzero; the zero polynomial is the empty tuple and its degree
is the distinguished NEG_INFINITY marker.  Prime-field instances route the
heavy arithmetic through the int kernels in `_fastpoly`.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _fastpoly as fp
from .errors import UsageError

NEG_INFINITY = float("-inf")


def _same_field(a, b) -> None:
    if a.field != b.field:
        raise UsageError(f"operands live in different fields: {a.field} vs {b.field}")


class Poly:
    """Immutable dense polynomial over a field handle from `fields`."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_ints(cls, field, ints) -> "Poly":
        return cls(field, [field.element(c) for c in ints])

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, (field.one(),))

    @classmethod
    def x(cls, field) -> "Poly":
        return cls(field, (field.zero(), field.one()))

    @classmethod
    def x_pow_minus_one(cls, field, n: int) -> "Poly":
        if n < 1:
            raise UsageError("exponent must be >= 1")
        ints = [0] * (n + 1)
        ints[0], ints[n] = -1, 1
        return cls.from_ints(field, ints)

    # -- structure -----------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if not self.coeffs:
            raise UsageError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def int_coeffs(self) -> tuple[int, ...]:
        if self.field.degree != 1:
            raise UsageError("int_coeffs requires a prime-field polynomial")
        return tuple(c.coeffs[0] for c in self.coeffs)

    def _vec(self) -> np.ndarray:
        return fp.as_vec(self.int_coeffs())

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _same_field(self, other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        _same_field(self, other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        if self.field.degree == 1:
            q = self.field.q
            prod = fp.poly_mul(self._vec(), other._vec(), q)
            return Poly.from_ints(self.field, prod.tolist())
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def scale(self, scalar) -> "Poly":
        return Poly(self.field, [c * scalar for c in self.coeffs])

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        _same_field(self, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.field.degree == 1:
            q = self.field.q
            quot, rem = fp.poly_divmod(self._vec(), other._vec(), q)
            return (
                Poly.from_ints(self.field, quot.tolist()),
                Poly.from_ints(self.field, rem.tolist()),
            )
        rem = list(self.coeffs)
        dd = len(other.coeffs) - 1
        if len(rem) - 1 < dd:
            return Poly.zero(self.field), self
        inv_lead = other.lead.inverse()
        quot = [self.field.zero()] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c.is_zero():
                continue
            f = c * inv_lead
            quot[i - dd] = f
            for j, b in enumerate(other.coeffs):
                rem[i - dd + j] = rem[i - dd + j] - f * b
        return Poly(self.field, quot), Poly(self.field, rem[:dd])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            raise UsageError("cannot normalize the zero polynomial")
        lead = self.lead
        if lead == self.field.one():
            return self
        return self.scale(lead.inverse())

    def gcd(self, other: "Poly") -> "Poly":
        _same_field(self, other)
        if self.is_zero() and other.is_zero():
            raise UsageError("gcd of two zero polynomials")
        if self.field.degree == 1:
            q = self.field.q
            a, b = self._vec(), other._vec()
            if a.size == 0:
                return other.monic()
            if b.size == 0:
                return self.monic()
            return Poly.from_ints(self.field, fp.poly_gcd(a, b, q).tolist())
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def __call__(self, point):
        if isinstance(point, int):
            point = self.field.element(point)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

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
        if self.is_zero():
            return "0"
        terms = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c.is_zero():
                continue
            cs = repr(c)
            if e == 0:
                terms.append(cs)
            else:
                xs = "x" if e == 1 else f"x^{e}"
                terms.append(xs if cs == "1" else f"{cs}*{xs}")
        return " + ".join(terms)


def extended_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (g, u, v) with u*a + v*b = g, g the monic gcd.

    Cofactors are the canonical minimal-degree ones: deg(u) < deg(b) - deg(g)
    whenever b does not divide a.
    """
    _same_field(a, b)
    if a.is_zero() and b.is_zero():
        raise UsageError("extended gcd of two zero polynomials")
    field = a.field
    if field.degree == 1:
        q = field.q
        g, u, v = fp.ints_xgcd(list(a.int_coeffs()), list(b.int_coeffs()), q)
        return (
            Poly.from_ints(field, g),
            Poly.from_ints(field, u),
            Poly.from_ints(field, v),
        )
    r0, r1 = a, b
    u0, u1 = Poly.one(field), Poly.zero(field)
    v0, v1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        quot, r2 = r0.divrem(r1)
        r0, r1 = r1, r2
        u0, u1 = u1, u0 - quot * u1
        v0, v1 = v1, v0 - quot * v1
    inv_lead = r0.lead.inverse()
    return r0.scale(inv_lead), u0.scale(inv_lead), v0.scale(inv_lead)


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
    zero = a.field.zero()
    out = [zero] * ((len(a.coeffs) - 1) * r + 1)
    for i, c in enumerate(a.coeffs):
        out[i * r] = c
    return Poly(a.field, out)


class CyclicRingElement:
    """Element of F[x]/(x^n - 1): exactly n coefficients, exponents wrap."""

    __slots__ = ("field", "n", "coeffs", "_arr")

    def __init__(self, field, n: int, coeffs):
        coeffs = tuple(coeffs)
        if n < 1 or len(coeffs) != n:
            raise UsageError(f"cyclic element needs exactly n={n} coefficients")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_arr", None)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicRingElement is immutable")

    @classmethod
    def from_ints(cls, field, ints) -> "CyclicRingElement":
        return cls(field, len(ints), [field.element(c) for c in ints])

    @classmethod
    def identity(cls, field, n: int) -> "CyclicRingElement":
        return cls.from_ints(field, [1] + [0] * (n - 1))

    @classmethod
    def from_poly(cls, poly: Poly, n: int) -> "CyclicRingElement":
        """Reduce a polynomial modulo x^n - 1 (exponents wrap mod n)."""
        out = [poly.field.zero()] * n
        for e, c in enumerate(poly.coeffs):
            idx = e % n
            out[idx] = out[idx] + c
        return cls(poly.field, n, out)

    def to_poly(self) -> Poly:
        return Poly(self.field, self.coeffs)

    def int_coeffs(self) -> tuple[int, ...]:
        if self.field.degree != 1:
            raise UsageError("int_coeffs requires a prime-field element")
        return tuple(c.coeffs[0] for c in self.coeffs)

    def key(self):
        """Hashable identity of the underlying ring element."""
        return (self.n, tuple(c.coeffs for c in self.coeffs))

    def _int_arr(self) -> np.ndarray:
        if self._arr is None:
            object.__setattr__(self, "_arr", fp.as_vec(self.int_coeffs()))
        return self._arr

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

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
        n = self.n
        if self.field.degree == 1:
            q = self.field.q
            fp.check_int64_exact(n, q)  # each folded coefficient sums n products
            full = np.convolve(self._int_arr(), other._int_arr())
            folded = full[:n].copy()
            if full.size > n:
                folded[: full.size - n] += full[n:]
            return CyclicRingElement.from_ints(self.field, (folded % q).tolist())
        zero = self.field.zero()
        out = [zero] * n
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                idx = (i + j) % n
                out[idx] = out[idx] + a * b
        return CyclicRingElement(self.field, n, out)

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


def cyclic_mul(a: CyclicRingElement, b: CyclicRingElement) -> CyclicRingElement:
    """Cyclic convolution; exponents wrap modulo n."""
    return a * b


def coefficient_map(obj, fn, field=None):
    """Apply a field map coefficient-wise to a Poly or CyclicRingElement.

    The output field is taken from the mapped coefficients unless given
    explicitly (needed for empty polynomials).
    """
    mapped = [fn(c) for c in obj.coeffs]
    if field is None:
        field = mapped[0].field if mapped else obj.field
    if isinstance(obj, CyclicRingElement):
        return CyclicRingElement(field, obj.n, mapped)
    return Poly(field, mapped)
