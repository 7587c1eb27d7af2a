"""Number-theoretic structure of a problem instance: orders, the (t, m)
parameters, q-cyclotomic cosets mod p^k, and the full irreducible
factorization of x^(p^k) - 1 over F_q from minimal polynomials of roots of
unity in F_{q^t}, inflated for the levels above m.  The roots of unity, and
so the order of the factors, are chosen by `fields`."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _fastpoly as fp
from .errors import InvariantViolation, UsageError
from .fields import (
    DEFAULT_ORDER_BUDGET_BITS,
    _root_powers,
    get_extension_field,
    get_prime_field,
    is_prime,
)
from .polys import Poly, inflate

DEFAULT_MAX_N = 10_000


def multiplicative_order(q: int, d: int) -> int:
    """Least s >= 1 with q^s = 1 mod d; ord(1) is 1 by convention."""
    if d < 1:
        raise UsageError("modulus must be positive")
    if d == 1:
        return 1
    if math.gcd(q, d) != 1:
        raise UsageError(f"gcd({q}, {d}) != 1; order undefined")
    s, acc = 1, q % d
    while acc != 1:
        acc = (acc * q) % d
        s += 1
    return s


def p_adic_valuation(value: int, p: int) -> int:
    """Largest e with p^e dividing the positive integer value."""
    e = 0
    while value % p == 0:
        value //= p
        e += 1
    return e


def euler_phi_prime_power(p: int, j: int) -> int:
    return p**j - p ** (j - 1) if j >= 1 else 1


@dataclass(frozen=True)
class ProblemInstance:
    """The triple (q, p, k) plus derived invariants for F_q[x]/(x^(p^k)-1)."""

    q: int
    p: int
    k: int
    n: int
    t: int  # ord_p q, defined as 1 when k == 0
    m: int  # largest integer with p^m | q^t - 1

    @property
    def effective_m(self) -> int:
        """m clamped to k: the root-of-unity order usable inside the ring."""
        return min(self.m, self.k)

    @property
    def root_field(self) -> tuple[int, int]:
        """(T, M): the factorization takes its roots of unity in F_{q^T},
        which holds a primitive p^M-th root, p^M || q^T - 1.  This is (t, m),
        except for p = 2 with q = 3 (mod 4) and k >= 2: the factors of
        x^(2^s) - 1 above level M are those of level M inflated, which needs
        q^T = 1 (mod 4), so (T, M) = (2, v_2(q^2 - 1)) there
        (Lidl-Niederreiter, Thm 3.35)."""
        if self.p == 2 and self.q % 4 == 3 and self.k >= 2:
            return 2, p_adic_valuation(self.q * self.q - 1, 2)
        return self.t, self.m

    def describe(self) -> str:
        return f"q={self.q} p={self.p} k={self.k} n={self.n} t={self.t} m={self.m}"


def instance_parameters(q: int, p: int, k: int, *, max_n: int = DEFAULT_MAX_N) -> ProblemInstance:
    """Validate (q, p, k) and compute t = ord_p q and m with p^m || q^t - 1."""
    if not is_prime(q):
        raise UsageError(f"q={q} is not prime")
    if not is_prime(p):
        raise UsageError(f"p={p} is not prime")
    if q == p:
        raise UsageError("q and p must be distinct primes")
    if k < 0:
        raise UsageError("k must be >= 0")
    n = 1
    for _ in range(k):  # stop once past the cap: p^k itself may be huge
        if n > max_n:
            break
        n *= p
    if n > max_n:
        raise UsageError(f"n = {p}^{k} exceeds the cap {max_n}")
    t = 1 if k == 0 else multiplicative_order(q, p)
    bits = (q**t - 1).bit_length()
    if t > 1 and bits > DEFAULT_ORDER_BUDGET_BITS:
        raise UsageError(f"q^t - 1 needs {bits} bits; budget is {DEFAULT_ORDER_BUDGET_BITS}")
    return ProblemInstance(q=q, p=p, k=k, n=n, t=t, m=p_adic_valuation(q**t - 1, p))


@dataclass(frozen=True)
class Coset:
    rep: int
    elements: tuple[int, ...]
    divisor: int  # d = n / gcd(n, rep); the coset indexes a factor of Phi_d

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class CosetPartition:
    n: int
    q: int
    cosets: tuple[Coset, ...]

    def census(self) -> dict[int, tuple[int, int]]:
        """Per divisor d: (number of cosets r_d, common coset size s_d)."""
        out: dict[int, tuple[int, int]] = {}
        for c in self.cosets:
            count, size = out.get(c.divisor, (0, c.size))
            if size != c.size:
                raise InvariantViolation("unequal coset sizes within one divisor")
            out[c.divisor] = (count + 1, c.size)
        return dict(sorted(out.items()))


@functools.lru_cache(maxsize=None)
def cyclotomic_cosets(q: int, n: int) -> CosetPartition:
    """Orbits of multiplication by q on Z_n, ordered by (divisor, min rep)."""
    if math.gcd(q, n) != 1:
        raise UsageError(f"gcd({q}, {n}) != 1")
    seen = bytearray(n)
    cosets = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = []
        cur = start
        while not seen[cur]:
            seen[cur] = 1
            orbit.append(cur)
            cur = (cur * q) % n
        rep = min(orbit)
        divisor = n // math.gcd(n, rep)
        cosets.append(Coset(rep=rep, elements=tuple(sorted(orbit)), divisor=divisor))
    cosets.sort(key=lambda c: (c.divisor, c.rep))
    return CosetPartition(n=n, q=q, cosets=tuple(cosets))


def expected_idempotent_count(instance: ProblemInstance) -> int:
    """Number of primitive idempotents = number of q-cyclotomic cosets mod n,
    cross-checked against a closed count in (T, M) = `root_field` and
    m' = min(M, k): 1 + (p^m'-1)/t + (k-m')*phi(p^m')/t when T = t, and
    1 + 2^(m'-1) + (k-m')*2^(M-2) for p = 2 with q = 3 (mod 4), where the
    levels s = 2..M hold cosets of size 2 and each level above M holds
    2^(M-2) cosets."""
    count = len(cyclotomic_cosets(instance.q, instance.n).cosets)
    t, p, k = instance.t, instance.p, instance.k
    big_t, big_m = instance.root_field
    m_eff = min(big_m, k)
    if big_t == t:
        closed = 1 + (p**m_eff - 1) // t + (k - m_eff) * euler_phi_prime_power(p, m_eff) // t
    else:
        closed = 1 + 2 ** (m_eff - 1) + (k - m_eff) * 2 ** (big_m - 2)
    if closed != count:
        raise InvariantViolation(
            f"closed-form count {closed} disagrees with coset count {count} on {instance.describe()}"
        )
    return count


@functools.lru_cache(maxsize=None)
def _factor_cached(instance: ProblemInstance):
    q, p, k, n = instance.q, instance.p, instance.k, instance.n
    base = get_prime_field(q)
    if n == 1:
        return ((1, Poly.from_ints(base, [-1, 1])),)
    # F_{q^T} holds a primitive p^M-th root of unity zeta, and the factors
    # of Phi_{p^s} for s > M are those of Phi_{p^M} with x -> x^(p^(s-M)).
    # zeta, from `fields`, fixes which factor each coset receives.
    big_t, big_m = instance.root_field
    m_eff = min(big_m, k)
    pm = p**m_eff
    field = get_extension_field(q, big_t)
    ring = field.ring
    zeta_powers = _root_powers(field, pm)
    # The minimal polynomial of zeta^j over F_q is the product of (x - zeta^i)
    # over the orbit of j under multiplication by q mod p^m'.  Orbits of one
    # size are multiplied out together: prods[o] holds the coefficients (each
    # in F_{q^T}) of the partial product for orbit o.
    minpolys: dict[int, Poly] = {}  # every exponent mod p^m' -> its minimal polynomial
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for orbit in cyclotomic_cosets(q, pm).cosets:
        by_size.setdefault(orbit.size, []).append(orbit.elements)
    for size, orbits in by_size.items():
        roots = zeta_powers[np.array(orbits)]
        prods = np.zeros((len(orbits), size + 1, big_t), dtype=np.int64)
        prods[:, 0, 0] = 1
        for i in range(size):  # x*prod - root*prod; roll wraps the top coefficient, still 0
            prods = (np.roll(prods, 1, axis=1) - prods @ ring.matrix(roots[:, i])) % q
        if prods[:, :, 1:].any():
            raise InvariantViolation("minimal polynomial left the base field")
        for orbit, coeffs in zip(orbits, prods[:, :, 0].tolist()):
            minpolys.update(dict.fromkeys(orbit, Poly.from_ints(base, coeffs)))

    factors = []
    for coset in cyclotomic_cosets(q, n).cosets:
        s = p_adic_valuation(coset.divisor, p)
        if s <= m_eff:
            f = minpolys[coset.rep // p ** (k - m_eff)]
        else:
            f = inflate(minpolys[coset.rep // p ** (k - s) % pm], p ** (s - m_eff))
        if f.degree != coset.size or f.lead != 1:
            raise InvariantViolation(
                f"factor for coset {coset.rep} is not monic of degree {coset.size}"
            )
        factors.append((coset.divisor, f))
    product = np.array([1], dtype=np.int64)
    for _, f in factors:
        product = fp.poly_mul(product, f._vec(), q)
    target = np.zeros(n + 1, dtype=np.int64)
    target[0], target[n] = q - 1, 1
    if not np.array_equal(product, target):
        raise InvariantViolation("factor product does not reconstruct x^n - 1")
    return tuple(factors)


def factor_xn_minus_1(instance: ProblemInstance) -> tuple[tuple[int, Poly], ...]:
    """Irreducible factorization of x^n - 1 over F_q, one monic factor per
    q-cyclotomic coset (same order as `cyclotomic_cosets`).  Each factor is
    the minimal polynomial of a root of unity of order p^s <= p^M computed
    in F_{q^T}, (T, M) = `instance.root_field`, inflated by
    x -> x^(p^(s-M)) above level M.  Monic factors
    of the coset degrees whose product is the squarefree x^n - 1 are
    necessarily its irreducible factors, so the product check certifies
    irreducibility."""
    return _factor_cached(instance)
