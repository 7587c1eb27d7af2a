"""Number-theoretic structure of a problem instance: orders, the (t, m)
parameters, q-cyclotomic cosets mod p^k, the traces of the powers of a
root of unity zeta (`_sigma_table`, the one reader of zeta), and the full
irreducible factorization of x^(p^k) - 1 over F_q from minimal polynomials
read off them, inflated for the levels above m, and built and certified one
level at a time.  Each level also holds the one plan of which g and stride
s each factor f = g(x^s) has, which the Euclid oracle and the verifier
both read (`inflation_plan`).  The roots of unity, and so the order of the
factors, are chosen by `fields`."""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

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
    def root_field(self) -> tuple[int, int]:
        """(T, m'): the closed form and the factorization both take the
        primitive p^m'-th root of unity of F_{q^T}, with m' = min(M, k) and
        p^M || q^T - 1.  This is (t, min(m, k)), except for p = 2 with
        q = 3 (mod 4) and k >= 3, where (T, M) = (2, v_2(q^2 - 1)): the
        factors above level M are those of level M inflated by x -> x^r,
        which keeps them irreducible unless 4 | r and q^T != 1 (mod 4)
        (Lidl-Niederreiter, Thm 3.35).  At k = 2 the one inflation is
        x + 1 -> x^2 + 1, by r = 2, so F_q serves."""
        if self.p == 2 and self.q % 4 == 3 and self.k >= 3:
            return 2, min(p_adic_valuation(self.q * self.q - 1, 2), self.k)
        return self.t, min(self.m, self.k)

    def describe(self) -> str:
        return f"q={self.q} p={self.p} k={self.k} n={self.n} t={self.t} m={self.m}"


def _one_unit_orbit(pm: int, t: int) -> bool:
    """Whether m' = 1 and q generates (Z/p)^*, for pm = p^m' (m' >= 1) and
    t = ord_p q: t divides p - 1 and pm >= p, so that is exactly
    pm = t + 1 (p = 2 with t = 1 among them; the T = 2 of `root_field` comes
    with pm >= 8 and never passes).  Then q has one orbit on the units mod
    p, and nothing depends on the root of unity zeta: the minimal
    polynomials are x - 1 and Phi_p, and the trace of zeta^i to F_q is t
    at i = 0 and -1 otherwise (the case of Arora-Pruthi, Finite Fields
    Appl. 3, 1997)."""
    return pm == t + 1


def instance_parameters(q: int, p: int, k: int, *, max_n: int = DEFAULT_MAX_N) -> ProblemInstance:
    """Validate (q, p, k) and compute t = ord_p q and m with p^m || q^t - 1.
    For t > 1, q^t - 1 must fit DEFAULT_ORDER_BUDGET_BITS, which bounds the
    one extension F_{q^t} the pipeline builds; one unit orbit
    (`_one_unit_orbit`, t = p - 1 and m' = 1) builds none, so it is exempt,
    and the int64 rule of its tables still bounds q there."""
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
    order = q**t - 1
    instance = ProblemInstance(q=q, p=p, k=k, n=n, t=t, m=p_adic_valuation(order, p))
    bits = order.bit_length()
    if t > 1 and bits > DEFAULT_ORDER_BUDGET_BITS and not _one_unit_orbit(p ** instance.root_field[1], t):
        raise UsageError(f"q^t - 1 needs {bits} bits; budget is {DEFAULT_ORDER_BUDGET_BITS}")
    return instance


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
    cross-checked against a closed count in (T, m') = `root_field`:
    1 + (p^m'-1)/T + (k-m')*phi(p^m')/T when T = t, and
    1 + 2^(m'-1) + (k-m')*phi(2^m')/T in the p = 2 root field (T = 2),
    where the levels s = 2..m' hold cosets of size 2 and level 1 one of
    size 1.  Each level above m' holds phi(p^m')/T cosets."""
    count = len(cyclotomic_cosets(instance.q, instance.n).cosets)
    t, p, k = instance.t, instance.p, instance.k
    big_t, m_eff = instance.root_field
    second = (p**m_eff - 1) // big_t if big_t == t else 2 ** (m_eff - 1)
    closed = 1 + second + (k - m_eff) * euler_phi_prime_power(p, m_eff) // big_t
    if closed != count:
        raise InvariantViolation(
            f"closed-form count {closed} disagrees with coset count {count} on {instance.describe()}"
        )
    return count


@functools.lru_cache(maxsize=None)
def _sigma_table(q: int, t: int, pm: int) -> tuple[int, ...]:
    """table[i] = trace of zeta^i from F_{q^t} down to F_q, for the primitive
    pm-th root of unity zeta from `fields._root_powers`, which nothing else
    in the pipeline reads: the closed form's rows and `_minimal_polynomials`
    come from this table.  Built once per process for each (q, t, pm).

    At pm = 1 (k = 0) it is (1,).  At t = 1 it is zeta^i itself, in Python
    ints (q may pass int64).  With one unit orbit (`_one_unit_orbit`:
    t = p - 1, m' = 1) the trace of zeta^i sums all p - 1 primitive p-th
    roots, -1, for every i != 0, and is t at i = 0, whatever zeta is: no
    F_{q^t} is built, but its int64 rule holds.  Otherwise it is the sum
    over u < t of zeta^(i*q^u), read from the power table of zeta."""
    if pm == 1:
        return (1,)
    if t == 1:
        return tuple(_root_powers(get_prime_field(q), pm))
    if _one_unit_orbit(pm, t):
        fp.check_int64_exact(t, q)
        return (t % q,) + (q - 1,) * t
    powers = _root_powers(get_extension_field(q, t), pm)
    index = np.arange(pm)
    traces = np.zeros_like(powers)
    for u in range(t):  # one exponent at a time keeps memory at pm*t entries
        traces += powers[index * pow(q, u, pm) % pm]
    traces %= q
    if traces[:, 1:].any():
        raise InvariantViolation("trace value left the base field")
    return tuple(traces[:, 0].tolist())


def _berlekamp_massey(seq: list[int], q: int) -> list[int]:
    """The characteristic polynomial (ascending, monic) of a shortest linear
    recurrence of `seq` over F_q (Massey, IEEE Trans. Inf. Theory 15, 1969),
    the only one of its length when seq has twice that many terms."""
    conn, prev = [1], [1]  # connection polynomials, now and before the last length change
    length, shift, last = 0, 1, 1
    for n in range(len(seq)):
        delta = sum(c * seq[n - i] for i, c in enumerate(conn[: length + 1])) % q
        if delta:
            coef, new = delta * pow(last, -1, q) % q, conn + [0] * (len(prev) + shift - len(conn))
            for i, c in enumerate(prev):
                new[i + shift] = (new[i + shift] - coef * c) % q
            if 2 * length <= n:
                length, prev, last, shift = n + 1 - length, conn, delta, 0
            conn = new
        shift += 1
    return (conn + [0] * length)[length::-1]


@functools.lru_cache(maxsize=None)
def _minimal_polynomials(q: int, pm: int, big_t: int) -> Mapping[int, Poly]:
    """Every exponent j mod pm -> the minimal polynomial over F_q of zeta^j,
    for the primitive pm-th root of unity zeta in F_{q^T}, read off the
    traces `_sigma_table(q, T, pm)` under the int64 rule of F_{q^T}.  Built
    once per process for each (q, pm, T), shared by every k, read-only.

    For the orbit of c != 0 under multiplication by q mod pm, of size d,
    table[c*i mod pm] = Tr(zeta^(c*i)) is T/d times the i-th power sum of
    the d conjugates of zeta^c.  T/d is 1, or 2 in the p = 2 root field,
    where q is odd, so `_berlekamp_massey` on 2d terms returns the minimal
    polynomial of zeta^c.  c = 0 gives x - 1, since Tr(1) = T may be 0
    mod q, and an orbit of size 1 gives x - table[c]/T: for c != 0 it
    occurs only when T = 1 or in the p = 2 root field (q odd)."""
    fp.check_int64_exact(big_t, q)
    base = get_prime_field(q)
    table = _sigma_table(q, big_t, pm)
    minpolys: dict[int, Poly] = {}
    for orbit in cyclotomic_cosets(q, pm).cosets:
        c, d = orbit.rep, orbit.size
        if c == 0:
            coeffs = [-1, 1]
        elif d == 1:
            coeffs = [-table[c] * pow(big_t, -1, q), 1]
        elif d == pm - 1:  # all of (Z/p)^*: Phi_p, where BM takes O(p^2) steps
            coeffs = [1] * pm
        else:
            coeffs = _berlekamp_massey([table[c * i % pm] for i in range(2 * d)], q)
        minpolys.update(dict.fromkeys(orbit.elements, Poly.from_ints(base, coeffs)))
    return MappingProxyType(minpolys)


def _level_key(q: int, p: int, s: int, pm: int, big_t: int) -> tuple[int, int, int, int, int]:
    """The cache key (q, p, s, p^m', T) of level s.  Level 0 is x - 1 for
    every p, p^m' and T, so its key is (q, 1, 0, 1, 1)."""
    return (q, p, s, pm, big_t) if s else (q, 1, 0, 1, 1)


def _level_keys(instance: ProblemInstance) -> list[tuple[int, int, int, int, int]]:
    """The keys of the levels s = 0..k of x^n - 1 (`_level_key`), with
    (T, m') = `instance.root_field`.  The cosets of level s are p^(k-s)
    times the orbits of q on the units mod p^s, so a level's factors depend
    on (q, p, s, p^m', T) and not on k."""
    big_t, m_eff = instance.root_field
    pm = instance.p**m_eff
    return [_level_key(instance.q, instance.p, s, pm, big_t) for s in range(instance.k + 1)]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _first_index(q: int, p: int, s: int) -> int:
    """The position in x^n - 1 of level s's first factor, the same for every
    k >= s: the levels below hold one factor per coset mod p^(s-1)."""
    return len(cyclotomic_cosets(q, p ** (s - 1)).cosets) if s else 0


def inflation_stride(order: int, f: Poly) -> int:
    """The gcd s of `order` and the exponents of f's terms, for a factor f
    of x^order - 1: f = g(x^s) with g dividing y^(order/s) - 1.  Above level
    m every factor is such an inflation (Lidl-Niederreiter, Thm 3.35)."""
    return math.gcd(order, *(e for e, c in enumerate(f.int_coeffs()) if c))


@functools.lru_cache(maxsize=None)
def _factor_level(q: int, p: int, s: int, pm: int, big_t: int):
    """Level s of x^n - 1 for the key (q, p, s, p^m', T) of `_level_key`:
    its factors and the plan that places them, built and certified once per
    process and shared by every k.  Returns (factors, stacks, groups):

      * factors: (p^s, f) for the factors f of Phi_(p^s), in the order of
        their cosets, the orbits of q on the units mod p^s;
      * stacks: (N/s, g's) for each order N/s of the levels 0..min(s, m'),
        the distinct g's with f = g(x^s) as coefficient tuples, in order of
        first use;
      * groups: (N, s, index, row) for each stride s of the level: the
        factors' positions in x^n - 1 and the rows of their g's in the
        stack of N/s, as read-only arrays.

    Every factor must be monic of its coset's size.  Level 0 is
    x - 1 = Phi_1 itself.  At 1 <= s <= m' the factor of the orbit of u is
    the minimal polynomial of zeta^(u*p^m'/p^s), from
    `_minimal_polynomials`, the level's product must equal Phi_(p^s), and
    the stride of each factor f of order N is `inflation_stride(N, f)`.
    Above m' it is g(x^r), r = p^s/p^m', for the g of u mod p^m'.  The g's
    used must then be level m''s factors, each once, and
    prod g(x^r) = (prod g)(x^r) = Phi_(p^m')(x^r) = Phi_(p^s) is an
    identity, so no product is formed; the plan is level m''s, with each
    order and stride times r and each g's position moved to the factor
    that inflates it, and the stacks are level m''s."""
    order = p**s
    cosets = [c for c in cyclotomic_cosets(q, order).cosets if c.divisor == order]
    minpolys = _minimal_polynomials(q, pm, big_t) if s else {0: Poly.from_ints(get_prime_field(q), [-1, 1])}
    if order <= pm:
        factors = [minpolys[c.rep * (pm // order)] for c in cosets]
    else:
        gs = [minpolys[c.rep % pm] for c in cosets]
        lower_s, r = p_adic_valuation(pm, p), order // pm
        lower, stacks, lower_groups = _factor_level(q, p, lower_s, pm, big_t)
        where = {g: j for j, (_, g) in enumerate(lower)}
        if len(set(gs)) != len(gs) or set(gs) != set(where):
            raise InvariantViolation(f"the cosets mod {order} do not map one-to-one onto those mod {pm}")
        factors = [inflate(g, r) for g in gs]
    for coset, f in zip(cosets, factors):
        if f.degree != coset.size or f.lead != 1:
            raise InvariantViolation(
                f"factor for coset {coset.rep} mod {order} is not monic of degree {coset.size}"
            )
    if 1 < order <= pm:
        product = factors[0]._vec()
        for f in factors[1:]:
            product = fp.poly_mul(product, f._vec(), q)
        target = np.zeros(order - order // p + 1, dtype=np.int64)
        target[:: order // p] = 1
        if not np.array_equal(product, target):
            raise InvariantViolation(f"factor product does not reconstruct Phi_{order}")
    first = _first_index(q, p, s)
    if order > pm:
        position = np.empty(len(gs), dtype=np.int64)  # level m''s j -> this level's index
        position[[where[g] for g in gs]] = np.arange(first, first + len(gs))
        shift = _first_index(q, p, lower_s)
        groups = tuple(
            (lower_order * r, stride * r, _read_only(position[index - shift]), row)
            for lower_order, stride, index, row in lower_groups
        )
    else:
        below = _factor_level(*_level_key(q, p, s - 1, pm, big_t))[1] if s else ()
        rows = {width: {g: i for i, g in enumerate(gs)} for width, gs in below}
        members: dict[int, list[tuple[int, int]]] = {}  # stride -> (index, row)
        for i, f in enumerate(factors, start=first):
            stride = inflation_stride(order, f)
            stack = rows.setdefault(order // stride, {})
            row = stack.setdefault(f.int_coeffs()[::stride], len(stack))
            members.setdefault(stride, []).append((i, row))
        stacks = tuple((width, tuple(stack)) for width, stack in rows.items())
        groups = tuple(
            (order, stride, *_read_only(np.array(found, dtype=np.int64).T))
            for stride, found in members.items()
        )
    return tuple((order, f) for f in factors), stacks, groups


def inflation_plan(instance: ProblemInstance):
    """The plans of the levels 0..k of x^n - 1 (`_factor_level`), merged by
    N/s: (N/s, g's, groups) for each stack, where groups holds the
    (N, s, index, row) of every level's factors whose g's are in it.  The
    stacks are the top level's, which every level reads."""
    levels = [_factor_level(*key) for key in _level_keys(instance)]
    return [
        (width, gs, [group for _, _, plan in levels for group in plan if group[0] // group[1] == width])
        for width, gs in levels[-1][1]
    ]


@functools.lru_cache(maxsize=None)
def _factor_cached(instance: ProblemInstance):
    """The factors of x^n - 1 in coset order: the levels 0..k of
    `_level_keys`, each from `_factor_level`, one after another."""
    return tuple(itertools.chain.from_iterable(_factor_level(*key)[0] for key in _level_keys(instance)))


def factor_xn_minus_1(instance: ProblemInstance) -> tuple[tuple[int, Poly], ...]:
    """Irreducible factorization of x^n - 1 over F_q, one monic factor per
    q-cyclotomic coset (same order as `cyclotomic_cosets`): the factors of
    Phi_(p^s) for s = 0..k, one level after another (`_factor_level`).  Each
    factor is the minimal polynomial of a root of unity of order
    p^s <= p^m' in F_{q^T}, (T, m') = `instance.root_field`, read off the
    closed form's trace table, and inflated by x -> x^(p^(s-m')) above
    level m'; with one unit orbit (T = p - 1, m' = 1) they are x - 1 and
    Phi_p, with no F_{q^T}.  Monic factors of the coset degrees whose product is the
    squarefree x^n - 1 = prod_s Phi_(p^s) are its irreducible factors, and
    that product is certified level by level, whatever produced the
    factors: computed up to level m', and above it by the exact identity
    Phi_(p^s) = Phi_(p^m')(x^(p^(s-m'))) once the level's g's are shown to
    be level m''s, each once.  Each level is certified once per process."""
    return _factor_cached(instance)
