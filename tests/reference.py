"""Reference closed forms of two special regimes, in plain Python ints, kept
beside the tests to check the one closed form of `idemforge.dispatch`:

  * fully split (q = 1 mod n): the DFT characters of a primitive n-th root
    of unity in F_q;
  * primitive root (q generates the units mod p^k, the case of Arora &
    Pruthi, "Minimal cyclic codes of prime power length", Finite Fields
    Appl. 3, 1997): differences of subgroup averages, with no F_{q^t}.

Both return an `IdempotentSystem`, so that `sets_equal` compares them with
`dispatch`.  `third_type_census` counts the third-type records per level.

The rest is arithmetic in F_q[y]/(mod) on tuples of Python ints, ascending,
one element at a time: products, powers, inverses by the extended Euclidean
algorithm, traces, and the root search's walk.  Nothing here calls the
numpy kernels of `idemforge._fastpoly`, so the kernels are checked against
an independent computation.
"""

from __future__ import annotations

from idemforge import ExtensionField, FieldElement, IdempotentSystem, UsageError
from idemforge.fields import factor_integer
from idemforge.structure import euler_phi_prime_power, multiplicative_order


def fully_split_idempotents(q: int, n: int) -> IdempotentSystem:
    """e_j = (1/n) sum_l zeta^(-jl) x^l for j < n, with zeta the least
    element of F_q of exact order n; needs q = 1 (mod n)."""
    if n < 1 or (q - 1) % n:
        raise UsageError(f"requires q = 1 (mod n); got q={q}, n={n}")
    zeta = next(z for z in range(1, q) if multiplicative_order(z, q) == n)
    inv_n = pow(n, -1, q)
    rows = [[inv_n * pow(zeta, -j * l % n, q) % q for l in range(n)] for j in range(n)]
    labels = ["e_0"] + [f"e_j:{j}" for j in range(1, n)]
    kinds = ["unit-sum"] + ["second-type"] * (n - 1)
    params = [None] + [(j,) for j in range(1, n)]
    return IdempotentSystem(q, n, rows, labels, kinds, params, "fully-split")


def primitive_root_idempotents(q: int, p: int, k: int) -> IdempotentSystem:
    """k + 1 records, u_0 and u_i - u_(i-1), where the subgroup average
    u_i = (1/p^(k-i)) sum_l x^(p^i l); needs ord_(p^k) q = phi(p^k)."""
    n = p**k
    phi = euler_phi_prime_power(p, k)
    if multiplicative_order(q, n) != phi:
        raise UsageError(f"requires ord_{{{n}}} {q} = phi({n}) = {phi}")
    averages = [
        [pow(p ** (k - i), -1, q) if l % p**i == 0 else 0 for l in range(n)] for i in range(k + 1)
    ]
    rows = averages[:1] + [[(a - b) % q for a, b in zip(u, v)] for v, u in zip(averages, averages[1:])]
    labels = ["e_0"] + [f"e_j:{j}" for j in range(1, k + 1)]
    kinds = ["unit-sum"] + ["second-type" if j == 1 else "third-type" for j in range(1, k + 1)]
    params = [None] + [(j,) if j == 1 else (j, 1) for j in range(1, k + 1)]
    return IdempotentSystem(q, n, rows, labels, kinds, params, "primitive-root")


def third_type_census(records) -> dict[int, int]:
    """Count of third-type records per level s."""
    out: dict[int, int] = {}
    for r in records:
        if r.kind == "third-type":
            out[r.params[0]] = out.get(r.params[0], 0) + 1
    return dict(sorted(out.items()))


def digits(q: int, t: int, index: int) -> tuple[int, ...]:
    """The index-th element of F_{q^t} in canonical order: the t base-q
    digits of index, constant term first."""
    if not 0 <= index < q**t:
        raise UsageError("element index out of range")
    return tuple(index // q**i % q for i in range(t))


def ref_mul(a, b, mod, q: int) -> tuple[int, ...]:
    """Product in F_q[y]/(mod), mod monic of degree t."""
    t = len(mod) - 1
    prod = [0] * (2 * t - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(len(prod) - 1, t - 1, -1):  # y^t = -(mod[0] + ... + mod[t-1] y^(t-1))
        c, prod[i] = prod[i], 0
        for j in range(t):
            prod[i - t + j] -= c * mod[j]
    return tuple(c % q for c in prod[:t])


def ref_pow(a, e: int, mod, q: int) -> tuple[int, ...]:
    """a^e in F_q[y]/(mod), e >= 0, by square and multiply."""
    acc, base = (1,) + (0,) * (len(mod) - 2), tuple(a)
    while e:
        if e & 1:
            acc = ref_mul(acc, base, mod, q)
        base = ref_mul(base, base, mod, q)
        e >>= 1
    return acc


def _trim(a) -> list[int]:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _sub_scaled(a, b, c: int, shift: int, q: int) -> list[int]:
    """a - c*x^shift*b over F_q, trimmed."""
    out = list(a) + [0] * max(0, len(b) + shift - len(a))
    for i, x in enumerate(b):
        out[i + shift] = (out[i + shift] - c * x) % q
    return _trim(out)


def ref_xgcd(a, b, q: int) -> tuple[list[int], list[int], list[int]]:
    """(g, u, v) with u*a + v*b = g, g the monic gcd of the polynomials a and
    b over F_q (ascending coefficient lists, not both zero)."""
    r0, r1 = _trim(c % q for c in a), _trim(c % q for c in b)
    if not r0 and not r1:
        raise UsageError("extended gcd of two zero polynomials")
    u0, u1, v0, v1 = [1], [], [], [1]
    while r1:
        inv = pow(r1[-1], -1, q)
        while len(r0) >= len(r1):  # r0 -= c*x^s*r1, and the cofactors with it
            c, s = r0[-1] * inv % q, len(r0) - len(r1)
            r0 = _sub_scaled(r0, r1, c, s, q)
            u0, v0 = _sub_scaled(u0, u1, c, s, q), _sub_scaled(v0, v1, c, s, q)
        r0, r1, u0, u1, v0, v1 = r1, r0, u1, u0, v1, v0
    inv = pow(r0[-1], -1, q)
    return tuple([c * inv % q for c in x] for x in (r0, u0, v0))


def ref_inverse(a, mod, q: int) -> tuple[int, ...]:
    """1/a in F_q[y]/(mod), for a nonzero."""
    g, u, _ = ref_xgcd(a, mod, q)
    if g != [1]:
        raise ZeroDivisionError("not invertible modulo the modulus")
    return tuple(u) + (0,) * (len(mod) - 1 - len(u))


def ref_trace(a, mod, q: int) -> int:
    """a + a^q + ... + a^(q^(t-1)), which lies in F_q."""
    acc, cur = [0] * (len(mod) - 1), tuple(a)
    for _ in range(len(mod) - 1):
        acc = [(x + y) % q for x, y in zip(acc, cur)]
        cur = ref_pow(cur, q, mod, q)
    if any(acc[1:]):
        raise AssertionError("trace left the base field")
    return acc[0]


def ref_roots(q: int, mod, order: int, start: int = 1):
    """The root search's rule, one element at a time: zeta =
    u^((q^t - 1)/order) for each u from index `start` in canonical order
    with u^((q^t - 1)/r) != 1 for every prime r dividing `order`, so that
    zeta has exact order `order`.  The first item is the search's answer,
    and the second is the root of the `second_choice` fixture."""
    t = len(mod) - 1
    group, one = q**t - 1, (1,) + (0,) * (t - 1)
    exponents = [group // r for r in factor_integer(order)]
    for index in range(start, q**t):
        u = digits(q, t, index)
        if all(ref_pow(u, e, mod, q) != one for e in exponents):
            yield ref_pow(u, group // order, mod, q)


def field_modulus(field) -> tuple[int, ...]:
    """The modulus of F_{q^t}, and y for F_q, whose values are constants."""
    return field.modulus.coeffs if isinstance(field, ExtensionField) else (0, 1)


def ref_element_pow(a: FieldElement, e: int) -> FieldElement:
    """a^e for an element the root search returned, in its own field."""
    return FieldElement(a.field, ref_pow(a.coeffs, e, field_modulus(a.field), a.field.q))
