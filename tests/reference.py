"""Reference closed forms of two special regimes, in plain Python ints, kept
beside the tests to check the one closed form of `idemforge.dispatch`:

  * fully split (q = 1 mod n): the DFT characters of a primitive n-th root
    of unity in F_q;
  * primitive root (q generates the units mod p^k, the case of Arora &
    Pruthi, "Minimal cyclic codes of prime power length", Finite Fields
    Appl. 3, 1997): differences of subgroup averages, with no F_{q^t}.

Both return an `IdempotentSystem`, so that `sets_equal` compares them with
`dispatch`.  `third_type_census` counts the third-type records per level.
"""

from __future__ import annotations

from idemforge import IdempotentSystem, UsageError
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
