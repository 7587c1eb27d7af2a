"""Constructors for the complete set of primitive idempotents of
F_q[x]/(x^(p^k) - 1).

Five routes produce the same set of ring elements:
  * euclid        — generic route through the irreducible factors of x^n - 1
                    (serves as the independent oracle),
  * fully-split   — q = 1 (mod n): DFT-style basis from a residing n-th root,
  * primitive-root— ord_{p^k} q = phi(p^k): differences of subgroup averages,
  * split-case    — t = ord_p q = 1: roots of unity live in F_q itself,
  * general-case  — t > 1: coefficients built in F_{q^t} and mapped down by
                    the trace, with orbit deduplication of the indices.

Records are returned in a canonical order: the unit-sum element first, then
second-type records by index, then third-type records by (level, index).
The closed forms take the power table of their root of unity from `fields`,
which picks the root (`generator_skip` picks a later generator) and checks
its exact order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _fastpoly as fp
from .errors import InvariantViolation, UnsupportedInstanceError, UsageError
from .fields import _root_powers, get_extension_field, get_prime_field
from .polys import CyclicRingElement, Poly
from .structure import (
    ProblemInstance,
    cyclotomic_cosets,
    euler_phi_prime_power,
    factor_xn_minus_1,
    multiplicative_order,
)

KIND_UNIT_SUM = "unit-sum"
KIND_SECOND = "second-type"
KIND_THIRD = "third-type"
KIND_GENERIC = "generic"

METHODS = ("auto", "euclid", "fully-split", "primitive-root", "split-case", "general-case")


@dataclass(frozen=True)
class IdempotentRecord:
    """A labeled primitive idempotent with its construction provenance."""

    value: CyclicRingElement
    label: str
    kind: str
    params: tuple[int, ...] | None
    method: str

    def key(self):
        return self.value.key()


def _element(item) -> CyclicRingElement:
    if isinstance(item, IdempotentRecord):
        return item.value
    if isinstance(item, CyclicRingElement):
        return item
    raise UsageError("expected an IdempotentRecord or CyclicRingElement")


def orbit_representatives(modulus: int, q: int, domain: str = "units") -> list[int]:
    """Minimal element of each multiplication-by-q orbit on the chosen
    residues mod `modulus`, ascending.  domain: "units" or "all-nonzero"."""
    if modulus < 1:
        raise UsageError("modulus must be positive")
    if domain not in ("units", "all-nonzero"):
        raise UsageError(f"unknown domain {domain!r}")
    return sorted(
        c.rep
        for c in cyclotomic_cosets(q, modulus).cosets
        if c.rep and (domain == "all-nonzero" or c.divisor == modulus)
    )


def _record_from_ints(q: int, ints, label: str, kind: str, params, method: str) -> IdempotentRecord:
    value = CyclicRingElement._reduced(get_prime_field(q), tuple(ints))  # callers reduce mod q
    if value.is_zero():
        raise InvariantViolation(f"constructed a zero idempotent for {label}")
    return IdempotentRecord(value=value, label=label, kind=kind, params=params, method=method)


def euclid_idempotent(f: Poly, n: int, q: int) -> IdempotentRecord:
    """Idempotent attached to one monic factor f of x^n - 1 (q not dividing
    n): e = P*h with P = (x^n-1)/f and h the inverse of P modulo f, of
    degree < deg f, computed by `_euclid_stack` on a stack of one.
    Then e = 1 mod f and e = 0 modulo every other irreducible factor."""
    if f.field != get_prime_field(q):
        raise UsageError("factor polynomial must live over F_q")
    if f.is_zero() or f.lead != 1:
        raise UsageError("factor must be monic")
    if n < 1:
        raise UsageError("exponent must be >= 1")
    if n % q == 0:
        raise UsageError(f"q={q} divides n={n}, so x^{n} - 1 is not squarefree")
    row = _euclid_stack([f], n, n, q)[0].tolist()
    return _record_from_ints(q, row, f"euclid:deg{f.degree}", KIND_GENERIC, None, "euclid")


def _euclid_stack(factors: list[Poly], order: int, n: int, q: int) -> np.ndarray:
    """Rows e_f = P_f*h_f (n coefficients each) for monic factors f of
    x^order - 1 that share one degree d, where order divides n and
    gcd(n, q) = 1.

    With P_f = (x^n - 1)/f, differentiating x^n - 1 = P*f gives
    P*(x*f') = n (mod f), so the inverse of P modulo f is
    h = (x*f' - d*f)/n, of degree < d, and no gcd is needed.  The cofactors
    C_f = (x^order - 1)/f come from one division walk of order - d steps
    over the stack, and P = C*(1 + x^order + ... + x^(n - order)).  As
    deg(C*h) < order, e is C*h repeated n/order times.  The guard e*e = e
    runs over the whole stack."""
    d = factors[0].degree
    if d > order:
        raise UsageError(f"{factors[0]!r} does not divide x^{order} - 1")
    mods = fp.as_vec([f.coeffs for f in factors])
    xo1 = np.zeros((1, order + 1), dtype=np.int64)
    xo1[0, 0], xo1[0, order] = q - 1, 1
    cofactors, rems = fp.divmod_rows(xo1, mods, q)
    for f, rem in zip(factors, rems):
        if rem.any():
            raise UsageError(f"{f!r} does not divide x^{order} - 1")
    del rems  # a view that keeps the whole walk array alive
    inv_n = pow(n, -1, q)
    scale = fp.as_vec([(i - d) * inv_n % q for i in range(d)])
    e = np.tile(fp.conv_rows(cofactors, scale * mods[:, :d] % q, q), n // order)
    if not np.array_equal(fp.conv_rows(e, e, q, n), e):
        raise InvariantViolation("Euclid construction produced a non-idempotent")
    return e


def all_idempotents_euclid(instance: ProblemInstance) -> tuple[IdempotentRecord, ...]:
    """One record per irreducible factor of x^n - 1: the oracle set.
    Factors of one degree and one order (the coset divisor, so that they
    divide x^order - 1) are computed together, in stacks whose working
    arrays hold at most TABLE_ENTRIES coefficients."""
    q, n = instance.q, instance.n
    factors = factor_xn_minus_1(instance)
    cosets = cyclotomic_cosets(q, n).cosets
    stacks: dict[tuple[int, int], list[int]] = {}
    for index, (order, f) in enumerate(factors):
        stacks.setdefault((f.degree, order), []).append(index)
    records: list = [None] * len(factors)
    step = max(1, fp.TABLE_ENTRIES // (16 * (n + 1)))  # about a dozen n-wide arrays a row
    for (_, order), indices in stacks.items():
        for start in range(0, len(indices), step):
            chunk = indices[start : start + step]
            block = _euclid_stack([factors[i][1] for i in chunk], order, n, q)
            for i, row in zip(chunk, block):
                label = f"e_{{d,r}}:{order},{cosets[i].rep}"
                records[i] = _record_from_ints(q, row.tolist(), label, KIND_GENERIC, None, "euclid")
    return tuple(records)


def _root_table(
    instance: ProblemInstance, modulus_skip: int = 0, generator_skip: int = 0
) -> tuple[list[int], str]:
    """(table, method) for the split and general cases: table[i] holds the
    F_q value attached to the i-th power of a primitive p^min(m,k)-th root of
    unity, the power itself when t = 1 (the root lives in F_q) and its trace
    from F_{q^t} when t > 1."""
    pm = instance.p**instance.effective_m
    if instance.t == 1:
        return _root_powers(get_prime_field(instance.q), pm, generator_skip), "split-case"
    return _sigma_table(instance, pm, modulus_skip, generator_skip), "general-case"


def _gather_rows(table: list[int], scale: int, q: int, indices, count: int) -> np.ndarray:
    """Rows i, l < count of scale * table[(-indices[i] * l) % len(table)]
    mod q, as one gather (object entries past int64, where t = 1 admits q)."""
    values = np.array(
        [v * scale % q for v in table], dtype=np.int64 if q <= 1 << 63 else object
    )
    exponents = -np.outer(np.asarray(indices, dtype=np.int64), np.arange(count))
    return values[exponents % len(table)]


def _records_from_table(
    instance: ProblemInstance, table: list[int], method: str
) -> tuple[IdempotentRecord, ...]:
    """Shared assembly for the split and general cases from `_root_table`."""
    q, p, k, n = instance.q, instance.p, instance.k, instance.n
    m_eff = instance.effective_m
    pm = p**m_eff
    inv_n = pow(n % q, -1, q)
    records = [
        _record_from_ints(q, [inv_n] * n, "e_0", KIND_UNIT_SUM, None, method)
    ]
    js = orbit_representatives(pm, q, "all-nonzero")
    for j, row in zip(js, _gather_rows(table, inv_n, q, js, n)):
        records.append(_record_from_ints(q, row.tolist(), f"e_j:{j}", KIND_SECOND, (j,), method))
    ls = orbit_representatives(pm, q, "units")
    for s in range(m_eff + 1, k + 1):
        inv_c = pow(pow(p, k + m_eff - s, q), -1, q)
        step = p ** (s - m_eff)
        gathered = _gather_rows(table, inv_c, q, ls, p ** (k - s + m_eff))
        rows = np.zeros((len(ls), n), dtype=gathered.dtype)
        rows[:, ::step] = gathered  # supported on the multiples of p^(s - m)
        for l, row in zip(ls, rows):
            label = f"e_{{s,l}}:{s},{l}"
            records.append(_record_from_ints(q, row.tolist(), label, KIND_THIRD, (s, l), method))
    return tuple(records)


def split_case_idempotents(
    instance: ProblemInstance, *, generator_skip: int = 0
) -> tuple[IdempotentRecord, ...]:
    """Closed form for t = 1 (p divides q - 1): a primitive p^min(m,k)-th
    root of unity lives in F_q, giving p^min(m,k) block idempotents plus,
    for each level s in (m, k], one record per unit index."""
    q, p, k = instance.q, instance.p, instance.k
    if instance.t != 1:
        raise UsageError("split case requires ord_p q = 1")
    if k == 0:
        return (_record_from_ints(q, [1], "e_0", KIND_UNIT_SUM, None, "split-case"),)
    if p == 2 and q % 4 == 3:
        raise UnsupportedInstanceError(
            "p = 2 with q = 3 (mod 4) is unsupported: the binomial factorization "
            "of x^(2^s) - zeta needs q = 1 (mod 4)"
        )
    return _records_from_table(instance, *_root_table(instance, generator_skip=generator_skip))


def _sigma_table(instance: ProblemInstance, pm: int, modulus_skip: int, generator_skip: int) -> list[int]:
    """table[i] = trace of zeta^i from F_{q^t} down to F_q, for a primitive
    pm-th root of unity zeta from `fields._root_powers`: the sum over u < t
    of zeta^(i*q^u), read from the power table of zeta."""
    q, t = instance.q, instance.t
    powers = _root_powers(get_extension_field(q, t, modulus_skip), pm, generator_skip)
    index = np.arange(pm)
    traces = np.zeros_like(powers)
    for u in range(t):  # one exponent at a time keeps memory at pm*t entries
        traces += powers[index * pow(q, u, pm) % pm]
    traces %= q
    if traces[:, 1:].any():
        raise InvariantViolation("trace value left the base field")
    return traces[:, 0].tolist()


def general_case_idempotents(
    instance: ProblemInstance, *, modulus_skip: int = 0, generator_skip: int = 0
) -> tuple[IdempotentRecord, ...]:
    """Closed form for t = ord_p q > 1: coefficients are traces of root-of-
    unity powers computed in F_{q^t}; indices are deduplicated by their
    multiplication-by-q orbits mod p^min(m,k)."""
    q, p, k = instance.q, instance.p, instance.k
    if instance.t <= 1:
        raise UsageError("general case requires ord_p q > 1")
    if p == 2:
        raise UsageError("p = 2 never reaches the general case (t is always 1)")
    if k == 0:
        return (_record_from_ints(q, [1], "e_0", KIND_UNIT_SUM, None, "general-case"),)
    return _records_from_table(instance, *_root_table(instance, modulus_skip, generator_skip))


def second_type_idempotent(
    instance: ProblemInstance, j: int, *, modulus_skip: int = 0, generator_skip: int = 0
) -> IdempotentRecord:
    """Second-type record for an explicit index j (no orbit deduplication);
    useful to confirm that orbit-equivalent indices give the same element."""
    q, n = instance.q, instance.n
    pm = instance.p**instance.effective_m
    if not 0 < j < pm:
        raise UsageError(f"index must lie in (0, {pm})")
    table, method = _root_table(instance, modulus_skip, generator_skip)
    ints = _gather_rows(table, pow(n % q, -1, q), q, [j], n)[0].tolist()
    return _record_from_ints(q, ints, f"e_j:{j}", KIND_SECOND, (j,), method)


def fully_split_idempotents(q: int, n: int) -> tuple[IdempotentRecord, ...]:
    """Closed form when q = 1 (mod n): x^n - 1 splits into linear factors,
    and the idempotents are the DFT characters e_j = (1/n) sum zeta^(-jl) x^l."""
    if n < 1:
        raise UsageError("n must be >= 1")
    if (q - 1) % n:
        raise UsageError(f"requires q = 1 (mod n); got q={q}, n={n}")
    if n == 1:
        return (_record_from_ints(q, [1], "e_0", KIND_UNIT_SUM, None, "fully-split"),)
    rows = _gather_rows(_root_powers(get_prime_field(q), n), pow(n % q, -1, q), q, range(n), n)
    records = []
    for j, ints in enumerate(rows.tolist()):
        kind = KIND_UNIT_SUM if j == 0 else KIND_SECOND
        label = "e_0" if j == 0 else f"e_j:{j}"
        records.append(
            _record_from_ints(q, ints, label, kind, None if j == 0 else (j,), "fully-split")
        )
    return tuple(records)


def primitive_root_idempotents(q: int, p: int, k: int) -> tuple[IdempotentRecord, ...]:
    """Closed form when q generates the units mod p^k (every cyclotomic level
    is irreducible): k+1 records, each the difference of two successive
    subgroup-averaging idempotents u_i = (1/p^(k-i)) sum_l x^(p^i l)."""
    n = p**k
    phi = euler_phi_prime_power(p, k)
    if multiplicative_order(q, n) != phi:
        raise UsageError(f"requires ord_{{{n}}} {q} = phi({n}) = {phi}")

    def avg(i: int) -> list[int]:
        c = pow(pow(p, k - i, q), -1, q)
        out = [0] * n
        for l in range(p ** (k - i)):
            out[l * p**i] = c
        return out

    records = [_record_from_ints(q, avg(0), "e_0", KIND_UNIT_SUM, None, "primitive-root")]
    for j in range(1, k + 1):
        upper, lower = avg(j), avg(j - 1)
        ints = [(a - b) % q for a, b in zip(upper, lower)]
        kind = KIND_SECOND if j == 1 else KIND_THIRD
        params = (j,) if j == 1 else (j, 1)
        records.append(_record_from_ints(q, ints, f"e_j:{j}", kind, params, "primitive-root"))
    return tuple(records)


def dispatch(
    instance: ProblemInstance,
    method: str = "auto",
    *,
    modulus_skip: int = 0,
    generator_skip: int = 0,
) -> tuple[IdempotentRecord, ...]:
    """Pick the applicable closed form (t = 1 -> split case, t > 1 -> general
    case) or force a specific route.  Forcing `euclid` works even where the
    closed forms are unsupported (p = 2 with q = 3 mod 4)."""
    if method not in METHODS:
        raise UsageError(f"unknown method {method!r}; choose from {METHODS}")
    q, p, k, n = instance.q, instance.p, instance.k, instance.n
    if method == "euclid":
        return all_idempotents_euclid(instance)
    if method == "fully-split":
        return fully_split_idempotents(q, n)
    if method == "primitive-root":
        return primitive_root_idempotents(q, p, k)
    if method == "split-case" or (method == "auto" and instance.t == 1):
        return split_case_idempotents(instance, generator_skip=generator_skip)
    return general_case_idempotents(
        instance, modulus_skip=modulus_skip, generator_skip=generator_skip
    )


def third_type_census(records) -> dict[int, int]:
    """Count of third-type records per level s."""
    out: dict[int, int] = {}
    for r in records:
        if r.kind == KIND_THIRD and r.params is not None:
            s = r.params[0]
            out[s] = out.get(s, 0) + 1
    return dict(sorted(out.items()))
