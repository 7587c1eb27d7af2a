"""Constructors for the complete set of primitive idempotents of
F_q[x]/(x^(p^k) - 1).

Two routes produce the same set of ring elements:
  * the paper's closed form (`dispatch`) — one expression for every q and
    p^k with gcd(q, p) = 1, whose coefficients are the powers of the
    primitive p^m'-th root of unity of F_{q^T}, (T, m') =
    `ProblemInstance.root_field`, when T = 1 ("split-case"), or their
    traces to F_q when T > 1 ("general-case"), with orbit deduplication of
    the indices;
  * euclid — generic route through the irreducible factors of x^n - 1
    (serves as the independent oracle), placed by the plan that
    `structure` builds with them (`structure.inflation_plan`).

Every route returns an `IdempotentSystem`: one (r, n) coefficient array,
written by the route's kernel, with the label, kind and params of each row.
Records are in a canonical order: the unit-sum element first, then
second-type records by index, then third-type records by (level, index).
The closed form and the oracle's factors read one table,
`structure._sigma_table`, of the root of unity that `fields` picks by its
one rule and checks for its exact order.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _fastpoly as fp
from . import structure
from .errors import InvariantViolation, UsageError
from .fields import get_prime_field
from .polys import CyclicRingElement, render_poly
from .structure import ProblemInstance, cyclotomic_cosets, factor_xn_minus_1

KIND_UNIT_SUM = "unit-sum"
KIND_SECOND = "second-type"
KIND_THIRD = "third-type"
KIND_GENERIC = "generic"

METHODS = ("auto", "euclid")


@dataclass(frozen=True)
class IdempotentRecord:
    """A labeled primitive idempotent with its construction provenance."""

    value: CyclicRingElement
    label: str
    kind: str
    params: tuple[int, ...] | None
    method: str


class IdempotentSystem(Sequence):
    """The records of one construction as one r x n array `coeffs` over F_q,
    with the label, kind and params of each row and the method of all.

    It is an immutable sequence of `IdempotentRecord`, each built when it is
    asked for; a slice is a tuple of records.  The array is int64, or
    `object` where q is past int64 (t = 1 admits any prime q).  A zero row
    is a broken construction and raises, unless the rows are `claimed`
    (read from a document), where `verify_system` reports it."""

    __slots__ = ("q", "n", "coeffs", "labels", "kinds", "params", "method")

    def __init__(self, q, n, rows, labels, kinds, params, method, *, claimed=False):
        coeffs = np.asarray(rows, dtype=self.dtype(q)).reshape(len(labels), n)
        coeffs.flags.writeable = False
        zero = np.flatnonzero(~coeffs.any(axis=1))
        if zero.size and not claimed:
            raise InvariantViolation(f"constructed a zero idempotent for {labels[zero[0]]}")
        values = (q, n, coeffs, tuple(labels), tuple(kinds), tuple(params), method)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @staticmethod
    def dtype(q: int):
        """The coefficient dtype of a system over F_q: every residue fits int64
        while q <= 2^63."""
        return np.int64 if q <= 1 << 63 else object

    def __setattr__(self, name, value):
        raise AttributeError("IdempotentSystem is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdempotentSystem):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__ if name != "coeffs"
        )

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        field = get_prime_field(self.q)
        value = CyclicRingElement(field, self.n, self.coeffs[index].tolist())
        label, kind, params = self.labels[index], self.kinds[index], self.params[index]
        return IdempotentRecord(value, label, kind, params, self.method)


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


def _euclid_stack(mods: np.ndarray, order: int, q: int) -> np.ndarray:
    """Rows B_g = C_g*(x*g' - d*g) (`order` coefficients each), for the
    monic factors g of x^order - 1 in the rows of `mods` (ascending, one
    degree d), where gcd(order, q) = 1.  B_g does not depend on the ring:
    in F_q[x]/(x^n - 1), for every n that `order` divides, the idempotent
    of g is B_g/n repeated n/order times.

    With P = (x^n - 1)/g, differentiating x^n - 1 = P*g gives
    P*(x*g') = n (mod g), so the inverse of P modulo g is
    h = (x*g' - d*g)/n, of degree < d, and no gcd is needed.  The cofactors
    C = (x^order - 1)/g come from one division walk of order - d steps
    over the stack, and P = C*T with T = 1 + x^order + ... + x^(n - order),
    so e = P*h is C*h = B/n, of degree < order, repeated.  Since
    T*T = (n/order)*T, e*e = e iff (n/order)*((C*h)^2 mod x^order - 1) = C*h,
    which multiplied through by n^2/(n/order) reads B^2 = order*B
    (mod x^order - 1): the guard squares the rows B, for every n at once."""
    d = mods.shape[1] - 1
    if d > order:
        raise UsageError(f"{render_poly(mods[0].tolist())} does not divide x^{order} - 1")
    xo1 = np.zeros((1, order + 1), dtype=np.int64)
    xo1[0, 0], xo1[0, order] = q - 1, 1
    cofactors, rems = fp.divmod_rows(xo1, mods, q)
    bad = np.flatnonzero(rems.any(axis=1))
    if bad.size:
        raise UsageError(f"{render_poly(mods[bad[0]].tolist())} does not divide x^{order} - 1")
    del rems  # a view that keeps the whole walk array alive
    lows = fp.as_vec([(i - d) % q for i in range(d)])  # x*g' - d*g
    rows = fp.conv_rows(cofactors, lows * mods[:, :d] % q, q)
    if not np.array_equal(fp.conv_rows(rows, rows, q, order), rows * (order % q) % q):
        raise InvariantViolation("Euclid construction produced a non-idempotent")
    return rows


@functools.lru_cache(maxsize=None)
def _euclid_rows(q: int, order: int, gs: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """`_euclid_stack` on the g's `gs`, read-only.  B_g depends on neither
    n nor the stride, so it is built, its divisions certified and its guard
    run once per process for each (q, order, gs).  `all_idempotents_euclid`
    asks only for a stack that fits in one of its blocks, which bounds what
    each key keeps."""
    return structure._read_only(_euclid_stack(fp.as_vec(list(gs)), order, q))


def all_idempotents_euclid(instance: ProblemInstance) -> IdempotentSystem:
    """One record per irreducible factor of x^n - 1: the oracle set.

    A factor f of order N (the coset divisor) and stride s is f = g(x^s),
    where g divides y^(N/s) - 1 with roots of order N/s, so its degree is
    ord_(N/s) q.  y -> x^s is a ring homomorphism
    F_q[y]/(y^(n/s) - 1) -> F_q[x]/(x^n - 1) that sends g's idempotent to
    f's (h_f = h_g(x^s) by the derivative formula), so f's record is
    (n/s)^(-1)*B_g repeated n/N times and placed at stride s, with B_g from
    `_euclid_stack`.  B_g does not depend on n or s, and above level m
    every level inflates the same g's, so one walk serves each distinct g
    once.  Which g each factor takes, its stride and its row come from the
    plan of its level, built with the factors
    (`structure.inflation_plan`), which merges the levels by N/s: the g's
    of one N/s form one stack, computed in blocks whose working arrays hold
    at most TABLE_ENTRIES coefficients, and each stride group of each level
    takes its rows from a block in one indexed assignment.  A stack of one
    block is kept for the process (`_euclid_rows`, keyed on q, N/s and its
    g's), so every k that shares it walks it once; a larger stack is walked
    anew on each call, once for all its levels, and not kept."""
    q, n = instance.q, instance.n
    factors = factor_xn_minus_1(instance)
    cosets = cyclotomic_cosets(q, n).cosets
    coeffs = np.zeros((len(factors), n), dtype=np.int64)
    for width, gs, groups in structure.inflation_plan(instance):
        step = max(1, fp.TABLE_ENTRIES // (16 * (width + 1)))  # about a dozen arrays a row
        for start in range(0, len(gs), step):
            whole = len(gs) <= step
            if whole:
                block = _euclid_rows(q, width, gs)
            else:
                block = _euclid_stack(fp.as_vec(list(gs[start : start + step])), width, q)
            for order, stride, index, row in groups:
                if not whole:  # only the rows of this block
                    hit = (row >= start) & (row < start + step)
                    index, row = index[hit], row[hit] - start
                # the rows of coeffs at stride s, as n/N tiles of N/s coefficients
                tiles = coeffs[:, ::stride].reshape(len(factors), n // order, width)
                tiles[index] = (block[row] * pow(n // stride, -1, q) % q)[:, None]
    labels = [f"e_{{d,r}}:{order},{c.rep}" for (order, _), c in zip(factors, cosets)]
    count = len(factors)
    return IdempotentSystem(q, n, coeffs, labels, [KIND_GENERIC] * count, [None] * count, "euclid")


def _root_table(instance: ProblemInstance) -> tuple[Sequence[int], str]:
    """(table, method) of the closed form, the one place that names its
    case: `structure._sigma_table` at (q, T, p^m'), (T, m') =
    `instance.root_field`, the traces from F_{q^T} of the powers of its root
    of unity, which are the powers themselves when T = 1 ("split-case"),
    the root lying in F_q, and "general-case" when T > 1.  The
    factorization reads the same table."""
    big_t, m_eff = instance.root_field
    table = structure._sigma_table(instance.q, big_t, instance.p**m_eff)
    return table, "split-case" if big_t == 1 else "general-case"


def _gather_into(out: np.ndarray, table: Sequence[int], scale: int, q: int, indices) -> None:
    """out[i, l] = scale * table[(-indices[i] * l) % len(table)] mod q, for
    every row i and column l of `out`, as one gather."""
    values = np.array([v * scale % q for v in table], dtype=out.dtype)
    exponents = -np.outer(np.asarray(indices, dtype=np.int64), np.arange(out.shape[1]))
    out[...] = values[exponents % len(table)]


def _records_from_table(instance: ProblemInstance, table: Sequence[int], method: str) -> IdempotentSystem:
    """The closed form's records from `_root_table`, for both cases: each
    level's rows are gathered straight into the system's array, on the
    orbits of q mod p^m', (T, m') = `instance.root_field`.

    The row of an orbit of size d sums zeta^(-c*l) over its c, d/T times
    Tr(zeta^(-j*l)) for its rep j.  d = T but for the orbit of 2^(m'-1) in
    the p = 2 root field, whose row alone is gathered again, scaled by 1/2."""
    q, p, k, n = instance.q, instance.p, instance.k, instance.n
    big_t, m_eff = instance.root_field
    pm = p**m_eff
    inv_n = pow(n % q, -1, q)
    js = orbit_representatives(pm, q, "all-nonzero")
    ls = orbit_representatives(pm, q, "units")
    levels = range(m_eff + 1, k + 1)
    coeffs = np.zeros((1 + len(js) + len(ls) * len(levels), n), dtype=IdempotentSystem.dtype(q))
    coeffs[0] = inv_n
    _gather_into(coeffs[1 : 1 + len(js)], table, inv_n, q, js)
    if len(js) * big_t != pm - 1:  # sizes divide T and sum to p^m' - 1: some are short
        for orbit in cyclotomic_cosets(q, pm).cosets:
            if orbit.rep and orbit.size < big_t:
                row, scale = 1 + js.index(orbit.rep), inv_n * orbit.size * pow(big_t, -1, q)
                _gather_into(coeffs[row : row + 1], table, scale, q, [orbit.rep])
    for level, s in enumerate(levels):
        row = 1 + len(js) + level * len(ls)
        inv_c = pow(pow(p, k + m_eff - s, q), -1, q)
        # supported on the multiples of p^(s - m')
        _gather_into(coeffs[row : row + len(ls), :: p ** (s - m_eff)], table, inv_c, q, ls)
    labels = ["e_0"] + [f"e_j:{j}" for j in js] + [f"e_{{s,l}}:{s},{l}" for s in levels for l in ls]
    kinds = [KIND_UNIT_SUM] + [KIND_SECOND] * len(js) + [KIND_THIRD] * (len(ls) * len(levels))
    params = [None] + [(j,) for j in js] + [(s, l) for s in levels for l in ls]
    return IdempotentSystem(q, n, coeffs, labels, kinds, params, method)


def dispatch(instance: ProblemInstance, method: str = "auto") -> IdempotentSystem:
    """The primitive idempotents by the paper's closed form ("auto"), or by
    the Euclid oracle ("euclid"), on every admitted instance.  The closed
    form takes its table from `_root_table`, which names the case:
    "split-case" when T = 1, "general-case" when T > 1, for
    (T, m') = `instance.root_field`.  Its trace form needs no binomials
    x^(2^s) - zeta, so it serves p = 2 with q = 3 (mod 4) too, where
    k >= 3 takes the root field F_{q^2}.  The modulus of F_{q^T} and the
    root of unity are the ones `fields` picks by its one rule; the set of
    idempotents does not depend on that choice."""
    if method not in METHODS:
        raise UsageError(f"unknown method {method!r}; choose from {METHODS}")
    if method == "euclid":
        return all_idempotents_euclid(instance)
    return _records_from_table(instance, *_root_table(instance))
