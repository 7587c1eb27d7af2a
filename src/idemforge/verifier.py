"""Independent validation of a claimed idempotent system: nonzero records
and completeness on the coefficients, idempotency, orthogonality and
primitivity through the residues modulo the certified irreducible factors
of x^n - 1, and set equality against the Euclid oracle.  Reports name the
first counterexample so regressions stay debuggable."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _fastpoly as fp
from ._fastpoly import TABLE_ENTRIES
from .engine import IdempotentSystem, _element, all_idempotents_euclid
from .errors import UsageError
from .structure import ProblemInstance, cyclotomic_cosets, factor_xn_minus_1, inflation_plan

#: The schema tag of every JSON document and report.
SCHEMA = "idemforge/1"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    instance: str
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render_text(self) -> str:
        lines = [f"verification of {self.instance}"]
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            suffix = f" — {c.detail}" if c.detail else ""
            lines.append(f"  {c.name}: {status}{suffix}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "type": "verification-report",
            "instance": self.instance,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
            "passed": self.passed,
        }


def _record_matrix(records, q: int, n: int) -> np.ndarray:
    """The r x n coefficient array of records over F_q (`_stacked`)."""
    got_q, got_n, matrix = _stacked(records)
    if len(matrix) and got_n != n:
        raise UsageError(f"every record must have n={n} coefficients")
    if len(matrix) and got_q != q:
        raise UsageError(f"every record must live over F_{q}")
    return matrix


def _stacked(records):
    """(q, n, r x n array) of a system, its own array as it is; or of a plain
    sequence of records or ring elements over one field and length, stacked
    with the dtype a system over that field has (q = None if it is empty)."""
    if isinstance(records, IdempotentSystem):
        return records.q, records.n, records.coeffs
    values = [_element(r) for r in records]
    q, n = (values[0].field.q, values[0].n) if values else (None, 0)
    if any(v.n != n for v in values):
        raise UsageError(f"every record must have n={n} coefficients")
    if any(v.field.q != q for v in values):
        raise UsageError(f"every record must live over F_{q}")
    dtype = IdempotentSystem.dtype(q) if values else np.int64
    return q, n, np.array([v.coeffs for v in values], dtype=dtype).reshape(len(values), n)


def _residues(matrix: np.ndarray, instance: ProblemInstance):
    """(f, R_f) for every irreducible factor f of x^n - 1, in
    `factor_xn_minus_1` order, where row i of R_f is record i mod f.

    The factorization is certified, so e -> (e mod f)_f is a ring
    isomorphism onto a product of fields: a product of records is zero iff
    no factor sees a nonzero residue in both.

    A factor f of order N divides x^N - 1, so each record is first folded
    mod x^N - 1 (its n/N blocks of N coefficients summed).  Its stride s
    and h, f = h(x^s) with h dividing y^(N/s) - 1, come from the plan of
    the factorization (`inflation_plan`).  Writing a folded row as the sum
    over j < s of x^j E_j(x^s), its residue is the sum of
    x^j (E_j mod h)(x^s), so only the s slices E_j of each record are
    reduced, modulo h.
    The factors of one stride group of the plan share N, s and deg h, and
    so their slices: one table of y^i mod h (i < N/s) and one product serve
    each chunk of at most TABLE_ENTRIES table entries.  A group whose table
    alone would pass that cap is reduced by one division walk per factor
    over the slices instead."""
    q, n = instance.q, instance.n
    fp.check_int64_exact(n, q)  # before any product: a fold sums n/N residues
    rows = len(matrix)
    factors = factor_xn_minus_1(instance)
    groups = [
        (order, stride, index, [gs[r] for r in row])
        for _, gs, plan in inflation_plan(instance)
        for order, stride, index, row in plan
    ]
    out = [None] * len(factors)
    folded_order = None
    for order, stride, indices, mods in sorted(groups, key=lambda group: group[:2]):
        if order != folded_order:  # sorted, so each order is folded once
            folded_order = order
            folded = matrix.reshape(rows, n // order, order).sum(axis=1) % q
        length, degree = order // stride, len(mods[0]) - 1
        # row (i, j) holds E_j of record i: its folded coefficients j, j + s, ...
        slices = folded.reshape(rows, length, stride).transpose(0, 2, 1)
        slices = slices.reshape(rows * stride, length)

        def place(rem):
            """Rows (i, j) of E_j mod h as record i mod h(x^s): coefficient
            c of E_j mod h is coefficient j + s*c."""
            rem = rem.reshape(rows, stride, degree).transpose(0, 2, 1)
            return rem.reshape(rows, stride * degree)

        if length * degree > TABLE_ENTRIES:
            for i, mod in zip(indices, mods):
                _, rem = fp.divmod_rows(slices, fp.as_vec([mod]), q)
                out[i] = (factors[i][1], place(rem).copy())  # frees the walk array
            continue
        step = TABLE_ENTRIES // (length * degree)
        for start in range(0, len(indices), step):
            chunk = indices[start : start + step]
            table = fp.residue_matrix(mods[start : start + step], length, q)
            stacked = fp.mat_mul(slices, table.reshape(length, -1), q)
            del table  # freed before the next walk allocates another
            stacked = stacked.reshape(rows, stride, len(chunk), degree)
            for pos, i in enumerate(chunk):
                out[i] = (factors[i][1], place(stacked[:, :, pos]))
    return out


def _residue_pattern(residues):
    """(N, O): N[i, j] says record i is nonzero modulo factor j, O[i, j]
    that it is 1 there."""
    nonzero = np.stack([block.any(axis=1) for _, block in residues], axis=1)
    ones = np.stack(
        [(block[:, 0] == 1) & ~block[:, 1:].any(axis=1) for _, block in residues], axis=1
    )
    return nonzero, ones


def _idempotency_detail(nonzero: np.ndarray, ones: np.ndarray):
    """Modulo each factor of the certified factorization a record is a
    field element, so e*e = e iff every residue is 0 or 1."""
    bad = np.flatnonzero((nonzero & ~ones).any(axis=1)).tolist()
    return not bad, None if not bad else f"records {bad} fail e*e = e"


def _orthogonality_detail(pattern: np.ndarray):
    """The first pair i < j with (N @ N.T)[i, j] > 0, found from the
    factors that see more than one nonzero record, without the r x r
    product."""
    shared = pattern[:, pattern.sum(axis=0) > 1]
    rows = np.flatnonzero(shared.any(axis=1))
    if not rows.size:
        return True, None
    i = int(rows[0])
    j = i + 1 + int(np.flatnonzero(shared[i + 1 :] @ shared[i])[0])
    return False, f"records {i} and {j} have a nonzero product"


def _completeness_detail(matrix: np.ndarray, q: int):
    if not matrix.shape[0]:
        return False, "empty system"
    total = matrix.sum(axis=0) % q  # r*(q-1) stays far below 2^63
    total[0] = (total[0] - 1) % q  # zero iff the records sum to the identity
    bad = np.flatnonzero(total)
    if bad.size:
        return False, f"sum differs from 1 at coefficient {int(bad[0])}"
    return True, None


def _primitivity_detail(residues, nonzero: np.ndarray, ones: np.ndarray):
    count, factors = nonzero.shape
    if count != factors:
        return False, f"{count} records but {factors} irreducible factors"
    mixed = nonzero & ~ones
    columns = np.flatnonzero(mixed.any(axis=0))
    if columns.size:
        j = int(columns[0])
        i = int(np.flatnonzero(mixed[:, j])[0])
        degree = residues[j][0].degree
        return False, f"record {i} has residue neither 0 nor 1 modulo a degree-{degree} factor"
    one_count = ones.sum(axis=1)
    bad = np.flatnonzero(one_count != 1)
    if bad.size:
        i = int(bad[0])
        return False, f"record {i} is = 1 modulo {int(one_count[i])} factors (want exactly 1)"
    return True, None


def sets_equal(a, b) -> bool:
    """Equality of the underlying ring-element sets, label-agnostic: the same
    field, the same ring length and the same set of coefficient rows."""
    (qa, na, ra), (qb, nb, rb) = _stacked(a), _stacked(b)
    if not (len(ra) and len(rb)):
        return len(ra) == len(rb)
    key = tuple if ra.dtype == object or rb.dtype == object else np.ndarray.tobytes
    return (qa, na) == (qb, nb) and set(map(key, ra)) == set(map(key, rb))


def verify_system(records, instance: ProblemInstance, *, against_oracle: bool = False) -> VerificationReport:
    """Run the full battery on a claimed idempotent system.  Nonzero and
    completeness are computed on the coefficients; idempotency,
    orthogonality and primitivity are read from one pass of residues
    modulo the certified factorization of x^n - 1."""
    matrix = _record_matrix(records, instance.q, instance.n)
    residues = _residues(matrix, instance)  # refuses a q past the int64 rule
    nonzero, ones = _residue_pattern(residues)
    zero = np.flatnonzero(~matrix.any(axis=1)).tolist()
    count, expected = len(matrix), len(cyclotomic_cosets(instance.q, instance.n).cosets)
    outcomes = {  # name -> (passed, detail if failed)
        "nonzero": (not zero, f"records {zero} are zero"),
        "idempotency": _idempotency_detail(nonzero, ones),
        "orthogonality": _orthogonality_detail(nonzero),
        "completeness": _completeness_detail(matrix, instance.q),
        "cardinality": (count == expected, f"{count} records but {expected} cyclotomic cosets"),
        "primitivity": _primitivity_detail(residues, nonzero, ones),
    }
    del matrix, residues  # freed before the oracle builds its own records
    if against_oracle:
        ok = sets_equal(records, all_idempotents_euclid(instance))
        outcomes["oracle-equality"] = (ok, "set differs from the Euclid oracle set")
    checks = tuple(CheckResult(name, ok, None if ok else why) for name, (ok, why) in outcomes.items())
    return VerificationReport(instance=instance.describe(), checks=checks)
