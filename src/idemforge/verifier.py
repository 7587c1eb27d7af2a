"""Independent validation of a claimed idempotent system: idempotency and
completeness on the coefficients, orthogonality and primitivity through the
residues modulo the irreducible factors of x^n - 1, and set equality
against the Euclid oracle.  Reports name the first counterexample so
regressions stay debuggable."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _fastpoly as fp
from ._fastpoly import TABLE_ENTRIES
from .engine import _element, all_idempotents_euclid
from .errors import UsageError
from .structure import ProblemInstance, cyclotomic_cosets, factor_xn_minus_1


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
            "schema": "idemforge/1",
            "type": "verification-report",
            "instance": self.instance,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
            "passed": self.passed,
        }


def check_idempotency(e) -> bool:
    """e * e == e in the cyclic ring."""
    v = _element(e)
    return v * v == v


def check_orthogonality(records, instance: ProblemInstance) -> bool:
    """e_i * e_j = 0 for every pair i != j, read from the residues modulo
    the irreducible factors of x^n - 1."""
    matrix = _record_matrix(records, instance.q, instance.n)
    return _orthogonality_detail(_nonzero_pattern(_residues(matrix, instance)))[0]


def _record_matrix(records, q: int, n: int) -> np.ndarray:
    """The r x n int64 matrix of record coefficients over F_q."""
    values = [_element(r) for r in records]
    if any(v.n != n for v in values):
        raise UsageError(f"every record must have n={n} coefficients")
    if any(v.field.q != q for v in values):
        raise UsageError(f"every record must live over F_{q}")
    return fp.as_vec([v.int_coeffs() for v in values]).reshape(len(values), n)


def _idempotency_failures(matrix: np.ndarray, q: int) -> list[int]:
    """Records i with e_i * e_i != e_i, from one batched product."""
    squares = fp.conv_rows(matrix, matrix, q, matrix.shape[1])
    return np.flatnonzero((squares != matrix).any(axis=1)).tolist()


def _residues(matrix: np.ndarray, instance: ProblemInstance):
    """(f, R_f) for every irreducible factor f of x^n - 1, in
    `factor_xn_minus_1` order, where row i of R_f is record i mod f.

    The factorization is certified, so e -> (e mod f)_f is a ring
    isomorphism onto a product of fields: a product of records is zero iff
    no factor sees a nonzero residue in both.  Factors of one degree are
    reduced together, one table walk and one product per slice of at most
    TABLE_ENTRIES table entries.  A factor whose table alone would pass
    that cap is reduced by one division walk over the records instead."""
    q, n = instance.q, instance.n
    fp.check_int64_exact(n, q)  # before any table walk: residues sum n products
    factors = [f for _, f in factor_xn_minus_1(instance)]
    by_degree: dict[int, list[int]] = {}
    for index, f in enumerate(factors):
        by_degree.setdefault(f.degree, []).append(index)
    out = [None] * len(factors)
    for degree, indices in by_degree.items():
        if n * degree > TABLE_ENTRIES:
            for i in indices:
                _, rem = fp.divmod_rows(matrix, fp.as_vec([factors[i].int_coeffs()]), q)
                out[i] = (factors[i], rem.copy())  # frees the r x n walk array
            continue
        step = TABLE_ENTRIES // (n * degree)
        for start in range(0, len(indices), step):
            chunk = indices[start : start + step]
            table = fp.residue_matrix([factors[i].int_coeffs() for i in chunk], n, q)
            stacked = fp.mat_mul(matrix, table.reshape(n, -1), q)
            del table  # freed before the next walk allocates another
            stacked = stacked.reshape(len(matrix), len(chunk), degree)
            for pos, i in enumerate(chunk):
                out[i] = (factors[i], stacked[:, pos])
    return out


def _nonzero_pattern(residues) -> np.ndarray:
    """N[i, j]: record i has a nonzero residue modulo factor j."""
    return np.stack([block.any(axis=1) for _, block in residues], axis=1)


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


def check_completeness(records) -> bool:
    """The records sum to the ring identity."""
    values = [_element(r) for r in records]
    if not values:
        return False
    q, n = values[0].field.q, values[0].n
    return _completeness_detail(_record_matrix(values, q, n), q)[0]


def _completeness_detail(matrix: np.ndarray, q: int):
    if not matrix.shape[0]:
        return False, "empty system"
    total = matrix.sum(axis=0) % q  # r*(q-1) stays far below 2^63
    total[0] = (total[0] - 1) % q  # zero iff the records sum to the identity
    bad = np.flatnonzero(total)
    if bad.size:
        return False, f"sum differs from 1 at coefficient {int(bad[0])}"
    return True, None


def check_primitivity(records, instance: ProblemInstance) -> bool:
    """Cardinality equals the number of irreducible factors of x^n - 1 and
    each record is = 1 modulo exactly one factor and = 0 modulo the rest."""
    matrix = _record_matrix(records, instance.q, instance.n)
    return _primitivity_detail(_residues(matrix, instance))[0]


def _primitivity_detail(residues):
    count = residues[0][1].shape[0]
    if count != len(residues):
        return False, f"{count} records but {len(residues)} irreducible factors"
    one_count = np.zeros(count, dtype=np.int64)
    for f, block in residues:
        is_one = (block[:, 0] == 1) & ~block[:, 1:].any(axis=1)
        is_zero = ~block.any(axis=1)
        mixed = np.nonzero(~is_one & ~is_zero)[0]
        if mixed.size:
            return (
                False,
                f"record {int(mixed[0])} has residue neither 0 nor 1 modulo a degree-{f.degree} factor",
            )
        one_count += is_one
    bad = np.nonzero(one_count != 1)[0]
    if bad.size:
        i = int(bad[0])
        return False, f"record {i} is = 1 modulo {int(one_count[i])} factors (want exactly 1)"
    return True, None


def sets_equal(a, b) -> bool:
    """Equality of the underlying ring-element sets, label-agnostic."""
    return {_element(x).key() for x in a} == {_element(x).key() for x in b}


def verify_system(
    records,
    instance: ProblemInstance,
    *,
    with_primitivity: bool = True,
    against_oracle: bool = False,
) -> VerificationReport:
    """Run the full battery on a claimed idempotent system.  Nonzero,
    idempotency and completeness are computed on the coefficients;
    orthogonality and primitivity are read from one pass of residues
    modulo the certified factorization of x^n - 1."""
    checks: list[CheckResult] = []

    zero_idx = [i for i, r in enumerate(records) if _element(r).is_zero()]
    checks.append(
        CheckResult(
            "nonzero",
            not zero_idx,
            None if not zero_idx else f"records {zero_idx} are zero",
        )
    )

    matrix = _record_matrix(records, instance.q, instance.n)
    bad = _idempotency_failures(matrix, instance.q)
    checks.append(
        CheckResult(
            "idempotency",
            not bad,
            None if not bad else f"records {bad} fail e*e = e",
        )
    )

    residues = _residues(matrix, instance)
    ok, detail = _orthogonality_detail(_nonzero_pattern(residues))
    checks.append(CheckResult("orthogonality", ok, detail))

    ok, detail = _completeness_detail(matrix, instance.q)
    checks.append(CheckResult("completeness", ok, detail))

    expected = len(cyclotomic_cosets(instance.q, instance.n).cosets)
    checks.append(
        CheckResult(
            "cardinality",
            len(records) == expected,
            None
            if len(records) == expected
            else f"{len(records)} records but {expected} cyclotomic cosets",
        )
    )

    if with_primitivity:
        ok, detail = _primitivity_detail(residues)
        checks.append(CheckResult("primitivity", ok, detail))
    del matrix, residues  # freed before the oracle builds its own records

    if against_oracle:
        oracle = all_idempotents_euclid(instance)
        ok = sets_equal(records, oracle)
        checks.append(
            CheckResult(
                "oracle-equality",
                ok,
                None if ok else "set differs from the Euclid oracle set",
            )
        )

    return VerificationReport(instance=instance.describe(), checks=tuple(checks))
