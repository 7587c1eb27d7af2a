"""Independent validation of a claimed idempotent system: idempotency and
completeness on the coefficients, orthogonality and primitivity through the
residues modulo the irreducible factors of x^n - 1, and set equality
against the Euclid oracle.  Reports name the first counterexample so
regressions stay debuggable."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _fastpoly as fp
from .engine import _element, all_idempotents_euclid
from .errors import UsageError
from .polys import CyclicRingElement
from .structure import ProblemInstance, cyclotomic_cosets, factor_xn_minus_1

# Cap on the int64 entries of one residue table (32 MB).
TABLE_ENTRIES = 1 << 22


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
    return _orthogonality_detail(_nonzero_pattern(_residues(records, instance)))[0]


def _residues(records, instance: ProblemInstance):
    """(f, R_f) for every irreducible factor f of x^n - 1, in
    `factor_xn_minus_1` order, where row i of R_f is record i mod f.

    The factorization is certified, so e -> (e mod f)_f is a ring
    isomorphism onto a product of fields: a product of records is zero iff
    no factor sees a nonzero residue in both.  Factors of one degree are
    reduced together, one table walk per distinct degree, in slices of at
    most TABLE_ENTRIES table entries unless one factor alone needs more."""
    q, n = instance.q, instance.n
    values = [_element(r) for r in records]
    if any(v.n != n for v in values):
        raise UsageError(f"every record must have n={n} coefficients")
    fp.check_int64_exact(n, q)  # matrix @ table sums n products per entry
    matrix = np.array([v.int_coeffs() for v in values], dtype=np.int64).reshape(len(values), n)
    factors = [f for _, f in factor_xn_minus_1(instance)]
    by_degree: dict[int, list[int]] = {}
    for index, f in enumerate(factors):
        by_degree.setdefault(f.degree, []).append(index)
    out = [None] * len(factors)
    for degree, indices in by_degree.items():
        step = max(1, TABLE_ENTRIES // (n * degree))
        for start in range(0, len(indices), step):
            chunk = indices[start : start + step]
            table = fp.residue_matrix([factors[i].int_coeffs() for i in chunk], n, q)
            stacked = (matrix @ table.reshape(n, -1)) % q
            del table  # freed before the next walk allocates another
            stacked = stacked.reshape(len(values), len(chunk), degree)
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
    return _completeness_detail(records)[0]


def _completeness_detail(records):
    values = [_element(r) for r in records]
    if not values:
        return False, "empty system"
    total = values[0]
    for v in values[1:]:
        total = total + v
    identity = CyclicRingElement.identity(values[0].field, values[0].n)
    if total != identity:
        bad = next(
            i for i, (a, b) in enumerate(zip(total.coeffs, identity.coeffs)) if a != b
        )
        return False, f"sum differs from 1 at coefficient {bad}"
    return True, None


def check_primitivity(records, instance: ProblemInstance) -> bool:
    """Cardinality equals the number of irreducible factors of x^n - 1 and
    each record is = 1 modulo exactly one factor and = 0 modulo the rest."""
    return _primitivity_detail(_residues(records, instance))[0]


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

    bad = [i for i, r in enumerate(records) if not check_idempotency(r)]
    checks.append(
        CheckResult(
            "idempotency",
            not bad,
            None if not bad else f"records {bad} fail e*e = e",
        )
    )

    residues = _residues(records, instance)
    ok, detail = _orthogonality_detail(_nonzero_pattern(residues))
    checks.append(CheckResult("orthogonality", ok, detail))

    ok, detail = _completeness_detail(records)
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
