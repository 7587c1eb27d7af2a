"""Independent validation of a claimed idempotent system: algebraic
identities, primitivity through the factor correspondence, and set equality
against the Euclid oracle.  Reports name the first counterexample so
regressions stay debuggable."""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import IdempotentRecord, all_idempotents_euclid
from .errors import UsageError
from .polys import CyclicRingElement
from .structure import ProblemInstance, cyclotomic_cosets, factor_xn_minus_1


def _element(item) -> CyclicRingElement:
    if isinstance(item, IdempotentRecord):
        return item.value
    if isinstance(item, CyclicRingElement):
        return item
    raise UsageError("expected an IdempotentRecord or CyclicRingElement")


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


def check_orthogonality(records) -> bool:
    """e_i * e_j = 0 for every pair i != j."""
    return _orthogonality_detail(records)[0]


def _orthogonality_detail(records):
    values = [_element(r) for r in records]
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if not (values[i] * values[j]).is_zero():
                return False, f"records {i} and {j} have a nonzero product"
    return True, None


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
    return _primitivity_detail(records, instance)[0]


def _primitivity_detail(records, instance: ProblemInstance):
    factors = factor_xn_minus_1(instance)
    if len(records) != len(factors):
        return False, f"{len(records)} records but {len(factors)} irreducible factors"
    import numpy as np

    from . import _fastpoly as fp

    q, n = instance.q, instance.n
    fp.check_int64_exact(n, q)  # values @ reducer sums n products per entry
    values = np.array([_element(r).int_coeffs() for r in records], dtype=np.int64)
    one_count = np.zeros(len(records), dtype=np.int64)
    for _, f in factors:
        reducer = fp.residue_matrix(fp.as_vec(f.int_coeffs()), n, q)
        residues = (values @ reducer) % q
        is_one = (residues[:, 0] == 1) & ~residues[:, 1:].any(axis=1)
        is_zero = ~residues.any(axis=1)
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
    """Run the full battery on a claimed idempotent system."""
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

    ok, detail = _orthogonality_detail(records)
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
        ok, detail = _primitivity_detail(records, instance)
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
