from __future__ import annotations

import pytest

from idemforge import (
    CyclicRingElement,
    UsageError,
    check_completeness,
    check_idempotency,
    check_orthogonality,
    check_primitivity,
    dispatch,
    get_prime_field,
    instance_parameters,
    sets_equal,
    verify_system,
)
from idemforge.engine import IdempotentRecord


@pytest.fixture(scope="module")
def golden():
    inst = instance_parameters(17, 13, 2)
    return inst, dispatch(inst)


def _replace_value(record, value):
    return IdempotentRecord(
        value=value,
        label=record.label,
        kind=record.kind,
        params=record.params,
        method=record.method,
    )


def test_idempotency_on_golden(golden):
    _, recs = golden
    assert all(check_idempotency(r) for r in recs)


def test_zero_is_idempotent_but_rejected_by_system(golden):
    inst, recs = golden
    field = get_prime_field(17)
    zero = CyclicRingElement.from_ints(field, [0] * 169)
    assert check_idempotency(zero)  # 0*0 = 0
    tampered = list(recs[:-1]) + [_replace_value(recs[-1], zero)]
    report = verify_system(tampered, inst, with_primitivity=False)
    names = {c.name for c in report.checks if not c.passed}
    assert "nonzero" in names and not report.passed


def test_unit_sum_idempotent_over_f2():
    field = get_prime_field(2)
    sigma = CyclicRingElement.from_ints(field, [1] * 7)
    assert check_idempotency(sigma)  # squaring permutes exponents


def test_orthogonality_and_completeness(golden):
    _, recs = golden
    assert check_orthogonality(recs)
    assert check_completeness(recs)


def test_singleton_identity_system():
    inst = instance_parameters(5, 3, 0)
    recs = dispatch(inst)
    assert check_orthogonality(recs)  # vacuous
    assert check_completeness(recs)
    assert check_primitivity(recs, inst)


def test_primitivity_on_golden(golden):
    inst, recs = golden
    assert check_primitivity(recs, inst)


def test_primitivity_fails_for_merged_records():
    # replacing two primitive idempotents by their sum shrinks the system
    inst = instance_parameters(7, 3, 1)
    recs = dispatch(inst)
    merged = recs[0].value + recs[1].value
    smaller = [_replace_value(recs[0], merged)] + list(recs[2:])
    assert check_idempotency(smaller[0])  # still an idempotent
    assert not check_primitivity(smaller, inst)  # cardinality mismatch
    # keeping the cardinality but duplicating residues also fails
    padded = [_replace_value(recs[0], merged), recs[1]] + list(recs[2:])
    assert not check_primitivity(padded, inst)


def test_sets_equal_is_label_agnostic(golden):
    inst, recs = golden
    relabeled = [
        IdempotentRecord(r.value, f"x{i}", "generic", None, "euclid")
        for i, r in enumerate(recs)
    ]
    assert sets_equal(recs, relabeled)
    assert sets_equal(recs, recs)
    assert not sets_equal(recs, recs[1:])


def test_verify_system_full_pass(golden):
    inst, recs = golden
    report = verify_system(recs, inst, against_oracle=True)
    assert report.passed
    assert {c.name for c in report.checks} == {
        "nonzero",
        "idempotency",
        "orthogonality",
        "completeness",
        "cardinality",
        "primitivity",
        "oracle-equality",
    }


def test_verify_system_names_first_counterexample():
    inst = instance_parameters(2, 7, 1)
    recs = list(dispatch(inst))
    field = get_prime_field(2)
    coeffs = list(recs[1].value.int_coeffs())
    coeffs[2] ^= 1  # perturb one coefficient
    recs[1] = _replace_value(recs[1], CyclicRingElement.from_ints(field, coeffs))
    report = verify_system(recs, inst)
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert any(c.name == "idempotency" and "1" in (c.detail or "") for c in failed)
    text = report.render_text()
    assert "FAIL" in text and "idempotency" in text


def test_report_overall_iff_all_checks(golden):
    inst, recs = golden
    report = verify_system(recs, inst)
    assert report.passed == all(c.passed for c in report.checks)
    doc = report.to_dict()
    assert doc["passed"] is True and doc["schema"] == "idemforge/1"


def test_oracle_set_verifies_on_assorted_instances():
    for q, p, k in [(2, 7, 1), (7, 3, 2), (3, 5, 2), (13, 3, 3)]:
        inst = instance_parameters(q, p, k)
        recs = dispatch(inst, "euclid")
        assert verify_system(recs, inst).passed


def test_int64_bound_rejects_large_q():
    # 9 * (2^31 - 2)^2 overflows int64: the products must be refused, not
    # reported as failed checks on a correct system
    inst = instance_parameters(2147483647, 3, 2)
    with pytest.raises(UsageError, match=r"length\*\(q-1\)\^2 < 2\^63"):
        verify_system(dispatch(inst), inst, with_primitivity=False)
