from __future__ import annotations

import math

import numpy as np
import pytest

from idemforge import _fastpoly as fp
from idemforge import (
    CyclicRingElement,
    UsageError,
    dispatch,
    factor_xn_minus_1,
    get_prime_field,
    instance_parameters,
    sets_equal,
    verify_system,
)
from idemforge.engine import IdempotentRecord, IdempotentSystem


@pytest.fixture(scope="module")
def golden():
    inst = instance_parameters(17, 13, 2)
    return inst, dispatch(inst)


def _check(records, inst, name):
    """Whether the named check of `verify_system` passes."""
    return next(c.passed for c in verify_system(records, inst).checks if c.name == name)


def _replace_value(record, value):
    return IdempotentRecord(
        value=value,
        label=record.label,
        kind=record.kind,
        params=record.params,
        method=record.method,
    )


def test_idempotency_on_golden(golden):
    inst, recs = golden
    assert _check(recs, inst, "idempotency")


def test_zero_is_idempotent_but_rejected_by_system(golden):
    inst, recs = golden
    field = get_prime_field(17)
    zero = CyclicRingElement.from_ints(field, [0] * 169)
    assert zero * zero == zero
    tampered = list(recs[:-1]) + [_replace_value(recs[-1], zero)]
    report = verify_system(tampered, inst)
    names = {c.name for c in report.checks if not c.passed}
    assert "nonzero" in names and not report.passed


def test_unit_sum_idempotent_over_f2():
    field = get_prime_field(2)
    sigma = CyclicRingElement.from_ints(field, [1] * 7)
    assert sigma * sigma == sigma  # squaring permutes exponents
    assert _check([sigma], instance_parameters(2, 7, 1), "idempotency")


def test_orthogonality_and_completeness(golden):
    inst, recs = golden
    assert _check(recs, inst, "orthogonality")
    assert _check(recs, inst, "completeness")


def test_singleton_identity_system():
    inst = instance_parameters(5, 3, 0)
    recs = dispatch(inst)
    assert _check(recs, inst, "orthogonality")  # vacuous
    assert _check(recs, inst, "completeness")
    assert _check(recs, inst, "primitivity")


def test_primitivity_on_golden(golden):
    inst, recs = golden
    assert _check(recs, inst, "primitivity")


def test_primitivity_fails_for_merged_records():
    # replacing two primitive idempotents by their sum shrinks the system
    inst = instance_parameters(7, 3, 1)
    recs = dispatch(inst)
    merged = recs[0].value + recs[1].value
    smaller = [_replace_value(recs[0], merged)] + list(recs[2:])
    assert merged * merged == merged  # still an idempotent
    assert not _check(smaller, inst, "primitivity")  # cardinality mismatch
    # keeping the cardinality but duplicating residues also fails
    padded = [_replace_value(recs[0], merged), recs[1]] + list(recs[2:])
    assert not _check(padded, inst, "primitivity")


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
        verify_system(dispatch(inst), inst)


def test_empty_system_is_reported_not_raised():
    # an empty document reaches the residues with zero rows
    inst = instance_parameters(2, 3, 5)  # strides up to 81
    report = verify_system([], inst)
    failed = {c.name: c.detail for c in report.checks if not c.passed}
    assert failed == {
        "completeness": "empty system",
        "cardinality": "0 records but 6 cyclotomic cosets",
        "primitivity": "0 records but 6 irreducible factors",
    }


def test_records_of_another_length_are_rejected():
    inst = instance_parameters(7, 3, 2)
    recs = dispatch(instance_parameters(7, 3, 1))
    with pytest.raises(UsageError, match="n=9 coefficients"):
        verify_system(recs, inst)


def _cyclic_product(a, b, q):
    """Reference product in F_q[x]/(x^n - 1), pure Python."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % n] = (out[(i + j) % n] + x * y) % q
    return out


def _first_nonorthogonal_pair(values, q):
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if any(_cyclic_product(values[i], values[j], q)):
                return i, j
    return None


def _tampered_systems(recs, q):
    field = get_prime_field(q)
    coeffs = [list(r.value.int_coeffs()) for r in recs]
    last = len(recs) - 1

    def with_value(index, ints):
        out = list(recs)
        out[index] = _replace_value(recs[index], CyclicRingElement.from_ints(field, ints))
        return out

    def flip(i):
        out = list(coeffs[1])
        out[i] = (out[i] + 1) % q
        return out

    def idempotent(ints):
        v = CyclicRingElement.from_ints(field, ints)
        return v * v == v

    # the first single-coefficient change that leaves record 1 non-idempotent
    flipped = next(flip(i) for i in range(len(coeffs[1])) if not idempotent(flip(i)))
    return {
        "sum": with_value(1, [(a + b) % q for a, b in zip(coeffs[1], coeffs[last])]),
        "duplicate": with_value(last, coeffs[0]),
        "flipped": with_value(1, flipped),
        "zero": with_value(0, [0] * len(coeffs[0])),
    }


@pytest.mark.parametrize("q, p, k", [(2, 7, 1), (7, 3, 2), (13, 3, 3), (17, 13, 2)])
def test_orthogonality_matches_pairwise_products(q, p, k):
    inst = instance_parameters(q, p, k)
    recs = dispatch(inst)
    systems = {"untouched": list(recs), **_tampered_systems(recs, q)}
    for name, system in systems.items():
        pair = _first_nonorthogonal_pair([list(r.value.int_coeffs()) for r in system], q)
        report = verify_system(system, inst)
        check = next(c for c in report.checks if c.name == "orthogonality")
        assert check.passed == (pair is None), name
        if pair is not None:
            assert check.detail == f"records {pair[0]} and {pair[1]} have a nonzero product", name


def test_verify_makes_no_pairwise_products(monkeypatch):
    # idempotency and orthogonality come from residues: no record goes
    # through the cyclic multiplication
    inst = instance_parameters(251, 5, 3)
    recs = dispatch(inst)
    assert len(recs) == 125
    calls = []
    multiply = CyclicRingElement.__mul__

    def counted(self, other):
        calls.append(1)
        return multiply(self, other)

    monkeypatch.setattr(CyclicRingElement, "__mul__", counted)
    assert verify_system(recs, inst).passed
    assert not calls


def _residue_groups(inst):
    """(N, s, deg h) for every factor f = h(x^s) of order N, with s the gcd
    of N and the exponents of f's terms."""
    groups = set()
    for order, f in factor_xn_minus_1(inst):
        stride = math.gcd(order, *(e for e, c in enumerate(f.int_coeffs()) if c))
        groups.add((order, stride, f.degree // stride))
    return groups


def _with_random_rows(matrix, q, seed=0, count=4):
    rng = np.random.default_rng(seed)
    return np.concatenate([matrix, rng.integers(0, q, size=(count, matrix.shape[1]))])


@pytest.mark.parametrize("q, p, k", [(251, 5, 3), (13, 3, 6)])
def test_verify_calls_the_product_kernel_per_degree_not_per_record(monkeypatch, fresh_caches, q, p, k):
    # no square of any record: idempotency is read from the residues, which
    # take one product per group of factors sharing (N, s, deg h); the
    # oracle takes two (e = P*h and e*e) per degree and factor order
    inst = instance_parameters(q, p, k)
    recs = dispatch(inst)
    groups = _residue_groups(inst)
    stacks = {(f.degree, order) for order, f in factor_xn_minus_1(inst)}
    calls = {"conv_rows": 0, "mat_mul": 0}
    for name in calls:

        def counted(*args, kernel=getattr(fp, name), name=name, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(fp, name, counted)
    assert verify_system(recs, inst).passed
    assert calls == {"conv_rows": 0, "mat_mul": len(groups)}
    assert verify_system(recs, inst, against_oracle=True).passed
    assert calls["mat_mul"] == 2 * len(groups)
    assert 0 < calls["conv_rows"] <= 2 * len(stacks)


def test_residues_by_division_match_the_tables(monkeypatch):
    # (13,3,3): factors x - a, x^3 - a, x^9 - a (strides 1, 3, 9);
    # (3,2,5): h(x^s) with deg h <= 2 and strides 1, 2, 4
    from idemforge import verifier

    calls = []  # (path, operand rows or table entries)

    def recorded(name, path, size):
        kernel = getattr(fp, name)

        def wrapper(*args, **kwargs):
            out = kernel(*args, **kwargs)
            calls.append((path, size(args, out)))
            return out

        monkeypatch.setattr(fp, name, wrapper)

    recorded("residue_matrix", "table", lambda args, out: out.size)
    recorded("mat_mul", "product", lambda args, out: len(args[0]))
    recorded("divmod_rows", "division", lambda args, out: len(args[0]))
    for q, p, k in [(13, 3, 3), (3, 2, 5)]:
        inst = instance_parameters(q, p, k)
        records = dispatch(inst, "euclid")
        matrix = _with_random_rows(verifier._record_matrix(records, q, inst.n), q)
        rows = len(matrix)
        monkeypatch.setattr(verifier, "TABLE_ENTRIES", fp.TABLE_ENTRIES)
        by_table = verifier._residues(matrix, inst)
        groups = _residue_groups(inst)
        cap = max(order // stride * degree for order, stride, degree in groups)
        monkeypatch.setattr(verifier, "TABLE_ENTRIES", cap)  # one factor per table
        calls.clear()
        capped = verifier._residues(matrix, inst)
        tables = [size for path, size in calls if path == "table"]
        assert max(tables) <= cap and len(tables) > len(groups)
        # a stride group s > 1 multiplies its rows * s slices by a table
        assert any(path == "product" and size > rows for path, size in calls)
        monkeypatch.setattr(verifier, "TABLE_ENTRIES", 0)  # every table is over the cap
        calls.clear()
        by_division = verifier._residues(matrix, inst)
        assert {path for path, _ in calls} == {"division"}
        assert any(size > rows for _, size in calls)
        for (f, a), (g, b), (h, c) in zip(by_table, capped, by_division):
            assert f == g == h
            assert a.tolist() == b.tolist() == c.tolist()


@pytest.mark.parametrize(
    "q, p, k", [(13, 3, 6), (101, 5, 4), (7, 2, 6), (3, 2, 5), (17, 13, 2), (2, 3, 5)]
)
def test_folded_residues_match_division_of_the_unfolded_records(q, p, k):
    from idemforge import verifier

    inst = instance_parameters(q, p, k)
    matrix = _with_random_rows(verifier._record_matrix(dispatch(inst, "euclid"), q, inst.n), q)
    residues = verifier._residues(matrix, inst)
    assert [f for f, _ in residues] == [f for _, f in factor_xn_minus_1(inst)]
    for f, block in residues:
        _, reference = fp.divmod_rows(matrix, fp.as_vec([f.int_coeffs()]), q)
        assert block.tolist() == reference.tolist(), f


@pytest.mark.parametrize("q, p, k", [(2, 7, 1), (7, 3, 2), (13, 3, 3), (17, 13, 2)])
def test_idempotency_failures_match_pairwise_squares(q, p, k):
    inst = instance_parameters(q, p, k)
    recs = dispatch(inst)
    systems = _tampered_systems(recs, q)
    # e*(1 + x) for the last record, whose factor has degree > 1: its one
    # nonzero residue 1 + x keeps the constant term 1
    last = len(recs) - 1
    coeffs = list(recs[last].value.int_coeffs())
    shifted = [(a + b) % q for a, b in zip(coeffs, coeffs[-1:] + coeffs[:-1])]
    value = CyclicRingElement.from_ints(get_prime_field(q), shifted)
    systems["shifted"] = list(recs[:last]) + [_replace_value(recs[last], value)]
    systems["two bad"] = systems["flipped"][:last] + systems["shifted"][last:]
    for name, system in systems.items():
        values = [list(r.value.int_coeffs()) for r in system]
        bad = [i for i, v in enumerate(values) if _cyclic_product(v, v, q) != v]
        check = next(c for c in verify_system(system, inst).checks if c.name == "idempotency")
        assert check.passed == (not bad), name
        assert check.detail == (f"records {bad} fail e*e = e" if bad else None), name


def test_records_over_another_field_are_rejected():
    # the batched products run over the instance's field, so records over
    # another one are refused rather than verified in the wrong field
    inst = instance_parameters(7, 3, 2)
    recs = dispatch(instance_parameters(13, 3, 2))
    with pytest.raises(UsageError, match="over F_7"):
        verify_system(recs, inst)


def test_sets_equal_compares_the_field():
    # the same rows over F_7 and F_11 are different ring elements
    x7 = CyclicRingElement.from_ints(get_prime_field(7), [1, 0, 0])
    x11 = CyclicRingElement.from_ints(get_prime_field(11), [1, 0, 0])
    assert x7 != x11
    assert not sets_equal([x7], [x11])
    assert sets_equal([x7], [CyclicRingElement.from_ints(get_prime_field(7), [8, 7, 14])])
    systems = [IdempotentSystem(q, 3, [[1, 0, 0]], ["e"], ["generic"], [None], "m") for q in (7, 11)]
    assert not sets_equal(*systems)
    assert not sets_equal(systems[0], [x11]) and sets_equal(systems[0], [x7])
    assert not sets_equal([CyclicRingElement.from_ints(get_prime_field(7), [1, 0])], [x7])


def test_verify_reads_the_system_array_as_it_is(monkeypatch):
    from idemforge import verifier

    inst = instance_parameters(13, 3, 3)
    system = dispatch(inst)
    assert verifier._record_matrix(system, 13, inst.n) is system.coeffs
    seen = []
    residues = verifier._residues
    monkeypatch.setattr(verifier, "_residues", lambda m, i: seen.append(m) or residues(m, i))
    assert verify_system(system, inst, against_oracle=True).passed
    assert seen[0] is system.coeffs
    # a plain list of the same records is stacked, with the same verdict
    assert verify_system(list(system), inst, against_oracle=True) == verify_system(
        system, inst, against_oracle=True
    )


def test_a_list_of_records_past_int64_is_stacked_as_its_system_is():
    # q = 2^64 + 51: the system holds object rows, and a plain list of its
    # records stacks to the same dtype, so only the int64 rule refuses it
    inst = instance_parameters(18446744073709551667, 3, 1)
    system = dispatch(inst)
    assert system.coeffs.dtype == object
    assert sets_equal(list(system), system) and sets_equal(system, list(system))
    for records in (system, list(system)):
        with pytest.raises(UsageError, match=r"length\*\(q-1\)\^2 < 2\^63"):
            verify_system(records, inst)
