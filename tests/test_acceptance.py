"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with -s to see them live)."""

from __future__ import annotations

import io
import json
import time

import pytest

from idemforge import (
    all_idempotents_euclid,
    dispatch,
    fully_split_idempotents,
    generator_polynomial,
    instance_parameters,
    min_distance_exhaustive,
    primitive_root_idempotents,
    sets_equal,
    summaries_for,
    third_type_census,
    verify_system,
)
from idemforge.cli import main as cli_main, parse_document, render_document
from idemforge.structure import euler_phi_prime_power, multiplicative_order

GRID_QS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
GRID_PS = (3, 5, 7, 11, 13)
GRID_MAX_N = 400


def _grid_instances():
    out = []
    for q in GRID_QS:
        for p in GRID_PS:
            if p == q:
                continue
            k = 0
            while p**k <= GRID_MAX_N:
                out.append(instance_parameters(q, p, k))
                k += 1
    return out


@pytest.fixture(scope="module")
def grid():
    """Oracle and dispatch sets for every grid instance, with the wall time
    of the full pipeline (fields, factorizations, both constructions)."""
    instances = _grid_instances()
    start = time.perf_counter()
    rows = [(inst, all_idempotents_euclid(inst), dispatch(inst)) for inst in instances]
    elapsed = time.perf_counter() - start
    return rows, elapsed


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {desc}")


# -- criterion 1: golden fixture ------------------------------------------

_BLOCK_A = (11, 5, 13, 5, 5, 13, 13, 13, 13, 5, 5, 13, 5)
_BLOCK_B = (11, 13, 5, 13, 13, 5, 5, 5, 5, 13, 13, 5, 13)
_THIRD_A = (7, 14, 16, 14, 14, 16, 16, 16, 16, 14, 14, 16, 14)
_THIRD_B = (7, 16, 14, 16, 16, 14, 14, 14, 14, 16, 16, 14, 16)


def _golden_set():
    def spread(vals):
        coeffs = [0] * 169
        for j, v in enumerate(vals):
            coeffs[13 * j] = v
        return tuple(coeffs)

    return {
        (16,) * 169,
        tuple(_BLOCK_A[l % 13] for l in range(169)),
        tuple(_BLOCK_B[l % 13] for l in range(169)),
        spread(_THIRD_A),
        spread(_THIRD_B),
    }


def test_criterion_1_golden_fixture():
    start = time.perf_counter()
    inst = instance_parameters(17, 13, 2)
    records = dispatch(inst)
    elapsed = time.perf_counter() - start
    got = {r.value.int_coeffs() for r in records}
    ok = len(records) == 5 and got == _golden_set() and elapsed < 1.0
    _line(1, ok, f"(17,13,2) matches the printed fixture exactly in {elapsed:.3f}s")
    assert len(records) == 5
    assert got == _golden_set()
    assert elapsed < 1.0


# -- criterion 2: oracle equivalence grid ----------------------------------


def test_criterion_2_oracle_equivalence_grid(grid):
    rows, elapsed = grid
    mismatches = [
        inst.describe() for inst, oracle, closed in rows if not sets_equal(oracle, closed)
    ]
    ok = not mismatches and elapsed < 60.0
    _line(2, ok, f"{len(rows)} instances, dispatch = oracle everywhere, {elapsed:.1f}s")
    assert mismatches == []
    assert elapsed < 60.0


# -- criterion 3: system properties on the grid -----------------------------


def test_criterion_3_system_properties(grid):
    rows, _ = grid
    failures = []
    for inst, _, closed in rows:
        report = verify_system(closed, inst)
        if not report.passed:
            failures.append(inst.describe())
    _line(3, not failures, f"idempotency/orthogonality/completeness/cardinality/primitivity on {len(rows)} instances")
    assert failures == []


# -- criterion 4: regime consistency ----------------------------------------


def test_criterion_4_regime_consistency(grid):
    rows, _ = grid
    split_checked = root_checked = 0
    failures = []
    for inst, _, closed in rows:
        if (inst.q - 1) % inst.n == 0:
            split_checked += 1
            if not sets_equal(fully_split_idempotents(inst.q, inst.n), closed):
                failures.append(f"fully-split {inst.describe()}")
        phi = euler_phi_prime_power(inst.p, inst.k)
        if multiplicative_order(inst.q, inst.n) == phi:
            root_checked += 1
            if not sets_equal(primitive_root_idempotents(inst.q, inst.p, inst.k), closed):
                failures.append(f"primitive-root {inst.describe()}")
    coverage = {(2, 3, 2), (3, 5, 1)}
    covered = {(i.q, i.p, i.k) for i, _, _ in rows} >= coverage
    ok = not failures and split_checked > 0 and root_checked > 0 and covered
    _line(4, ok, f"{split_checked} fully-split and {root_checked} primitive-root instances agree")
    assert failures == []
    assert split_checked and root_checked and covered


# -- criterion 5: choice independence ----------------------------------------

# instances with t > 1 whose F_{q^t} admits a second irreducible modulus
_CHOICE_INSTANCES = ((17, 13, 2), (2, 7, 1), (23, 13, 2), (3, 5, 2), (19, 13, 2), (5, 11, 1))


def test_criterion_5_choice_independence():
    checked = 0
    for q, p, k in _CHOICE_INSTANCES:
        inst = instance_parameters(q, p, k)
        assert inst.t > 1
        base = dispatch(inst)
        other = dispatch(inst, modulus_skip=1, generator_skip=1)
        assert sets_equal(base, other), inst.describe()
        checked += 1
    ok = checked >= 5
    _line(5, ok, f"{checked} instances identical under the second modulus and generator")
    assert checked >= 5


# -- criterion 6: count-formula audit ----------------------------------------


def test_criterion_6_count_formula_audit(grid):
    # two candidate counting rules for third-type records at level s:
    # phi(p^m)/t per level, versus the level-dependent phi(p^(k-s+m))/t
    rows, _ = grid
    flat_hits = leveled_hits = total = 0
    flat_misses = []
    for inst, _, closed in rows:
        census = third_type_census(closed)
        if not census:
            continue
        m_eff, t, p, k = inst.effective_m, inst.t, inst.p, inst.k
        for s, count in census.items():
            total += 1
            flat_rule = euler_phi_prime_power(p, m_eff) // t
            leveled_rule = euler_phi_prime_power(p, k - s + inst.m) // t
            if count == flat_rule:
                flat_hits += 1
            else:
                flat_misses.append(f"{inst.describe()} s={s}: {count} != {flat_rule}")
            if count == leveled_rule:
                leveled_hits += 1
    print(
        f"[criterion 6] audit over {total} (instance, s) pairs: "
        f"phi(p^m)/t matched {flat_hits}/{total}; "
        f"phi(p^(k-s+m))/t matched {leveled_hits}/{total} (exactly the s=k cases)"
    )
    ok = not flat_misses and total > 0 and leveled_hits < total
    _line(6, ok, "per-level third-type count follows phi(p^m)/t")
    assert flat_misses == []
    assert total > 0
    # the level-dependent rule only agrees when s = k, so it is not the law
    assert leveled_hits < total


# -- supporting invariant: the oracle set itself verifies everywhere ----------


def test_oracle_sets_fully_verify_on_grid(grid):
    rows, _ = grid
    failures = []
    for inst, oracle, _ in rows:
        report = verify_system(oracle, inst)
        if not report.passed:
            failures.append(inst.describe())
    assert failures == []


# -- criterion 7: minimal codes ----------------------------------------------


def test_criterion_7_codes():
    start = time.perf_counter()
    inst = instance_parameters(2, 7, 1)
    records = dispatch(inst)
    params = []
    for r in records:
        g = generator_polynomial(r, 7)
        dist = min_distance_exhaustive(g, 7, 2)
        params.append((7, 7 - g.degree, dist))
    inst2 = instance_parameters(7, 3, 2)
    dims = sorted(s.dimension for s in summaries_for(dispatch(inst2), 9, 7))
    elapsed = time.perf_counter() - start
    ok = (
        sorted(params) == [(7, 1, 7), (7, 3, 4), (7, 3, 4)]
        and dims == [1, 1, 1, 3, 3]
        and sum(dims) == 9
        and elapsed < 1.0
    )
    _line(7, ok, f"[7,1,7]+2x[7,3,4] and dimensions {{1,1,1,3,3}} in {elapsed:.3f}s")
    assert sorted(params) == [(7, 1, 7), (7, 3, 4), (7, 3, 4)]
    assert dims == [1, 1, 1, 3, 3]
    assert elapsed < 1.0


# -- criterion 8: CLI contract -------------------------------------------------


def test_criterion_8_cli_contract(capsys, monkeypatch):
    code = cli_main(["gen", "--q", "2", "--p", "7", "--k", "1", "--format", "json"])
    out1 = capsys.readouterr().out
    assert code == 0
    code = cli_main(["gen", "--q", "2", "--p", "7", "--k", "1", "--format", "json"])
    out2 = capsys.readouterr().out
    stable = out1 == out2
    doc = parse_document(out1)
    roundtrip = parse_document(render_document(doc)) == doc and render_document(doc) == out1

    doc["idempotents"][0]["coeffs"][3] ^= 1
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    perturbed_code = cli_main(["verify", "--in", "-"])
    capsys.readouterr()

    invalid_code = cli_main(["gen", "--q", "7", "--p", "7", "--k", "1"])
    capsys.readouterr()

    ok = stable and roundtrip and perturbed_code == 2 and invalid_code == 1
    with capsys.disabled():
        _line(8, ok, "byte-stable JSON, perturbed doc exits 2, q = p exits 1")
    assert stable and roundtrip
    assert perturbed_code == 2
    assert invalid_code == 1
