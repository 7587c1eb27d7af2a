from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest
from reference import (
    field_modulus,
    fully_split_idempotents,
    primitive_root_idempotents,
    ref_element_pow,
    ref_trace,
    ref_xgcd,
    third_type_census,
)

from idemforge import (
    CyclicRingElement,
    InvariantViolation,
    Poly,
    UsageError,
    all_idempotents_euclid,
    dispatch,
    factor_xn_minus_1,
    get_prime_field,
    instance_parameters,
    orbit_representatives,
    sets_equal,
)
from idemforge import engine, fields, structure
from idemforge.fields import FieldElement, _root_powers, get_extension_field, is_prime
from idemforge.structure import _factor_cached, _minimal_polynomials, multiplicative_order

#: the --method values of the routes folded into the one closed form
REMOVED_METHODS = ("fully-split", "primitive-root", "split-case", "general-case")


def _coeff_sets(records):
    return {r.value.int_coeffs() for r in records}


# -- Euclid route ---------------------------------------------------------


def _euclid_value(f: Poly, n: int) -> CyclicRingElement:
    """The idempotent of the monic factor f of x^n - 1 by the oracle's
    construction on f itself: `_euclid_stack` on a stack of one, at stride
    1, scaled by 1/n."""
    q = f.field.q
    row = engine._euclid_stack(np.array([f.coeffs]), n, q)[0] * pow(n, -1, q) % q
    return CyclicRingElement.from_ints(f.field, row.tolist())


def test_euclid_unit_sum_factor():
    # factor x - 1 yields (1/n) * sum of all powers
    f7 = get_prime_field(7)
    f = Poly.from_ints(f7, [-1, 1])
    inv9 = pow(9, -1, 7)
    assert _euclid_value(f, 9).int_coeffs() == (inv9,) * 9


def test_euclid_cubic_factor_over_f2():
    f2 = get_prime_field(2)
    f = Poly.from_ints(f2, [1, 1, 0, 1])
    assert _euclid_value(f, 7).int_coeffs() == (1, 1, 1, 0, 1, 0, 0)


def test_euclid_linear_factor_matches_split_formula():
    # in the split regime the idempotent of x - zeta^j is the DFT character
    inst = instance_parameters(7, 3, 2)
    split = dispatch(inst)
    assert split.method == "split-case"
    factors = factor_xn_minus_1(inst)
    f7 = get_prime_field(7)
    zeta = 2
    f = Poly.from_ints(f7, [-zeta, 1])
    assert any(f == g for _, g in factors)
    assert _euclid_value(f, 9).int_coeffs() in _coeff_sets(split)


def test_euclid_requires_a_divisor():
    f7 = get_prime_field(7)
    with pytest.raises(UsageError, match="does not divide x\\^9 - 1"):
        _euclid_value(Poly.from_ints(f7, [1, 1]), 9)  # x+1 does not divide x^9-1


def test_euclid_rejects_characteristic_dividing_n():
    # x^4 - 1 = (x+1)^4 over F_2 is not squarefree, and 4 has no inverse
    # mod 2: no instance has q = p, so the oracle never meets such an n
    with pytest.raises(UsageError, match="distinct"):
        instance_parameters(2, 2, 2)


def _gcd_reference_idempotent(f, n):
    """P*u with P = (x^n-1)/f and u the inverse of P mod f by the plain-int
    extended Euclid."""
    cofactor = Poly.x_pow_minus_one(f.field, n) // f
    g, u, _ = ref_xgcd((cofactor % f).coeffs, f.coeffs, f.field.q)
    assert g == [1]
    return CyclicRingElement.from_poly(cofactor * Poly.from_ints(f.field, u), n)


@pytest.mark.parametrize(
    "q,p,k", [(2, 7, 1), (7, 3, 2), (17, 13, 2), (7, 2, 6), (2, 3, 7), (13, 3, 6), (101, 5, 4)]
)
def test_euclid_derivative_identity_matches_gcd_reference(q, p, k):
    inst = instance_parameters(q, p, k)
    recs = all_idempotents_euclid(inst)
    factors = factor_xn_minus_1(inst)
    assert len(recs) == len(factors)
    for rec, (_, f) in zip(recs, factors):
        assert rec.value == _gcd_reference_idempotent(f, inst.n)


def _compressed_stacks(inst):
    """The distinct compressed stacks of the oracle at one instance: for
    each group of factors of one degree, order N and stride s, the order
    N/s and the rows of the g's with f = g(x^s)."""
    from idemforge.structure import inflation_stride

    groups = {}
    for order, f in factor_xn_minus_1(inst):
        s = inflation_stride(order, f)
        groups.setdefault((f.degree, order, s), set()).add(f.int_coeffs()[::s])
    return {(order // s, frozenset(rows)) for (_, order, s), rows in groups.items()}


def test_oracle_walks_once_per_stack_without_scalar_division(monkeypatch, fresh_caches):
    from idemforge import _fastpoly as fp

    inst = instance_parameters(13, 3, 6)  # six factor degrees, inflated factors
    expected = all_idempotents_euclid(inst)
    walks = []
    walk = fp.divmod_rows

    def counted(*args):
        walks.append(args[1].shape[0])
        return walk(*args)

    def forbidden(*args):
        raise AssertionError("the oracle divided by one factor at a time")

    monkeypatch.setattr(fp, "divmod_rows", counted)
    monkeypatch.setattr(fp, "poly_divmod", forbidden)
    fresh_caches()
    assert all_idempotents_euclid(inst) == expected
    # one walk per distinct compressed stack: x - 1 (order 1), and the
    # y - zeta^j of order 3, which levels 2..6 inflate (levels 1..6 held
    # seven stacks before compression)
    assert len(walks) == len(_compressed_stacks(inst)) == 2
    assert sum(walks) == 3 and len(expected) == 13


def test_the_oracle_walks_each_distinct_stack_once_per_process(monkeypatch, fresh_caches):
    # the stacks are kept across calls, keyed on (q, N/s, g's): a second
    # call walks nothing, and neither does (13,3,5), whose stacks (13,3,6)
    # walked already
    from idemforge import _fastpoly as fp

    inst = instance_parameters(13, 3, 6)
    walks = []
    walk = fp.divmod_rows

    def counted(*args):
        walks.append(args[1].shape[0])
        return walk(*args)

    monkeypatch.setattr(fp, "divmod_rows", counted)
    first = all_idempotents_euclid(inst)
    assert len(walks) == len(_compressed_stacks(inst)) == 2
    assert all_idempotents_euclid(inst) == first
    lower = instance_parameters(13, 3, 5)
    assert _compressed_stacks(lower) == _compressed_stacks(inst)
    factor_xn_minus_1(lower)  # so that only the oracle's walks are counted
    walks.clear()
    assert sets_equal(all_idempotents_euclid(lower), dispatch(lower))
    assert walks == []


# SHA-256 over the labels and coefficient bytes of the oracle system at
# every `survey` instance of the benchmark (the acceptance grid, with k up
# to 8, and two near-cap instances), taken before the stacks were shared
# across levels
SURVEY_INSTANCES = [
    (q, p, k)
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    for p in (3, 5, 7, 11, 13)
    if p != q
    for k in range(9)
    if p**k <= 400
] + [(2, 3, 6), (2, 5, 4)]
ORACLE_DIGEST = "940e77eb580d7a4b2aabf25a022f6cb7517fd54581d3ca14378c2690f459f4b9"


def _oracle_digest(systems) -> str:
    digest = hashlib.sha256()
    for system in systems:
        digest.update(repr(system.labels).encode())
        digest.update(system.coeffs.tobytes())
    return digest.hexdigest()


def test_oracle_systems_keep_their_digest():
    assert len(SURVEY_INSTANCES) == 182
    systems = (all_idempotents_euclid(instance_parameters(*job)) for job in SURVEY_INSTANCES)
    assert _oracle_digest(systems) == ORACLE_DIGEST


def test_kept_stacks_serve_the_survey_in_any_order(monkeypatch, fresh_caches):
    # a cold pass in survey order walks each (q, N/s, g's) once: 63 walks,
    # where one walk per stack and call made 335; a pass in reverse order
    # on the warm cache walks nothing and gives the same systems
    walks = []
    stack = engine._euclid_stack

    def counted(mods, order, q):
        walks.append(order)
        return stack(mods, order, q)

    monkeypatch.setattr(engine, "_euclid_stack", counted)
    insts = [instance_parameters(*job) for job in SURVEY_INSTANCES]
    forward = [all_idempotents_euclid(inst) for inst in insts]
    assert len(walks) == engine._euclid_rows.cache_info().currsize == 63
    backward = [all_idempotents_euclid(inst) for inst in reversed(insts)][::-1]
    assert len(walks) == 63
    assert _oracle_digest(forward) == _oracle_digest(backward) == ORACLE_DIGEST


def test_survey_factorization_builds_each_level_once(monkeypatch, fresh_caches):
    # from cold caches, the survey instances build 156 level lists, one per
    # (q, p, s, p^m', T) with s >= 1 and one x - 1 per q, and multiply only
    # within the levels 1..m', once per list: 171 products, where one
    # product check per instance, factor by factor, made 830
    from idemforge import _fastpoly as fp

    products = []
    mul = fp.poly_mul

    def counted(a, b, q):
        products.append(q)
        return mul(a, b, q)

    monkeypatch.setattr(fp, "poly_mul", counted)
    for job in SURVEY_INSTANCES:
        factor_xn_minus_1(instance_parameters(*job))
    info = structure._factor_level.cache_info()
    assert info.misses == info.currsize == 156
    assert len(products) == 171
    structure._factor_cached.cache_clear()  # the instances' lists, not the levels'
    for job in reversed(SURVEY_INSTANCES):  # in any order, each level is built once
        factor_xn_minus_1(instance_parameters(*job))
    assert structure._factor_level.cache_info().misses == 156 and len(products) == 171


#: the instances of the `verify` benchmark workload
VERIFY_JOBS = [(251, 5, 3), (101, 5, 4), (163, 3, 4), (41, 5, 3), (181, 3, 4), (13, 3, 6)]


def test_the_plan_agrees_with_the_certified_factors():
    # the plan that the oracle and the verifier read places every factor
    # f of order N once, at a stride s with f = g(x^s) for the g of its
    # row, and s is the gcd of N and f's exponents; (3,2,5) has x^2 + 1 at
    # stride 2 below m', (14407,7,4) 2,401 linear factors
    from idemforge.polys import inflate

    for job in SURVEY_INSTANCES + [(3, 2, 5), (7, 2, 6), (13, 3, 6), (101, 5, 4), (14407, 7, 4)]:
        inst = instance_parameters(*job)
        factors = factor_xn_minus_1(inst)
        placed = []
        for width, gs, groups in structure.inflation_plan(inst):
            for order, stride, index, row in groups:
                assert order == width * stride, job
                for i, r in zip(index.tolist(), row.tolist()):
                    f_order, f = factors[i]
                    assert f_order == order and inflate(Poly.from_ints(f.field, gs[r]), stride) == f, job
                    assert stride == structure.inflation_stride(order, f), job
                placed += index.tolist()
        assert sorted(placed) == list(range(len(factors))), job


def test_strides_are_found_once_per_level(monkeypatch, fresh_caches):
    # the strides are read where the levels are built: a cold oracle pass
    # over the survey instances takes 243 of them, a second pass none, and
    # a warm verify_system against the oracle none, where the verifier
    # once scanned every factor on every call
    from idemforge.verifier import verify_system

    calls = []
    stride = structure.inflation_stride

    def counted(order, f):
        calls.append(order)
        return stride(order, f)

    monkeypatch.setattr(structure, "inflation_stride", counted)
    insts = [instance_parameters(*job) for job in SURVEY_INSTANCES]
    for _ in range(2):
        for inst in insts:
            all_idempotents_euclid(inst)
        assert len(calls) == 243
    for job in VERIFY_JOBS:
        inst = instance_parameters(*job)
        system = dispatch(inst)
        verify_system(system, inst, against_oracle=True)
        calls.clear()
        assert verify_system(system, inst, against_oracle=True).passed
        assert calls == [], job


def _order_3_gs():
    """The y - zeta^j of order 3 over F_13, in the oracle's order."""
    return tuple(f.int_coeffs() for order, f in factor_xn_minus_1(instance_parameters(13, 3, 1)) if order == 3)


def test_kept_stacks_are_keyed_on_their_gs(fresh_caches):
    # on every instance tried the factorization puts the same g's in the
    # same order at one (q, N/s), so only a direct call shows that the key
    # holds the g's: other g's, or the same g's in another order, get rows
    # of their own
    gs = _order_3_gs()
    for key in (gs, gs[::-1], gs[1:]):
        assert np.array_equal(engine._euclid_rows(13, 3, key), engine._euclid_stack(np.array(key), 3, 13))
    assert engine._euclid_rows.cache_info().currsize == 3


def test_kept_stacks_are_read_only_and_one_block_at_most(monkeypatch, fresh_caches):
    # (13,3,6) keeps two stacks, x - 1 and the two y - zeta^j of order 3,
    # and hands out rows no caller can write; with blocks of one row, the
    # four y - zeta^j of order 5 at (41,5,3) are walked block by block on
    # every call and not kept, while x - 1 fits in one block and is
    from idemforge import _fastpoly as fp

    all_idempotents_euclid(instance_parameters(13, 3, 6))
    info = engine._euclid_rows.cache_info()
    assert info.currsize == 2
    rows = engine._euclid_rows(13, 3, _order_3_gs())
    assert engine._euclid_rows.cache_info().hits == info.hits + 1
    assert rows.shape == (2, 3) and not rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 0
    inst = instance_parameters(41, 5, 3)
    expected = all_idempotents_euclid(inst)
    fresh_caches()
    monkeypatch.setattr(fp, "TABLE_ENTRIES", 16)
    walks = []
    stack = engine._euclid_stack

    def counted(mods, order, q):
        walks.append(len(mods))
        return stack(mods, order, q)

    monkeypatch.setattr(engine, "_euclid_stack", counted)
    for _ in range(2):
        walks.clear()
        assert all_idempotents_euclid(inst) == expected
        assert engine._euclid_rows.cache_info().currsize == 1
    assert walks == [1] * 4


@pytest.mark.parametrize("entries", [16, 192])  # blocks of one row; of two rows at N/s = 5
def test_oracle_stacks_in_small_blocks_give_the_same_systems(monkeypatch, fresh_caches, entries):
    # each level places its rows from the block that holds its g, at its
    # own stride and scale
    from idemforge import _fastpoly as fp

    insts = [instance_parameters(*job) for job in ((13, 3, 6), (3, 2, 5), (41, 5, 3), (2, 5, 4))]
    expected = [all_idempotents_euclid(inst) for inst in insts]
    monkeypatch.setattr(fp, "TABLE_ENTRIES", entries)
    fresh_caches()
    assert [all_idempotents_euclid(inst) for inst in insts] == expected


@pytest.mark.parametrize("q,p,k", [(2, 3, 5), (13, 3, 6), (41, 5, 3), (101, 5, 4), (3, 2, 5)])
def test_stride_compressed_oracle_matches_the_stride_one_route(monkeypatch, fresh_caches, q, p, k):
    # the oracle computes each factor f = g(x^s) of order N from g, with
    # order N/s in the ring of length n/s, and places the rows at stride s;
    # _euclid_value runs the construction on f itself, at stride 1.
    # (3,2,5) is p = 2 with q = 3 (mod 4), where x^2 + 1 has stride 2.
    from idemforge import _fastpoly as fp
    from idemforge.structure import inflation_stride

    inst = instance_parameters(q, p, k)
    factors = factor_xn_minus_1(inst)
    widths = []
    walk = fp.divmod_rows

    def counted(a, mods, q_):
        widths.append(a.shape[1])
        return walk(a, mods, q_)

    monkeypatch.setattr(fp, "divmod_rows", counted)
    records = all_idempotents_euclid(inst)
    monkeypatch.undo()
    strides = [inflation_stride(order, f) for order, f in factors]
    assert max(strides) > 1
    # every division walk runs over x^(N/s) - 1, never over x^N - 1
    assert set(widths) == {order // s + 1 for (order, _), s in zip(factors, strides)}
    for record, (_, f) in zip(records, factors):
        assert record.value == _euclid_value(f, inst.n)


def test_a_tampered_compressed_row_fails_the_guard(monkeypatch, capsys, fresh_caches):
    # one coefficient of B = C*(x*g' - d*g) changed in the stack of order
    # 3, whose rows the levels above 1 place at stride 3^(s-1):
    # B^2 = 3*B (mod y^3 - 1) fails, and gen --method euclid exits 3 with
    # the guard's message
    from idemforge import _fastpoly as fp
    from idemforge import engine
    from idemforge.cli import main

    stack, conv = engine._euclid_stack, fp.conv_rows
    compressed = []

    def tampered(a, b, q, n=None):
        out = conv(a, b, q, n)
        if n is None and compressed and compressed[-1]:  # a B product
            out[0, -1] = (out[0, -1] + 1) % q
        return out

    def tracked(mods, order, q):
        compressed.append(order == 3)
        try:
            return stack(mods, order, q)
        finally:
            compressed.pop()

    monkeypatch.setattr(fp, "conv_rows", tampered)
    monkeypatch.setattr(engine, "_euclid_stack", tracked)
    code = main(["gen", "--q", "13", "--p", "3", "--k", "6", "--method", "euclid"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and "non-idempotent" in err


def test_euclid_reducible_divisor_matches_gcd_reference():
    # (x+1)(x^3+x+1) divides x^7 - 1 over F_2; its idempotent is the sum
    # of the two primitive ones
    f2 = get_prime_field(2)
    f = Poly.from_ints(f2, [1, 1]) * Poly.from_ints(f2, [1, 1, 0, 1])
    value = _euclid_value(f, 7)
    assert value == _gcd_reference_idempotent(f, 7)
    lin = _euclid_value(Poly.from_ints(f2, [1, 1]), 7)
    cub = _euclid_value(Poly.from_ints(f2, [1, 1, 0, 1]), 7)
    assert value == lin + cub


def test_all_euclid_2_7_1():
    inst = instance_parameters(2, 7, 1)
    recs = all_idempotents_euclid(inst)
    assert _coeff_sets(recs) == {
        (1, 1, 1, 1, 1, 1, 1),
        (1, 1, 1, 0, 1, 0, 0),
        (1, 0, 0, 1, 0, 1, 1),
    }
    assert all(r.kind == "generic" and r.method == "euclid" for r in recs)


def test_all_euclid_trivial_ring():
    inst = instance_parameters(5, 3, 0)
    recs = all_idempotents_euclid(inst)
    assert len(recs) == 1
    assert recs[0].value.int_coeffs() == (1,)


def test_euclid_residues_one_mod_own_factor_zero_mod_rest():
    for q, p, k in [(2, 7, 1), (7, 3, 2)]:
        inst = instance_parameters(q, p, k)
        factors = factor_xn_minus_1(inst)
        recs = all_idempotents_euclid(inst)
        field = get_prime_field(q)
        one = Poly.one(field)
        for i, rec in enumerate(recs):
            poly = rec.value.to_poly()
            for j, (_, f) in enumerate(factors):
                residue = poly % f
                assert residue == (one if i == j else Poly.zero(field))


# -- reference closed forms: fully split and primitive root ---------------


def test_fully_split_7_3_exact():
    recs = fully_split_idempotents(7, 3)
    assert _coeff_sets(recs) == {(5, 5, 5), (5, 6, 3), (5, 3, 6)}


def test_fully_split_n_1():
    recs = fully_split_idempotents(11, 1)
    assert len(recs) == 1 and recs[0].value.int_coeffs() == (1,)


def test_fully_split_13_3_unit_sum():
    recs = fully_split_idempotents(13, 3)
    assert recs[0].label == "e_0"
    assert recs[0].value.int_coeffs() == (9, 9, 9)



def test_primitive_root_2_3_2():
    recs = primitive_root_idempotents(2, 3, 2)
    assert _coeff_sets(recs) == {
        (1,) * 9,
        (0, 1, 1, 0, 1, 1, 0, 1, 1),
        (0, 0, 0, 1, 0, 0, 1, 0, 0),
    }


def test_primitive_root_2_3_1():
    recs = primitive_root_idempotents(2, 3, 1)
    assert _coeff_sets(recs) == {(1, 1, 1), (0, 1, 1)}


def test_primitive_root_3_5_1():
    recs = primitive_root_idempotents(3, 5, 1)
    assert _coeff_sets(recs) == {(2, 2, 2, 2, 2), (2, 1, 1, 1, 1)}
    assert all(r.value * r.value == r.value for r in recs)


# -- split case -----------------------------------------------------------


def test_split_case_7_3_2_exact():
    inst = instance_parameters(7, 3, 2)
    recs = dispatch(inst)
    assert recs.method == "split-case"
    assert _coeff_sets(recs) == {
        (4,) * 9,
        (4, 2, 1, 4, 2, 1, 4, 2, 1),
        (4, 1, 2, 4, 1, 2, 4, 1, 2),
        (5, 0, 0, 6, 0, 0, 3, 0, 0),
        (5, 0, 0, 3, 0, 0, 6, 0, 0),
    }
    labels = [r.label for r in recs]
    assert labels == ["e_0", "e_j:1", "e_j:2", "e_{s,l}:2,1", "e_{s,l}:2,2"]


def test_split_case_m_at_least_k_reduces_to_fully_split():
    inst = instance_parameters(19, 3, 2)  # 19 = 1 mod 9, m = 2 = k
    recs = dispatch(inst)
    assert recs.method == "split-case"
    assert sets_equal(recs, fully_split_idempotents(19, 9))


def test_split_case_trivial_ring():
    inst = instance_parameters(7, 3, 0)
    recs = dispatch(inst)
    assert recs.method == "split-case"
    assert len(recs) == 1 and recs[0].value.int_coeffs() == (1,)


def test_split_case_p2_allowed_when_q_1_mod_4():
    inst = instance_parameters(5, 2, 2)
    recs = dispatch(inst)
    assert len(recs) == 4
    assert sets_equal(recs, all_idempotents_euclid(inst))


def test_general_case_p2_served_when_q_3_mod_4():
    # x^4 + 1 splits into two quadratics over F_3: the closed form takes
    # its roots in F_9, and its records are the oracle's
    inst = instance_parameters(3, 2, 3)
    assert inst.root_field == (2, 3)
    recs = dispatch(inst)
    assert recs.method == "general-case" and len(recs) == 5
    assert sets_equal(recs, dispatch(inst, "euclid"))


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 31, 43])
@pytest.mark.parametrize("k", [1, 2])
def test_split_case_p2_with_q_3_mod_4_below_k_3(q, k):
    # x^2 - 1 and x^4 - 1 = (x - 1)(x + 1)(x^2 + 1): the closed form's
    # records are the oracle's, and they verify
    from idemforge import verify_system

    inst = instance_parameters(q, 2, k)
    system = dispatch(inst)
    assert system.method == "split-case" and len(system) == k + 1
    assert sets_equal(system, all_idempotents_euclid(inst))
    assert verify_system(system, inst, against_oracle=True).passed


# -- general case ---------------------------------------------------------


def test_general_case_2_7_1():
    inst = instance_parameters(2, 7, 1)
    recs = dispatch(inst)
    assert recs.method == "general-case"
    assert _coeff_sets(recs) == {
        (1, 1, 1, 1, 1, 1, 1),
        (1, 1, 1, 0, 1, 0, 0),
        (1, 0, 0, 1, 0, 1, 1),
    }
    assert [r.label for r in recs] == ["e_0", "e_j:1", "e_j:3"]


def test_general_case_orbit_equivalent_indices_coincide():
    # second-type rows for every index j = 1, 2, 3, with no orbit
    # deduplication: 1 and 2 share the orbit {1, 2, 4} mod 7, 3 does not
    inst = instance_parameters(2, 7, 1)
    table, method = engine._root_table(inst)
    assert method == "general-case"
    rows = np.zeros((3, inst.n), dtype=np.int64)
    engine._gather_into(rows, table, pow(inst.n, -1, inst.q), inst.q, [1, 2, 3])
    assert rows[0].tolist() == rows[1].tolist() != rows[2].tolist()
    assert rows[0].tolist() == list(dispatch(inst)[1].value.int_coeffs())


def test_the_closed_form_names_its_case_by_t_and_takes_no_forced_case(capsys):
    # split-case and general-case are no longer --method values, but the
    # records and documents still name the case that T of `root_field`
    # selects: T = t, but for p = 2 with q = 3 mod 4 and k >= 3
    from idemforge.cli import main

    assert dispatch(instance_parameters(7, 3, 2)).method == "split-case"  # t = 1
    assert dispatch(instance_parameters(2, 7, 1)).method == "general-case"  # t = 3
    assert dispatch(instance_parameters(3, 2, 3)).method == "general-case"  # t = 1, T = 2
    for q in (3, 7):  # q = 3 mod 4 at k = 0: the single e_0 = 1 of the split case
        system = dispatch(instance_parameters(q, 2, 0))
        assert system.method == "split-case" and system.coeffs.tolist() == [[1]]
    assert main(["gen", "--q", "2", "--p", "7", "--k", "1", "--format", "json"]) == 0
    assert '"method": "general-case",' in capsys.readouterr().out
    for method in ("split-case", "general-case"):
        with pytest.raises(UsageError, match="unknown method"):
            dispatch(instance_parameters(2, 7, 1), method)


def test_general_case_m_above_k_uses_clamped_root_order():
    inst = instance_parameters(19, 13, 2)  # t=12, m=2=k
    recs = dispatch(inst)
    assert recs.method == "general-case"
    assert len(recs) == 1 + (13**2 - 1) // 12
    assert sets_equal(recs, all_idempotents_euclid(inst))


# -- orbit representatives -------------------------------------------------


def test_orbit_representatives_examples():
    assert orbit_representatives(7, 2, "all-nonzero") == [1, 3]
    assert orbit_representatives(13, 17, "units") == [1, 2]
    # q = 1 mod modulus: every element is its own representative
    assert orbit_representatives(5, 11, "all-nonzero") == [1, 2, 3, 4]


def test_orbit_representatives_rejects_unknown_domain():
    with pytest.raises(UsageError):
        orbit_representatives(7, 2, "everything")
    with pytest.raises(UsageError):
        orbit_representatives(9, 3, "all-nonzero")  # q shares a factor with the modulus


# -- dispatcher -----------------------------------------------------------


def test_dispatch_routes_and_counts():
    recs = dispatch(instance_parameters(17, 13, 2))
    assert len(recs) == 5 and recs[0].method == "general-case"
    recs = dispatch(instance_parameters(7, 3, 2))
    assert recs[0].method == "split-case"
    recs = dispatch(instance_parameters(2, 3, 2))
    assert recs[0].method == "general-case"
    assert sets_equal(recs, primitive_root_idempotents(2, 3, 2))


def test_dispatch_euclid_method_forces_oracle():
    inst = instance_parameters(2, 7, 1)
    recs = dispatch(inst, "euclid")
    assert all(r.method == "euclid" for r in recs)
    assert sets_equal(recs, dispatch(inst))


def test_dispatch_rejects_unknown_method():
    with pytest.raises(UsageError):
        dispatch(instance_parameters(2, 7, 1), "magic")


def test_dispatch_refuses_the_removed_methods():
    assert engine.METHODS == ("auto", "euclid")
    inst = instance_parameters(7, 3, 1)  # fully split and primitive root at once
    for method in REMOVED_METHODS:
        with pytest.raises(UsageError, match=re.escape("choose from ('auto', 'euclid')")):
            dispatch(inst, method)


def test_cli_rejects_the_removed_methods_as_invalid_choices(capsys):
    from idemforge.cli import main

    instance = ["--q", "7", "--p", "3", "--k", "1"]
    for argv in (["gen", *instance], ["verify", *instance], ["code", *instance, "--label", "e_0"]):
        for method in REMOVED_METHODS:
            assert main(argv + ["--method", method]) == 1, (argv[0], method)
            out, err = capsys.readouterr()
            assert out == "" and f"invalid choice: '{method}'" in err, (argv[0], method)
            assert "Traceback" not in err


def test_dispatch_choice_independence_small(second_choice):
    inst = instance_parameters(2, 7, 1)
    base = dispatch(inst)
    second_choice()
    other = dispatch(inst)
    assert get_extension_field(2, 3).modulus.int_coeffs() == (1, 0, 1, 1)  # y^3 + y^2 + 1
    assert sets_equal(base, other)


# -- one unit orbit ---------------------------------------------------------

#: q < 60 generating (Z/p)^* for odd p < 60, so t = p - 1 and m' = 1 at k = 1;
#: q < t in 67 of the 120, where the trace of 1 is t mod q, not t
ONE_ORBIT_PAIRS = [
    (q, p)
    for q in range(2, 60)
    for p in range(3, 60, 2)
    if is_prime(q) and is_prime(p) and p != q and multiplicative_order(q, p) == p - 1
]


def test_one_unit_orbit_tables_are_the_traces_of_a_real_root():
    # the table and the map need no root, and agree with those of the
    # root the search picks: Tr(zeta^i) = sum over u < t of zeta^(i*q^u),
    # read off its power table for every i, and by ref_trace, t Frobenius
    # powers in plain ints, for zeta while t <= 28 (it costs t^3 log q);
    # and zeta is a root of Phi_p = 1 + x + ... + x^(p-1)
    assert len(ONE_ORBIT_PAIRS) == 120 and sum(q < p - 1 for q, p in ONE_ORBIT_PAIRS) == 67
    for q, p in ONE_ORBIT_PAIRS:
        t = p - 1
        field = get_extension_field(q, t)
        powers = _root_powers(field, p)
        sums = sum(powers[np.arange(p) * pow(q, u, p) % p] for u in range(t)) % q
        assert not sums[:, 1:].any()
        traces = tuple(sums[:, 0].tolist())
        if t <= 28:
            assert traces[1] == ref_trace(tuple(powers[1].tolist()), field_modulus(field), q)
        assert structure._sigma_table(q, t, p) == traces, (q, p)
        assert not (powers.sum(axis=0) % q).any()
        base = get_prime_field(q)
        x_minus_1, phi = Poly.from_ints(base, [-1, 1]), Poly.from_ints(base, [1] * p)
        assert dict(_minimal_polynomials(q, p, t)) == {0: x_minus_1, **dict.fromkeys(range(1, p), phi)}


@pytest.mark.parametrize("q,p,k", [(2, 11, 1), (3, 7, 2), (2, 13, 2)])
def test_one_unit_orbit_builds_no_extension_field(q, p, k, monkeypatch, fresh_caches):
    from idemforge import _fastpoly as fp

    def forbidden(*args):
        raise AssertionError("a field was built or a root searched")

    monkeypatch.setattr(fp, "lex_irreducible", forbidden)
    monkeypatch.setattr(fields, "_extension_field", forbidden)
    monkeypatch.setattr(fields, "_root_search", forbidden)
    inst = instance_parameters(q, p, k)
    assert inst.root_field == (p - 1, 1)
    system = dispatch(inst)
    assert len(factor_xn_minus_1(inst)) == len(system) == k + 1
    assert sets_equal(system, all_idempotents_euclid(inst))


@pytest.mark.parametrize("q", [3, 7, 11, 19])
def test_p_2_at_k_2_builds_no_extension_field(q, monkeypatch, fresh_caches):
    # x^4 - 1 = (x - 1)(x + 1)(x^2 + 1) for q = 3 mod 4: x^2 + 1 is x + 1
    # inflated by x -> x^2, so both routes and the verifier stay in F_q
    from idemforge import verify_system

    def forbidden(*args):
        raise AssertionError("an extension field was asked for")

    monkeypatch.setattr(structure, "get_extension_field", forbidden)
    monkeypatch.setattr(fields, "get_extension_field", forbidden)
    inst = instance_parameters(q, 2, 2)
    assert [f.degree for _, f in factor_xn_minus_1(inst)] == [1, 1, 2]
    system = dispatch(inst)
    assert system.method == "split-case"
    assert verify_system(system, inst, against_oracle=True).passed
    assert inst.root_field == (1, 1)


def test_algebraic_system_properties_on_samples():
    for q, p, k in [(2, 7, 1), (7, 3, 2), (17, 13, 2), (2, 3, 4), (19, 7, 2)]:
        inst = instance_parameters(q, p, k)
        recs = dispatch(inst)
        field = get_prime_field(q)
        identity = CyclicRingElement.identity(field, inst.n)
        total = recs[0].value
        for r in recs[1:]:
            total = total + r.value
        assert total == identity
        for i, a in enumerate(recs):
            assert a.value * a.value == a.value
            for b in recs[i + 1 :]:
                assert (a.value * b.value).is_zero()


def test_third_type_census():
    recs = dispatch(instance_parameters(7, 3, 2))
    assert third_type_census(recs) == {2: 2}
    recs = dispatch(instance_parameters(2, 3, 4))  # t=2, m=1, k=4
    assert third_type_census(recs) == {2: 1, 3: 1, 4: 1}


# -- pinned bytes -----------------------------------------------------------

# Levels k <= m and inflated ones, F_{q^2} for p = 2 with q = 3 mod 4, and
# the golden instance: the digest fixes which factor each coset gets and
# every closed-form coefficient, under the library's choice and the second
# choice of the `second_choice` fixture.  (2, 3, 5) has one unit orbit, so
# its second choice needs no second modulus of F_4 and gives the first
# choice's records.
PINNED_INSTANCES = ((19, 7, 2), (2, 3, 5), (3, 5, 3), (3, 2, 5), (7, 2, 6), (17, 13, 2))
PINNED_DIGEST = "dc80c3f3485fc3cd0a480fc908274d89f8db89bffd58346a42381a045946431b"


def test_factor_lists_and_closed_forms_keep_their_bytes(second_choice):
    def closed_form(inst) -> bytes:
        try:
            records = dispatch(inst)
        except UsageError as exc:  # no second choice
            return type(exc).__name__.encode()
        return repr([(r.label, r.value.int_coeffs()) for r in records]).encode()

    instances = [instance_parameters(*job) for job in PINNED_INSTANCES]
    factors = [repr([(d, f.coeffs) for d, f in factor_xn_minus_1(inst)]).encode() for inst in instances]
    first = [closed_form(inst) for inst in instances]
    second_choice()
    second = [closed_form(inst) for inst in instances]
    digest = hashlib.sha256()
    for parts in zip(factors, first, second):
        for part in parts:
            digest.update(part)
    assert digest.hexdigest() == PINNED_DIGEST


# Every acceptance-grid instance, p = 2 with q = 1 mod 4, and k = 0 with
# q = 3 mod 4: the digest fixes the method, labels, kinds, params and array
# bytes of every closed-form system.
SYSTEM_INSTANCES = [
    (q, p, k)
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    for p in (3, 5, 7, 11, 13)
    if p != q
    for k in range(6)
    if p**k <= 400
] + [(5, 2, k) for k in range(5)] + [(3, 2, 0), (7, 2, 0)]
SYSTEM_DIGEST = "3b4a80076ef691a57649ac59d64b8eae65360e774a13ce781d8326a1df2f4e79"


def test_closed_form_systems_keep_their_digest():
    assert len(SYSTEM_INSTANCES) == 180 + 7
    digest = hashlib.sha256()
    for q, p, k in SYSTEM_INSTANCES:
        system = dispatch(instance_parameters(q, p, k))
        digest.update(repr((system.method, system.labels, system.kinds, system.params)).encode())
        digest.update(system.coeffs.tobytes())
    assert digest.hexdigest() == SYSTEM_DIGEST
    for k in (3, 4):  # p = 2 with q = 3 mod 4 is served once k >= 3, in F_9
        inst = instance_parameters(3, 2, k)
        system = dispatch(inst)
        assert system.method == "general-case" and sets_equal(system, all_idempotents_euclid(inst))


def test_tables_shared_across_k_are_built_once_and_read_only():
    # (2,7,k) has t = 3 and m' = 1 for every k >= 1: one trace table and
    # one map of minimal polynomials serve them all, and no caller can
    # write to either
    from idemforge.structure import _minimal_polynomials

    for k in (1, 2):
        dispatch(instance_parameters(2, 7, k))
        factor_xn_minus_1(instance_parameters(2, 7, k))
    table = structure._sigma_table(2, 3, 7)
    assert table is structure._sigma_table(2, 3, 7) and len(table) == 7
    minpolys = _minimal_polynomials(2, 7, 3)
    assert minpolys is _minimal_polynomials(2, 7, 3) and len(minpolys) == 7
    with pytest.raises(TypeError):
        table[1] = 0
    with pytest.raises(TypeError):
        minpolys[1] = minpolys[0]
    with pytest.raises(TypeError):
        del minpolys[1]
    with pytest.raises(AttributeError):
        minpolys[1].coeffs = (1, 1)
    with pytest.raises(TypeError):
        factor_xn_minus_1(instance_parameters(2, 7, 2))[0] = None
    assert dispatch(instance_parameters(2, 7, 2)) == dispatch(instance_parameters(2, 7, 2))


@pytest.mark.parametrize("q,p,k", [(2, 41, 1), (17, 13, 2), (251, 5, 3)])
def test_factorization_and_closed_forms_build_few_field_elements(q, p, k, monkeypatch):
    # power tables and multiplication matrices on int64 rows, not one
    # FieldElement per root, coefficient or trace term
    inst = instance_parameters(q, p, k)
    dispatch(inst)  # warms the root search
    _factor_cached.cache_clear()
    built = []
    init = FieldElement.__init__

    def counting_init(self, field, coeffs):
        built.append(coeffs)
        init(self, field, coeffs)

    monkeypatch.setattr(FieldElement, "__init__", counting_init)
    factor_xn_minus_1(inst)
    dispatch(inst)
    assert len(built) <= 32


@pytest.mark.parametrize("q,p,k", [(19, 3, 2), (7, 5, 2)])  # t = 1, t = 4
def test_closed_forms_check_the_exact_order_of_their_root(q, p, k, monkeypatch, fresh_caches):
    # the p-th power of the searched root has order p^(m'-1): nonzero and a
    # p^m'-th root of 1, but not primitive
    search = fields._root_search
    monkeypatch.setattr(fields, "_root_search", lambda field, order: ref_element_pow(search(field, order), p))
    inst = instance_parameters(q, p, k)
    assert inst.root_field[1] == 2
    with pytest.raises(InvariantViolation, match="not primitive"):
        dispatch(inst)


def test_a_system_is_a_sequence_of_records_built_on_access():
    inst = instance_parameters(7, 3, 2)
    system = dispatch(inst)
    records = list(system)
    assert len(system) == len(records) == 5
    assert system[-1] == records[-1] and system[1].value.int_coeffs() == (4, 1, 2, 4, 1, 2, 4, 1, 2)
    assert system[1:] == tuple(records[1:]) and system[::2] == tuple(records[::2])
    assert [r.label for r in system] == list(system.labels)
    assert all(r.method == "split-case" for r in system)
    with pytest.raises(IndexError):
        system[5]
    with pytest.raises(AttributeError):
        system.q = 11
    with pytest.raises(ValueError):
        system.coeffs[0, 0] = 1
    assert system == dispatch(inst) and system != dispatch(inst, "euclid")


def test_a_zero_row_is_an_invariant_violation_unless_claimed():
    from idemforge import IdempotentSystem

    rows = [[1, 0, 0], [0, 0, 0]]
    with pytest.raises(InvariantViolation, match="zero idempotent for b"):
        IdempotentSystem(7, 3, rows, ["a", "b"], ["generic"] * 2, [None] * 2, "m")
    claimed = IdempotentSystem(7, 3, rows, ["a", "b"], ["generic"] * 2, [None] * 2, "m", claimed=True)
    assert claimed[1].value.is_zero()
    assert IdempotentSystem(2**89 - 1, 1, [[1]], ["e_0"], ["unit-sum"], [None], "m").coeffs.dtype == object
