from __future__ import annotations

import hashlib

import pytest

from idemforge import (
    CyclicRingElement,
    InvariantViolation,
    Poly,
    UnsupportedInstanceError,
    UsageError,
    all_idempotents_euclid,
    check_idempotency,
    dispatch,
    euclid_idempotent,
    extended_gcd,
    factor_xn_minus_1,
    fully_split_idempotents,
    general_case_idempotents,
    get_prime_field,
    instance_parameters,
    orbit_representatives,
    primitive_root_idempotents,
    second_type_idempotent,
    sets_equal,
    split_case_idempotents,
    third_type_census,
)
from idemforge import fields
from idemforge.fields import FieldElement
from idemforge.structure import _factor_cached


def _coeff_sets(records):
    return {r.value.int_coeffs() for r in records}


# -- Euclid route ---------------------------------------------------------


def test_euclid_unit_sum_factor():
    # factor x - 1 yields (1/n) * sum of all powers
    f7 = get_prime_field(7)
    f = Poly.from_ints(f7, [-1, 1])
    rec = euclid_idempotent(f, 9, 7)
    inv9 = pow(9, -1, 7)
    assert rec.value.int_coeffs() == (inv9,) * 9


def test_euclid_cubic_factor_over_f2():
    f2 = get_prime_field(2)
    f = Poly.from_ints(f2, [1, 1, 0, 1])
    rec = euclid_idempotent(f, 7, 2)
    assert rec.value.int_coeffs() == (1, 1, 1, 0, 1, 0, 0)


def test_euclid_linear_factor_matches_split_formula():
    # in the split regime the idempotent of x - zeta^j is the DFT character
    inst = instance_parameters(7, 3, 2)
    split = split_case_idempotents(inst)
    factors = factor_xn_minus_1(inst)
    f7 = get_prime_field(7)
    zeta = 2
    f = Poly.from_ints(f7, [-zeta, 1])
    assert any(f == g for _, g in factors)
    rec = euclid_idempotent(f, 9, 7)
    assert rec.value.int_coeffs() in _coeff_sets(split)


def test_euclid_requires_a_divisor():
    f7 = get_prime_field(7)
    with pytest.raises(UsageError):
        euclid_idempotent(Poly.from_ints(f7, [1, 1]), 9, 7)  # x+1 does not divide x^9-1


def test_euclid_rejects_characteristic_dividing_n():
    # x^4 - 1 = (x+1)^4 over F_2 is not squarefree
    f2 = get_prime_field(2)
    with pytest.raises(UsageError, match="not squarefree"):
        euclid_idempotent(Poly.from_ints(f2, [1, 1]), 4, 2)


def _gcd_reference_idempotent(f, n):
    """P*u with P = (x^n-1)/f and u the inverse of P mod f by extended Euclid."""
    cofactor = Poly.x_pow_minus_one(f.field, n) // f
    g, u, _ = extended_gcd(cofactor % f, f)
    assert g == Poly.one(f.field)
    return CyclicRingElement.from_poly(cofactor * u, n)


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


def test_oracle_walks_once_per_stack_without_scalar_division(monkeypatch):
    from idemforge import _fastpoly as fp

    inst = instance_parameters(13, 3, 6)  # six factor degrees, inflated factors
    expected = all_idempotents_euclid(inst)
    stacks = {(f.degree, order) for order, f in factor_xn_minus_1(inst)}
    walks = []
    walk = fp.divmod_rows

    def counted(*args):
        walks.append(args[1].shape[0])
        return walk(*args)

    def forbidden(*args):
        raise AssertionError("the oracle divided by one factor at a time")

    monkeypatch.setattr(fp, "divmod_rows", counted)
    monkeypatch.setattr(fp, "poly_divmod", forbidden)
    assert all_idempotents_euclid(inst) == expected
    # one walk per degree and order: x - 1 (order 1) has a stack of its own
    assert len(walks) == len(stacks) == 7
    assert sum(walks) == len(expected) == 13


def test_euclid_reducible_divisor_matches_gcd_reference():
    # (x+1)(x^3+x+1) divides x^7 - 1 over F_2; its idempotent is the sum
    # of the two primitive ones
    f2 = get_prime_field(2)
    f = Poly.from_ints(f2, [1, 1]) * Poly.from_ints(f2, [1, 1, 0, 1])
    rec = euclid_idempotent(f, 7, 2)
    assert rec.value == _gcd_reference_idempotent(f, 7)
    lin = euclid_idempotent(Poly.from_ints(f2, [1, 1]), 7, 2)
    cub = euclid_idempotent(Poly.from_ints(f2, [1, 1, 0, 1]), 7, 2)
    assert rec.value == lin.value + cub.value


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


# -- fully-split route ----------------------------------------------------


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


def test_fully_split_requires_regime():
    with pytest.raises(UsageError):
        fully_split_idempotents(7, 4)


# -- primitive-root route -------------------------------------------------


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
    assert all(check_idempotency(r) for r in recs)


def test_primitive_root_requires_regime():
    with pytest.raises(UsageError):
        primitive_root_idempotents(7, 3, 1)  # ord_3 7 = 1 != phi(3)


# -- split case -----------------------------------------------------------


def test_split_case_7_3_2_exact():
    inst = instance_parameters(7, 3, 2)
    recs = split_case_idempotents(inst)
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
    recs = split_case_idempotents(inst)
    assert sets_equal(recs, fully_split_idempotents(19, 9))


def test_split_case_trivial_ring():
    inst = instance_parameters(7, 3, 0)
    recs = split_case_idempotents(inst)
    assert len(recs) == 1 and recs[0].value.int_coeffs() == (1,)


def test_split_case_p2_allowed_when_q_1_mod_4():
    inst = instance_parameters(5, 2, 2)
    recs = dispatch(inst)
    assert len(recs) == 4
    assert sets_equal(recs, all_idempotents_euclid(inst))


def test_split_case_p2_rejected_when_q_3_mod_4():
    inst = instance_parameters(3, 2, 2)
    with pytest.raises(UnsupportedInstanceError):
        dispatch(inst)
    # the oracle path has no such restriction
    recs = dispatch(inst, "euclid")
    assert len(recs) == 3


# -- general case ---------------------------------------------------------


def test_general_case_2_7_1():
    inst = instance_parameters(2, 7, 1)
    recs = general_case_idempotents(inst)
    assert _coeff_sets(recs) == {
        (1, 1, 1, 1, 1, 1, 1),
        (1, 1, 1, 0, 1, 0, 0),
        (1, 0, 0, 1, 0, 1, 1),
    }
    assert [r.label for r in recs] == ["e_0", "e_j:1", "e_j:3"]


def test_general_case_orbit_equivalent_indices_coincide():
    inst = instance_parameters(2, 7, 1)
    assert (
        second_type_idempotent(inst, 1).value == second_type_idempotent(inst, 2).value
    )
    assert (
        second_type_idempotent(inst, 1).value != second_type_idempotent(inst, 3).value
    )


def test_general_case_requires_t_above_one():
    inst = instance_parameters(7, 3, 2)
    with pytest.raises(UsageError):
        general_case_idempotents(inst)


def test_general_case_m_above_k_uses_clamped_root_order():
    inst = instance_parameters(19, 13, 2)  # t=12, m=2=k
    recs = general_case_idempotents(inst)
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


def test_dispatch_choice_independence_small():
    inst = instance_parameters(2, 7, 1)
    base = dispatch(inst)
    other = dispatch(inst, modulus_skip=1, generator_skip=1)
    assert sets_equal(base, other)


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

# Both zeta rules (k <= m and inflated levels), F_{q^2} for p = 2 with
# q = 3 mod 4, and the golden instance: the digest fixes which factor each
# coset gets and every closed-form coefficient, under both choices.
PINNED_INSTANCES = ((19, 7, 2), (2, 3, 5), (3, 5, 3), (3, 2, 5), (7, 2, 6), (17, 13, 2))
PINNED_DIGEST = "c4681338e6847dd861516170ca67c6b92ce94dd176b81bbebb8b5080fcedfb0a"


def test_factor_lists_and_closed_forms_keep_their_bytes():
    digest = hashlib.sha256()
    for q, p, k in PINNED_INSTANCES:
        inst = instance_parameters(q, p, k)
        digest.update(repr([(d, f.coeffs) for d, f in factor_xn_minus_1(inst)]).encode())
        for choices in ({}, {"modulus_skip": 1, "generator_skip": 1}):
            try:
                records = dispatch(inst, **choices)
            except UsageError as exc:  # p = 2 with q = 3 mod 4, or no second modulus
                digest.update(type(exc).__name__.encode())
            else:
                digest.update(repr([(r.label, r.value.int_coeffs()) for r in records]).encode())
    assert digest.hexdigest() == PINNED_DIGEST


@pytest.mark.parametrize("q,p,k", [(2, 41, 1), (17, 13, 2), (251, 5, 3)])
def test_factorization_and_closed_forms_build_few_field_elements(q, p, k, monkeypatch):
    # power tables and multiplication matrices on int64 rows, not one
    # FieldElement per root, coefficient or trace term
    inst = instance_parameters(q, p, k)
    dispatch(inst)  # warms primitive_element
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
def test_closed_forms_check_the_exact_order_of_their_root(q, p, k, monkeypatch):
    # g^p for a generator g has order (|F| - 1)/p, so the root taken from it
    # has order p^(m'-1): nonzero and a p^m'-th root of 1, but not primitive
    generator = fields.primitive_element
    monkeypatch.setattr(fields, "primitive_element", lambda field, skip=0: generator(field, skip) ** p)
    inst = instance_parameters(q, p, k)
    assert inst.effective_m == 2
    with pytest.raises(InvariantViolation, match="not primitive"):
        dispatch(inst)
    with pytest.raises(InvariantViolation, match="not primitive"):
        dispatch(inst, generator_skip=1)
