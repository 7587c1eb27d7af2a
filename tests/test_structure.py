from __future__ import annotations

import pytest

from idemforge import (
    Poly,
    UsageError,
    cyclotomic_cosets,
    expected_idempotent_count,
    factor_xn_minus_1,
    get_prime_field,
    instance_parameters,
    multiplicative_order,
)


def test_multiplicative_order_examples():
    assert multiplicative_order(17, 13) == 6
    assert multiplicative_order(5, 1) == 1
    assert multiplicative_order(2, 9) == 6


def test_multiplicative_order_needs_coprimality():
    with pytest.raises(UsageError):
        multiplicative_order(3, 9)


def test_instance_parameters_examples():
    inst = instance_parameters(17, 13, 2)
    assert (inst.t, inst.m) == (6, 1)
    inst = instance_parameters(7, 3, 2)
    assert (inst.t, inst.m) == (1, 1)
    inst = instance_parameters(2, 7, 1)
    assert (inst.t, inst.m) == (3, 1)


def test_instance_parameters_trivial_ring_sets_t_to_one():
    inst = instance_parameters(2, 7, 0)
    assert inst.t == 1 and inst.n == 1


def test_instance_parameters_rejects_bad_input():
    with pytest.raises(UsageError):
        instance_parameters(6, 3, 1)
    with pytest.raises(UsageError):
        instance_parameters(7, 7, 1)
    with pytest.raises(UsageError):
        instance_parameters(7, 4, 1)
    with pytest.raises(UsageError):
        instance_parameters(2, 3, 20)  # n over the cap


def test_cosets_of_2_mod_7():
    part = cyclotomic_cosets(2, 7)
    assert [c.elements for c in part.cosets] == [(0,), (1, 2, 4), (3, 5, 6)]
    assert [c.divisor for c in part.cosets] == [1, 7, 7]


def test_cosets_singletons_when_q_is_one_mod_n():
    part = cyclotomic_cosets(7, 3)
    assert all(c.size == 1 for c in part.cosets)
    assert len(part.cosets) == 3


def test_cosets_17_mod_169():
    part = cyclotomic_cosets(17, 169)
    assert sorted(c.size for c in part.cosets) == [1, 6, 6, 78, 78]
    assert sum(c.size for c in part.cosets) == 169


def test_coset_invariants_sample():
    for q, n in [(2, 49), (3, 121), (5, 27)]:
        part = cyclotomic_cosets(q, n)
        seen = sorted(x for c in part.cosets for x in c.elements)
        assert seen == list(range(n))
        for c in part.cosets:
            assert all((x * q) % n in c.elements for x in c.elements)
            assert c.size == multiplicative_order(q, c.divisor)


def test_order_of_q_divides_p_minus_1():
    for q, p in [(2, 7), (17, 13), (3, 11), (19, 5)]:
        inst = instance_parameters(q, p, 1)
        assert (p - 1) % inst.t == 0


def test_order_ladder_relative_to_m():
    # ord mod p^j stays t up to level m, then grows by a factor p per level
    inst = instance_parameters(17, 3, 5)  # t=2, m=2
    assert (inst.t, inst.m) == (2, 2)
    for j in range(1, inst.k + 1):
        expect = inst.t if j <= inst.m else inst.t * inst.p ** (j - inst.m)
        assert multiplicative_order(inst.q, inst.p**j) == expect


def test_factors_2_7_1():
    inst = instance_parameters(2, 7, 1)
    field = get_prime_field(2)
    factors = factor_xn_minus_1(inst)
    assert [(d, f.int_coeffs()) for d, f in factors] == [
        (1, (1, 1)),
        (7, (1, 1, 0, 1)),
        (7, (1, 0, 1, 1)),
    ]


def test_factors_7_3_2():
    inst = instance_parameters(7, 3, 2)
    factors = factor_xn_minus_1(inst)
    got = {f.int_coeffs() for _, f in factors}
    assert got == {(6, 1), (5, 1), (3, 1), (5, 0, 0, 1), (3, 0, 0, 1)}
    assert [d for d, _ in factors] == [1, 3, 3, 9, 9]


def test_factors_all_linear_when_fully_split():
    inst = instance_parameters(11, 5, 1)  # 11 = 1 mod 5
    factors = factor_xn_minus_1(inst)
    assert all(f.degree == 1 for _, f in factors)
    assert len(factors) == 5


def test_factor_product_and_degrees_match_cosets():
    for q, p, k in [(2, 3, 4), (3, 5, 2), (19, 7, 2), (2, 13, 2)]:
        inst = instance_parameters(q, p, k)
        factors = factor_xn_minus_1(inst)
        cosets = cyclotomic_cosets(q, inst.n).cosets
        assert len(factors) == len(cosets)
        assert [f.degree for _, f in factors] == [c.size for c in cosets]
        field = get_prime_field(q)
        prod = Poly.one(field)
        for _, f in factors:
            prod = prod * f
        assert prod == Poly.x_pow_minus_one(field, inst.n)


def test_factor_trivial_ring():
    inst = instance_parameters(5, 3, 0)
    factors = factor_xn_minus_1(inst)
    assert len(factors) == 1
    assert factors[0][1].int_coeffs() == (4, 1)


def test_splitting_degree_cap():
    # ord_{3^7} 2 = 1458: the splitting field is never built, so no cap applies
    inst = instance_parameters(2, 3, 7)
    factors = factor_xn_minus_1(inst)
    cosets = cyclotomic_cosets(2, inst.n).cosets
    assert [f.degree for _, f in factors] == [c.size for c in cosets]
    field = get_prime_field(2)
    prod = Poly.one(field)
    for _, f in factors:
        prod = prod * f
    assert prod == Poly.x_pow_minus_one(field, inst.n)


@pytest.mark.parametrize(
    "q, p, k",
    [
        (2, 3, 5),  # levels s > m are inflated
        (3, 5, 3),
        (17, 13, 2),
        (2, 5, 3),
        (19, 7, 2),  # k <= m: no inflation
        (3, 2, 5),  # p = 2, q = 3 (mod 4): the factors live in F_{q^2}
        (7, 2, 6),
    ],
)
def test_factors_match_sympy(q, p, k):
    sympy = pytest.importorskip("sympy")
    inst = instance_parameters(q, p, k)
    x = sympy.symbols("x")
    _, expected = sympy.Poly(x**inst.n - 1, x, modulus=q).factor_list()
    want = sorted(
        tuple(c % q for c in reversed(f.all_coeffs())) for f, mult in expected if mult == 1
    )
    assert len(want) == len(expected)
    assert sorted(f.int_coeffs() for _, f in factor_xn_minus_1(inst)) == want


def test_expected_counts():
    assert expected_idempotent_count(instance_parameters(17, 13, 2)) == 5
    assert expected_idempotent_count(instance_parameters(7, 3, 1)) == 3  # q = 1 mod n
    assert expected_idempotent_count(instance_parameters(2, 7, 1)) == 3


def test_expected_count_matches_cosets_on_samples():
    for q, p, k in [(2, 3, 4), (17, 3, 5), (19, 7, 3), (23, 13, 2), (19, 3, 2)]:
        inst = instance_parameters(q, p, k)
        assert expected_idempotent_count(inst) == len(
            cyclotomic_cosets(q, inst.n).cosets
        )
