from __future__ import annotations

import itertools

import pytest
from reference import field_modulus, ref_mul, ref_pow, ref_roots

from idemforge import (
    InvariantViolation,
    Poly,
    UsageError,
    all_idempotents_euclid,
    cyclotomic_cosets,
    expected_idempotent_count,
    factor_xn_minus_1,
    get_extension_field,
    get_prime_field,
    instance_parameters,
    multiplicative_order,
)
from idemforge import structure
from idemforge.cli import main
from idemforge.structure import _berlekamp_massey, _minimal_polynomials, euler_phi_prime_power, p_adic_valuation


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


def test_the_second_choice_reaches_every_factor_list(second_choice):
    # each level's factor list and its plan, which places the oracle's
    # rows, are kept per process in one cache, and the fixture empties it
    # with the other tables: under the second root the cosets get other
    # factors, in the list and in the oracle's rows, and the sets stay the
    # same.  A level cache the fixture missed would hand back the first
    # choice's order.
    insts = [instance_parameters(*job) for job in ((17, 13, 2), (23, 13, 2), (19, 13, 2))]
    first = [(factor_xn_minus_1(inst), all_idempotents_euclid(inst)) for inst in insts]
    second_choice()
    for inst, (factors, system) in zip(insts, first):
        other, other_system = factor_xn_minus_1(inst), all_idempotents_euclid(inst)
        assert other != factors and set(other) == set(factors), inst.describe()
        assert other_system.coeffs.tobytes() != system.coeffs.tobytes()
        assert {row.tobytes() for row in other_system.coeffs} == {row.tobytes() for row in system.coeffs}


def _minimal_polynomials_with(monkeypatch, changes):
    """Patch `structure._minimal_polynomials` so that each map it returns
    sends the exponents of `changes` to other polynomials: exponent -> the
    exponent whose polynomial it takes, or a Poly."""
    real = structure._minimal_polynomials

    def tampered(q, pm, big_t):
        minpolys = dict(real(q, pm, big_t))
        for j, g in changes.items():
            minpolys[j] = g if isinstance(g, Poly) else minpolys[g]
        return minpolys

    monkeypatch.setattr(structure, "_minimal_polynomials", tampered)


def test_a_reducible_stand_in_fails_the_level_product(monkeypatch, capsys, fresh_caches):
    # x^3 + 1 = (x + 1)(x^2 + x + 1) in place of the cubic of the orbit
    # {1, 2, 4} at (2,7,1): monic of the coset's degree, so only the
    # product of level m' = 1, which must be Phi_7, catches it
    stand_in = Poly.from_ints(get_prime_field(2), [1, 0, 0, 1])
    _minimal_polynomials_with(monkeypatch, dict.fromkeys((1, 2, 4), stand_in))
    with pytest.raises(InvariantViolation, match="factor product does not reconstruct Phi_7"):
        factor_xn_minus_1(instance_parameters(2, 7, 1))
    assert main(["factors", "--q", "2", "--p", "7", "--k", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal invariant violated: factor product")


def test_two_orbits_on_one_g_fail_the_level_map(monkeypatch, capsys, fresh_caches):
    # level 1 of (2,7,k) is certified first; then a map that sends the
    # orbit {3, 5, 6} to the g of {1, 2, 4} gives level 2 two factors
    # g(x^7) of degree 21, each monic of its coset's size, so the degree
    # check passes and the one-to-one check against level 1 must refuse
    factor_xn_minus_1(instance_parameters(2, 7, 1))
    _minimal_polynomials_with(monkeypatch, dict.fromkeys((3, 5, 6), 1))
    with pytest.raises(InvariantViolation, match="mod 49 do not map one-to-one onto those mod 7"):
        factor_xn_minus_1(instance_parameters(2, 7, 2))
    assert main(["factors", "--q", "2", "--p", "7", "--k", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal invariant violated: the cosets mod 49")


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
        (2, 163, 1),  # one unit orbit, t = 162: x - 1 and Phi_163, with no F_{2^162}
        (2, 191, 1),  # t = 95: two factors of degree 95, from F_{2^95}
        pytest.param(2, 491, 1, marks=pytest.mark.slow),  # t = 490
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


def _shortest_recurrences(seq, q):
    """Every monic characteristic polynomial (ascending) of the shortest
    length that generates seq over F_q, by trying all of each length."""
    for length in range(len(seq) + 1):
        found = [
            tuple(low) + (1,)
            for low in itertools.product(range(q), repeat=length)
            if all(
                (sum(c * seq[i + j] for j, c in enumerate(low)) + seq[i + length]) % q == 0
                for i in range(len(seq) - length)
            )
        ]
        if found:
            return found


@pytest.mark.parametrize("q, longest", [(2, 7), (3, 5)])
def test_berlekamp_massey_finds_a_shortest_recurrence(q, longest):
    # every sequence up to `longest` terms, leading zeros included (the
    # trace of 1 is T, which may be 0 mod q): the helper returns a
    # recurrence of the least length, and the only one when the sequence
    # holds at least twice that many terms
    for size in range(1, longest + 1):
        for seq in itertools.product(range(q), repeat=size):
            found = tuple(_berlekamp_massey(list(seq), q))
            shortest = _shortest_recurrences(seq, q)
            assert found in shortest, (seq, found)
            if 2 * (len(found) - 1) <= size:
                assert shortest == [found], seq


@pytest.mark.parametrize(
    "q, pm, big_t",
    [
        (3, 8, 2),  # p = 2, q = 3 (mod 4): T = 2, with -1 an orbit of size 1 and Tr(-1) = -2
        (7, 16, 2),
        (3, 13, 3),  # q | T: Tr(1) = 0
        (5, 11, 5),
        (2, 5, 4),  # one unit orbit and q | T: the table reads no root
        (19, 9, 1),  # t = 1: the table holds the powers of zeta in F_19
    ],
)
def test_minimal_polynomials_are_the_products_over_each_orbit(q, pm, big_t):
    # the map read off the trace table is, for every j mod pm, the product
    # of (x - zeta^i) over the orbit of j, with zeta the search's root of
    # unity, walked by the reference's rule, and the products taken in
    # plain ints in F_q[y]/(modulus)
    field = get_extension_field(q, big_t) if big_t > 1 else get_prime_field(q)
    mod = field_modulus(field)
    zeta = next(ref_roots(q, mod, pm))
    one = (1,) + (0,) * (big_t - 1)
    minpolys = _minimal_polynomials(q, pm, big_t)
    assert sorted(minpolys) == list(range(pm))
    for coset in cyclotomic_cosets(q, pm).cosets:
        prod = [one]  # ascending in x, each coefficient in F_{q^T}
        for i in coset.elements:
            root = ref_pow(zeta, i, mod, q)
            shifted = [(0,) * big_t] + prod
            scaled = [ref_mul(root, c, mod, q) for c in prod] + [(0,) * big_t]
            prod = [tuple((a - b) % q for a, b in zip(x, y)) for x, y in zip(shifted, scaled)]
        assert all(not any(c[1:]) for c in prod), coset.rep
        for j in coset.elements:
            assert minpolys[j].int_coeffs() == tuple(c[0] for c in prod), (coset.rep, j)


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


def test_expected_count_holds_for_every_p_2_instance():
    # q = 3 (mod 4) takes its roots of unity in F_{q^2} from k = 3 on:
    # (T, m') = (2, min(v_2(q^2 - 1), k)), and the count
    # 1 + 2^(m'-1) + (k-m')*phi(2^m')/T
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for k in range(11):
            inst = instance_parameters(q, 2, k)
            levels = sum(
                euler_phi_prime_power(2, s) // multiplicative_order(q, 2**s) for s in range(k + 1)
            )
            assert expected_idempotent_count(inst) == len(cyclotomic_cosets(q, inst.n).cosets) == levels
            big_t, m_eff = inst.root_field
            assert big_t == (2 if q % 4 == 3 and k >= 3 else 1)
            assert (q**big_t - 1) % 2**m_eff == 0
            assert m_eff == min(p_adic_valuation(q**big_t - 1, 2), k)


def test_the_pipeline_factors_only_prime_powers_up_to_n(monkeypatch, fresh_caches):
    # over the acceptance grid, each instance from cold caches (a warm one
    # would reuse the tables of a smaller k), the closed forms, the
    # factorization and the oracle factor p^m' alone, never q^t - 1; with
    # one unit orbit (t = p - 1, m' = 1) they search no root and factor
    # nothing
    from idemforge import all_idempotents_euclid, dispatch, fields

    factored = []
    factor = fields.factor_integer

    def recording(n):
        factored.append(n)
        return factor(n)

    monkeypatch.setattr(fields, "factor_integer", recording)
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        for p in (3, 5, 7, 11, 13):
            for k in range(9):
                if p != q and p**k <= 400:
                    inst = instance_parameters(q, p, k)
                    fresh_caches()
                    factored.clear()
                    dispatch(inst)
                    factor_xn_minus_1(inst)
                    all_idempotents_euclid(inst)
                    assert all(n <= inst.n and len(factor(n)) == 1 for n in factored)
                    one_orbit = inst.root_field == (p - 1, 1)
                    assert bool(factored) == (k > 0 and not one_orbit)
