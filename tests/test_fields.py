from __future__ import annotations

import random

import numpy as np
import pytest

from idemforge import (
    BudgetExceededError,
    InvariantViolation,
    UsageError,
    find_irreducible,
    frobenius,
    get_extension_field,
    get_prime_field,
    primitive_element,
    root_of_unity,
    trace_sigma1,
)
from idemforge import fields
from idemforge.fields import element_by_index, factor_integer, is_prime
from idemforge.structure import _nth_root_of_unity


@pytest.fixture
def f7():
    return get_prime_field(7)


@pytest.fixture
def f8():
    return get_extension_field(2, 3)


def test_prime_field_requires_prime():
    with pytest.raises(UsageError):
        get_prime_field(6)


def test_prime_field_add_and_inverse(f7):
    assert f7.element(3) + f7.element(5) == f7.element(1)
    assert f7.element(3).inverse() == f7.element(5)
    with pytest.raises(ZeroDivisionError):
        f7.zero().inverse()


def test_field_mismatch_is_a_usage_error(f7):
    f5 = get_prime_field(5)
    with pytest.raises(UsageError):
        f7.element(1) + f5.element(1)


def test_extension_power_reduces(f8):
    y = f8.gen()
    assert y**5 == f8.element([1, 1, 1])  # y^2 + y + 1


def test_pow_accepts_huge_exponents(f8):
    y = f8.gen()
    # group order 7: exponents reduce mod 7 even far above machine word
    assert y ** (7 * 10**30 + 1) == y
    assert y**0 == f8.one()


def test_division(f7):
    a, b = f7.element(3), f7.element(4)
    assert (a / b) * b == a


def test_find_irreducible_smallest_cubic_over_f2():
    poly = find_irreducible(2, 3)
    assert poly.int_coeffs() == (1, 1, 0, 1)  # y^3 + y + 1


def test_find_irreducible_second_smallest_cubic_over_f2():
    poly = find_irreducible(2, 3, skip=1)
    assert poly.int_coeffs() == (1, 0, 1, 1)  # y^3 + y^2 + 1


def test_find_irreducible_degree_one_is_y():
    assert find_irreducible(11, 1).int_coeffs() == (0, 1)


@pytest.mark.parametrize(
    "q, t",
    [(4099, 4), (4127, 3)],  # q = 3 (mod 4), and q = 2 (mod 3): no binomial is irreducible
)
def test_find_irreducible_skips_binomials_above_the_prefilter(q, t):
    from idemforge._fastpoly import is_irreducible, lex_irreducible

    assert q > 4096  # the root-free prefilter is off here
    assert not any(is_irreducible(q, [c] + [0] * (t - 1) + [1]) for c in range(q))
    first = next(
        c for c in range(q) if is_irreducible(q, [c, 1] + [0] * (t - 2) + [1])
    )
    assert lex_irreducible(q, t) == (first, 1) + (0,) * (t - 2) + (1,)


@pytest.mark.parametrize(
    "q, t", [(2, 18), (2, 24), (3, 18), (3, 20), (5, 19), (7, 10), (29, 12)]
)
def test_lex_irreducible_matches_sympy(q, t):
    # the first candidate, in the same lex order (constant term as the least
    # significant digit), that sympy finds irreducible
    sympy = pytest.importorskip("sympy")
    from idemforge._fastpoly import lex_irreducible

    x = sympy.symbols("x")
    for index in range(q**t):
        digits = [(index // q**i) % q for i in range(t)]
        expr = x**t + sum(c * x**i for i, c in enumerate(digits))
        if sympy.Poly(expr, x, modulus=q).is_irreducible:
            break
    assert lex_irreducible(q, t) == tuple(digits) + (1,)


def _powmod(base, e, mod):
    acc_field = base.field
    from idemforge.polys import Poly

    acc = Poly.one(acc_field)
    b = base % mod
    while e:
        if e & 1:
            acc = (acc * b) % mod
        b = (b * b) % mod
        e >>= 1
    return acc


def test_find_irreducible_17_6_certified_by_power_gcds():
    # independent certificate: gcd(y^(17^i) - y, Q) = 1 for 1 <= i < 6,
    # and y^(17^6) = y mod Q
    from idemforge.polys import Poly

    poly = find_irreducible(17, 6)
    field = get_prime_field(17)
    y = Poly.x(field)
    one = Poly.one(field)
    for i in range(1, 6):
        diff = _powmod(y, 17**i, poly) - y
        assert not diff.is_zero()
        assert diff.gcd(poly) == one
    assert _powmod(y, 17**6, poly) == y


def test_primitive_element_examples(f7, f8):
    assert primitive_element(f7) == f7.element(3)
    assert primitive_element(get_prime_field(2)) == get_prime_field(2).one()
    assert primitive_element(f8) == f8.gen()


def test_primitive_element_matches_walk_over_all_elements():
    # the walk starts past the constants of F_{q^t}; a walk over every
    # nonzero element, counting multiplicative orders, finds the same ones
    for q, t in [(2, 2), (3, 2), (5, 2), (2, 4), (3, 3), (7, 2)]:
        field = get_extension_field(q, t)
        one = field.one()

        def order(g):
            e, acc = 1, g
            while acc != one:
                acc, e = acc * g, e + 1
            return e

        walk = [
            g
            for g in (element_by_index(field, i) for i in range(1, field.order))
            if order(g) == field.order - 1
        ][:3]
        assert [primitive_element(field, s) for s in range(len(walk))] == walk


def _scalar_primitive_elements(field, pow_=None):
    """The walk `primitive_element` ran before candidates were stacked, as
    a generator of every primitive element in canonical order (skip = s is
    the item at position s): one FieldElement at a time, each raised to
    n/r for every prime r of n.  `pow_(coeffs, e)` replaces the field's
    power where given."""
    n = field.order - 1
    prime_divisors = list(factor_integer(n)) if n > 1 else []
    one = field.one()
    for index in range(1 if field.degree == 1 else field.q, field.order):
        g = element_by_index(field, index)
        if pow_ is None:
            primitive = all(g ** (n // r) != one for r in prime_divisors)
        else:
            primitive = all(pow_(g.coeffs, n // r) != one.coeffs for r in prime_divisors)
        if primitive:
            yield g


def _scalar_nth_root_of_unity(field, n, p):
    """The walk `structure._nth_root_of_unity` ran before candidates were
    stacked."""
    if n == 1:
        return field.one()
    exp = (field.order - 1) // n
    one = field.one()
    start = 2 if (field.q - 1) % n == 0 else field.q
    for index in range(start, min(field.order, start + (1 << 20))):
        zeta = element_by_index(field, index) ** exp
        if zeta != one and zeta ** (n // p) != one:
            return zeta
    raise InvariantViolation("no primitive root of unity found")


_SWEEP = [
    (q, t)
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    for t in range(1, 13)
    if (q**t - 1).bit_length() <= fields.DEFAULT_ORDER_BUDGET_BITS
]


def _check_against_scalar_walks(field):
    walk = _scalar_primitive_elements(field)
    expected = [g for _, g in zip(range(4), walk)]
    for skip in (0, 1, 3):
        if skip < len(expected):
            assert primitive_element(field, skip).coeffs == expected[skip].coeffs
        else:  # F_2, F_3, F_5 and F_7 have fewer than four generators
            with pytest.raises(UsageError, match="no primitive element"):
                primitive_element(field, skip)
    n = field.order - 1
    for r, v in factor_integer(n).items():
        for order in {r, r**v}:
            zeta = _nth_root_of_unity(field, order, r)
            assert zeta.coeffs == _scalar_nth_root_of_unity(field, order, r).coeffs
            assert root_of_unity(field, order) == expected[0] ** (n // order)


@pytest.mark.parametrize("q", sorted({q for q, _ in _SWEEP}))
def test_stacked_walks_match_the_scalar_walks(q):
    # every field F_{q^t}, t <= 12, of the sweep (F_{13^10} and F_{29^10}
    # among them): the same elements, skip included
    for t in sorted(t for p, t in _SWEEP if p == q):
        _check_against_scalar_walks(get_extension_field(q, t))
    if q == 17:  # F_{17^4} finds its generator at the 291st candidate, index 17 + 290
        field = get_extension_field(17, 4)
        assert primitive_element(field) == element_by_index(field, 17 + 290)


def test_stacked_walks_match_on_the_code_check_polynomial_fields():
    # the fields F_q[x]/(h) in which code --min-distance walks its orbits,
    # h = (x^n - 1)/g for the generator g of each benchmark code
    from idemforge import ExtensionField, Poly, dispatch, generator_polynomial, instance_parameters

    jobs = [
        (2, 7, 1, "e_j:1"), (2, 11, 1, "e_j:1"), (2, 23, 1, "e_j:1"), (2, 13, 2, "e_j:1"),
        (2, 3, 3, "e_{s,l}:3,1"), (2, 5, 2, "e_{s,l}:2,1"), (2, 41, 1, "e_j:1"),
        (2, 7, 2, "e_{s,l}:2,1"),
    ]
    degrees = []
    for q, p, k, label in jobs:
        inst = instance_parameters(q, p, k)
        g = generator_polynomial(next(r for r in dispatch(inst) if r.label == label), inst.n)
        h, _ = Poly.x_pow_minus_one(g.field, inst.n).divrem(g)
        field = ExtensionField(get_prime_field(q), h.monic())
        assert primitive_element(field).coeffs == next(_scalar_primitive_elements(field)).coeffs
        degrees.append(field.degree)
    assert max(degrees) >= 20


def test_primitive_element_at_the_int64_edge():
    # 2*(q-1)^2 sits just below 2^63; the candidates' powers are checked
    # against pure-Python arithmetic
    q = 2147483579
    field = get_extension_field(q, 2)
    mod = field.modulus.coeffs
    walk = _scalar_primitive_elements(field, pow_=lambda a, e: _ref_pow(a, e, mod, q))
    assert primitive_element(field).coeffs == next(walk).coeffs


def test_one_cache_entry_per_field_and_skip():
    field = get_extension_field(3, 4)
    assert primitive_element(field) is primitive_element(field, 0)
    assert primitive_element(field, 0) is primitive_element(field, skip=0)
    assert get_extension_field(5, 3) is get_extension_field(5, 3, 0)
    assert get_extension_field(5, 3, 0) is get_extension_field(5, 3, skip=0)


def test_survey_loop_searches_each_field_once(monkeypatch):
    # the calls of a pass over the acceptance grid, from cold caches: one
    # search per distinct (field, skip) and one ExtensionField per (q, t, skip)
    import functools

    from idemforge import dispatch, factor_xn_minus_1, instance_parameters, structure

    searched, built = [], []

    def counting(log, fn):
        def wrapper(*args):
            log.append(args)
            return fn(*args)

        return functools.lru_cache(maxsize=None)(wrapper)

    search, build = fields._primitive_element.__wrapped__, fields._extension_field.__wrapped__
    monkeypatch.setattr(fields, "_primitive_element", counting(searched, search))
    monkeypatch.setattr(fields, "_extension_field", counting(built, build))
    factor = functools.lru_cache(maxsize=None)(structure._factor_cached.__wrapped__)
    monkeypatch.setattr(structure, "_factor_cached", factor)
    grid = [
        (q, p, k)
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
        for p in (3, 5, 7, 11, 13)
        if p != q
        for k in range(9)
        if p**k <= 400
    ]
    for job in grid:
        inst = instance_parameters(*job)
        dispatch(inst)
        factor_xn_minus_1(inst)
    assert len(searched) == len(set(searched)) > 40
    assert len(built) == len(set(built)) > 40


def test_survey_loop_runs_one_generator_search_per_distinct_field(monkeypatch):
    # a degree-1 extension F_{q^1}, which the factorization uses when t = 1,
    # reuses the search of F_q that the split case ran: 43 searches, not 49
    import functools

    from idemforge import dispatch, factor_xn_minus_1, instance_parameters, structure

    searched = []
    search = fields._primitive_element.__wrapped__

    def counting(field, skip):
        searched.append((field, skip))
        return search(field, skip)

    monkeypatch.setattr(fields, "_primitive_element", functools.lru_cache(maxsize=None)(counting))
    factor = functools.lru_cache(maxsize=None)(structure._factor_cached.__wrapped__)
    monkeypatch.setattr(structure, "_factor_cached", factor)
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        for p in (3, 5, 7, 11, 13):
            for k in range(9):
                if p != q and p**k <= 400:
                    inst = instance_parameters(q, p, k)
                    dispatch(inst)
                    factor_xn_minus_1(inst)
    assert len(searched) == 43
    assert not any(isinstance(f, fields.ExtensionField) and f.degree == 1 for f, _ in searched)


def test_survey_loop_tests_each_certified_modulus_once(monkeypatch):
    # get_extension_field builds its field on the modulus that
    # lex_irreducible has just certified, with no second test: from cold
    # caches, every irreducibility test in a pass over the acceptance grid
    # is one of lex_irreducible's candidates, none of them repeated.  A
    # second test per field built would add 43.
    import functools

    from idemforge import _fastpoly as fp
    from idemforge import dispatch, factor_xn_minus_1, instance_parameters, structure

    tests, scans = [], []
    test, scan = fp.is_irreducible, fp.lex_irreducible

    def counted(q, vec):
        tests.append((q, tuple(int(c) for c in vec), bool(scans)))
        return test(q, vec)

    def scanning(*args):
        scans.append(args)
        try:
            return scan(*args)
        finally:
            scans.pop()

    monkeypatch.setattr(fp, "is_irreducible", counted)
    monkeypatch.setattr(fp, "lex_irreducible", scanning)
    for module, name in ((fields, "find_irreducible"), (fields, "_extension_field"),
                         (structure, "_factor_cached")):
        fresh = functools.lru_cache(maxsize=None)(getattr(module, name).__wrapped__)
        monkeypatch.setattr(module, name, fresh)
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        for p in (3, 5, 7, 11, 13):
            for k in range(9):
                if p != q and p**k <= 400:
                    inst = instance_parameters(q, p, k)
                    dispatch(inst)
                    factor_xn_minus_1(inst)
    assert fields._extension_field.cache_info().misses == 43
    assert tests and all(in_scan for _, _, in_scan in tests)
    assert len({(q, vec) for q, vec, _ in tests}) == len(tests)


def test_primitive_element_skip_differs(f8):
    g0 = primitive_element(f8)
    g1 = primitive_element(f8, skip=1)
    assert g0 != g1


def test_primitive_element_budget_guard():
    with pytest.raises(BudgetExceededError, match="needs 127 bits"):
        primitive_element(get_prime_field(2**127 - 1))


def test_root_of_unity_examples(f7, f8):
    assert root_of_unity(f8, 7) == f8.gen()
    assert root_of_unity(f7, 1) == f7.one()
    assert root_of_unity(f7, 3) == f7.element(2)


def test_root_of_unity_rejects_bad_order(f7):
    with pytest.raises(UsageError):
        root_of_unity(f7, 4)


def test_root_of_unity_has_exact_order():
    field = get_extension_field(3, 4)  # order 80, contains 5th roots
    z = root_of_unity(field, 5)
    assert z**5 == field.one()
    assert z != field.one()


def test_root_of_unity_checks_every_prime_of_the_order(f7, monkeypatch):
    # 6 has order 2 in F_7: 6^(6/2) != 1 passes the check at the prime 2,
    # and only the prime 3 (6^2 = 1) exposes it
    monkeypatch.setattr(fields, "primitive_element", lambda field, skip=0: field.element(6))
    with pytest.raises(InvariantViolation, match="not primitive"):
        root_of_unity(f7, 6)


def test_frobenius_fixes_base_and_cycles(f8):
    assert frobenius(f8.embed(1)) == f8.one()
    y = f8.gen()
    assert frobenius(y) == y * y
    assert frobenius(frobenius(frobenius(y))) == y


def test_frobenius_is_additive_and_multiplicative():
    field = get_extension_field(7, 2)
    rng = random.Random(20240811)
    for _ in range(25):
        a = element_by_index(field, rng.randrange(field.order))
        b = element_by_index(field, rng.randrange(field.order))
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)
        cur = a
        for _ in range(field.degree):
            cur = frobenius(cur)
        assert cur == a


def test_trace_examples(f8):
    two = get_prime_field(2)
    y = f8.gen()
    assert trace_sigma1(f8.embed(1)) == two.element(1)  # 3*1 mod 2
    assert trace_sigma1(y) == two.zero()
    assert trace_sigma1(y**3) == two.one()


def test_trace_of_embedded_constant_is_t_times_c():
    field = get_extension_field(7, 3)
    base = get_prime_field(7)
    assert trace_sigma1(field.embed(2)) == base.element(6)  # 3 * 2 mod 7


def test_trace_linearity_and_frobenius_invariance():
    field = get_extension_field(3, 4)
    rng = random.Random(7)
    for _ in range(25):
        a = element_by_index(field, rng.randrange(field.order))
        b = element_by_index(field, rng.randrange(field.order))
        assert trace_sigma1(a + b) == trace_sigma1(a) + trace_sigma1(b)
        assert trace_sigma1(frobenius(a)) == trace_sigma1(a)


def test_trace_is_surjective():
    for q, t in [(2, 3), (3, 4), (7, 2)]:
        field = get_extension_field(q, t)
        assert any(
            not trace_sigma1(element_by_index(field, i)).is_zero()
            for i in range(field.order)
        )


def test_inverse_roundtrip_random_samples():
    field = get_extension_field(5, 3)
    rng = random.Random(99)
    one = field.one()
    for _ in range(30):
        a = element_by_index(field, rng.randrange(1, field.order))
        assert a * a.inverse() == one


def _ref_mul(a, b, mod, q):
    """Product in F_q[y]/(mod) with Python ints (no overflow possible)."""
    t = len(mod) - 1
    prod = [0] * (2 * t - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(len(prod) - 1, t - 1, -1):  # y^t = -(mod[0] + ... + mod[t-1] y^(t-1))
        c, prod[i] = prod[i], 0
        for j in range(t):
            prod[i - t + j] -= c * mod[j]
    return tuple(c % q for c in prod[:t])


def _ref_pow(a, e, mod, q):
    acc, base = (1,) + (0,) * (len(a) - 1), a
    while e:
        if e & 1:
            acc = _ref_mul(acc, base, mod, q)
        base = _ref_mul(base, base, mod, q)
        e >>= 1
    return acc


def test_quadratic_extension_exact_at_the_int64_edge():
    # 2*(q-1)^2 sits just below 2^63: every int64 dot product is at the edge
    q = 2147483579
    assert 1 << 62 < 2 * (q - 1) ** 2 < 1 << 63
    field = get_extension_field(q, 2)
    mod = field.modulus.coeffs
    rng = random.Random(2)
    samples = [(q - 1, q - 1), (q - 1, 0), (0, q - 1), (q - 2, q - 1), (1, q - 1)]
    samples += [(rng.randrange(q), rng.randrange(1, q)) for _ in range(6)]
    one = field.one()
    for a in samples:
        x = field.element(a)
        for b in samples:
            assert (x * field.element(b)).coeffs == _ref_mul(a, b, mod, q)
        for e in (2, q - 1, q, q + 1, rng.randrange(q * q)):
            assert (x**e).coeffs == _ref_pow(a, e, mod, q)
        inv = x.inverse()
        assert _ref_mul(a, inv.coeffs, mod, q) == one.coeffs
        assert inv.coeffs == _ref_pow(a, q * q - 2, mod, q)
    # the row-stack paths: power tables by doubling, multiplication matrices
    # for one element and for a stack
    ring, y = field.ring, (0, 1)
    stack = ring.matrix(np.array(samples))
    for a, mat in zip(samples, stack):
        powers = ring.powers(np.array(a), 9)
        assert [tuple(r) for r in powers.tolist()] == [_ref_pow(a, e, mod, q) for e in range(9)]
        assert np.array_equal(ring.matrix(np.array(a)), mat)
        assert [tuple(r) for r in mat.tolist()] == [
            _ref_mul(_ref_pow(y, i, mod, q), a, mod, q) for i in range(2)
        ]
        for b in samples:
            assert tuple((np.array(b) @ mat % q).tolist()) == _ref_mul(b, a, mod, q)
    # stacked products and one power walk for several exponents
    rows = np.array(samples)
    assert [tuple(r) for r in ring.mul(rows, rows[::-1]).tolist()] == [
        _ref_mul(a, b, mod, q) for a, b in zip(samples, samples[::-1])
    ]
    exps = [0, 1, q - 1, q * q - 2, rng.randrange(q * q)]
    assert [[tuple(r) for r in block] for block in ring.pow(rows, exps).tolist()] == [
        [_ref_pow(a, e, mod, q) for a in samples] for e in exps
    ]


def test_modulus_must_be_irreducible():
    from idemforge import ExtensionField, Poly

    base = get_prime_field(2)
    reducible = Poly.from_ints(base, [1, 0, 1])  # (y+1)^2
    with pytest.raises(UsageError):
        ExtensionField(base, reducible)


def test_is_prime_and_factor_integer():
    assert is_prime(2) and is_prime(97) and not is_prime(1) and not is_prime(91)
    assert factor_integer(24137568) == {2: 5, 3: 3, 7: 1, 13: 1, 307: 1}
