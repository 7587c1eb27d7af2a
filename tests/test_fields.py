from __future__ import annotations

import hashlib
import random
import re

import numpy as np
import pytest
from reference import digits, field_modulus, ref_inverse, ref_mul, ref_pow, ref_roots, ref_trace

from idemforge import (
    InvariantViolation,
    UsageError,
    find_irreducible,
    get_extension_field,
    get_prime_field,
)
from idemforge import fields, structure
from idemforge.fields import FieldElement, _root_powers, _root_search, factor_integer, is_prime


@pytest.fixture
def f7():
    return get_prime_field(7)


@pytest.fixture
def f8():
    return get_extension_field(2, 3)


def _tuple(row) -> tuple[int, ...]:
    """A ring row, or a Python int of F_q, as a tuple of ints."""
    return tuple(np.ravel(row).tolist())


def test_prime_field_requires_prime():
    with pytest.raises(UsageError):
        get_prime_field(6)


def test_prime_field_add_and_inverse():
    # the reference's inverse in degree 1 (modulo y) is Python's modular
    # inverse in F_q, for every unit, and zero has none
    for a in range(1, 7):
        assert ref_inverse((a,), (0, 1), 7) == (pow(a, -1, 7),)
    with pytest.raises(ZeroDivisionError):
        ref_inverse((0,), (0, 1), 7)


def test_extension_power_reduces(f8):
    ring, mod = f8.ring, f8.modulus.coeffs
    assert _tuple(ring.pow(ring.x(), 5)) == ref_pow((0, 1, 0), 5, mod, 2) == (1, 1, 1)  # y^2 + y + 1


def test_pow_accepts_huge_exponents(f8):
    # group order 7: exponents reduce mod 7 even far above machine word
    ring, y = f8.ring, f8.ring.x()
    assert np.array_equal(ring.pow(y, 7 * 10**30 + 1), y)
    assert np.array_equal(ring.pow(y, 0), ring.one())
    assert _tuple(ring.pow(y, [7 * 10**30 + 3])[0]) == ref_pow((0, 1, 0), 3, f8.modulus.coeffs, 2)


def test_division():
    # (a/b)*b = a in F_{5^3}: 1/b by the reference's extended Euclid, the
    # products by the ring's kernel
    field = get_extension_field(5, 3)
    ring, mod = field.ring, field.modulus.coeffs
    rng = random.Random(3)
    for _ in range(20):
        a, b = digits(5, 3, rng.randrange(125)), digits(5, 3, rng.randrange(1, 125))
        quotient = ring.mul(np.array(a), np.array(ref_inverse(b, mod, 5)))
        assert _tuple(ring.mul(quotient, np.array(b))) == a


def test_find_irreducible_smallest_cubic_over_f2():
    poly = find_irreducible(2, 3)
    assert poly.int_coeffs() == (1, 1, 0, 1)  # y^3 + y + 1


def test_find_irreducible_second_smallest_cubic_over_f2():
    from idemforge._fastpoly import lex_irreducible

    assert lex_irreducible(2, 3, 1) == (1, 0, 1, 1)  # y^3 + y^2 + 1


@pytest.mark.parametrize("t", [1, 3])
def test_lex_irreducible_refuses_a_negative_skip(t):
    # refused as bad input before any search: otherwise t = 1 returns the
    # coefficient -1, outside F_q, and t = 3 ends in an internal error
    from idemforge._fastpoly import lex_irreducible

    with pytest.raises(UsageError, match="skip must be >= 0"):
        lex_irreducible(2, t, -1)


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


def _scalar_irreducibles(q, t, count):
    """The first `count` monic irreducibles of degree t over F_q (fewer when
    F_q has fewer), walked one candidate at a time in lex order from index
    0: a zero constant term or a root in F_q rules a candidate out, and
    `is_irreducible` decides the rest."""
    from idemforge._fastpoly import is_irreducible

    found = []
    for index in range(q**t):
        digits = [index // q**i % q for i in range(t)] + [1]
        if t > 1 and (digits[0] == 0 or any(
            sum(c * pow(a, i, q) for i, c in enumerate(digits)) % q == 0 for a in range(1, q)
        )):
            continue
        if is_irreducible(q, digits):
            found.append(tuple(digits))
            if len(found) == count:
                break
    return found


_LEX_SWEEP = [(q, t) for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29) for t in range(1, 13)]
_LEX_SWEEP += [(q, t) for q in (31, 101) for t in range(1, 7)]


@pytest.mark.parametrize("q", sorted({q for q, _ in _LEX_SWEEP}))
def test_lex_irreducible_matches_the_scalar_walk(q):
    # the stacked walk (blocks, root filter, Frobenius filter, binomial
    # skip) returns what a one-at-a-time walk finds, skips and refusals
    # included
    from idemforge._fastpoly import lex_irreducible

    for t in sorted(t for p, t in _LEX_SWEEP if p == q):
        found = _scalar_irreducibles(q, t, 4)
        for skip in (0, 1, 3):
            if skip < len(found):
                assert lex_irreducible(q, t, skip) == found[skip], (q, t, skip)
            else:  # F_2 has 1, 2 and 3 irreducibles of degree 2, 3, 4; F_3 has 3 quadratics
                with pytest.raises(UsageError, match=f"fewer than {skip + 1} monic irreducibles"):
                    lex_irreducible(q, t, skip)


# SHA-256 of repr() of the list of (q, t, skip, lex_irreducible(q, t, skip))
# over the _LEX_SWEEP pairs and (4099, 4), (4127, 3), skips 0, 1 and 3 where
# F_q has that many irreducibles of degree t: 395 moduli, taken when a
# scalar Frobenius walk still certified each modulus on its own
PINNED_LEX_MODULI = "e66ccd12315d1fcfc424741b03663ceda35fb236173f226d4a06f664601e4c84"


def test_lex_irreducible_moduli_keep_their_digest():
    from idemforge._fastpoly import lex_irreducible

    found = []
    for q, t in _LEX_SWEEP + [(4099, 4), (4127, 3)]:
        for skip in (0, 1, 3):
            try:
                found.append((q, t, skip, lex_irreducible(q, t, skip)))
            except UsageError as err:
                assert "fewer than" in str(err)
    assert len(found) == 395
    assert hashlib.sha256(repr(found).encode()).hexdigest() == PINNED_LEX_MODULI


@pytest.mark.parametrize(
    "q, t, message",
    [
        (2, 4097, "modulus degree 4097 exceeds the kernel limit 4096"),
        (
            3037000507,  # the first prime past the int64 rule at length 1
            2,
            "q=3037000507 is too large for exact int64 arithmetic on length 2: "
            "needs length*(q-1)^2 < 2^63",
        ),
    ],
)
def test_irreducibility_tests_refuse_before_building_a_table(monkeypatch, q, t, message):
    from idemforge import _fastpoly as fp

    def forbidden(*args):
        raise AssertionError("a residue table was built")

    monkeypatch.setattr(fp, "residue_matrix", forbidden)
    with pytest.raises(UsageError, match=re.escape(message)):
        fp.is_irreducible(q, [1, 1] + [0] * (t - 2) + [1])
    with pytest.raises(UsageError, match=re.escape(message)):
        fp.lex_irreducible(q, t)


def test_is_irreducible_agrees_with_sympy():
    galois = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    from idemforge._fastpoly import is_irreducible

    rng = random.Random(17)
    cases = []
    for _ in range(2000):
        q, t = rng.choice((2, 3, 5, 13, 101)), rng.randrange(1, 21)
        cases.append((q, [rng.randrange(q) for _ in range(t)] + [1]))
    verdicts = [is_irreducible(q, c) for q, c in cases]
    assert verdicts == [galois.gf_irreducible_p(c[::-1], q, ZZ) for q, c in cases]
    assert 200 < sum(verdicts) < 1800  # both verdicts are well represented


def test_stacked_rabin_test_matches_sympy_and_rejects_the_products_that_fix_x():
    # irreducible_rows decides every row of a stack as sympy does.  Each
    # stack holds reducible rows with x^(q^t) = x, the squarefree products
    # of irreducibles whose degrees divide t: the Frobenius walk alone keeps
    # them, and only the gcds gcd(x^(q^(t/r)) - x, f) reject them.  The
    # product of r distinct irreducibles of degree t/r, for a prime r
    # dividing t, is rejected by the gcd for that r alone.
    galois = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    from idemforge._fastpoly import irreducible_rows, lex_irreducible

    rng = random.Random(5)
    for q, t in [(2, 6), (2, 12), (2, 20), (3, 4), (3, 9), (5, 6), (13, 10), (19, 10), (101, 4)]:
        mods = [[rng.randrange(1, q)] + [rng.randrange(q) for _ in range(t - 1)] + [1]
                for _ in range(150)]
        mods += [list(lex_irreducible(q, t, skip)) for skip in range(4)]
        for r in (r for r in (2, 3, 5) if t % r == 0):  # the primes dividing these t
            try:
                factors = [lex_irreducible(q, t // r, skip) for skip in range(r)]
            except UsageError:  # F_2 has 1 quadratic and 3 quartics
                continue
            f = [1]
            for g in factors:
                f = galois.gf_mul(f, list(g[::-1]), q, ZZ)
            mods.append(f[::-1])
        expected, fixes_x = [], []
        for c in mods:
            f = c[::-1]
            degrees = [len(g) - 1 for g in galois.gf_factor_sqf(f, q, ZZ)[1]]
            fixes_x.append(galois.gf_sqf_p(f, q, ZZ) and all(t % d == 0 for d in degrees))
            expected.append(galois.gf_irreducible_p(f, q, ZZ))
        passed = irreducible_rows(np.array(mods, dtype=np.int64), q).tolist()
        assert passed == expected, (q, t)
        assert all(passed[150:154]) and not any(passed[154:])
        assert len(mods) > 154 and all(fixes_x[154:])  # reducible rows that fix x


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


def _primitive_walk(field):
    """The reference walk over the generators of F^* in canonical order: the
    roots of order |F| - 1, from index 1 in degree 1 and from q, past the
    constants, above."""
    return ref_roots(field.q, field_modulus(field), field.order - 1, 1 if field.degree == 1 else field.q)


def test_primitive_element_examples(f7, f8):
    # a generator of F^* is the root search at order |F| - 1
    f2 = get_prime_field(2)
    assert _root_search(f7, 6) == FieldElement(f7, (3,))
    assert _root_search(f2, 1) == FieldElement(f2, (1,))
    assert _root_search(f8, 7) == FieldElement(f8, _tuple(f8.ring.x()))


def test_primitive_element_matches_walk_over_all_elements():
    # the walk starts past the constants of F_{q^t}; a walk over every
    # nonzero element, counting multiplicative orders with the reference's
    # products, finds the same ones
    for q, t in [(2, 2), (3, 2), (5, 2), (2, 4), (3, 3), (7, 2)]:
        field = get_extension_field(q, t)
        mod, one = field.modulus.coeffs, digits(q, t, 1)

        def order(g):
            e, acc = 1, g
            while acc != one:
                acc, e = ref_mul(acc, g, mod, q), e + 1
            return e

        walk = [
            g
            for g in (digits(q, t, i) for i in range(1, field.order))
            if order(g) == field.order - 1
        ][:3]
        assert _root_search(field, field.order - 1).coeffs == walk[0]
        # the later generators, by the search's kernel restarted past each
        exponents = [(field.order - 1) // r for r in factor_integer(field.order - 1)]
        found, start = [], 1
        for _ in walk:
            index = fields._canonical_search(field, range(start, field.order), exponents)
            found.append(digits(q, t, index))
            start = index + 1
        assert found == walk


_SWEEP = [
    (q, t)
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    for t in range(1, 13)
    if (q**t - 1).bit_length() <= fields.DEFAULT_ORDER_BUDGET_BITS
]


def _check_against_scalar_walks(field):
    n = field.order - 1
    assert _root_search(field, n).coeffs == next(_primitive_walk(field))
    for r, v in factor_integer(n).items():
        for order in {r, r**v}:
            first = next(ref_roots(field.q, field_modulus(field), order))
            assert _root_search(field, order).coeffs == first
            if order <= 4096:
                assert _tuple(_root_powers(field, order)[1]) == first


@pytest.mark.parametrize("q", sorted({q for q, _ in _SWEEP}))
def test_stacked_walks_match_the_scalar_walks(q):
    # F_q and every field F_{q^t}, t <= 12, of the sweep (F_{13^10} and
    # F_{29^10} among them) against the reference's walk over plain ints:
    # the same elements
    _check_against_scalar_walks(get_prime_field(q))
    for t in sorted(t for p, t in _SWEEP if p == q):
        _check_against_scalar_walks(get_extension_field(q, t))
    if q == 17:  # F_{17^4} finds its generator at the 291st candidate, index 17 + 290
        field = get_extension_field(17, 4)
        assert _root_search(field, field.order - 1).coeffs == digits(17, 4, 17 + 290)


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
        assert _root_search(field, field.order - 1).coeffs == next(_primitive_walk(field))
        degrees.append(field.degree)
    assert max(degrees) >= 20


def test_primitive_element_at_the_int64_edge():
    # 2*(q-1)^2 sits just below 2^63; the candidates' powers are checked
    # against pure-Python arithmetic
    q = 2147483579
    field = get_extension_field(q, 2)
    assert _root_search(field, field.order - 1).coeffs == next(_primitive_walk(field))


def test_one_cache_entry_per_field_and_order(fresh_caches):
    # one entry however the caller spells the arguments
    field = get_extension_field(3, 4)
    assert np.array_equal(_root_powers(field, 5), _root_powers(field, order=5))
    assert fields._root_search.cache_info().misses == 1
    assert get_extension_field(5, 3) is get_extension_field(q=5, t=3)
    assert fields._extension_field.cache_info().misses == 2


def test_survey_loop_searches_each_field_once(monkeypatch, fresh_caches):
    # the calls of a pass over the acceptance grid, from cold caches: one
    # root search and one power table per distinct (field, order), and one
    # ExtensionField per (q, t) with t > 1, since the trace table reads
    # zeta in F_q when t = 1; none of them where one unit orbit (t = p - 1,
    # m' = 1) needs no root: 27 searches, 27 power tables and 17 fields.
    # structure._sigma_table is the one caller of _root_powers, and the
    # factorization reads the closed form's table, so no table repeats
    import functools

    from idemforge import dispatch, factor_xn_minus_1, instance_parameters

    searched, built, tabled = [], [], []
    powers = fields._root_powers

    def tabling(field, order):
        tabled.append((field, order))
        return powers(field, order)

    monkeypatch.setattr(structure, "_root_powers", tabling)

    def counting(log, fn):
        def wrapper(*args):
            log.append(args)
            return fn(*args)

        return functools.lru_cache(maxsize=None)(wrapper)

    search, build = fields._root_search.__wrapped__, fields._extension_field.__wrapped__
    monkeypatch.setattr(fields, "_root_search", counting(searched, search))
    monkeypatch.setattr(fields, "_extension_field", counting(built, build))
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
    assert len(searched) == len(set(searched)) == 27
    assert len(tabled) == len(set(tabled)) == 27
    assert len(built) == len(set(built)) == 17


def test_survey_loop_runs_one_generator_search_per_distinct_field(monkeypatch, fresh_caches):
    # the closed forms and the factorization read the same primitive
    # p^m'-th root of unity through one trace table, in F_q when t = 1:
    # one search per q^t and order, each at a prime power, so none factors
    # q^t - 1; one unit orbit (t = p - 1, m' = 1) runs none
    import functools

    from idemforge import dispatch, factor_xn_minus_1, instance_parameters

    searched = []
    search = fields._root_search.__wrapped__

    def counting(field, order):
        searched.append((field, order))
        return search(field, order)

    monkeypatch.setattr(fields, "_root_search", functools.lru_cache(maxsize=None)(counting))
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        for p in (3, 5, 7, 11, 13):
            for k in range(9):
                if p != q and p**k <= 400:
                    inst = instance_parameters(q, p, k)
                    dispatch(inst)
                    factor_xn_minus_1(inst)
    # 27 = one per q^t and order, past the 26 (q, p) pairs with one unit
    # orbit: no degree-1 extension is built, so no search runs in one
    assert len(searched) == len(set(searched)) == 27
    assert all(field.degree > 1 or isinstance(field, fields.PrimeField) for field, _ in searched)
    assert all(len(factor_integer(order)) == 1 for _, order in searched)


def test_survey_loop_tests_each_certified_modulus_once(monkeypatch, fresh_caches):
    # get_extension_field builds its field on the modulus that
    # lex_irreducible has just certified, with no second test: from cold
    # caches, every row that enters the stacked irreducibility test in a
    # pass over the acceptance grid is one of lex_irreducible's candidates,
    # tested inside the scan and never twice.  A second test per field
    # built would add 17 rows outside a scan, and a second walk over the
    # rows of a stack would repeat them.  lex_irreducible stacks its
    # candidates in _rabin_passing, which irreducible_rows wraps.
    from idemforge import _fastpoly as fp
    from idemforge import dispatch, factor_xn_minus_1, instance_parameters

    tests, scans = [], []
    test, scan = fp._rabin_passing, fp.lex_irreducible

    def counted(mods, q):
        tests.extend((q, tuple(row.tolist()), bool(scans)) for row in mods)
        return test(mods, q)

    def scanning(*args):
        scans.append(args)
        try:
            return scan(*args)
        finally:
            scans.pop()

    monkeypatch.setattr(fp, "_rabin_passing", counted)
    monkeypatch.setattr(fp, "lex_irreducible", scanning)
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        for p in (3, 5, 7, 11, 13):
            for k in range(9):
                if p != q and p**k <= 400:
                    inst = instance_parameters(q, p, k)
                    dispatch(inst)
                    factor_xn_minus_1(inst)
    assert fields._extension_field.cache_info().misses == 17  # none for t = 1 or one unit orbit
    assert tests and all(in_scan for _, _, in_scan in tests)
    assert len({(q, vec) for q, vec, _ in tests}) == len(tests)


def test_root_of_unity_examples(f7, f8):
    assert _root_search(f8, 7) == FieldElement(f8, (0, 1, 0))
    assert _root_powers(f7, 1) == [1]
    assert _root_powers(f7, 3) == [1, 4, 2]  # u = 2, the first with u^2 != 1


def test_root_of_unity_rejects_bad_order(f7):
    # F_7^* has no element of order 4
    with pytest.raises(UsageError, match="no primitive 4-th root of unity"):
        _root_powers(f7, 4)


def test_root_of_unity_has_exact_order():
    field = get_extension_field(3, 4)  # order 80, contains 5th roots
    mod, one = field.modulus.coeffs, digits(3, 4, 1)
    table = _root_powers(field, 5)
    zeta = _tuple(table[1])
    assert ref_pow(zeta, 5, mod, 3) == one != zeta
    assert [_tuple(row) for row in table] == [ref_pow(zeta, i, mod, 3) for i in range(5)]


def test_root_of_unity_checks_every_prime_of_the_order(f7, monkeypatch):
    # 6 has order 2 in F_7: 6^(6/2) != 1 passes the check at the prime 2,
    # and only the prime 3 (6^2 = 1) exposes it
    monkeypatch.setattr(fields, "_root_search", lambda field, order: FieldElement(field, (6,)))
    with pytest.raises(InvariantViolation, match="not primitive"):
        _root_powers(f7, 6)


def test_frobenius_fixes_base_and_cycles(f8):
    # a -> a^2 by the ring's power: it fixes 1, squares y, and three steps
    # are the identity
    ring, y = f8.ring, f8.ring.x()
    assert np.array_equal(ring.pow(ring.one(), 2), ring.one())
    assert np.array_equal(ring.pow(y, 2), ring.mul(y, y))
    assert np.array_equal(ring.pow(ring.pow(ring.pow(y, 2), 2), 2), y)


def test_frobenius_is_additive_and_multiplicative():
    # a -> a^q on a stack of random elements of F_{7^2}, by one stacked
    # ring power: the reference's power, additive, multiplicative, and the
    # identity after t steps
    field = get_extension_field(7, 2)
    ring, mod = field.ring, field.modulus.coeffs
    rng = random.Random(20240811)
    a, b = (np.array([digits(7, 2, rng.randrange(field.order)) for _ in range(25)]) for _ in "ab")

    def frobenius(rows):
        return ring.pow(rows, 7)

    assert [_tuple(r) for r in frobenius(a)] == [ref_pow(x, 7, mod, 7) for x in a.tolist()]
    assert np.array_equal(frobenius((a + b) % 7), (frobenius(a) + frobenius(b)) % 7)
    assert np.array_equal(frobenius(ring.mul(a, b)), ring.mul(frobenius(a), frobenius(b)))
    assert np.array_equal(frobenius(frobenius(a)), a)


def test_trace_examples(f8):
    # traces from F_8 to F_2 by the reference, and the closed form's table
    # of the traces of the powers of its root, y
    mod = f8.modulus.coeffs
    assert ref_trace((1, 0, 0), mod, 2) == 1  # 3*1 mod 2
    assert ref_trace((0, 1, 0), mod, 2) == 0
    assert ref_trace(ref_pow((0, 1, 0), 3, mod, 2), mod, 2) == 1
    assert _root_search(f8, 7).coeffs == (0, 1, 0)
    assert structure._sigma_table(2, 3, 7) == tuple(
        ref_trace(ref_pow((0, 1, 0), i, mod, 2), mod, 2) for i in range(7)
    )


def test_trace_of_embedded_constant_is_t_times_c():
    # tr(c) = t*c; the table's entry at zeta^0 = 1 is t
    field = get_extension_field(7, 3)
    assert ref_trace((2, 0, 0), field.modulus.coeffs, 7) == 6  # 3 * 2 mod 7
    assert structure._sigma_table(7, 3, 19)[0] == 3  # ord_19 7 = 3


def test_trace_linearity_and_frobenius_invariance():
    # the closed form's trace table at (q, t, p^m') = (3, 4, 5) is the
    # reference's, and invariant under i -> 3i; the reference's trace is
    # linear and Frobenius-invariant
    field = get_extension_field(3, 4)
    mod = field.modulus.coeffs
    zeta = _tuple(_root_powers(field, 5)[1])
    table = structure._sigma_table(3, 4, 5)
    assert table == tuple(ref_trace(ref_pow(zeta, i, mod, 3), mod, 3) for i in range(5))
    assert all(table[i] == table[3 * i % 5] for i in range(5))
    rng = random.Random(7)
    for _ in range(25):
        a = digits(3, 4, rng.randrange(field.order))
        b = digits(3, 4, rng.randrange(field.order))
        total = tuple((x + y) % 3 for x, y in zip(a, b))
        assert ref_trace(total, mod, 3) == (ref_trace(a, mod, 3) + ref_trace(b, mod, 3)) % 3
        assert ref_trace(ref_pow(a, 3, mod, 3), mod, 3) == ref_trace(a, mod, 3)


def test_trace_is_surjective():
    # the closed form's trace tables and the reference's trace on F_{q^t}
    # each take a nonzero value
    for q, t, pm in [(2, 3, 7), (3, 4, 5), (5, 2, 3)]:
        assert any(structure._sigma_table(q, t, pm))
        mod = get_extension_field(q, t).modulus.coeffs
        assert any(ref_trace(digits(q, t, i), mod, q) for i in range(q**t))


def test_inverse_roundtrip_random_samples():
    # the ring's product of a with its inverse by the reference's extended
    # Euclid is one, and that inverse is a^(|F| - 2) by the ring's power
    field = get_extension_field(5, 3)
    ring, mod = field.ring, field.modulus.coeffs
    rng = random.Random(99)
    for _ in range(30):
        a = digits(5, 3, rng.randrange(1, field.order))
        inv = np.array(ref_inverse(a, mod, 5))
        assert np.array_equal(ring.mul(np.array(a), inv), ring.one())
        assert np.array_equal(ring.pow(np.array(a), field.order - 2), inv)


def test_quadratic_extension_exact_at_the_int64_edge():
    # 2*(q-1)^2 sits just below 2^63: every int64 dot product is at the edge
    q = 2147483579
    assert 1 << 62 < 2 * (q - 1) ** 2 < 1 << 63
    field = get_extension_field(q, 2)
    ring, mod = field.ring, field.modulus.coeffs
    rng = random.Random(2)
    samples = [(q - 1, q - 1), (q - 1, 0), (0, q - 1), (q - 2, q - 1), (1, q - 1)]
    samples += [(rng.randrange(q), rng.randrange(1, q)) for _ in range(6)]
    for a in samples:
        x = np.array(a)
        for b in samples:
            assert _tuple(ring.mul(x, np.array(b))) == ref_mul(a, b, mod, q)
        for e in (2, q - 1, q, q + 1, rng.randrange(q * q)):
            assert _tuple(ring.pow(x, e)) == ref_pow(a, e, mod, q)
        inv = ref_inverse(a, mod, q)
        assert _tuple(ring.mul(x, np.array(inv))) == (1, 0)
        assert _tuple(ring.pow(x, q * q - 2)) == inv
    # the row-stack paths: power tables by doubling, multiplication matrices
    # for one element and for a stack
    y = (0, 1)
    stack = ring.matrix(np.array(samples))
    for a, mat in zip(samples, stack):
        powers = ring.powers(np.array(a), 9)
        assert [tuple(r) for r in powers.tolist()] == [ref_pow(a, e, mod, q) for e in range(9)]
        assert np.array_equal(ring.matrix(np.array(a)), mat)
        assert [tuple(r) for r in mat.tolist()] == [
            ref_mul(ref_pow(y, i, mod, q), a, mod, q) for i in range(2)
        ]
        for b in samples:
            assert tuple((np.array(b) @ mat % q).tolist()) == ref_mul(b, a, mod, q)
    # stacked products and one power walk for several exponents
    rows = np.array(samples)
    assert [tuple(r) for r in ring.mul(rows, rows[::-1]).tolist()] == [
        ref_mul(a, b, mod, q) for a, b in zip(samples, samples[::-1])
    ]
    exps = [0, 1, q - 1, q * q - 2, rng.randrange(q * q)]
    assert [[tuple(r) for r in block] for block in ring.pow(rows, exps).tolist()] == [
        [ref_pow(a, e, mod, q) for a in samples] for e in exps
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

