from __future__ import annotations

import random

import numpy as np
import pytest
from reference import ref_pow, ref_trace, ref_xgcd

from idemforge import _fastpoly as fp
from idemforge import (
    CyclicRingElement,
    Poly,
    UsageError,
    all_idempotents_euclid,
    factor_xn_minus_1,
    get_extension_field,
    get_prime_field,
    inflate,
    instance_parameters,
)
from idemforge import structure
from idemforge.fields import _root_search
from idemforge.polys import NEG_INFINITY


@pytest.fixture
def f2():
    return get_prime_field(2)


@pytest.fixture
def f7():
    return get_prime_field(7)


def _rand_poly(field, max_deg, rng):
    return Poly.from_ints(field, [rng.randrange(field.q) for _ in range(rng.randrange(max_deg + 1))])


def test_zero_poly_degree_marker(f7):
    assert Poly.zero(f7).degree == NEG_INFINITY
    assert Poly.from_ints(f7, [0, 0, 0]).is_zero()


def test_gcd_char2_square(f2):
    a = Poly.from_ints(f2, [1, 0, 1])  # x^2 + 1 = (x+1)^2
    b = Poly.from_ints(f2, [1, 1])
    assert a.gcd(b) == b


def test_divrem_geometric(f7):
    num = Poly.from_ints(f7, [-1, 0, 0, 1])  # x^3 - 1
    den = Poly.from_ints(f7, [-1, 1])
    quot, rem = num.divrem(den)
    assert quot == Poly.from_ints(f7, [1, 1, 1])
    assert rem.is_zero()


def test_product_reconstructs_x7_plus_1(f2):
    a = Poly.from_ints(f2, [1, 1, 0, 1])
    b = Poly.from_ints(f2, [1, 0, 1, 1])
    c = Poly.from_ints(f2, [1, 1])
    expect = Poly.from_ints(f2, [1, 0, 0, 0, 0, 0, 0, 1])
    assert a * b * c == expect


def test_division_by_zero(f7):
    with pytest.raises(ZeroDivisionError):
        Poly.one(f7).divrem(Poly.zero(f7))


def test_divrem_reconstruction_random(f7):
    rng = random.Random(11)
    for _ in range(50):
        a = _rand_poly(f7, 12, rng)
        b = _rand_poly(f7, 6, rng)
        if b.is_zero():
            continue
        quot, rem = a.divrem(b)
        assert quot * b + rem == a
        assert rem.is_zero() or rem.degree < b.degree


def _xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """The reference's (g, u, v) with u*a + v*b = g, as Polys."""
    return tuple(Poly.from_ints(a.field, c) for c in ref_xgcd(a.coeffs, b.coeffs, a.field.q))


def test_extended_gcd_coprime_linear(f7):
    a = Poly.from_ints(f7, [-1, 1])
    b = Poly.from_ints(f7, [1, 1])
    g, u, v = _xgcd(a, b)
    assert g == Poly.one(f7) == a.gcd(b)
    assert u * a + v * b == g


def test_extended_gcd_identical_inputs(f7):
    f = Poly.from_ints(f7, [1, 2, 3])  # leading coefficient 3
    g, u, v = _xgcd(f, f)
    assert g == f.monic() == f.gcd(f)
    assert u.is_zero()
    assert v == Poly.from_ints(f7, [pow(3, -1, 7)])


def test_extended_gcd_zero_first_argument(f7):
    b = Poly.from_ints(f7, [4, 0, 3])  # leading coefficient 3
    g, u, v = _xgcd(Poly.zero(f7), b)
    assert g == b.monic() == Poly.zero(f7).gcd(b)
    assert u.is_zero()
    assert v == Poly.from_ints(f7, [pow(3, -1, 7)])


def test_extended_gcd_of_two_zeros_is_rejected(f7):
    with pytest.raises(UsageError):
        _xgcd(Poly.zero(f7), Poly.zero(f7))
    with pytest.raises(UsageError):
        Poly.zero(f7).gcd(Poly.zero(f7))


def test_extended_gcd_bezout_and_degree_bound(f7):
    # the reference's cofactors, checked by Poly's products, and its gcd is
    # the kernel's
    rng = random.Random(23)
    for _ in range(60):
        a = _rand_poly(f7, 10, rng)
        b = _rand_poly(f7, 10, rng)
        if a.is_zero() and b.is_zero():
            continue
        g, u, v = _xgcd(a, b)
        assert u * a + v * b == g == a.gcd(b)
        assert g.lead == 1
        if not b.is_zero() and not (a % b).is_zero() and not u.is_zero():
            assert u.degree < b.degree - g.degree


def test_extended_gcd_matches_euclid_inverse(f2):
    # the cofactor of (x^7+1)/(x^3+x+1) against x^3+x+1 is its modular
    # inverse, and ((x^7+1)/(x^3+x+1))*u is the oracle's idempotent of x^3+x+1
    f = Poly.from_ints(f2, [1, 1, 0, 1])
    x7 = Poly.x_pow_minus_one(f2, 7)
    p = (x7 // f) % f
    g, u, _ = _xgcd(p, f)
    assert g == Poly.one(f2)
    assert (p * u) % f == Poly.one(f2)
    e = CyclicRingElement.from_poly((x7 // f) * u, 7)
    assert e in [r.value for r in all_idempotents_euclid(instance_parameters(2, 7, 1))]


def _cyclotomic(q, p, s):
    """Phi_(p^s) over F_q as the factorization gives it: the product of the
    factors of x^(p^s) - 1 of order p^s."""
    prod = Poly.one(get_prime_field(q))
    for order, f in factor_xn_minus_1(instance_parameters(q, p, s)):
        if order == p**s:
            prod = prod * f
    return prod


def test_cyclotomic_base_case(f7):
    assert factor_xn_minus_1(instance_parameters(7, 3, 0)) == ((1, Poly.from_ints(f7, [-1, 1])),)
    assert _cyclotomic(7, 3, 0) == Poly.from_ints(f7, [-1, 1])


def test_cyclotomic_nine_over_f7(f7):
    assert _cyclotomic(7, 3, 2) == Poly.from_ints(f7, [1, 0, 0, 1, 0, 0, 1])


def test_cyclotomic_inflation_identity(f7):
    # for p^j beyond the split level, the level-j cyclotomic is the level-m
    # one evaluated at x^(p^(j-m)); here q=7, p=3, m=1
    phi3 = _cyclotomic(7, 3, 1)
    assert inflate(phi3, 3) == _cyclotomic(7, 3, 2)
    assert inflate(phi3, 9) == _cyclotomic(7, 3, 3)


def test_cyclotomic_rejects_characteristic():
    # x^n - 1 is not squarefree when q divides n: no instance has q = p
    with pytest.raises(UsageError, match="distinct"):
        instance_parameters(7, 7, 2)


def test_cyclotomic_product_is_xn_minus_one():
    # Phi_(p^s) = (x^(p^s) - 1)/(x^(p^(s-1)) - 1), and the product of every
    # factor is x^n - 1
    for q, p, k in [(7, 3, 2), (2, 7, 1), (3, 5, 2)]:
        field = get_prime_field(q)
        prod = Poly.one(field)
        for _, f in factor_xn_minus_1(instance_parameters(q, p, k)):
            prod = prod * f
        assert prod == Poly.x_pow_minus_one(field, p**k)
        for s in range(1, k + 1):
            lower = Poly.x_pow_minus_one(field, p ** (s - 1))
            assert _cyclotomic(q, p, s) * lower == Poly.x_pow_minus_one(field, p**s)


def test_inflate_basics(f7):
    assert inflate(Poly.from_ints(f7, [-1, 1]), 3) == Poly.from_ints(f7, [-1, 0, 0, 1])
    assert inflate(Poly.from_ints(f7, [5]), 4) == Poly.from_ints(f7, [5])


def test_cyclic_identity_and_wrap(f7):
    a = CyclicRingElement.from_ints(f7, [2, 0, 3])
    one = CyclicRingElement.identity(f7, 3)
    assert a * one == a
    x2 = CyclicRingElement.from_ints(f7, [0, 0, 1])
    assert x2 * x2 == CyclicRingElement.from_ints(f7, [0, 1, 0])


def test_cyclic_mul_commutes_and_associates(f7):
    rng = random.Random(5)
    for _ in range(30):
        a = CyclicRingElement.from_ints(f7, [rng.randrange(7) for _ in range(6)])
        b = CyclicRingElement.from_ints(f7, [rng.randrange(7) for _ in range(6)])
        c = CyclicRingElement.from_ints(f7, [rng.randrange(7) for _ in range(6)])
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_cyclic_length_mismatch(f7):
    a = CyclicRingElement.from_ints(f7, [1, 0])
    b = CyclicRingElement.from_ints(f7, [1, 0, 0])
    with pytest.raises(UsageError):
        a * b


def test_reduce_wraps_xn(f7):
    p = Poly.from_ints(f7, [0, 0, 0, 0, 1])  # x^4
    assert CyclicRingElement.from_poly(p, 4) == CyclicRingElement.identity(f7, 4)


def test_coefficient_map_identity(f7):
    # coefficients are ints in [0, q): they round-trip, and others are reduced
    a = CyclicRingElement.from_ints(f7, [1, 2, 3])
    assert a.int_coeffs() == (1, 2, 3)
    assert CyclicRingElement.from_ints(f7, a.int_coeffs()) == a
    assert CyclicRingElement.from_ints(f7, [8, -5, 10]) == a
    p = Poly.from_ints(f7, [-1, 14, 7 * 10**30 + 3, 0, 7])
    assert p.int_coeffs() == (6, 0, 3)
    assert Poly.from_ints(f7, p.int_coeffs()) == p


def test_coefficient_map_trace_recovers_real_idempotent():
    # the trace of the DFT character over F_8 is 1 + x + x^2 + x^4 over F_2,
    # a member of the (2, 7, 1) system: by the reference's trace, and by
    # the closed form's trace table
    f8 = get_extension_field(2, 3)
    mod = f8.modulus.coeffs
    zeta = _root_search(f8, 7).coeffs
    traced = [ref_trace(ref_pow(zeta, (-l) % 7, mod, 2), mod, 2) for l in range(7)]
    assert traced == [1, 1, 1, 0, 1, 0, 0]
    assert traced == [structure._sigma_table(2, 3, 7)[(-l) % 7] for l in range(7)]
    expected = CyclicRingElement.from_ints(get_prime_field(2), traced)
    records = all_idempotents_euclid(instance_parameters(2, 7, 1))
    assert any(r.value == expected for r in records)


def test_generic_arithmetic_over_extension_field():
    # Poly and CyclicRingElement are over F_q only
    f4 = get_extension_field(2, 2)
    with pytest.raises(UsageError):
        Poly.from_ints(f4, [1, 1])
    with pytest.raises(UsageError):
        Poly.one(f4)
    with pytest.raises(UsageError):
        CyclicRingElement.from_ints(f4, [1, 0, 1])
    with pytest.raises(UsageError):
        CyclicRingElement.identity(f4, 3)


# -- exact product kernel -----------------------------------------------------

# n = 3: 3*(q-1)^2 lies below 2^53 for the first prime (float64 path) and
# between 2^53 and 2^63 for the two near 2^29 (limb path), one of each
# residue mod 3 so that both the split and the general case run
Q_FLOAT_EDGE = 54794149
Q_LIMB = (536870743, 536870717)


def _ref_conv(a, b, q, n=None):
    out = [0] * (len(a) + len(b) - 1 if n is None else n)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            k = i + j if n is None else (i + j) % n
            out[k] = (out[k] + x * y) % q
    return out


def test_kernel_primes_straddle_the_float64_bound():
    from idemforge.fields import is_prime

    assert is_prime(Q_FLOAT_EDGE) and 3 * (Q_FLOAT_EDGE - 1) ** 2 < 2**53
    above = range(Q_FLOAT_EDGE + 1, Q_FLOAT_EDGE + 60)  # holds the next prime
    assert all(not is_prime(q) or 3 * (q - 1) ** 2 >= 2**53 for q in above)
    for q in Q_LIMB:
        assert is_prime(q) and 2**53 <= 3 * (q - 1) ** 2 < 2**63


@pytest.mark.parametrize("q", [2, 7, Q_FLOAT_EDGE, *Q_LIMB, 2147483647])
def test_kernel_matches_pure_int_reference(q):
    rng = random.Random(q)

    def rand(rows, cols):
        return np.array([[rng.randrange(q) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)

    shapes = [(1, 3, 3, None), (4, 3, 3, 3), (5, 3, 1, None), (6, 2, 3, 3), (2, 1, 3, 3), (3, 3, 2, None)]
    for rows, la, lb, n in shapes:
        if min(la, lb) * (q - 1) ** 2 >= 2**63:
            continue
        # all-(q-1) operands give the largest sums
        extreme = (np.full((rows, la), q - 1), np.full((1, lb), q - 1))
        for a, b in ((rand(rows, la), rand(rows, lb)), extreme):
            got = fp.conv_rows(a, b, q, n).tolist()
            rows_b = b if b.shape[0] == rows else np.repeat(b, rows, axis=0)
            assert got == [_ref_conv(x, y, q, n) for x, y in zip(a.tolist(), rows_b.tolist())]
    if 3 * (q - 1) ** 2 < 2**63:
        a, b = rand(4, 3), rand(3, 5)
        want = [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b.tolist())] for row in a.tolist()]
        assert fp.mat_mul(a, b, q).tolist() == want
        top = fp.mat_mul(np.full((4, 3), q - 1), np.full((3, 5), q - 1), q)
        assert top.tolist() == [[3 * (q - 1) ** 2 % q] * 5] * 4


def test_kernel_refuses_sums_that_could_overflow_int64():
    q = 2147483647  # 2*(q-1)^2 < 2^63 <= 3*(q-1)^2
    ones = np.ones((1, 3), dtype=np.int64)
    assert fp.conv_rows(ones[:, :2], ones[:, :2], q).tolist() == [[1, 2, 1]]
    with pytest.raises(UsageError, match=r"length\*\(q-1\)\^2 < 2\^63"):
        fp.conv_rows(ones, ones, q)
    with pytest.raises(UsageError, match=r"length\*\(q-1\)\^2 < 2\^63"):
        fp.mat_mul(ones, ones.T, q)


def _long_division(a, b, q):
    """Quotient and remainder of a by b over F_q (ascending ints, no
    trailing zeros), by schoolbook long division in Python ints."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, q)
    rem, quot = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(b) - 1] * inv_lead % q
        quot[i] = c
        for j, bj in enumerate(b):
            rem[i + j] = (rem[i + j] - c * bj) % q
    rem = rem[: len(b) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


Q_BELOW_2_POW_31_5 = 3037000493  # the largest prime q with (q-1)^2 < 2^63


@pytest.mark.parametrize("q", [2, 101, Q_BELOW_2_POW_31_5])
def test_poly_divmod_and_divrem_match_a_pure_int_long_division(q):
    rng = random.Random(q)
    field = get_prime_field(q)
    cases = []
    for _ in range(40):
        a = [rng.randrange(q) for _ in range(rng.randrange(0, 30))] + [rng.randrange(1, q)]
        # leads other than 1, where q > 2, so the divisor is not monic
        b = [rng.randrange(q) for _ in range(rng.randrange(0, 12))] + [rng.randrange(1, q)]
        cases.append((a, b))
    lead = max(q - 1, 1)  # the largest lead, not monic for q > 2
    cases += [
        ([3 % q, 1], [1, 2 % q, 0, lead]),  # a dividend shorter than the divisor
        ([], [1, lead]),  # the zero dividend
        ([q - 1] * 9 + [lead], [lead]),  # a constant divisor
        ([q - 1] * 20, [q - 1] * 5),  # every coefficient at q - 1
    ]
    for a, b in cases:
        quot, rem = _long_division(a, b, q)
        got = fp.poly_divmod(fp.as_vec(a), fp.as_vec(b), q)
        assert [v.tolist() for v in got] == [quot, rem], (a, b)
        pq, pr = Poly.from_ints(field, a).divrem(Poly.from_ints(field, b))
        assert (list(pq.coeffs), list(pr.coeffs)) == (quot, rem), (a, b)
    with pytest.raises(ZeroDivisionError):
        fp.poly_divmod(fp.as_vec([1, 2]), fp.as_vec([0, 0]), q)
    with pytest.raises(ZeroDivisionError):
        Poly.from_ints(field, [1, 2]).divrem(Poly.zero(field))
