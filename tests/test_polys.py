from __future__ import annotations

import random

import numpy as np
import pytest

from idemforge import _fastpoly as fp
from idemforge import (
    CyclicRingElement,
    Poly,
    UsageError,
    all_idempotents_euclid,
    cyclotomic_poly,
    extended_gcd,
    get_extension_field,
    get_prime_field,
    inflate,
    instance_parameters,
    root_of_unity,
    trace_sigma1,
)
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


def test_extended_gcd_coprime_linear(f7):
    a = Poly.from_ints(f7, [-1, 1])
    b = Poly.from_ints(f7, [1, 1])
    g, u, v = extended_gcd(a, b)
    assert g == Poly.one(f7)
    assert u * a + v * b == g


def test_extended_gcd_identical_inputs(f7):
    f = Poly.from_ints(f7, [1, 2, 3])  # leading coefficient 3
    g, u, v = extended_gcd(f, f)
    assert g == f.monic()
    assert u.is_zero()
    assert v == Poly.from_ints(f7, [pow(3, -1, 7)])


def test_extended_gcd_zero_first_argument(f7):
    b = Poly.from_ints(f7, [4, 0, 3])  # leading coefficient 3
    g, u, v = extended_gcd(Poly.zero(f7), b)
    assert g == b.monic()
    assert u.is_zero()
    assert v == Poly.from_ints(f7, [pow(3, -1, 7)])


def test_extended_gcd_of_two_zeros_is_rejected(f7):
    with pytest.raises(UsageError):
        extended_gcd(Poly.zero(f7), Poly.zero(f7))


def test_extended_gcd_bezout_and_degree_bound(f7):
    rng = random.Random(23)
    for _ in range(60):
        a = _rand_poly(f7, 10, rng)
        b = _rand_poly(f7, 10, rng)
        if a.is_zero() and b.is_zero():
            continue
        g, u, v = extended_gcd(a, b)
        assert u * a + v * b == g
        assert g.lead == f7.one()
        if not b.is_zero() and not (a % b).is_zero() and not u.is_zero():
            assert u.degree < b.degree - g.degree


def test_extended_gcd_matches_euclid_inverse(f2):
    # the cofactor of (x^7+1)/(x^3+x+1) against x^3+x+1 is its modular inverse
    f = Poly.from_ints(f2, [1, 1, 0, 1])
    x7 = Poly.x_pow_minus_one(f2, 7)
    p = (x7 // f) % f
    g, u, _ = extended_gcd(p, f)
    assert g == Poly.one(f2)
    assert (p * u) % f == Poly.one(f2)


def test_cyclotomic_base_case(f7):
    assert cyclotomic_poly(1, f7) == Poly.from_ints(f7, [-1, 1])


def test_cyclotomic_nine_over_f7(f7):
    assert cyclotomic_poly(9, f7) == Poly.from_ints(f7, [1, 0, 0, 1, 0, 0, 1])


def test_cyclotomic_inflation_identity(f7):
    # for p^j beyond the split level, the level-j cyclotomic is the level-m
    # one evaluated at x^(p^(j-m)); here q=7, p=3, m=1
    phi3 = cyclotomic_poly(3, f7)
    assert inflate(phi3, 3) == cyclotomic_poly(9, f7)
    assert inflate(phi3, 9) == cyclotomic_poly(27, f7)


def test_cyclotomic_rejects_characteristic(f7):
    with pytest.raises(UsageError):
        cyclotomic_poly(14, f7)


def test_cyclotomic_product_is_xn_minus_one():
    for q, n in [(7, 9), (2, 7), (3, 25)]:
        field = get_prime_field(q)
        prod = Poly.one(field)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d, field)
        assert prod == Poly.x_pow_minus_one(field, n)


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
    # a member of the (2, 7, 1) system
    f8 = get_extension_field(2, 3)
    zeta = root_of_unity(f8, 7)
    traced = [trace_sigma1(zeta ** ((-l) % 7)).as_int() for l in range(7)]
    assert traced == [1, 1, 1, 0, 1, 0, 0]
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
