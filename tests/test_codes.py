from __future__ import annotations

import itertools
import tracemalloc
from math import lcm

import numpy as np
import pytest

from idemforge import _fastpoly as fp
from idemforge import codes, fields
from idemforge.fields import ExtensionField, element_by_index
from idemforge import (
    BudgetExceededError,
    Poly,
    UsageError,
    code_summary,
    dispatch,
    generator_polynomial,
    get_prime_field,
    instance_parameters,
    min_distance,
    min_distance_exhaustive,
    summaries_for,
)


@pytest.fixture(scope="module")
def recs_2_7_1():
    inst = instance_parameters(2, 7, 1)
    return inst, dispatch(inst)


def test_generator_poly_2_7_1(recs_2_7_1):
    inst, recs = recs_2_7_1
    by_label = {r.label: r for r in recs}
    g = generator_polynomial(by_label["e_j:1"], 7)
    assert g.int_coeffs() == (1, 1, 1, 0, 1)  # x^4 + x^2 + x + 1
    assert 7 - g.degree == 3


def test_generator_poly_unit_sum_is_repetition(recs_2_7_1):
    inst, recs = recs_2_7_1
    g = generator_polynomial(recs[0], 7)
    assert g.int_coeffs() == (1,) * 7
    assert 7 - g.degree == 1


def test_generator_rejects_zero():
    from idemforge import CyclicRingElement

    field = get_prime_field(2)
    with pytest.raises(UsageError):
        generator_polynomial(CyclicRingElement.from_ints(field, [0] * 7), 7)


def test_generator_dimension_golden():
    inst = instance_parameters(17, 13, 2)
    recs = dispatch(inst)
    by_label = {r.label: r for r in recs}
    g = generator_polynomial(by_label["e_{s,l}:2,1"], 169)
    assert 169 - g.degree == 78


def test_min_distance_repetition_codes():
    f2 = get_prime_field(2)
    g = Poly.from_ints(f2, [1] * 7)
    assert min_distance_exhaustive(g, 7, 2) == 7
    f7 = get_prime_field(7)
    g = Poly.from_ints(f7, [1, 1, 1])
    assert min_distance_exhaustive(g, 3, 7) == 3


def test_min_distance_2_7_1_dimension_3(recs_2_7_1):
    inst, recs = recs_2_7_1
    for r in recs[1:]:
        g = generator_polynomial(r, 7)
        assert min_distance_exhaustive(g, 7, 2) == 4


def _code_record(q, p, k, label):
    inst = instance_parameters(q, p, k)
    record = next(r for r in dispatch(inst) if r.label == label)
    return record, generator_polynomial(record, inst.n), inst.n


def _code_generator(q, p, k, label):
    return _code_record(q, p, k, label)[1:]


def test_min_distance_budget_refusal():
    # [9,2,6] over F_11: x has order d = 3 < n and q - 1 = 10, so the walk
    # covers (11^2 - 1)/lcm(3, 10) = 4 orbits, next to the bound
    # (11^2 - 1)//lcm(9, 10) = 1 checked before anything is built
    g, n = _code_generator(11, 3, 2, "e_j:1")
    assert min_distance(g, n, 11, budget=4) == 6
    for budget in (1, 3):  # the bound admits the code, its orbits do not
        with pytest.raises(BudgetExceededError, match=r"\(11\^2 - 1\)/30 orbits") as err:
            min_distance(g, n, 11, budget=budget)
        assert err.value.required == 4
    with pytest.raises(BudgetExceededError, match=r"at least \(11\^2 - 1\)/90") as err:
        min_distance(g, n, 11, budget=0)
    assert err.value.required == 1

    # (x^7 - 1)/(x + 1) is reducible: the budget counts codewords
    g = Poly.from_ints(get_prime_field(2), [1, 1])
    assert min_distance(g, 7, 2, budget=64) == 2
    for search in (min_distance, min_distance_exhaustive):
        with pytest.raises(BudgetExceededError, match=r"2\^6 codewords") as err:
            search(g, 7, 2, budget=63)
        assert err.value.required == 2**6


# The eight `codes` benchmark instances; instances where d and q - 1 both
# shape the subgroup <x, F_q^*>; and (5,13,1) and (13,17,1), where one
# exponent fixed by a -> q*a alone has the minimum weight (a = 3 of N = 12
# for e_j:4, a = 35 of N = 140 for e_j:2).
DIFFERENTIAL = (
    (2, 7, 1), (2, 11, 1), (2, 23, 1), (2, 13, 2), (2, 3, 3), (2, 5, 2), (2, 41, 1),
    (2, 7, 2), (3, 7, 1), (5, 3, 2), (7, 3, 2), (3, 11, 1), (13, 3, 1), (11, 3, 2),
    (5, 13, 1), (13, 17, 1),
)


@pytest.mark.parametrize("block_entries", [None, 1, 1000])
@pytest.mark.parametrize("q,p,k", DIFFERENTIAL)
def test_min_distance_matches_exhaustive(monkeypatch, q, p, k, block_entries):
    if block_entries is not None:  # one orbit per block, or a short last block
        monkeypatch.setattr(codes, "_BLOCK_ENTRIES", block_entries)
    inst = instance_parameters(q, p, k)
    for record in dispatch(inst):
        g = generator_polynomial(record, inst.n)
        if q ** (inst.n - g.degree) <= 1 << 16:
            expected = min_distance_exhaustive(g, inst.n, q)
            assert min_distance(g, inst.n, q) == expected, record.label


def _frobenius_orbits(q, count):
    """The orbits of a -> q*a mod count, one Python walk per orbit."""
    seen, orbits = set(), []
    for a in range(count):
        if a not in seen:
            orbit, b = set(), a
            while b not in orbit:
                orbit.add(b)
                b = b * q % count
            seen |= orbit
            orbits.append(orbit)
    return orbits


def _check_polynomial_and_cosets(g, n, q):
    """h = (x^n - 1)/g and N = (q^dim - 1)/lcm(d, q - 1), the number of
    cosets of <x, F_q^*>, with d the order of x modulo h."""
    h, _ = Poly.x_pow_minus_one(g.field, n).divrem(g)
    d = next(
        d for d in range(1, n + 1)
        if n % d == 0 and Poly.x_pow_minus_one(g.field, d).divrem(h)[1].is_zero()
    )
    return h.monic(), (q ** (n - g.degree) - 1) // lcm(d, q - 1)


def _prime_divisors(n):
    return [r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))]


@pytest.mark.parametrize("q,p,k", DIFFERENTIAL)
def test_generator_search_returns_the_first_generator_past_x(monkeypatch, q, p, k):
    # gamma is the first element past x, walked over every index, whose
    # class generates K^*/H: its powers to (q^dim - 1)/r, r | N, are not 1.
    # The search skips candidates, but must return this same element.
    found = []
    search = codes._canonical_search

    def recorded(*args):
        hit = search(*args)
        found.append(hit[0])
        return hit

    monkeypatch.setattr(codes, "_canonical_search", recorded)
    inst = instance_parameters(q, p, k)
    for record in dispatch(inst):
        g = generator_polynomial(record, inst.n)
        if q ** (inst.n - g.degree) > 1 << 24:  # past the budget: never walked
            continue
        found.clear()
        min_distance(g, inst.n, q)
        h, orbits = _check_polynomial_and_cosets(g, inst.n, q)
        if orbits == 1:
            assert found == [], record.label
            continue
        field = ExtensionField(get_prime_field(q), h)
        order = q**field.degree - 1
        gamma = next(
            i for i in itertools.count(q + 1)
            if all(element_by_index(field, i) ** (order // r) != 1 for r in _prime_divisors(orbits))
        )
        assert found == [gamma], record.label


@pytest.mark.parametrize("q,p,k,label", [(2, 5, 2, "e_{s,l}:2,1"), (3, 7, 1, "e_j:1")])
def test_generator_search_tests_only_candidates_that_can_pass(monkeypatch, q, p, k, label):
    # x*c, lambda*c and c(x^q) = c^q lie in the class of an earlier c, or in
    # its image under a -> a^q, so none is the first generator of K^*/H.
    # The search tests the other candidates from x + 1 in canonical order:
    # at [25,20,2] 7 in place of 17, at [7,6,2] over F_3 7 in place of 11.
    _, g, n = _code_record(q, p, k, label)
    tested = []
    rows_of = fields._index_rows

    def recorded(q_, t, index):
        rows = rows_of(q_, t, index)
        tested.extend(int(i) for i in index)
        return rows

    monkeypatch.setattr(fields, "_index_rows", recorded)
    min_distance(g, n, q)

    def can_pass(index):  # monic, c(0) != 0, and not c'(x^q)
        digits = [index // q**i % q for i in range(n - g.degree)]
        top = max(i for i, c in enumerate(digits) if c)
        spread = any(digits[i] for i in range(top + 1) if i % q)
        return digits[0] != 0 and digits[top] == 1 and spread

    assert tested == [i for i in range(q + 1, tested[-1] + 1) if can_pass(i)]
    assert len(tested) == 7


def test_orbit_walk_forms_one_codeword_per_exponent(monkeypatch):
    # [13,12] over F_2: x has order 13, so the cosets of H = <x, F_2^*> are
    # gamma^a * H for a < N = (2^12 - 1)/13 = 315, and Frobenius permutes
    # them by a -> 2a mod 315.  In blocks of 8 the walk must form gamma^a * e
    # for the least a of each orbit, in ascending order, with e the code's
    # idempotent and gamma the first element past x (index 2) whose powers
    # to (2^12 - 1)/r, r | 315, are not 1; each codeword is computed on its
    # own here.
    record, g, n = _code_record(2, 13, 1, "e_j:1")
    monkeypatch.setattr(codes, "_BLOCK_ENTRIES", 8 * n)
    products = []
    kernel = fp.mat_mul

    def recorded(a, b, q):
        out = kernel(a, b, q)
        products.append(out)
        return out

    monkeypatch.setattr(fp, "mat_mul", recorded)
    assert min_distance(g, n, 2) == min_distance_exhaustive(g, n, 2)
    orbits, order = 315, 2**12 - 1
    # the rows x^i * e; then per block its codewords, each block after the
    # first advancing the rows first; a in [158, 315) is never least
    assert len(products) == 2 * -(-158 // 8)
    words = np.concatenate(products[1::2])
    h, _ = Poly.x_pow_minus_one(g.field, n).divrem(g)
    field = ExtensionField(get_prime_field(2), h.monic())
    gamma = next(
        c for c in (element_by_index(field, i) for i in itertools.count(3))
        if all(c ** (order // r) != 1 for r in (3, 5, 7))
    )
    least = [a for a in range(orbits) if all(a * 2**i % orbits >= a for i in range(12))]
    e = np.array(record.value.int_coeffs())
    expected = []
    for a in least:
        full = np.convolve(np.array((gamma**a).coeffs), e)
        full[: full.size - n] += full[n:]  # fold mod x^n - 1
        expected.append((full[:n] % 2).tolist())
    assert words.tolist() == expected


@pytest.mark.parametrize("block_entries", [None, 1, 1000])
@pytest.mark.parametrize(
    "q,p,k,label",
    [(2, 13, 1, "e_j:1"), (3, 7, 1, "e_j:1"), (5, 13, 1, "e_j:4"), (13, 17, 1, "e_j:2"),
     (5, 3, 2, "e_{s,l}:2,1"), (5, 3, 2, "e_j:1")],  # the last: q = 1 mod N = 2
)
def test_orbit_walk_meets_every_frobenius_orbit_once(monkeypatch, q, p, k, label, block_entries):
    if block_entries is not None:
        monkeypatch.setattr(codes, "_BLOCK_ENTRIES", block_entries)
    _, g, n = _code_record(q, p, k, label)
    _, orbits = _check_polynomial_and_cosets(g, n, q)
    assert orbits > 1
    walked, moduli = [], set()
    blocks = codes._block_minima

    def recorded(span, block, q_, orbits_, steps):
        moduli.add(orbits_)
        for start, minima in blocks(span, block, q_, orbits_, steps):
            assert start <= minima.min(initial=start) <= minima.max(initial=start) < start + block
            walked.extend(minima.tolist())
            yield start, minima

    monkeypatch.setattr(codes, "_block_minima", recorded)
    # the default marking span, and spans shorter than a block or not
    # aligned with it, whatever the block
    for mark_span in (codes._MARK_SPAN, 1, 5):
        monkeypatch.setattr(codes, "_MARK_SPAN", mark_span)
        walked.clear()
        moduli.clear()
        min_distance(g, n, q)
        assert moduli == {orbits}
        assert walked == sorted(set(walked))
        for orbit in _frobenius_orbits(q, orbits):
            assert len(orbit.intersection(walked)) == 1, (mark_span, sorted(orbit))


def test_orbit_walk_refuses_more_than_2_31_cosets():
    # (x^83 - 1)/(x + 1) is irreducible over F_2, with (2^82 - 1)/83 cosets:
    # the walk's int64 products a * q mod N need N <= 2^31
    g = Poly.from_ints(get_prime_field(2), [1, 1])
    with pytest.raises(BudgetExceededError, match=r"capped at 2\^31 cosets") as err:
        min_distance(g, 83, 2, budget=1 << 80)
    assert err.value.required == (2**82 - 1) // 83


def test_min_distance_tests_its_check_polynomial_once(monkeypatch):
    _, g, n = _code_record(2, 41, 1, "e_j:1")
    h, _ = Poly.x_pow_minus_one(g.field, n).divrem(g)
    calls = []
    test = fp.is_irreducible

    def counted(q, vec):
        calls.append((q, tuple(int(c) for c in vec)))
        return test(q, vec)

    monkeypatch.setattr(fp, "is_irreducible", counted)
    assert min_distance(g, n, 2) == 10
    assert calls == [(2, h.monic().int_coeffs())]


def test_orbit_walk_memory_stays_small():
    # [113,28,28]: N = (2^28 - 1)/113, about 2.4M cosets; marking them all
    # at once would trace about 40 MiB
    g, n = _code_generator(2, 113, 1, "e_j:1")
    tracemalloc.start()
    try:
        assert min_distance(g, n, 2) == 28
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_min_distance_reducible_takes_exhaustive_path(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return min_distance_exhaustive(*args)

    monkeypatch.setattr(codes, "min_distance_exhaustive", spy)
    g = Poly.from_ints(get_prime_field(2), [1, 1])  # x + 1 at n = 7
    assert min_distance(g, 7, 2) == 2
    assert len(calls) == 1
    g, n = _code_generator(2, 7, 1, "e_j:1")  # minimal: no enumeration
    assert min_distance(g, n, 2) == 4
    assert len(calls) == 1


def test_min_distance_enumerates_repeated_root_codes():
    # q | n: x^2 - 1 = (x + 1)^2 over F_2, so h = x + 1 is irreducible but
    # has no idempotent; the code {0, x + 1} is enumerated
    g = Poly.from_ints(get_prime_field(2), [1, 1])
    assert min_distance(g, 2, 2) == 2


def test_dimensions_partition_the_ring():
    for q, p, k in [(2, 7, 1), (7, 3, 2), (3, 5, 2)]:
        inst = instance_parameters(q, p, k)
        sums = summaries_for(dispatch(inst), inst.n, q)
        assert sum(s.dimension for s in sums) == inst.n


def test_idempotent_lies_in_its_own_code(recs_2_7_1):
    inst, recs = recs_2_7_1
    field = get_prime_field(2)
    for r in recs:
        g = generator_polynomial(r, 7)
        assert (r.value.to_poly() % g).is_zero()
        # generator reconstructs x^n - 1 with its cofactor
        quot, rem = Poly.x_pow_minus_one(field, 7).divrem(g)
        assert rem.is_zero()


def test_code_summary_params_string(recs_2_7_1):
    inst, recs = recs_2_7_1
    s = code_summary(recs[1], 7, 2, with_distance=True)
    assert s.params() == "[7,3,4]"
    s = code_summary(recs[0], 7, 2)
    assert s.params() == "[7,1]" and s.min_distance is None
