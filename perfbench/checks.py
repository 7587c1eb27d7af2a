"""Correctness checks computed apart from idemforge.

Nothing here imports the package under test: cosets, polynomial arithmetic
and the minimum-distance enumeration are written afresh over plain ints
(and numpy bit masks), and sympy, where installed, is a third opinion on
the factor degrees.
"""

from __future__ import annotations

import re

import numpy as np

try:
    import sympy
except ImportError:  # the sympy checks are skipped without it
    sympy = None


def coset_sizes(q: int, n: int) -> list[int]:
    """Sizes of the orbits of i -> q*i on Z_n, sorted."""
    seen = [False] * n
    sizes = []
    for start in range(n):
        size, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            size += 1
            cur = cur * q % n
        if size:
            sizes.append(size)
    return sorted(sizes)


def cyclic_product(a: list[int], b: list[int], q: int) -> list[int]:
    """a*b in F_q[x]/(x^n - 1), by the schoolbook convolution."""
    n = len(a)
    out = [0] * n
    nonzero_b = [(j, c) for j, c in enumerate(b) if c]
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero_b:
                out[(i + j) % n] += x * y
    return [c % q for c in out]


def system_errors(coeffs: list[list[int]], q: int, n: int, rng, samples: int) -> list[str]:
    """Check an idempotent system: ints in [0, q), distinct, summing to 1;
    e*e = e and e_i*e_j = 0 on `samples` seeded picks each."""
    errors = []
    if any(len(e) != n or any(not isinstance(c, int) or not 0 <= c < q for c in e) for e in coeffs):
        return ["coefficient lists must hold n integers in [0, q)"]
    if len({tuple(e) for e in coeffs}) != len(coeffs):
        errors.append("records repeat")
    total = [sum(col) % q for col in zip(*coeffs)]
    if total != [1] + [0] * (n - 1):
        errors.append("records do not sum to 1")
    r = len(coeffs)
    for i in rng.sample(range(r), min(samples, r)):
        if cyclic_product(coeffs[i], coeffs[i], q) != coeffs[i]:
            errors.append(f"record {i}: e*e != e")
    for _ in range(samples if r > 1 else 0):
        i, j = rng.sample(range(r), 2)
        if any(cyclic_product(coeffs[i], coeffs[j], q)):
            errors.append(f"records {i},{j}: e_i*e_j != 0")
    return errors


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder over F_q; ascending coefficients, b nonzero."""
    rem = _trim([c % q for c in a])
    b = _trim([c % q for c in b])
    inv = pow(b[-1], -1, q)
    quot = [0] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        f = rem[-1] * inv % q
        quot[shift] = f
        for j, c in enumerate(b):
            rem[shift + j] = (rem[shift + j] - f * c) % q
        _trim(rem)
    return quot, rem


def gcd_degree(a: list[int], b: list[int], q: int) -> int:
    a, b = _trim([c % q for c in a]), _trim([c % q for c in b])
    while b:
        a, b = b, poly_divmod(a, b, q)[1]
    return len(a) - 1


def x_n_minus_1(n: int, q: int) -> list[int]:
    return [q - 1] + [0] * (n - 1) + [1]


def ideal_dimensions(coeffs: list[list[int]], q: int, n: int) -> list[int]:
    """dim of the ideal e*R = n - deg gcd(e, x^n - 1), per record, sorted."""
    target = x_n_minus_1(n, q)
    return sorted(n - gcd_degree(e, target, q) for e in coeffs)


def sympy_factor_degrees(q: int, n: int) -> list[int] | None:
    """Degrees of the irreducible factors of x^n - 1 over F_q, by sympy."""
    if sympy is None:
        return None
    x = sympy.symbols("x")
    _, factors = sympy.Poly(x**n - 1, x, modulus=q).factor_list()
    return sorted(f.degree() for f, mult in factors for _ in range(mult))


def sympy_irreducible(coeffs: list[int], q: int) -> bool | None:
    if sympy is None:
        return None
    x = sympy.symbols("x")
    return sympy.Poly(list(reversed(coeffs)), x, modulus=q).is_irreducible


_TERM = re.compile(r"^(?:(\d+)\*)?x(?:\^(\d+))?$|^(\d+)$")


def parse_poly(text: str) -> list[int]:
    """Ascending coefficients of a rendering such as 'x^4 + 3*x^2 + x + 1'."""
    coeffs: dict[int, int] = {}
    for term in text.split(" + "):
        m = _TERM.match(term.strip())
        if not m:
            raise ValueError(f"cannot parse term {term!r}")
        if m.group(3) is not None:
            coeffs[0] = int(m.group(3))
        else:
            coeffs[int(m.group(2) or 1)] = int(m.group(1) or 1)
    return [coeffs.get(e, 0) for e in range(max(coeffs) + 1)]


def binary_min_distance(g: list[int], n: int) -> int:
    """Minimum weight of the binary cyclic code generated by g, by building
    every codeword as an XOR of shifted generator rows (bit-packed)."""
    dim = n - (len(g) - 1)
    words = (n + 63) // 64
    mask = sum(1 << e for e, c in enumerate(g) if c % 2)
    code = np.zeros((1, words), dtype=np.uint64)
    for i in range(dim):
        row = mask << i
        packed = np.array([(row >> (64 * w)) & (2**64 - 1) for w in range(words)], dtype=np.uint64)
        code = np.concatenate((code, code ^ packed))
    weights = np.bitwise_count(code[1:]).sum(axis=1, dtype=np.int64)
    return int(weights.min())
