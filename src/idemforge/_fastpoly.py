"""Dense polynomial kernels over Z/q (q prime), numpy-backed.

Coefficient vectors are int64 numpy arrays, ascending exponents, values
reduced into [0, q).  The zero polynomial is the empty array.  These
routines are the one implementation of polynomial arithmetic over F_q
(products, division, gcds, extension-field arithmetic, irreducibility
scans, residues modulo the factors of x^n - 1); the classes in `fields`
and `polys` wrap them.

Exactness: a sum of `length` products of residues stays exact in int64
while length * (q-1)^2 < 2^63, and `check_int64_exact` enforces that rule
wherever residues are multiplied, extension-field arithmetic included.
The product kernel (`mat_mul`, `conv_rows`, `poly_mul`) admits the same
range: it runs in float64, where BLAS and the dot-product convolution
apply, while length * (q-1)^2 < 2^53, and above that splits each operand
into two limbs whose products stay below 2^53.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation, UsageError

MAX_KERNEL_DEGREE = 1 << 12
FLOAT_EXACT = 1 << 53  # float64 represents every integer below this
# Cap on the entries of one block of rows or one residue table (32 MB in int64).
TABLE_ENTRIES = 1 << 22


def as_vec(coeffs) -> np.ndarray:
    try:
        return np.array(coeffs, dtype=np.int64)
    except OverflowError:
        raise UsageError(
            "coefficients exceed int64; the kernels need length*(q-1)^2 < 2^63"
        ) from None


def trim(vec: np.ndarray) -> np.ndarray:
    nz = np.nonzero(vec)[0]
    if nz.size == 0:
        return vec[:0]
    return vec[: nz[-1] + 1]


def check_int64_exact(length: int, q: int) -> None:
    """Reject a sum of `length` products of residues mod q that could
    overflow int64: exactness needs length * (q-1)^2 < 2^63."""
    if length * (q - 1) ** 2 >= 1 << 63:
        raise UsageError(
            f"q={q} is too large for exact int64 arithmetic on length {length}: "
            f"needs length*(q-1)^2 < 2^63"
        )


def _exact_product(op, a: np.ndarray, b: np.ndarray, length: int, q: int) -> np.ndarray:
    """op(a, b) mod q, for a bilinear op on residue arrays each of whose
    outputs sums at most `length` products of one entry of each operand.

    float64 holds every integer below 2^53 exactly, so while
    length*(q-1)^2 < 2^53 the op runs once in float64.  Above that each
    operand is split as lo + hi*2^s with s = ceil(bits(q-1)/2); each of the
    four limb products then sums terms below 2^(2s), which stays under 2^53
    for every length*(q-1)^2 < 2^63 with length < 2^39, and the limb
    products are recombined mod q in int64."""
    check_int64_exact(length, q)
    if length * (q - 1) ** 2 < FLOAT_EXACT:
        return _float_residues(op(a.astype(np.float64), b.astype(np.float64)), q)
    s = ((q - 1).bit_length() + 1) // 2
    mask = (1 << s) - 1
    if length * mask**2 >= FLOAT_EXACT:
        raise UsageError(f"length {length} is too long for exact limb products")
    a_limbs = ((a & mask).astype(np.float64), (a >> s).astype(np.float64))
    out = None
    for j, b_limb in enumerate((b & mask, b >> s)):
        b_limb = b_limb.astype(np.float64)
        for i, a_limb in enumerate(a_limbs):
            # each factor is below q, so the product stays below (q-1)^2 < 2^63
            part = _float_residues(op(a_limb, b_limb), q) * pow(2, s * (i + j), q) % q
            out = part if out is None else (out + part) % q
    return out


def _float_residues(x: np.ndarray, q: int) -> np.ndarray:
    """Residues mod q of float64 entries that are exact integers >= 0."""
    out = x.astype(np.int64)
    out %= q
    return out


def mat_mul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b mod q for residue matrices (each entry sums a.shape[-1] products)."""
    return _exact_product(np.matmul, a, b, a.shape[-1], q)


def _shift_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise full products, one shifted multiply-add per column of b."""
    rows, la, lb = max(a.shape[0], b.shape[0]), a.shape[1], b.shape[1]
    out = np.zeros((rows, la + lb - 1), dtype=a.dtype)
    for j in range(lb):
        out[:, j : j + la] += a * b[:, j : j + 1]
    return out


def conv_rows(a: np.ndarray, b: np.ndarray, q: int, n: int | None = None) -> np.ndarray:
    """Row-wise products mod q of two stacks of coefficient rows (ascending;
    a one-row stack is broadcast against the other).  Without `n` the rows
    are full products of a.shape[1] + b.shape[1] - 1 coefficients; with `n`
    they are folded mod x^n - 1 into n coefficients.  Each full coefficient
    sums at most min(a.shape[1], b.shape[1]) products."""
    la, lb = a.shape[1], b.shape[1]
    if n is not None and max(la, lb) > n:
        raise UsageError(f"cyclic operands need at most n={n} coefficients")
    rows, length = max(a.shape[0], b.shape[0]), min(la, lb)
    out = np.zeros((rows, la + lb - 1 if n is None else n), dtype=np.int64)
    if rows <= length:  # one dot-product convolution per row
        for i in range(rows):  # min(): a one-row stack serves every row
            x, y = a[min(i, len(a) - 1)], b[min(i, len(b) - 1)]
            _fold_into(out[i], _exact_product(np.convolve, x, y, length, q), q)
    else:  # fewer terms than rows: shifted multiply-adds over blocks of rows
        if la < lb:
            a, b, la, lb = b, a, lb, la
        step = max(1, TABLE_ENTRIES // (4 * (la + lb)))  # bounds the float64 copies
        for start in range(0, rows, step):
            block = slice(start, start + step)
            full = _exact_product(
                _shift_add,
                a if a.shape[0] == 1 else a[block],
                b if b.shape[0] == 1 else b[block],
                length,
                q,
            )
            _fold_into(out[block], full, q)
    return out


def _fold_into(dst: np.ndarray, full: np.ndarray, q: int) -> None:
    """Write residues `full` into the zeroed `dst`, folding the coefficients
    past dst's width w back mod x^w - 1."""
    w = dst.shape[-1]
    if full.shape[-1] <= w:
        dst[..., : full.shape[-1]] = full
        return
    dst[...] = full[..., :w]
    dst[..., : full.shape[-1] - w] += full[..., w:]
    dst %= q


def poly_mul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    if a.size == 0 or b.size == 0:
        return a[:0]
    return conv_rows(a[None], b[None], q)[0]


def poly_divmod(a: np.ndarray, b: np.ndarray, q: int):
    """Return (quotient, remainder) with deg(remainder) < deg(b)."""
    check_int64_exact(1, q)  # each step subtracts a product of two residues
    b = trim(b % q)
    if b.size == 0:
        raise ZeroDivisionError("polynomial division by zero")
    a = trim(a % q)
    db = b.size - 1
    if a.size - 1 < db:
        return a[:0], a.copy()
    inv_lead = pow(int(b[-1]), -1, q)
    rem = a.copy()
    quot = np.zeros(a.size - db, dtype=np.int64)
    for i in range(a.size - 1, db - 1, -1):
        c = int(rem[i])
        if c:
            f = (c * inv_lead) % q
            quot[i - db] = f
            rem[i - db : i + 1] = (rem[i - db : i + 1] - f * b) % q
    return trim(quot), trim(rem[:db])


def divmod_rows(a: np.ndarray, mods: np.ndarray, q: int):
    """Row-wise long division by monic moduli of one degree d >= 0: row i of
    `a` (ascending, at least d columns) by row i of `mods` (d + 1 columns),
    either stack of one row being broadcast over the other.  Returns
    (quotients, remainders), shapes (rows, a.shape[1] - d) and (rows, d).

    One walk of a.shape[1] - d steps serves the whole stack.  A step whose
    leading column is zero in every row is skipped, and a step updates only
    the columns where some modulus has a nonzero coefficient, so inflated
    moduli g(x^r) and their sparse quotients cost few updates."""
    check_int64_exact(1, q)  # each step subtracts a product of two residues
    rows = max(a.shape[0], mods.shape[0])
    rem = np.repeat(a % q, rows // a.shape[0], axis=0)
    d = mods.shape[1] - 1
    quot = np.zeros((rows, rem.shape[1] - d), dtype=np.int64)
    cols = np.flatnonzero((mods[:, :d] % q).any(axis=0))
    low = mods[:, cols] % q
    dense = cols.size == d
    for i in range(rem.shape[1] - 1, d - 1, -1):
        c = rem[:, i : i + 1]
        if not np.count_nonzero(c):
            continue
        quot[:, i - d] = c[:, 0]
        if dense:
            window = rem[:, i - d : i]
            window -= c * low
            window %= q
        else:
            at = cols + (i - d)
            rem[:, at] = (rem[:, at] - c * low) % q
    return quot, rem[:, :d]


def poly_gcd(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Monic gcd; empty input pairs are rejected by callers."""
    a, b = trim(a % q), trim(b % q)
    while b.size:
        _, r = poly_divmod(a, b, q)
        a, b = b, r
    if a.size == 0:
        raise UsageError("gcd of two zero polynomials")
    lead = int(a[-1])
    if lead != 1:
        a = (a * pow(lead, -1, q)) % q
    return a


class ReducedRing:
    """Arithmetic in F_q[x] modulo a fixed monic polynomial M of degree >= 1.

    Elements are rows of deg residues; the methods also take stacks of
    rows.  Precomputes the reduction table rows x^(deg+i) mod M (i < deg),
    so a reduction is one int64 matmul.  The ring's products stay in int64
    under deg*(q-1)^2 < 2^63, checked here: at the small degrees of
    extension fields the product kernel's float64 conversions cost more.
    """

    __slots__ = ("q", "deg", "mod", "_tbl")

    def __init__(self, q: int, mod_vec) -> None:
        mod = trim(as_vec(mod_vec))
        deg = mod.size - 1
        check_int64_exact(max(deg, 1), q)  # first: `% q` needs q to fit int64
        mod %= q
        if deg < 1 or int(mod[-1]) != 1:
            raise UsageError("modulus must be monic of degree >= 1")
        if deg > MAX_KERNEL_DEGREE:
            raise UsageError(f"modulus degree {deg} exceeds the kernel limit {MAX_KERNEL_DEGREE}")
        self.q = q
        self.deg = deg
        self.mod = mod
        self._tbl = residue_matrix(mod[None], 2 * deg, q)[deg:, 0]

    def one(self) -> np.ndarray:
        v = np.zeros(self.deg, dtype=np.int64)
        v[0] = 1
        return v

    def x(self) -> np.ndarray:
        return self.reduce(np.array([0, 1], dtype=np.int64))

    def reduce(self, c: np.ndarray) -> np.ndarray:
        """Rows c (coefficients on the last axis) reduced mod M and q."""
        c = c % self.q
        width = c.shape[-1]
        if width <= self.deg:
            if width < self.deg:
                pad = np.zeros(c.shape[:-1] + (self.deg - width,), dtype=np.int64)
                c = np.concatenate((c, pad), axis=-1)
            return c
        lo, hi = c[..., : self.deg], c[..., self.deg :]
        # a product of reduced operands leaves width < 2*deg, so the sum
        # stays below deg*(q-1)^2, which __init__ checked
        return (lo + hi @ self._tbl[:width - self.deg]) % self.q

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of rows, a and b broadcast against each other on their
        leading axes."""
        if a.size == b.size == self.deg:  # one product: numpy's direct convolution
            full = np.convolve(a.ravel(), b.ravel())
            if a.ndim > 1 or b.ndim > 1:  # a stack of one row
                full = full.reshape(max(a.shape, b.shape, key=len)[:-1] + full.shape)
            return self.reduce(full)
        # stacks: the outer products a_i*b_j of each pair of rows, padded
        # with deg zeros per i and read back as rows of 2*deg - 1 entries,
        # put a_i*b_j in column i + j; summing over i gives the full
        # product, each coefficient a sum of at most deg products
        deg = self.deg
        outer = a[..., :, None] * b[..., None, :]
        lead = outer.shape[:-2]
        outer = np.concatenate((outer, np.zeros_like(outer)), axis=-1)
        skewed = outer.reshape(lead + (2 * deg * deg,))[..., : deg * (2 * deg - 1)]
        return self.reduce(skewed.reshape(lead + (deg, 2 * deg - 1)).sum(axis=-2))

    def matrix(self, a: np.ndarray) -> np.ndarray:
        """Rows x^i * a mod M (i < deg) for a row a, or one such matrix per
        row of a stack: v @ matrix(a) % q is the product v * a."""
        deg = self.deg
        shifted = np.zeros(a.shape[:-1] + (deg, 2 * deg - 1), dtype=np.int64)
        for i in range(deg):
            shifted[..., i, i : i + deg] = a
        return self.reduce(shifted)

    def powers(self, a: np.ndarray, count: int) -> np.ndarray:
        """Rows a^0, ..., a^(count-1), by doubling: the rows a^L .. a^(2L-1)
        are the first L rows times a^L."""
        out = np.zeros((count, self.deg), dtype=np.int64)
        out[0, 0] = 1
        done, step = 1, self.reduce(a)
        while done < count:
            take = min(done, count - done)
            out[done : done + take] = out[:take] @ self.matrix(step) % self.q
            done += take
            if done < count:
                step = self.mul(step, step)
        return out

    def pow(self, a: np.ndarray, e) -> np.ndarray:
        """a^e for a row or a stack of rows a.  With a list of exponents
        the result holds one entry per exponent, shape (len(e),) + a.shape,
        from one walk over the bits of the largest: each bit squares the
        rows of a once and multiplies the entries whose exponent has it."""
        stacked = isinstance(e, list)
        exps = e if stacked else [e]
        if any(x < 0 for x in exps):
            raise UsageError("negative exponent in ring power")
        base = self.reduce(a)
        result = np.zeros(((len(exps),) if stacked else ()) + base.shape, dtype=np.int64)
        result[..., 0] = 1
        for i in range(max(exps, default=0).bit_length()):
            if i:
                base = self.mul(base, base)
            hit = [j for j, x in enumerate(exps) if x >> i & 1]
            if len(hit) == len(exps):
                result = self.mul(result, base)
            elif hit:
                result[hit] = self.mul(result[hit], base)
        return result


def _small_prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_irreducible(q: int, vec) -> bool:
    """Exact irreducibility test for a monic polynomial over F_q.

    Criterion: x^(q^t) = x mod M and gcd(x^(q^(t/r)) - x, M) = 1 for
    every prime r dividing t.
    """
    vec = trim(as_vec(vec)) % q
    t = vec.size - 1
    if t < 1:
        return False
    if int(vec[-1]) != 1:
        raise UsageError("irreducibility test expects a monic polynomial")
    if t == 1:
        return True
    if int(vec[0]) == 0:
        return False
    ring = ReducedRing(q, vec)
    frob = ring.powers(ring.pow(ring.x(), q), t)  # rows x^(i*q) mod M
    x_vec = np.zeros(t, dtype=np.int64)
    x_vec[1] = 1
    checkpoints = {t // r for r in _small_prime_factors(t)}
    tau = frob[1]  # x^q
    for i in range(1, t + 1):
        if i > 1:
            tau = (tau @ frob) % q
        if i in checkpoints:
            diff = trim((tau - x_vec) % q)
            if diff.size == 0:
                return False
            if poly_gcd(diff, vec, q).size != 1:
                return False
        if i == t:
            return bool(np.array_equal(tau, x_vec))
    raise InvariantViolation("unreachable")  # pragma: no cover


def lex_irreducible(q: int, t: int, skip: int = 0) -> tuple[int, ...]:
    """Coefficients (ascending, monic) of the (skip+1)-th smallest monic
    irreducible polynomial of degree t over F_q, ordering candidates by the
    integer value sum(c_i * q^i) of their non-leading coefficients."""
    if t < 1:
        raise UsageError("degree must be >= 1")
    if t == 1:
        if skip >= q:
            raise UsageError(f"fewer than {skip + 1} monic irreducibles of degree 1 over F_{q}")
        return (skip, 1)
    digits = [0] * t
    if any((q - 1) % r for r in _small_prime_factors(t)) or (t % 4 == 0 and q % 4 == 3):
        # no binomial y^t + c is irreducible (Lidl-Niederreiter, Thm 3.75),
        # so start past them, at y^t + y
        digits[1] = 1
    points = np.arange(1, q, dtype=np.int64) if q <= 4096 else None
    remaining = skip
    while True:
        if digits[0] != 0:
            ok = True
            if points is not None:
                acc = np.full(points.size, 1, dtype=np.int64)  # leading coeff
                for i in range(t - 1, -1, -1):
                    acc = (acc * points + digits[i]) % q
                ok = not bool((acc == 0).any())
            if ok and is_irreducible(q, digits + [1]):
                if remaining == 0:
                    return tuple(digits + [1])
                remaining -= 1
        pos = 0
        while pos < t:
            digits[pos] += 1
            if digits[pos] < q:
                break
            digits[pos] = 0
            pos += 1
        else:
            if skip > 0:
                raise UsageError(
                    f"fewer than {skip + 1} monic irreducibles of degree {t} over F_{q}"
                )
            raise InvariantViolation("exhausted candidates without finding an irreducible")


def residue_matrix(mods, n: int, q: int) -> np.ndarray:
    """Table T[i, j] = x^i mod M_j for i < n, over a stack of monic moduli
    of one degree d (`mods` is m x (d+1), ascending), built in one walk of
    n - d steps past the identity rows.  Reducing length-n coefficient rows
    V modulo every M_j is the single product mat_mul(V, T.reshape(n, m*d)).
    Shape (n, m, d)."""
    mods = as_vec(mods) % q
    if mods.ndim != 2 or mods.shape[1] < 2 or (mods[:, -1] != 1).any():
        raise UsageError("moduli must be monic of one degree >= 1")
    m, deg = mods.shape[0], mods.shape[1] - 1
    xd = (-mods[:, :deg]) % q  # x^deg mod M_j
    table = np.zeros((n, m, deg), dtype=np.int64)
    low = np.arange(min(n, deg))
    table[low, :, low] = 1
    for i in range(deg, n):
        prev, row = table[i - 1], table[i]
        np.multiply(prev[:, -1:], xd, out=row)
        row[:, 1:] += prev[:, :-1]
        row %= q
    return table
