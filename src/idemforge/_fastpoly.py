"""Dense polynomial kernels over Z/q (q prime), numpy-backed.

Coefficient vectors are int64 numpy arrays, ascending exponents, values
reduced into [0, q).  The zero polynomial is the empty array.  These
routines are the one implementation of polynomial arithmetic over F_q
(products, division, gcds, extension-field arithmetic, irreducibility
scans, residues modulo the factors of x^n - 1).  `Poly` and
`CyclicRingElement` in `polys` call them for their operators, and an
`ExtensionField` of `fields` holds a `ReducedRing` whose rows are its
values.  There is one long division, `divmod_rows`, whose
one-row case is `poly_divmod`, and one irreducibility test,
`_rabin_passing` (Rabin's, on a stack of moduli), whose mask is
`irreducible_rows` and whose one-row case is `is_irreducible`.

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
    """Return (quotient, remainder) with deg(remainder) < deg(b): the
    one-row case of `divmod_rows`, by b made monic, with the quotient
    scaled back by b's leading coefficient."""
    check_int64_exact(1, q)  # each product below is of two residues
    b = trim(b % q)
    if b.size == 0:
        raise ZeroDivisionError("polynomial division by zero")
    a = trim(a % q)
    if a.size < b.size:
        return a[:0], a.copy()
    inv_lead = pow(int(b[-1]), -1, q)
    quot, rem = divmod_rows(a[None], (b * inv_lead % q)[None], q)
    return quot[0] * inv_lead % q, trim(rem[0])  # the quotient leads with a's lead


def divmod_rows(a: np.ndarray, mods: np.ndarray, q: int):
    """Row-wise long division by monic moduli of one degree d >= 0: row i of
    `a` (ascending, at least d columns) by row i of `mods` (d + 1 columns),
    either stack of one row being broadcast over the other.  Returns
    (quotients, remainders), shapes (rows, a.shape[1] - d) and (rows, d).

    One walk of a.shape[1] - d steps serves the whole stack.  A step whose
    leading column is zero in every row is passed over, and a step updates
    only the columns where some modulus has a nonzero coefficient, so
    inflated moduli g(x^r) and their sparse quotients cost few updates."""
    check_int64_exact(1, q)  # each step subtracts a product of two residues
    rows = max(a.shape[0], mods.shape[0])
    rem = a % q
    if rem.shape[0] < rows:
        rem = np.repeat(rem, rows, axis=0)
    d = mods.shape[1] - 1
    quot = np.zeros((rows, rem.shape[1] - d), dtype=np.int64)
    low = mods[:, :d] % q
    cols = np.flatnonzero(low.any(axis=0))
    dense = cols.size == d
    if not dense:
        low = low[:, cols]
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
    check_int64_exact(1, q)  # each step multiplies two residues
    a, b = trim(a % q), trim(b % q)
    while b.size:
        b = b * pow(int(b[-1]), -1, q) % q  # divmod_rows divides by monic moduli
        if a.size >= b.size:
            a = trim(divmod_rows(a[None], b[None], q)[1][0])
        a, b = b, a
    if a.size == 0:
        raise UsageError("gcd of two zero polynomials")
    lead = int(a[-1])
    if lead != 1:
        a = (a * pow(lead, -1, q)) % q
    return a


def _full_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full products (2*deg - 1 coefficients, not reduced mod q) of rows of
    deg residues, a and b broadcast against each other on their leading
    axes.  The outer products a_i*b_j of each pair of rows, padded with deg
    zeros per i and read back as rows of 2*deg - 1 entries, put a_i*b_j in
    column i + j; summing over i gives the full product, each coefficient a
    sum of at most deg products."""
    deg = a.shape[-1]
    outer = a[..., :, None] * b[..., None, :]
    lead = outer.shape[:-2]
    outer = np.concatenate((outer, np.zeros_like(outer)), axis=-1)
    skewed = outer.reshape(lead + (2 * deg * deg,))[..., : deg * (2 * deg - 1)]
    return skewed.reshape(lead + (deg, 2 * deg - 1)).sum(axis=-2)


def _check_degree(deg: int) -> None:
    if deg > MAX_KERNEL_DEGREE:
        raise UsageError(f"modulus degree {deg} exceeds the kernel limit {MAX_KERNEL_DEGREE}")


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
        _check_degree(deg)
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
        return self.reduce(_full_products(a, b))

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


def index_rows(q: int, t: int, index) -> np.ndarray:
    """Rows of t base-q digits, least significant first, of the given
    indices: the coefficient rows of the canonical enumeration of F_{q^t}
    and of the lex order of candidate moduli."""
    index = np.asarray(index, dtype=np.int64)
    rows = np.zeros((index.size, t), dtype=np.int64)
    j, top = 0, int(index.max(initial=0))
    while top:  # as many digits as the largest index has
        index, rows[:, j] = np.divmod(index, q)
        j, top = j + 1, top // q
    return rows


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
    """Exact irreducibility test for a monic polynomial M of degree t over
    F_q: `irreducible_rows` on a stack of one, once M has passed the int64
    rule t*(q-1)^2 < 2^63 and the kernel degree limit."""
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
    check_int64_exact(t, q)
    _check_degree(t)
    return bool(irreducible_rows(vec[None], q)[0])


def irreducible_rows(mods: np.ndarray, q: int) -> np.ndarray:
    """Rabin's test on each row of a stack of monic moduli (see
    `_rabin_passing`), as a mask."""
    passed = np.zeros(mods.shape[0], dtype=bool)
    passed[list(_rabin_passing(mods, q))] = True
    return passed


def _rabin_passing(mods: np.ndarray, q: int):
    """The indices, ascending, of the rows that pass Rabin's test (SIAM J.
    Comput. 9, 1980) in a stack of monic moduli f_j of one degree t >= 2
    ((rows, t + 1), ascending, under the int64 rule t*(q-1)^2 < 2^63):
    f_j is irreducible iff
    x^(q^t) = x mod f_j and gcd(x^(q^(t/r)) - x, f_j) = 1 for every prime
    r dividing t.

    Products are reduced by the rows x^i mod f_j of residue_matrix(mods,
    2t - 1).  x^q mod f_j comes from square-and-multiply, its
    multiplication matrix gives the Frobenius matrices (rows x^(i*q) mod
    f_j), and t - 1 batched products with them walk tau_i = x^(q^i) to
    i = t, multiplying up the tau_(t/r) - x on the way.  The gcds run
    last, one per row with tau_t = x, of that product and f_j: a row with
    a factor whose degree does not divide t fails tau_t = x and pays for
    no gcd, and at t = 10 one gcd costs as much as 40 to 100 Frobenius
    steps (0.1-0.2 ms against 2-3 us).  This is a generator: the walk runs
    on the whole stack when the first index is asked for, and each gcd when
    its row's turn comes, so a caller that stops at the row it needs pays
    for no later gcd."""
    rows, t = mods.shape[0], mods.shape[1] - 1
    if not rows:
        return
    high = residue_matrix(mods, 2 * t - 1, q)[t:].transpose(1, 0, 2)  # x^(t+i) mod f_j

    def reduce(full):  # full rows of at most 2t - 1 coefficients, per f_j
        full %= q
        width = full.shape[-1] - t
        return (full[..., :t] + full[..., t:] @ high[:, :width]) % q

    x = np.zeros((rows, 1, t), dtype=np.int64)  # one-row stacks, for batched products
    x[:, 0, 1] = 1
    xq = np.zeros_like(x)
    xq[:, 0, 0] = 1
    for bit in bin(q)[2:]:
        xq = reduce(_full_products(xq, xq))
        if bit == "1":  # times x: shift up one place
            xq = reduce(np.concatenate((np.zeros_like(xq[..., :1]), xq), axis=-1))
    shifted = np.zeros((rows, t, 2 * t - 1), dtype=np.int64)
    for i in range(t):
        shifted[:, i, i : i + t] = xq[:, 0]
    times_xq = reduce(shifted)  # rows x^i * x^q mod f_j
    frob = np.zeros((rows, t, t), dtype=np.int64)
    frob[:, 0, 0] = 1
    for i in range(1, t):
        frob[:, i] = (frob[:, i - 1, None] @ times_xq)[:, 0] % q
    checkpoints = {t // r for r in _small_prime_factors(t)}
    tau, product = xq, None  # product: prod over r of (tau_(t/r) - x) mod f_j
    for i in range(1, t):
        if i in checkpoints:
            diff = (tau - x) % q
            product = diff if product is None else reduce(_full_products(product, diff))
        tau = tau @ frob % q
    # a prime factor of f_j divides the product iff it divides some factor,
    # so one gcd per row stands for the gcd with each tau_(t/r) - x
    for j in np.flatnonzero((tau == x).all(axis=(1, 2))):
        diff = trim(product[j, 0])
        if diff.size and poly_gcd(diff, mods[j], q).size == 1:
            yield int(j)


def lex_irreducible(q: int, t: int, skip: int = 0) -> tuple[int, ...]:
    """Coefficients (ascending, monic) of the (skip+1)-th smallest monic
    irreducible polynomial of degree t over F_q, ordering candidates by the
    integer value sum(c_i * q^i) of their non-leading coefficients.

    Candidates go in blocks of 2, 4, 8, ... in that order.  One Horner
    pass over a block drops the candidates with a root in F_q, for
    q <= 4096, or with a zero constant term, above.  The rest go through
    `_rabin_passing` as one stack, and its passing rows are taken in order
    up to the one wanted, so every modulus returned is certified by Rabin's
    test, no row past it pays for a gcd, and the walk finds the modulus a
    one-at-a-time walk finds."""
    if t < 1:
        raise UsageError("degree must be >= 1")
    if skip < 0:
        raise UsageError("skip must be >= 0")
    if t == 1:
        if skip >= q:
            raise UsageError(f"fewer than {skip + 1} monic irreducibles of degree 1 over F_{q}")
        return (skip, 1)
    check_int64_exact(t, q)  # the rules of the stacked test on a candidate
    _check_degree(t)
    index = 0
    if any((q - 1) % r for r in _small_prime_factors(t)) or (t % 4 == 0 and q % 4 == 3):
        # no binomial y^t + c is irreducible (Lidl-Niederreiter, Thm 3.75),
        # so start past them, at y^t + y
        index = q
    # the points a whose roots rule a candidate out: all of F_q up to
    # q = 4096, and 0 (a zero constant term) above
    points = np.arange(q if q <= 4096 else 1, dtype=np.int64)
    lead = np.ones_like(points)  # a^t for every point a
    for bit in bin(t)[2:]:
        lead = lead * lead % q
        if bit == "1":
            lead = lead * points % q
    # a block's arrays hold at most TABLE_ENTRIES entries: per candidate,
    # one row of the Horner table and about eight t x t in the stacked pass
    most = max(1, TABLE_ENTRIES // (8 * t * t + points.size))
    total, size, remaining = q**t, 2, skip
    while index < total:
        block = np.arange(index, min(index + size, total), dtype=np.int64)
        index, size = index + block.size, min(2 * size, most)
        width = 1  # base-q digits of the block's last index; the rest are 0
        while q**width < index:
            width += 1
        mods = np.ones((block.size, t + 1), dtype=np.int64)
        mods[:, :t] = index_rows(q, t, block)
        acc = np.zeros((block.size, points.size), dtype=np.int64)
        for i in range(width - 1, -1, -1):
            acc = (acc * points + mods[:, i, None]) % q
        mods = mods[((acc + lead) % q).all(axis=1)]  # no root among the points
        for j in _rabin_passing(mods, q):
            if not remaining:
                return tuple(mods[j].tolist())
            remaining -= 1
    if skip > 0:
        raise UsageError(f"fewer than {skip + 1} monic irreducibles of degree {t} over F_{q}")
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
