"""Binary field arithmetic for polynomial sign families.

Elements of GF(2^w) are plain ints holding bit polynomials; products are
carry-less multiplications reduced by a fixed published irreducible
polynomial per width.  Exactness matters here: any k distinct evaluation
points of a random degree-(k-1) polynomial are jointly uniform, which is
what makes the derived sign families exactly k-wise independent.
"""

from __future__ import annotations

import numpy as np

# Low-weight irreducible polynomials (including the x^w term).
IRREDUCIBLE = {
    2: 0b111,              # x^2 + x + 1
    4: 0x13,               # x^4 + x + 1
    8: 0x11B,              # x^8 + x^4 + x^3 + x + 1
    16: 0x1002B,           # x^16 + x^5 + x^3 + x + 1
    64: (1 << 64) | 0x1B,  # x^64 + x^4 + x^3 + x + 1
}

_ONE = np.uint64(1)


class GF2Field:
    """Arithmetic in GF(2^width) on nonnegative ints below 2^width."""

    def __init__(self, width: int):
        if width not in IRREDUCIBLE:
            raise ValueError(
                f"unsupported width {width}; supported: {sorted(IRREDUCIBLE)}")
        self.width = width
        self.order = 1 << width
        self.poly = IRREDUCIBLE[width]
        self.mask = self.order - 1

    def xtime(self, a: int) -> int:
        """Multiply by x and reduce."""
        a <<= 1
        if a >> self.width:
            a ^= self.poly
        return a

    def mul(self, a: int, b: int) -> int:
        """Carry-less product of a and b, reduced."""
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            a = self.xtime(a)
            b >>= 1
        return acc

    def lsb_vector(self, y: int) -> int:
        """Mask v with bit b equal to the low bit of x^b * y.

        The low bit of any product c*y is then parity(c & v), because the
        low bit is linear over GF(2) in the bits of c.  This turns per-draw
        polynomial evaluation into vectorized popcounts.
        """
        v = 0
        cur = y
        for b in range(self.width):
            v |= (cur & 1) << b
            cur = self.xtime(cur)
        return v


def min_width(n: int) -> int:
    """Smallest supported width whose field has at least n elements."""
    for w in sorted(IRREDUCIBLE):
        if (1 << w) >= n:
            return w
    raise ValueError(f"domain size {n} exceeds the largest supported field")


def _xtime_array(field: GF2Field, a: np.ndarray) -> np.ndarray:
    """GF2Field.xtime on every element of a uint64 array."""
    top = a >> np.uint64(field.width - 1)
    low_poly = np.uint64(field.poly & field.mask)
    return ((a << _ONE) & np.uint64(field.mask)) ^ top * low_poly


def _mul_array(field: GF2Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF2Field.mul elementwise: width rounds of shift-and-XOR."""
    acc = np.zeros_like(a)
    for bit in range(field.width):
        acc ^= a * ((b >> np.uint64(bit)) & _ONE)
        a = _xtime_array(field, a)
    return acc


def _lsb_vector_array(field: GF2Field, y: np.ndarray) -> np.ndarray:
    """GF2Field.lsb_vector on every element of a uint64 array."""
    v = np.zeros_like(y)
    for b in range(field.width):
        v |= (y & _ONE) << np.uint64(b)
        y = _xtime_array(field, y)
    return v


def point_lsb_vectors(field: GF2Field, n: int, k: int) -> np.ndarray:
    """(n, k) table of lsb_vector(x_i^j) for points x_1..x_n.

    Index i is encoded as the field element with value i-1, so a field of
    order >= n supplies n distinct evaluation points.  All n points are
    computed at once with array arithmetic.
    """
    if field.order < n:
        raise ValueError(f"field of order {field.order} has fewer than {n} points")
    x = np.arange(n, dtype=np.uint64)
    pw = np.ones(n, dtype=np.uint64)
    out = np.empty((n, k), dtype=np.uint64)
    for j in range(k):
        out[:, j] = _lsb_vector_array(field, pw)
        pw = _mul_array(field, pw, x)
    return out


def parity_tables(vectors: np.ndarray, width: int) -> np.ndarray:
    """Lookup tables for signs_from_tables, shape (k * s, 16, ceil(n/64)).

    vectors: (n, k) uint64 from point_lsb_vectors over GF(2^width), and
    s = ceil(width / 4) nibbles per coefficient.  The low bit of the
    evaluation at point i is parity(sum_j c_j & v_ij), which is linear
    over GF(2) in the bits of the coefficients, so it is the XOR of one
    contribution per coefficient nibble.  Table j * s + t, row u holds the
    contribution of nibble t of c_j when that nibble equals u, bit-packed
    across the points: bit i % 64 of word i // 64.  The tables take
    128 * s * k * ceil(n/64) bytes, about 32 * k * n at width 64.
    """
    n, k = vectors.shape
    nibbles = -(-width // 4)
    nbytes = -(-n // 8)
    # the (16, n) bit rows are built in uint8: a nibble fits, and the
    # temporaries take n bytes per row, not 8n
    values = np.arange(16, dtype=np.uint8)[:, None]
    packed = np.zeros((k * nibbles, 16, 8 * -(-n // 64)), dtype=np.uint8)
    for j in range(k):
        for t in range(nibbles):
            nibble = ((vectors[:, j] >> np.uint64(4 * t))
                      & np.uint64(15)).astype(np.uint8)
            bits = np.bitwise_count(values & nibble) & 1
            packed[j * nibbles + t, :, :nbytes] = np.packbits(
                bits, axis=1, bitorder="little")
    return packed.view("<u8")


def signs_from_tables(tables: np.ndarray, coeffs: np.ndarray, n: int) -> np.ndarray:
    """Signs of polynomial evaluations for a batch of coefficient rows.

    tables from parity_tables for n points; coeffs: (batch, k) uint64.
    Returns (batch, n) int8 with entries +-1; entry is +1 iff the evaluated
    field element has low bit 0.
    """
    count, k = coeffs.shape
    nibbles = len(tables) // k
    words = tables.shape[2]
    shifts = np.arange(0, 4 * nibbles, 4, dtype=np.uint64)
    index = (coeffs[:, :, None] >> shifts) & np.uint64(15)
    index = index.reshape(count, len(tables)).T.astype(np.intp)
    # One opaque item per table row: numpy gathers whole items faster than
    # it gathers rows of a 2-d uint64 array.
    items = tables.view(np.dtype((np.void, 8 * words)))[..., 0]
    acc = items[0][index[0]].view(tables.dtype).reshape(count, words)
    for t in range(1, len(tables)):
        acc ^= items[t][index[t]].view(tables.dtype).reshape(count, words)
    signs = np.unpackbits(acc.view(np.uint8), axis=1, count=n,
                          bitorder="little").view(np.int8)
    signs *= -2
    signs += 1
    return signs


def all_polynomial_signs(width: int, n: int, k: int) -> np.ndarray:
    """Sign matrix of every degree-(k-1) polynomial over GF(2^width).

    Row r holds the signs at points 1..n of the polynomial whose
    coefficients are the base-q digits of r (least significant digit is the
    constant term).  Shape (q^k, n), entries +-1.  Rows are evaluated in
    steps of about 2^20 signs, so temporaries stay small beside the result.
    """
    field = GF2Field(width)
    q = field.order
    if q ** k > 1 << 22:
        raise ValueError("enumeration too large; reduce width or k")
    tables = parity_tables(point_lsb_vectors(field, n, k), width)
    shifts = np.arange(0, width * k, width, dtype=np.uint64)
    signs = np.empty((q ** k, n), dtype=np.int8)
    step = max(1, (1 << 20) // n)
    for lo in range(0, q ** k, step):
        rows = np.arange(lo, min(lo + step, q ** k), dtype=np.uint64)[:, None]
        signs[lo:lo + step] = signs_from_tables(
            tables, (rows >> shifts) & np.uint64(q - 1), n)
    return signs
