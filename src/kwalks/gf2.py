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

    def mul_table(self) -> np.ndarray:
        """Dense multiplication table; only sensible for small widths."""
        if self.width > 8:
            raise ValueError("mul_table is for small fields only")
        q = self.order
        tab = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            for b in range(q):
                tab[a, b] = self.mul(a, b)
        return tab


def min_width(n: int) -> int:
    """Smallest supported width whose field has at least n elements."""
    for w in sorted(IRREDUCIBLE):
        if (1 << w) >= n:
            return w
    raise ValueError(f"domain size {n} exceeds the largest supported field")


def point_lsb_vectors(field: GF2Field, n: int, k: int) -> np.ndarray:
    """(n, k) table of lsb_vector(x_i^j) for points x_1..x_n.

    Index i is encoded as the field element with value i-1, so a field of
    order >= n supplies n distinct evaluation points.
    """
    if field.order < n:
        raise ValueError(f"field of order {field.order} has fewer than {n} points")
    out = np.zeros((n, k), dtype=np.uint64)
    for i in range(n):
        x = i
        pw = 1
        for j in range(k):
            out[i, j] = field.lsb_vector(pw)
            pw = field.mul(pw, x)
    return out


def signs_from_coefficients(vectors: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Signs of polynomial evaluations for a batch of coefficient rows.

    vectors: (n, k) uint64 from point_lsb_vectors; coeffs: (batch, k) uint64.
    Returns (batch, n) int8 with entries +-1; entry is +1 iff the evaluated
    field element has low bit 0.
    """
    par = np.bitwise_count(coeffs[:, None, :] & vectors[None, :, :])
    bits = par.sum(axis=2, dtype=np.uint64) & np.uint64(1)
    return (1 - 2 * bits.astype(np.int8)).astype(np.int8)


def all_polynomial_signs(width: int, n: int, k: int) -> np.ndarray:
    """Sign matrix of every degree-(k-1) polynomial over GF(2^width).

    Row r holds the signs at points 1..n of the polynomial whose
    coefficients are the base-q digits of r (least significant digit is the
    constant term).  Shape (q^k, n), entries +-1.
    """
    field = GF2Field(width)
    q = field.order
    if q ** k > 1 << 22:
        raise ValueError("enumeration too large; reduce width or k")
    if q < n:
        raise ValueError(f"field of order {q} has fewer than {n} points")
    tab = field.mul_table()
    idx = np.arange(q ** k, dtype=np.int64)
    digits = [(idx // q ** j) % q for j in range(k)]
    signs = np.empty((q ** k, n), dtype=np.int8)
    for i in range(n):
        x = i
        val = np.zeros(q ** k, dtype=np.int64)
        for j in range(k - 1, -1, -1):
            val = tab[val, x] ^ digits[j]
        signs[:, i] = 1 - 2 * (val & 1)
    return signs
