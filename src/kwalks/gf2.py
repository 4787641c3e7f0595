"""Binary field arithmetic for polynomial sign families.

Elements of GF(2^w) are plain ints holding bit polynomials; products are
carry-less multiplications reduced by a fixed published irreducible
polynomial per width.  Exactness matters here: any k distinct evaluation
points of a random degree-(k-1) polynomial are jointly uniform, which is
what makes the derived sign families exactly k-wise independent.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

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


def _mul_array(field: GF2Field, a: np.ndarray, b: np.ndarray,
               rounds: int) -> np.ndarray:
    """GF2Field.mul elementwise for multipliers b below 2^rounds: one
    round of shift-and-XOR per bit of b."""
    acc = np.zeros_like(a)
    for bit in range(rounds):
        acc ^= a * ((b >> np.uint64(bit)) & _ONE)
        a = _xtime_array(field, a)
    return acc


def _byte_span(basis: np.ndarray) -> np.ndarray:
    """(..., 256) tables from (..., 8) basis values: entry u is the XOR of
    basis[e] over the set bits e of u, filled by doubling."""
    out = np.zeros(basis.shape[:-1] + (256,), dtype=basis.dtype)
    for bit in range(8):
        out[..., 1 << bit:2 << bit] = out[..., :1 << bit] ^ basis[..., bit, None]
    return out


@lru_cache(maxsize=None)
def _lsb_byte_tables(width: int) -> np.ndarray:
    """(ceil(width/8), 256) uint64: entry [t, u] is lsb_vector(u << 8t).

    lsb_vector is linear over GF(2), so lsb_vector(y) is the XOR of one
    entry per byte of y.
    """
    field = GF2Field(width)
    basis = [field.lsb_vector(1 << e) if e < width else 0
             for e in range(8 * -(-width // 8))]
    tables = _byte_span(np.array(basis, dtype=np.uint64).reshape(-1, 8))
    tables.flags.writeable = False
    return tables


def _lsb_vector_array(field: GF2Field, y: np.ndarray) -> np.ndarray:
    """GF2Field.lsb_vector on every element of a uint64 array."""
    v = np.zeros_like(y)
    for t, table in enumerate(_lsb_byte_tables(field.width)):
        v ^= table[((y >> np.uint64(8 * t)) & np.uint64(255)).astype(np.intp)]
    return v


def point_lsb_vectors(field: GF2Field, n: int, k: int) -> np.ndarray:
    """(n, k) table of lsb_vector(x_i^j) for points x_1..x_n.

    Index i is encoded as the field element with value i-1, so a field of
    order >= n supplies n distinct evaluation points.  All n points are
    computed at once with array arithmetic; a point has at most
    bit_length(n-1) bits, so each product by the points takes that many
    rounds.
    """
    if field.order < n:
        raise ValueError(f"field of order {field.order} has fewer than {n} points")
    x = np.arange(n, dtype=np.uint64)
    pw = np.ones(n, dtype=np.uint64)
    out = np.empty((n, k), dtype=np.uint64)
    for j in range(k):
        out[:, j] = _lsb_vector_array(field, pw)
        if j + 1 < k:
            pw = _mul_array(field, pw, x, (n - 1).bit_length())
    return out


def _power_split(k: int) -> tuple[list[int], list[int]]:
    """Powers 1..k-1 split into powers of two, on which y -> y^j is linear
    over GF(2) (Frobenius), and the rest."""
    powers = range(1, k)
    return ([j for j in powers if j & (j - 1) == 0],
            [j for j in powers if j & (j - 1)])


class ParityTables(NamedTuple):
    """Lookup tables for signs_from_tables at n points; see parity_tables."""

    walsh: np.ndarray    # (linear powers, ceil(width/8), 256) intp
    nibbles: np.ndarray  # (other powers, ceil(width/4), 16, ceil(n/64)) uint64


def parity_tables(vectors: np.ndarray, width: int) -> ParityTables:
    """Lookup tables for signs_from_tables.

    vectors: (n, k) uint64 from point_lsb_vectors over GF(2^width).  The
    low bit of the evaluation at point x = i-1 is parity(sum_j c_j & v_ij),
    which is linear over GF(2) in the bits of the coefficients.  It splits
    in two parts:

    - Linear powers.  c_0 adds its low bit, since lsb_vector(1) = 1.  For
      j a power of two, y -> y^j and lsb_vector are both linear, so c_j
      adds the XOR over the bits x_b of x of x_b * parity(c_j & v[2^b, j]),
      where row 2^b is the point x = 2^b.  A coefficient row's linear
      terms together are (c_0 & 1) XOR parity(alpha & x), a Walsh function
      of x, where bit b of alpha is the XOR over these j of
      parity(c_j & v[2^b, j]).  alpha is linear in each c_j, so
      walsh[p, t, u] is the part of alpha that byte t of the p-th such
      coefficient adds when that byte equals u.
    - Other powers (j = 3 at k = 4, none at k <= 3).  nibbles[p, t], row
      u holds the contribution of nibble t of the p-th such coefficient
      when that nibble equals u, bit-packed across the points: bit i % 64
      of word i // 64.  They take 128 * ceil(width/4) * ceil(n/64) bytes
      per such power: about 32 * (non-linear powers) * n bytes at width 64.
    """
    n, k = vectors.shape
    linear, others = _power_split(k)
    # bit e of the p-th linear coefficient adds bit b to alpha when bit e
    # of v[2^b, linear[p]] is set
    rows = vectors[1 << np.arange((n - 1).bit_length())][:, linear]
    width_bytes = -(-width // 8)
    row_bits = (rows[:, :, None] >> np.arange(8 * width_bytes, dtype=np.uint64)) & _ONE
    adds = (row_bits.astype(np.intp) << np.arange(len(rows))[:, None, None]).sum(axis=0)
    walsh = _byte_span(adds.reshape(len(linear), width_bytes, 8))
    nibbles = -(-width // 4)
    nbytes = -(-n // 8)
    # the (16, n) bit rows are built in uint8: a nibble fits, and the
    # temporaries take n bytes per row, not 8n
    values = np.arange(16, dtype=np.uint8)[:, None]
    packed = np.zeros((len(others), nibbles, 16, 8 * -(-n // 64)), dtype=np.uint8)
    for p, j in enumerate(others):
        for t in range(nibbles):
            nibble = ((vectors[:, j] >> np.uint64(4 * t))
                      & np.uint64(15)).astype(np.uint8)
            bits = np.bitwise_count(values & nibble) & 1
            packed[p, t, :, :nbytes] = np.packbits(bits, axis=1, bitorder="little")
    return ParityTables(walsh, packed.view("<u8"))


@lru_cache(maxsize=None)
def _walsh_words() -> np.ndarray:
    """Entry a | f << 6, for a < 64 and f in {0, 1}, packs
    parity(a & r) XOR f into bit r, for r < 64.  Built on first use, so
    importing the module does no array work."""
    a = np.arange(128)[:, None]
    bits = (np.bitwise_count(a & 63 & np.arange(64)) ^ (a >> 6)) & 1
    words = np.packbits(bits.astype(np.uint8), axis=1,
                        bitorder="little").view("<u8")[:, 0]
    words.flags.writeable = False
    return words


def signs_from_tables(tables: ParityTables, coeffs: np.ndarray,
                      n: int) -> np.ndarray:
    """Signs of polynomial evaluations for a batch of coefficient rows.

    tables from parity_tables for n points; coeffs: (batch, k) uint64.
    Returns (batch, n) int8 with entries +-1; entry is +1 iff the evaluated
    field element has low bit 0.  Temporaries take O(batch * ceil(n/64))
    words.
    """
    count, k = coeffs.shape
    linear, others = _power_split(k)
    words = -(-n // 64)
    coef_bytes = np.ascontiguousarray(coeffs, dtype="<u8").view(np.uint8).reshape(
        count, k, 8)
    alpha = np.zeros(count, dtype=np.intp)
    for j, per_byte in zip(linear, tables.walsh):
        for t, table in enumerate(per_byte):
            alpha ^= table[coef_bytes[:, j, t]]
    # x = 64 w + r, so parity(alpha & x) = parity(alpha & r) XOR
    # parity((alpha >> 6) & w), and the low bit of c_0 flips every word:
    # word w is an entry of _walsh_words()
    flip = np.bitwise_count((alpha >> 6)[:, None] & np.arange(words))
    flip ^= coef_bytes[:, :1, 0]
    acc = _walsh_words()[(alpha & 63)[:, None] | (flip & 1).astype(np.intp) << 6]
    # One opaque item per table row: numpy gathers whole items faster than
    # it gathers rows of a 2-d uint64 array.
    items = tables.nibbles.view(np.dtype((np.void, 8 * words)))[..., 0]
    for j, per_nibble in zip(others, items):
        for t, table in enumerate(per_nibble):
            nibble = (coef_bytes[:, j, t // 2] >> 4 * (t % 2)) & 15
            acc ^= table[nibble].view(np.uint64).reshape(count, words)
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
