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


def _power_lsb_vectors(field: GF2Field, count: int) -> list[int]:
    """lsb_vector(a^m) for m < count, a the generator (the element 2):
    bit b of it is the low bit of a^(m + b), so all of them are windows of
    one run of low bits, count + width - 1 products by a long."""
    low, y = 0, 1
    for m in range(count + field.width - 1):
        low |= (y & 1) << m
        y = field.xtime(y)
    return [low >> m & field.mask for m in range(count)]


@lru_cache(maxsize=None)
def _lsb_byte_tables(width: int) -> np.ndarray:
    """(ceil(width/8), 256) uint64: entry [t, u] is lsb_vector(u << 8t).

    lsb_vector is linear over GF(2), so lsb_vector(y) is the XOR of one
    entry per byte of y.
    """
    field = GF2Field(width)
    basis = _power_lsb_vectors(field, width) + [0] * (-width % 8)
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
    """Powers 1..k-1 split into those with at most two set bits, whose low
    bit is a quadratic form in the bits of the point, and the rest (j = 7
    at k = 8, none below)."""
    powers = range(1, k)
    return ([j for j in powers if j.bit_count() <= 2],
            [j for j in powers if j.bit_count() > 2])


# The 15 products r_b r_b' (b < b') of the 6 low bits of a point, in this
# order, are bits 7..21 of a row's first form word.
_LOW_PAIRS = np.array([(b, c) for b in range(6) for c in range(b + 1, 6)])


def _form_masks(field: GF2Field, bits: int, j: int) -> np.ndarray:
    """(1 + max(0, bits - 6), 64) uint64: entry [word, bit] is the mask m
    for which bit `bit` of form word `word` that power j adds is
    parity(c_j & m); see parity_tables for the layout.

    Write x = sum_b x_b a^b over the point's bits, a the field generator.
    For j = 2^e + 2^e' (e' = e for a power of two), x^j = x^(2^e) x^(2^e')
    and y -> y^(2^e) is linear (Frobenius), so x^j is the sum over b, b' of
    x_b x_b' a^(b 2^e + b' 2^e').  Its low bit is quadratic in the x_b:
    the linear term of x_b has mask lsb_vector(a^(b j)), and for e < e'
    the product x_b x_b' (b < b') has mask lsb_vector(a^(b 2^e + b' 2^e'))
    XOR lsb_vector(a^(b' 2^e + b 2^e')).
    """
    e, e2 = (j & -j).bit_length() - 1, j.bit_length() - 1
    span = max(bits, 6)
    b = np.arange(span)
    # every exponent below is at most (span - 1) j
    lsb = np.array(_power_lsb_vectors(field, (span - 1) * j + 1), dtype=np.uint64)
    live = b < bits
    linear = np.where(live, lsb[b * j], 0)
    quad = np.zeros((span, span), dtype=np.uint64)
    if e < e2:
        cross = lsb[(b[:, None] << e) + (b[None, :] << e2)]
        quad = np.triu(cross ^ cross.T, 1) * (live[:, None] & live[None, :])
    high = span - 6
    masks = np.zeros((1 + high, 64), dtype=np.uint64)
    masks[0, :6] = linear[:6]
    masks[0, 7:22] = quad[_LOW_PAIRS[:, 0], _LOW_PAIRS[:, 1]]
    for h in range(high):
        masks[1 + h, :6] = quad[:6, 6 + h]
        masks[1 + h, 6] = linear[6 + h]
        masks[1 + h, 8 + h:7 + high] = quad[6 + h, 7 + h:]
    return masks


@lru_cache(maxsize=None)
def _form_layout(high: int) -> tuple[tuple[int, int], ...]:
    """(word, shift) of each field of a row's form: the low field (22
    bits), then one field of 7 + high bits per high bit, packed into words
    of 63 bits so that no field straddles two words and every word is a
    nonnegative intp."""
    places, word, used = [(0, 0)], 0, 22
    for _ in range(high):
        if used + 7 + high > 63:
            word, used = word + 1, 0
        places.append((word, used))
        used += 7 + high
    return tuple(places)


class ParityTables(NamedTuple):
    """Lookup tables for signs_from_tables at n points; see parity_tables."""

    n: int
    forms: np.ndarray    # (powers of <= 2 bits, ceil(width/8), 256, form words) intp
    nibbles: np.ndarray  # (other powers, ceil(width/4), 16, ceil(n/64)) uint64


def parity_tables(width: int, n: int, k: int) -> ParityTables:
    """Lookup tables for signs_from_tables: degree-(k-1) polynomials over
    GF(2^width) at the points x = 0..n-1.

    The low bit of c_j x^j is parity(c_j & lsb_vector(x^j)), linear over
    GF(2) in the bits of c_j.  So each power adds to the row's bits:

    - Powers with at most two set bits (every power at k <= 7), and c_0.
      Their low bits together are a quadratic form in the bits x_b of the
      point, f(x) = a XOR sum_b l_b x_b XOR sum_{b<b'} q_bb' x_b x_b', with
      a = c_0 & 1 and each l_b and q_bb' a parity of the coefficients
      against a fixed mask (_form_masks).  signs_from_tables evaluates it
      word by word, x = 64 w + r, and needs of each row only these
      coefficients, in 1 + high fields (high = bit_length(n-1) - 6, at
      least 0) placed by _form_layout.  The low field holds l_b of the 6
      low bits (bits 0..5) and their 15 products (bits 7..21).  Field
      1 + h holds what high bit h adds to the word index: q_b,6+h for b < 6
      (bits 0..5), l_6+h (bit 6) and q_6+h,6+h'' for h'' > h (bit 7 + h'').
      Every coefficient is linear in the c_j, so forms[p, t, u] is what
      byte t of the p-th such coefficient adds to the form words when that
      byte equals u.
    - Other powers (k >= 8).  nibbles[p, t], row u holds the contribution
      of nibble t of the p-th such coefficient when that nibble equals u,
      bit-packed across the points: bit i % 64 of word i // 64, from the
      point table of point_lsb_vectors.  They take 128 * ceil(width/4) *
      ceil(n/64) bytes per such power.
    """
    field = GF2Field(width)
    if field.order < n:
        raise ValueError(f"field of order {field.order} has fewer than {n} points")
    quadratic, others = _power_split(k)
    bits = (n - 1).bit_length()
    layout = _form_layout(max(0, bits - 6))
    width_bytes = -(-width // 8)
    at = np.arange(64, dtype=np.uint64)
    forms = np.empty((len(quadratic), width_bytes, 256, layout[-1][0] + 1),
                     dtype=np.intp)
    for p, j in enumerate(quadratic):
        masks = np.zeros((layout[-1][0] + 1, 64), dtype=np.uint64)
        for (word, shift), field_masks in zip(layout, _form_masks(field, bits, j)):
            masks[word, shift:] |= field_masks[:64 - shift]
        # bit e of c_j flips form bit `bit` of a word when bit e of its mask is set
        flips = (masks[:, :, None] >> at) & _ONE
        adds = (flips << at[:, None]).sum(axis=1)[:, :8 * width_bytes]
        spans = _byte_span(adds.reshape(len(masks), width_bytes, 8))
        forms[p] = spans.transpose(1, 2, 0)
    nibbles = -(-width // 4)
    nbytes = -(-n // 8)
    packed = np.zeros((len(others), nibbles, 16, 8 * -(-n // 64)), dtype=np.uint8)
    if others:
        vectors = point_lsb_vectors(field, n, k)
        # the (16, n) bit rows are built in uint8: a nibble fits, and the
        # temporaries take n bytes per row, not 8n
        values = np.arange(16, dtype=np.uint8)[:, None]
        for p, j in enumerate(others):
            for t in range(nibbles):
                nibble = ((vectors[:, j] >> np.uint64(4 * t))
                          & np.uint64(15)).astype(np.uint8)
                parity = np.bitwise_count(values & nibble) & 1
                packed[p, t, :, :nbytes] = np.packbits(parity, axis=1,
                                                       bitorder="little")
    return ParityTables(n, forms, packed.view("<u8"))


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


@lru_cache(maxsize=None)
def _pair_words() -> np.ndarray:
    """(2, 256) words: entry [t, u] packs into bit r, for r < 64, the XOR of
    r_b r_b' over the pairs _LOW_PAIRS[8t + i] with bit i of u set."""
    r = np.arange(64)
    bits = (r >> _LOW_PAIRS[:, :1]) & (r >> _LOW_PAIRS[:, 1:]) & 1
    words = np.zeros(16, dtype="<u8")
    words[:15] = np.packbits(bits.astype(np.uint8), axis=1,
                             bitorder="little").view("<u8")[:, 0]
    table = _byte_span(words.reshape(2, 8))
    table.flags.writeable = False
    return table


def signs_from_tables(tables: ParityTables, coeffs: np.ndarray) -> np.ndarray:
    """Sign rows of polynomial evaluations for a batch of coefficient rows,
    bit-packed.

    tables from parity_tables; coeffs: (batch, k) uint64.  Returns
    (batch, ceil(n/8)) uint8: bit i % 8 of byte i // 8 is set where the
    evaluation at point i has low bit 1, the sign -1 (np.packbits of the
    -1 entries, bitorder "little"); bits past n are 0.  Temporaries take
    O(batch * ceil(n/64)) words.
    """
    count, k = coeffs.shape
    quadratic, others = _power_split(k)
    n = tables.n
    words = -(-n // 64)
    coef_bytes = np.ascontiguousarray(coeffs, dtype="<u8").view(np.uint8).reshape(
        count, k, 8)
    # one contiguous index row per coefficient byte
    width_bytes = tables.forms.shape[1]
    by_byte = np.ascontiguousarray(coef_bytes[:, quadratic, :width_bytes].reshape(
        count, len(quadratic) * width_bytes).T)
    form = np.zeros((count, tables.forms.shape[-1]), dtype=np.intp)
    for table, byte in zip(tables.forms.reshape(-1, *tables.forms.shape[2:]),
                           by_byte):
        form ^= np.take(table, byte, axis=0)
    # For x = 64 w + r, word w of the row is bit r of _walsh_words()[l(w) |
    # c(w) << 6] XOR the products of r's bits: l(w) holds the linear terms
    # of r (its own, and its products with w's bits), c(w) the terms of w
    # alone.  From word w < 2^h to word w + 2^h, high bit h adds its field
    # of the form, and the products of bit h with w's lower bits add the
    # bit 7 + h that the earlier high bits have summed.  The index is
    # built one word per row, so each step is one contiguous block, in the
    # narrowest dtype that holds bit 6 + high.
    high = (words - 1).bit_length()
    dtype = np.min_scalar_type((1 << 7 + high) - 1)
    index = np.empty((words, count), dtype=dtype)
    np.bitwise_and(form[:, 0], 63, out=index[0], casting="unsafe")
    index[0] |= (coef_bytes[:, 0, 0] & 1) << 6
    for h, (word, shift) in enumerate(_form_layout(high)[1:]):
        done = 1 << h
        low = index[:min(done, words - done)]
        up = index[done:done + len(low)]
        np.right_shift(low, 7 + h, out=up)
        up &= 1
        up <<= 6
        up ^= low
        up ^= (form[:, word] >> shift).astype(dtype)
    rows = np.empty((count, words), dtype=np.uint8)
    np.bitwise_and(index.T, 127, out=rows, casting="unsafe")
    acc = _walsh_words()[rows]
    products = form[:, 0] >> 7 & 0x7FFF
    pair_words = _pair_words()
    acc ^= (pair_words[0][products & 255] ^ pair_words[1][products >> 8])[:, None]
    # One opaque item per table row: numpy gathers whole items faster than
    # it gathers rows of a 2-d uint64 array.
    items = tables.nibbles.view(np.dtype((np.void, 8 * words)))[..., 0]
    for j, per_nibble in zip(others, items):
        for t, table in enumerate(per_nibble):
            nibble = (coef_bytes[:, j, t // 2] >> 4 * (t % 2)) & 15
            acc ^= table[nibble].view(np.uint64).reshape(count, words)
    if n % 64:
        acc[:, -1] &= np.uint64((1 << n % 64) - 1)
    return np.ascontiguousarray(acc.view(np.uint8)[:, :-(-n // 8)])


def pack_signs(batch) -> np.ndarray:
    """(rows, n) +-1 rows as signs_from_tables packs them: bit i % 8 of
    byte i // 8 set where entry i is negative."""
    return np.packbits(np.asarray(batch) < 0, axis=1, bitorder="little")


def unpack_signs(packed: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) int8 +-1 rows from packed ones: -1 where the bit is set."""
    signs = np.unpackbits(packed, axis=1, count=n, bitorder="little").view(np.int8)
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
    tables = parity_tables(width, n, k)
    shifts = np.arange(0, width * k, width, dtype=np.uint64)
    signs = np.empty((q ** k, n), dtype=np.int8)
    step = max(1, (1 << 20) // n)
    for lo in range(0, q ** k, step):
        rows = np.arange(lo, min(lo + step, q ** k), dtype=np.uint64)[:, None]
        signs[lo:lo + step] = unpack_signs(signs_from_tables(
            tables, (rows >> shifts) & np.uint64(q - 1)), n)
    return signs
