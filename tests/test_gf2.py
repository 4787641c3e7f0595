import numpy as np
import pytest

from kwalks.gf2 import (GF2Field, all_polynomial_signs, min_width,
                        parity_tables, point_lsb_vectors, signs_from_tables)


def scalar_point_lsb_vectors(field, n, k):
    """Point table from the scalar field arithmetic, one point at a time."""
    out = np.zeros((n, k), dtype=np.uint64)
    for x in range(n):
        pw = 1
        for j in range(k):
            out[x, j] = field.lsb_vector(pw)
            pw = field.mul(pw, x)
    return out


def test_field_axioms_exhaustive_gf16():
    field = GF2Field(4)
    elems = range(16)
    for a in elems:
        assert field.mul(a, 1) == a
        assert field.mul(a, 0) == 0
        for b in elems:
            assert field.mul(a, b) == field.mul(b, a)
    # associativity on a sample
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b, c = rng.integers(0, 16, size=3)
        assert field.mul(int(a), field.mul(int(b), int(c))) == \
            field.mul(field.mul(int(a), int(b)), int(c))


def test_every_nonzero_element_invertible():
    # irreducibility check in disguise: no zero divisors
    for width in (2, 4, 8):
        field = GF2Field(width)
        for a in range(1, field.order):
            assert any(field.mul(a, b) == 1 for b in range(1, field.order))


def test_lsb_vector_identity_small_field_exhaustive():
    field = GF2Field(4)
    for y in range(16):
        v = field.lsb_vector(y)
        for c in range(16):
            parity = bin(c & v).count("1") & 1
            assert parity == field.mul(c, y) & 1


def test_lsb_vector_identity_wide_field_random():
    field = GF2Field(64)
    rng = np.random.default_rng(2)
    for _ in range(200):
        y = int(rng.integers(0, 1 << 63)) | int(rng.integers(0, 2)) << 63
        c = int(rng.integers(0, 1 << 63))
        v = field.lsb_vector(y)
        assert (bin(c & v).count("1") & 1) == field.mul(c, y) & 1


@pytest.mark.parametrize("width, n", [(2, 4), (4, 16), (8, 256), (16, 256),
                                      (64, 300)])
def test_point_lsb_vectors_match_scalar_oracle(width, n):
    field = GF2Field(width)
    table = point_lsb_vectors(field, n, 4)
    assert table.dtype == np.uint64 and table.shape == (n, 4)
    assert (table == scalar_point_lsb_vectors(field, n, 4)).all()


def test_point_lsb_vectors_rejects_small_field():
    with pytest.raises(ValueError):
        point_lsb_vectors(GF2Field(2), 5, 2)


def test_signs_from_tables_matches_direct_evaluation():
    field = GF2Field(4)
    n, k = 16, 4
    tables = parity_tables(point_lsb_vectors(field, n, k), field.width)
    rng = np.random.default_rng(3)
    coeffs = rng.integers(0, 16, size=(50, k)).astype(np.uint64)
    fast = signs_from_tables(tables, coeffs, n)
    for row, cs in enumerate(coeffs):
        for i in range(n):
            val = 0
            for j in range(k - 1, -1, -1):
                val = field.mul(val, i) ^ int(cs[j])
            assert fast[row, i] == (1 if val % 2 == 0 else -1)


def horner_signs(field, n, k):
    """Signs of every degree-(k-1) polynomial at points 0..n-1, row r
    holding the base-q digits of r as coefficients (constant term first),
    by Horner's rule on scalar field products."""
    q = field.order
    digits = [(np.arange(q ** k) // q ** j) % q for j in range(k)]
    signs = np.empty((q ** k, n), dtype=np.int8)
    for x in range(n):
        times_x = np.array([field.mul(a, x) for a in range(q)])
        val = np.zeros(q ** k, dtype=np.int64)
        for j in range(k - 1, -1, -1):
            val = times_x[val] ^ digits[j]
        signs[:, x] = 1 - 2 * (val & 1)
    return signs


def test_signs_from_tables_every_polynomial_over_gf16():
    n, k = 16, 4
    tables = parity_tables(point_lsb_vectors(GF2Field(4), n, k), 4)
    idx = np.arange(16 ** k, dtype=np.uint64)
    coeffs = np.stack([(idx >> np.uint64(4 * j)) & np.uint64(15)
                       for j in range(k)], axis=1)
    signs = signs_from_tables(tables, coeffs, n)
    assert signs.dtype == np.int8
    assert (signs == horner_signs(GF2Field(4), n, k)).all()


@pytest.mark.parametrize("width,n,k", [(2, 4, 2), (4, 16, 4), (4, 16, 2),
                                       (8, 200, 2), (4, 5, 3), (2, 3, 3)])
def test_all_polynomial_signs_match_horner(width, n, k):
    signs = all_polynomial_signs(width, n, k)
    assert signs.dtype == np.int8
    assert (signs == horner_signs(GF2Field(width), n, k)).all()


def test_all_polynomial_signs_rejects_large_enumerations():
    with pytest.raises(ValueError, match="enumeration too large"):
        all_polynomial_signs(8, 16, 3)
    with pytest.raises(ValueError, match="fewer than 17 points"):
        all_polynomial_signs(4, 17, 2)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
def test_signs_from_tables_wide_field_matches_parities(n):
    field = GF2Field(64)
    k = 3
    vectors = point_lsb_vectors(field, n, k)
    tables = parity_tables(vectors, 64)
    # k = 3: powers 1 and 2 are linear, so no nibble tables
    assert tables.walsh.shape == (2, 8, 256)
    assert tables.nibbles.shape == (0, 16, 16, -(-n // 64))
    assert tables.nibbles.dtype == np.uint64
    rng = np.random.default_rng(4)
    coeffs = rng.integers(0, 1 << 64, size=(40, k), dtype=np.uint64)
    par = np.bitwise_count(coeffs[:, None, :] & vectors[None, :, :])
    expected = 1 - 2 * (par.sum(axis=2) & 1).astype(np.int8)
    assert (signs_from_tables(tables, coeffs, n) == expected).all()
    assert signs_from_tables(tables, coeffs[:0], n).shape == (0, n)


def oracle_points(n):
    """Evaluation points to check against the scalar oracle: every point
    when n is small; otherwise the first two words, the last 70 points
    (a partial last word when 64 does not divide n), the powers of two and
    their neighbours, and a seeded sample."""
    if n <= 300:
        return list(range(n))
    near_powers = {(1 << b) + d for b in range(n.bit_length()) for d in (-1, 0, 1)}
    sample = np.random.default_rng(n).integers(0, n, 40).tolist()
    return sorted({x for x in (set(range(128)) | set(range(n - 70, n))
                               | near_powers | set(sample)) if 0 <= x < n})


def horner_lsb_signs(field, coeffs, points):
    """Sign of the low bit of sum_j c_j x^j at each point x, by Horner's
    rule on GF2Field.mul."""
    out = np.empty((len(coeffs), len(points)), dtype=np.int8)
    for r, row in enumerate(coeffs.tolist()):
        for col, x in enumerate(points):
            val = 0
            for c in reversed(row):
                val = field.mul(val, x) ^ c
            out[r, col] = 1 - 2 * (val & 1)
    return out


# k = 2, 3: every power is linear; k = 4, 5: power 3 has nibble tables;
# k = 6, 8: powers 3, 5 (and 6, 7) do.  n = 17 and 1000 are not powers of
# two, and 1000 ends in a partial word.
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8])
@pytest.mark.parametrize("width,n", [(8, 2), (8, 16), (8, 17), (8, 256),
                                     (64, 2), (64, 16), (64, 17), (64, 1000),
                                     (64, 4096)])
def test_walsh_split_matches_horner_oracle(width, n, k):
    field = GF2Field(width)
    tables = parity_tables(point_lsb_vectors(field, n, k), width)
    rng = np.random.default_rng(1000 * n + k)
    coeffs = rng.integers(0, field.order, size=(3, k), dtype=np.uint64)
    # rows with one nonzero coefficient, the top one all ones
    single = np.zeros((k, k), dtype=np.uint64)
    single[np.arange(k), np.arange(k)] = np.uint64(field.mask)
    coeffs = np.concatenate([coeffs, single])
    signs = signs_from_tables(tables, coeffs, n)
    assert signs.dtype == np.int8 and signs.shape == (len(coeffs), n)
    points = oracle_points(n)
    assert (signs[:, points] == horner_lsb_signs(field, coeffs, points)).all()
    empty = signs_from_tables(tables, coeffs[:0], n)
    assert empty.dtype == np.int8 and empty.shape == (0, n)


def test_all_polynomial_signs_shape_and_balance():
    signs = all_polynomial_signs(4, 16, 2)
    assert signs.shape == (256, 16)
    # each single coordinate is exactly balanced
    assert (signs.sum(axis=0) == 0).all()


def test_min_width():
    assert min_width(4) == 2
    assert min_width(5) == 4
    assert min_width(16) == 4
    assert min_width(17) == 8
    assert min_width(1 << 20) == 64
    with pytest.raises(ValueError):
        min_width(1 << 65)


def test_unsupported_width_rejected():
    with pytest.raises(ValueError):
        GF2Field(5)
