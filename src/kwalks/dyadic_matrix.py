"""The dyadic certificate matrix and its quadratic-form machinery.

For n a power of two, A sums the all-ones blocks of every dyadic block
[2^r (s-1) + 1, 2^r s] for levels r = 0 .. lg n - 1.  Equivalently
A_ij = lg n - kappa(i, j) where kappa is the first level at which i and j
fall in the same dyadic block.  A is positive definite with trace n lg n,
and x^T A x dominates every squared prefix sum divided by lg n, which is
what makes it a certificate for second-moment bounds on pairwise
independent walks.
"""

from __future__ import annotations

import csv
from typing import IO

import numpy as np

from .sign_families import ResourceLimitError, tile_rows

# Largest n for which A is materialized.
DENSE_MATRIX_LIMIT = 4096


def _lg(n: int) -> int:
    if n < 4 or n & (n - 1):
        raise ValueError("order must be a power of 2, at least 4")
    return n.bit_length() - 1


def entry(n: int, i: int, j: int) -> int:
    """A_ij = lg n minus the first level where i and j share a block."""
    lg = _lg(n)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices must lie in 1..{n}")
    return lg - ((i - 1) ^ (j - 1)).bit_length()


def trace(n: int) -> int:
    """Tr(A) = n lg n (every diagonal entry is lg n)."""
    return n * _lg(n)


def check_dense_size(n: int) -> None:
    """Refuses n above DENSE_MATRIX_LIMIT: solving for the prefix minima
    keeps one n x n float64 array alive, 8 n^2 bytes."""
    if n > DENSE_MATRIX_LIMIT:
        raise ResourceLimitError(
            f"the certificate matrix at n={n} needs about {8 * n * n / 2 ** 30:.3g} "
            f"GiB for one n x n float64 array; the limit is {DENSE_MATRIX_LIMIT}")


def dense_matrix(n: int) -> np.ndarray:
    """Materialized A, float64 in Fortran order, for n up to
    DENSE_MATRIX_LIMIT; built column by column, with no other n x n array."""
    lg = _lg(n)
    check_dense_size(n)
    idx = np.arange(n)
    by_xor = np.array([lg - v.bit_length() for v in range(n)], dtype=float)
    mat = np.empty((n, n), order="F")
    for j in range(n):
        mat[:, j] = by_xor[idx ^ j]
    return mat


def quadratic_form_rows(n: int, rows: np.ndarray) -> np.ndarray:
    """Row-wise x^T A x for a (count, n) batch via level sums: sum over
    levels r < lg n of the squared dyadic block sums of x.  O(n lg n) per
    row and never materializes A."""
    lg = _lg(n)
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError(f"expected shape (count, {n})")
    total = (arr ** 2).sum(axis=1)
    sums = arr
    for _ in range(1, lg):
        sums = sums.reshape(len(arr), -1, 2).sum(axis=2)
        total += (sums ** 2).sum(axis=1)
    return total


def _cholesky(n: int):
    """cho_factor of A, computed in place in dense_matrix(n)'s array."""
    # scipy is imported on first use: most runs never factor A, and
    # importing scipy.linalg costs about 0.25 s and 28 MB
    from scipy.linalg import cho_factor

    try:
        return cho_factor(dense_matrix(n), lower=True, overwrite_a=True,
                          check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - construction bug
        raise RuntimeError(f"certificate matrix of order {n} is not positive "
                           f"definite: {exc}") from exc


def prefix_quadratic_minima(n: int) -> np.ndarray:
    """min x^T A x over x with prefix sum x_1+...+x_i = 1, for every i.

    The minimum subject to <v, x> = 1 equals 1 / (v^T A^{-1} v); one
    factorization serves all n prefix indicators, solved tile_rows(n) at a
    time so the factor is the only n x n array.  v^i . A^{-1} v^i adds rows
    1..i of its solved column in increasing order, as the one-shot
    (v * A^{-1} v).sum(axis=0) does, so the bits match it.
    """
    from scipy.linalg import cho_solve

    factor = _cholesky(n)
    width = min(tile_rows(n), n)              # both powers of two
    rows = np.arange(n)[:, None]
    tile = np.empty((n, width), order="F")
    quad = np.empty(n)
    for lo in range(0, n, width):
        hi = lo + width
        tile[:] = rows < np.arange(lo + 1, hi + 1)   # column c is v^(lo+c+1)
        solved = cho_solve(factor, tile, overwrite_b=True, check_finite=False)
        np.cumsum(solved[:hi], axis=0, out=solved[:hi])
        quad[lo:hi] = solved[lo:hi].diagonal()
    return 1.0 / quad


def corollary_ratio(n: int, minima: np.ndarray) -> float:
    """Tr(A) times the largest v^i A^{-1} v^i over prefix indicators, given
    minima = prefix_quadratic_minima(n)."""
    return trace(n) * float((1.0 / minima).max())


def dump_csv(n: int, out: IO[str]) -> None:
    """Dense A as CSV rows, for inspection; capped at n = 64."""
    if n > 64:
        raise ValueError("dump is limited to n <= 64")
    writer = csv.writer(out, lineterminator="\n")
    for row in dense_matrix(n):
        writer.writerow([int(v) for v in row])
