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
from functools import lru_cache
from typing import IO

import numpy as np

from .sign_families import ResourceLimitError

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
    keeps about four n x n float64 arrays alive, 32 n^2 bytes."""
    if n > DENSE_MATRIX_LIMIT:
        raise ResourceLimitError(
            f"the certificate matrix at n={n} needs about {32 * n * n / 2 ** 30:.3g} "
            f"GiB of n x n float64 arrays; the limit is {DENSE_MATRIX_LIMIT}")


def dense_matrix(n: int) -> np.ndarray:
    """Materialized A, for n up to DENSE_MATRIX_LIMIT."""
    lg = _lg(n)
    check_dense_size(n)
    idx = np.arange(n)
    xor = idx[:, None] ^ idx[None, :]
    bit_len = np.zeros(n, dtype=np.int64)
    for v in range(1, n):
        bit_len[v] = bit_len[v >> 1] + 1
    return lg - bit_len[xor]


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


@lru_cache(maxsize=2)
def _cholesky(n: int):
    # scipy is imported on first use: most runs never factor A, and
    # importing scipy.linalg costs about 0.25 s and 28 MB
    from scipy.linalg import cho_factor

    mat = dense_matrix(n).astype(np.float64)
    try:
        return cho_factor(mat, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - construction bug
        raise RuntimeError(f"certificate matrix of order {n} is not positive "
                           f"definite: {exc}") from exc


def prefix_quadratic_minima(n: int) -> np.ndarray:
    """min x^T A x over x with prefix sum x_1+...+x_i = 1, for every i.

    The minimum subject to <v, x> = 1 equals 1 / (v^T A^{-1} v); one
    factorization serves all n prefix indicator vectors.
    """
    from scipy.linalg import cho_solve

    factor = _cholesky(n)
    prefixes = np.triu(np.ones((n, n)))      # column i-1 is the indicator v^i
    solved = cho_solve(factor, prefixes)
    quad = (prefixes * solved).sum(axis=0)   # v^i . A^{-1} v^i
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
