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
import functools
import importlib.machinery
import importlib.util
import os
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


@functools.cache
def _flapack():
    """scipy's compiled LAPACK wrapper, the module cho_factor and cho_solve
    call into, loaded from its file alone: importing the scipy.linalg
    package would load about 300 modules and cost 0.2 s and 20 MB on a
    2-core VM, for two calls."""
    scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(d, "linalg") for d in scipy_dirs])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cholesky(n: int) -> np.ndarray:
    """Lower Cholesky factor of A, computed in place in dense_matrix(n)'s
    array by LAPACK dpotrf, as cho_factor(lower=True) computes it; the
    strict upper triangle keeps A's entries."""
    factor, info = _flapack().dpotrf(dense_matrix(n), lower=1, clean=0,
                                     overwrite_a=1)
    if info:
        raise RuntimeError(f"certificate matrix of order {n} is not positive "
                           f"definite: dpotrf info {info}")
    return factor


def prefix_quadratic_minima(n: int) -> np.ndarray:
    """min x^T A x over x with prefix sum x_1+...+x_i = 1, for every i.

    The minimum subject to <v, x> = 1 equals 1 / (v^T A^{-1} v); one
    factorization serves all n prefix indicators, solved tile_rows(n) at a
    time by LAPACK dpotrs (as cho_solve does) so the factor is the only
    n x n array.  v^i . A^{-1} v^i adds rows 1..i of its solved column in
    increasing order, as the one-shot (v * A^{-1} v).sum(axis=0) does, so
    the bits match it.
    """
    factor = _cholesky(n)
    dpotrs = _flapack().dpotrs
    width = min(tile_rows(n), n)              # both powers of two
    rows = np.arange(n)[:, None]
    tile = np.empty((n, width), order="F")
    quad = np.empty(n)
    for lo in range(0, n, width):
        hi = lo + width
        tile[:] = rows < np.arange(lo + 1, hi + 1)   # column c is v^(lo+c+1)
        solved, info = dpotrs(factor, tile, lower=1, overwrite_b=1)
        if info:  # pragma: no cover - only a malformed argument sets it
            raise RuntimeError(f"dpotrs info {info} at order {n}")
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
