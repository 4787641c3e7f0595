"""Prefix-sum excursion statistics and scaling experiments.

The central statistic is sup_t |h_1 + ... + h_t| over a sampled sign
vector.  Scaling runs estimate moments of this supremum across domain
sizes and fit the normalized means against lg n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .parallel import ColumnMoments, MomentJob, mc_moments
from .gf2 import pack_signs
from .rng import mix64
from .sign_families import FamilySpec, _is_power_of_four


@lru_cache(maxsize=1)
def _word_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per packed 16-step word (step i in bit i, set for -1, as
    gf2.pack_signs lays them out): its total T, and its largest and
    smallest prefix sum minus T, as int8.

    Composed from the same three values of each byte: a word is its low
    byte's steps followed by its high byte's.
    """
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                         bitorder="little")
    sums = np.cumsum(1 - 2 * bits.astype(np.int8), axis=1, dtype=np.int8)
    tot, top, bottom = sums[:, -1], sums.max(axis=1), sums.min(axis=1)
    # axis 0 is the high byte, axis 1 the low byte, so u = hi << 8 | lo
    low_tot = tot[None, :]
    total = (low_tot + tot[:, None]).ravel()
    up = np.maximum(top[None, :], low_tot + top[:, None]).ravel() - total
    down = np.minimum(bottom[None, :], low_tot + bottom[:, None]).ravel() - total
    for table in (total, up, down):
        table.flags.writeable = False       # shared by every caller
    return total, up, down


def _all_signs(arr: np.ndarray) -> bool:
    """Whether every entry is +1 or -1: three cheap reductions for integer
    dtypes, an exact comparison for any other."""
    if arr.size == 0:
        return True
    if arr.dtype.kind not in "iu":
        return bool(((arr == 1) | (arr == -1)).all())
    return bool(arr.max() <= 1 and arr.min() >= -1
                and np.count_nonzero(arr) == arr.size)


def sup_abs_prefix_packed(bits: np.ndarray, n: int) -> np.ndarray:
    """Row-wise largest |S_i| over 1 <= i <= n for a batch of packed sign
    rows, (rows, ceil(n/8)) uint8 as gf2.pack_signs makes them; at least 1
    for n >= 1.  The result is int64.

    Each row is read as little-endian 16-step words.  Three 65536-entry
    tables give each word's total and its largest and smallest prefix sum
    relative to that total; the cumulative word totals place every word,
    so adding them to the table values gives each word's largest and
    smallest S_i exactly, and the supremum is max(max S, -min S).  The
    last n % 16 steps take a plain cumsum from the last word's end.  Every
    value held is some S_i, so |value| <= n: the offsets are int16 below
    n = 2^15 and int32 from there.
    """
    rows = len(bits)
    whole = n // 16
    words = np.ascontiguousarray(bits[:, :2 * whole]).view("<u2")
    total, top, bottom = _word_tables()
    ends = np.cumsum(np.take(total, words), axis=1,
                     dtype=np.int16 if n < 1 << 15 else np.int32)
    hi = (ends + np.take(top, words)).max(axis=1, initial=-n)
    lo = (ends + np.take(bottom, words)).min(axis=1, initial=n)
    if 16 * whole < n:
        tail = np.unpackbits(bits[:, 2 * whole:], axis=1, count=n - 16 * whole,
                             bitorder="little").view(np.int8)
        tail = np.cumsum(1 - 2 * tail, axis=1, dtype=ends.dtype)
        if whole:
            tail += ends[:, -1:]
        hi = np.maximum(hi, tail.max(axis=1))
        lo = np.minimum(lo, tail.min(axis=1))
    return np.maximum(hi, -lo).astype(np.int64).reshape(rows)


def sup_abs_prefix_batch(batch: np.ndarray) -> np.ndarray:
    """sup_abs_prefix_packed of a (rows, n) batch of sign vectors, n >= 1,
    packed by gf2.pack_signs.  Raises ValueError unless every entry is +1
    or -1."""
    x = np.asarray(batch)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("expected a (rows, n) batch with n >= 1")
    if not _all_signs(x):
        raise ValueError("sign rows must hold only +1 and -1")
    return sup_abs_prefix_packed(pack_signs(x), x.shape[1])


def sup_moment_rows(packed: np.ndarray, n: int, moment_order: int) -> np.ndarray:
    """Row-wise (sup_t |S_t|)^moment_order of packed sign rows over n
    points, as float64."""
    return sup_abs_prefix_packed(packed, n).astype(np.float64) ** moment_order


def sup_moment_job(spec: FamilySpec, moment_order: int, trials: int,
                   seed: int) -> MomentJob:
    """The mc_moments job behind estimate_sup_moment and scaling_table."""
    if moment_order < 1:
        raise ValueError("moment order must be positive")
    return MomentJob(sup_moment_rows, (spec.n, moment_order), spec, trials, seed)


def estimate_sup_moment(spec: FamilySpec, moment_order: int, trials: int,
                        seed: int, workers: int = 1) -> ColumnMoments:
    """Sample mean and standard error of (sup_t |S_t|)^moment_order, the
    one column of a batch of one."""
    job = sup_moment_job(spec, moment_order, trials, seed)
    return mc_moments([job], workers)[0]


def scaling_table(spec_template: FamilySpec, n_values: Sequence[int],
                  moment_order: int, trials: int, seed: int,
                  workers: int = 1) -> list[ColumnMoments]:
    """estimate_sup_moment for each n, with per-row derived seeds, as one
    mc_moments batch, once every n has passed the rule: strictly
    increasing powers of 4."""
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n values must be strictly increasing")
    for n in n_values:
        if not _is_power_of_four(n):
            raise ValueError(f"n={n} is not a power of 4")
    jobs = [sup_moment_job(spec_template.with_n(n), moment_order, trials,
                           mix64(seed, idx))
            for idx, n in enumerate(n_values)]
    return mc_moments(jobs, workers)


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit of normalized sup moments against lg n.

    y = mean / n^(order/2) per row; slope_stderr is the classic
    residual-based OLS standard error, slope_stderr_propagated carries the
    per-row Monte Carlo errors through the fit instead.
    """

    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float
    slope_stderr_propagated: float


def fit_log_growth(n_values: Sequence[int], means: Sequence[float],
                   stderrs: Sequence[float], order: int) -> GrowthFit:
    """Fit each n's mean and standard error of (sup_t |S_t|)^order, given
    as plain numbers, against lg n."""
    if len(n_values) < 3:
        raise ValueError("need at least 3 rows to fit")
    x = np.array([np.log2(n) for n in n_values])
    y = np.array([m / n ** (order / 2) for n, m in zip(n_values, means)])
    y_err = np.array([e / n ** (order / 2) for n, e in zip(n_values, stderrs)])

    xc = x - x.mean()
    sxx = float((xc ** 2).sum())
    slope = float((xc * y).sum() / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0 and ss_res == 0 else 1.0 - ss_res / ss_tot
    dof = len(x) - 2
    slope_stderr = (ss_res / dof / sxx) ** 0.5 if dof > 0 else 0.0
    slope_stderr_prop = float(np.sqrt(((xc * y_err) ** 2).sum()) / sxx)
    return GrowthFit(slope=slope, intercept=intercept, r_squared=r_squared,
                     slope_stderr=slope_stderr,
                     slope_stderr_propagated=slope_stderr_prop)
