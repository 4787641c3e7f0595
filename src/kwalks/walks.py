"""Prefix-sum excursion statistics and scaling experiments.

The central statistic is sup_t |h_1 + ... + h_t| over a sampled sign
vector.  Scaling runs estimate moments of this supremum across domain
sizes and fit the normalized means against lg n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .parallel import MomentJob, mc_moments
from .rng import mix64
from .sign_families import AdversarialParams, FamilySpec, _is_power_of_four


def prefix_sums(v: Sequence[int] | np.ndarray) -> np.ndarray:
    """Partial sums S_0 = 0, S_i = S_{i-1} + v_i, as int64."""
    arr = np.asarray(v, dtype=np.int64)
    out = np.zeros(len(arr) + 1, dtype=np.int64)
    np.cumsum(arr, out=out[1:])
    return out


@lru_cache(maxsize=1)
def _word_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per 16-step word (first step in the top bit, 1 for +1): its total
    T, and its largest and smallest prefix sum minus T, as int8.

    Composed from the same three values of each byte: a word is its high
    byte's steps followed by its low byte's.
    """
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    sums = np.cumsum(2 * bits.astype(np.int8) - 1, axis=1, dtype=np.int8)
    tot, top, bottom = sums[:, -1], sums.max(axis=1), sums.min(axis=1)
    hi_tot = tot[:, None]
    total = (hi_tot + tot).ravel()
    up = np.maximum(top[:, None], hi_tot + top).ravel() - total
    down = np.minimum(bottom[:, None], hi_tot + bottom).ravel() - total
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


def sup_abs_prefix_batch(batch: np.ndarray) -> np.ndarray:
    """Row-wise largest |S_i| over 1 <= i <= n for a (rows, n) batch of
    sign vectors; at least 1 for any sign row.  The result is int64.

    Each row's steps are packed 16 to a word (np.packbits of x > 0, viewed
    as big-endian uint16).  Three 65536-entry tables give each word's total
    and its largest and smallest prefix sum relative to that total; the
    cumulative word totals place every word, so adding them to the table
    values gives each word's largest and smallest S_i exactly, and the
    supremum is max(max S, -min S).  The last n % 16 steps take a plain
    cumsum from the last word's end.  Every value held is some S_i, so
    |value| <= n: the offsets are int16 below n = 2^15 and int32 from there.

    Raises ValueError unless every entry is +1 or -1.
    """
    x = np.asarray(batch)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("expected a (rows, n) batch with n >= 1")
    if not _all_signs(x):
        raise ValueError("sign rows must hold only +1 and -1")
    rows, n = x.shape
    whole = n - n % 16
    up = x > 0
    if whole == n:      # one flat pack, no per-row padding
        packed = np.packbits(up.ravel())
    else:
        packed = np.packbits(up[:, :whole], axis=1)
    words = packed.view(">u2").reshape(rows, whole // 16)
    total, top, bottom = _word_tables()
    ends = np.cumsum(np.take(total, words), axis=1,
                     dtype=np.int16 if n < 1 << 15 else np.int32)
    hi = (ends + np.take(top, words)).max(axis=1, initial=-n)
    lo = (ends + np.take(bottom, words)).min(axis=1, initial=n)
    if whole < n:
        tail = np.cumsum(np.where(up[:, whole:], 1, -1), axis=1)
        if whole:
            tail += ends[:, -1:]
        hi = np.maximum(hi, tail.max(axis=1))
        lo = np.minimum(lo, tail.min(axis=1))
    return np.maximum(hi, -lo).astype(np.int64)


@dataclass(frozen=True)
class SupEstimate:
    """Monte Carlo estimate of E[(sup_t |S_t|)^moment_order]."""

    moment_order: int
    mean: float
    stderr: float
    trials: int
    n: int

    def __post_init__(self):
        if self.mean < 0 or self.stderr < 0:
            raise ValueError("moment estimates are nonnegative")


def sup_moment_rows(batch: np.ndarray, moment_order: int) -> np.ndarray:
    """Row-wise (sup_t |S_t|)^moment_order, as float64."""
    return sup_abs_prefix_batch(batch).astype(np.float64) ** moment_order


def sup_moment_job(spec: FamilySpec, moment_order: int, trials: int,
                   seed: int) -> MomentJob:
    """The mc_moments job behind estimate_sup_moment."""
    if moment_order < 1:
        raise ValueError("moment order must be positive")
    return MomentJob(sup_moment_rows, (moment_order,), spec, trials, seed)


def sup_estimates(jobs: Sequence[MomentJob], workers: int = 1) -> list[SupEstimate]:
    """One SupEstimate per job of a batch of supremum-moment jobs, all run
    by one mc_moments call; each job's statistic takes its moment order as
    its last argument."""
    return [SupEstimate(moment_order=job.stat_args[-1], mean=est.mean[0],
                        stderr=est.stderr[0], trials=job.trials, n=job.spec.n)
            for job, est in zip(jobs, mc_moments(jobs, workers))]


def estimate_sup_moment(spec: FamilySpec, moment_order: int, trials: int,
                        seed: int, workers: int = 1) -> SupEstimate:
    """Sample mean and standard error of (sup_t |S_t|)^moment_order."""
    job = sup_moment_job(spec, moment_order, trials, seed)
    return sup_estimates([job], workers)[0]


def drift_check_h1(params: AdversarialParams, block_index: int) -> Fraction:
    """Exact E[S_{c * root}] for the biased stage: root times the partial
    sum of the block mean profile."""
    if not 1 <= block_index <= params.root:
        raise ValueError(f"block index must lie in 1..{params.root}")
    return params.root * sum(params.f[:block_index], Fraction(0))


@dataclass(frozen=True)
class ScalingTable:
    """Rows of (n, SupEstimate) with n strictly increasing powers of 4."""

    rows: tuple[tuple[int, SupEstimate], ...]

    def __post_init__(self):
        self.check_n_values([n for n, _ in self.rows])

    @staticmethod
    def check_n_values(ns: Sequence[int]) -> None:
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n values must be strictly increasing")
        for n in ns:
            if not _is_power_of_four(n):
                raise ValueError(f"n={n} is not a power of 4")


def scaling_table(spec_template: FamilySpec, n_values: Sequence[int],
                  moment_order: int, trials: int, seed: int,
                  workers: int = 1) -> ScalingTable:
    """estimate_sup_moment for each n, with per-row derived seeds, once
    every n has passed ScalingTable's rule; the rows are one batch."""
    ScalingTable.check_n_values(list(n_values))
    jobs = [sup_moment_job(spec_template.with_n(n), moment_order, trials,
                           mix64(seed, idx))
            for idx, n in enumerate(n_values)]
    return ScalingTable(rows=tuple(zip(n_values, sup_estimates(jobs, workers))))


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


def fit_log_growth(table: ScalingTable) -> GrowthFit:
    if len(table.rows) < 3:
        raise ValueError("need at least 3 rows to fit")
    order = table.rows[0][1].moment_order
    x = np.array([np.log2(n) for n, _ in table.rows])
    y = np.array([est.mean / n ** (order / 2) for n, est in table.rows])
    y_err = np.array([est.stderr / n ** (order / 2) for n, est in table.rows])

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
