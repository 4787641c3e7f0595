"""Chunked map-reduce over Monte Carlo trials, and the one estimator on it.

Work is partitioned into fixed-size chunks with derived substreams and the
partial results are summed in chunk order, so a run is byte-reproducible
for a given (seed, trials) regardless of worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
# numpy loads these lazily (np.random for substream, np.ma in np.unique);
# loaded before any pool forks, they are inherited by every worker.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .rng import chunk_layout, substream
from .sign_families import FamilySpec, make_sampler, tile_rows


def _run_chunk(task):
    fn, args, seed, chunk_index, count = task
    return fn(args, substream(seed, chunk_index), count)


def map_reduce_chunks(fn: Callable, args, trials: int, seed: int,
                      workers: int = 1) -> tuple[float, ...]:
    """Apply fn(args, rng, count) per chunk and sum the result tuples.

    fn must be a module-level function (picklable) returning a tuple of
    numbers; the sums are accumulated in chunk order.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got trials={trials}")
    tasks = [(fn, args, seed, c, count) for c, count in chunk_layout(trials)]
    if workers <= 1 or len(tasks) <= 1:
        partials = [_run_chunk(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_run_chunk, tasks, chunksize=1))
    totals = [0.0] * len(partials[0])
    for part in partials:
        for i, v in enumerate(part):
            totals[i] += v
    return tuple(totals)


@dataclass(frozen=True)
class ColumnMoments:
    """Monte Carlo summary of a row statistic, one entry per column.

    totals are the column sums over all trials; mean is totals / trials and
    stderr is sqrt((E[x^2] - E[x]^2) / trials), clamped at 0.
    """

    totals: tuple[float, ...]
    mean: tuple[float, ...]
    stderr: tuple[float, ...]


def _moment_chunk(args, rng, count):
    """Column sums and sums of squares of stat over count sampled rows.

    A tileable sampler draws the rows in tiles of tile_rows(n) and stat
    runs per tile, so memory stays bounded as n grows; any other sampler
    draws the chunk as one tile.  The per-row values are joined into one
    (count, columns) array, so the sums are those of a single tile.
    """
    spec, branch, stat, stat_args = args
    sampler = make_sampler(spec, branch)
    step = tile_rows(spec.n) if sampler.tileable else count
    values = []
    for lo in range(0, count, step):
        batch = sampler.sample_batch(rng, min(step, count - lo))
        values.append(np.asarray(stat(batch, *stat_args),
                                 dtype=np.float64).reshape(len(batch), -1))
    # each column is summed as its own 1-d array, so a column's sums do not
    # depend on how many columns the statistic has
    columns = np.concatenate(values).T
    return (tuple(float(col.sum()) for col in columns)
            + tuple(float((col ** 2).sum()) for col in columns))


def mc_moments(stat: Callable, stat_args: tuple, spec: FamilySpec, trials: int,
               seed: int, workers: int = 1,
               branch: str | None = None) -> ColumnMoments:
    """Column means and standard errors of stat(batch, *stat_args).

    stat is a module-level function mapping a (count, n) batch of sign
    rows to count values or a (count, columns) array; each row's values
    must not depend on the other rows, since a chunk may reach stat in
    row tiles.  branch is passed
    to make_sampler: one of H_BRANCHES draws the rows from that branch of a
    stage-H family.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    # Building the sampler here rejects a bad branch before any chunk runs,
    # and forked pool workers inherit the cached sampler.
    make_sampler(spec, branch)
    sums = map_reduce_chunks(_moment_chunk, (spec, branch, stat, stat_args),
                             trials, seed, workers)
    totals, squares = sums[:len(sums) // 2], sums[len(sums) // 2:]
    mean = tuple(total / trials for total in totals)
    stderr = tuple((max(sq / trials - m * m, 0.0) / trials) ** 0.5
                   for sq, m in zip(squares, mean))
    return ColumnMoments(totals=totals, mean=mean, stderr=stderr)
