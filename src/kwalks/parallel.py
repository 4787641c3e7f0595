"""Chunked map-reduce over Monte Carlo trials, and the one estimator on it.

Work is partitioned into fixed-size chunks with derived substreams and the
partial results are summed in chunk order, so a run is byte-reproducible
for a given (seed, trials) regardless of worker count.  A batch of
independent estimates shares one process pool: every chunk of every job is
submitted at once, and each job's partials are still summed in its own
chunk order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
# numpy loads np.random lazily; loaded here, before any pool forks, it is
# inherited by every worker rather than imported by each (substream uses it).
import numpy.random  # noqa: F401

from .rng import chunk_layout, substream
from .sign_families import (FamilySpec, SampleMoments, check_empirical_size,
                            empirical_moments, make_sampler, tile_rows)


def _map_tasks(fn: Callable, tasks: list, costs: list, workers: int) -> list:
    """[fn(task) for task in tasks], in task order.

    At workers > 1 every task goes to one pool of min(workers, len(tasks))
    processes in one submission, costliest first (equal costs keep their
    order), so the pool does not end on a long task.  The pool is shut down
    and its processes joined before this returns or raises.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    order = sorted(range(len(tasks)), key=lambda i: -costs[i])
    results = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        for i, result in zip(order, pool.map(fn, [tasks[i] for i in order])):
            results[i] = result
    return results


def _run_chunk(task):
    fn, args, seed, chunk_index, count = task
    return fn(args, substream(seed, chunk_index), count)


def map_reduce_chunks(fn: Callable, jobs: Sequence[tuple],
                      workers: int = 1) -> list[tuple[float, ...]]:
    """Apply fn(args, rng, count) per chunk of every job and sum each job's
    result tuples, one tuple per job.

    A job is (args, trials, seed, width): its chunks draw from the
    substreams of seed, and width (the entries per trial) weighs a chunk's
    cost.  fn must be a module-level function (picklable) returning a tuple
    of numbers; each job's sums are accumulated in its chunk order.
    """
    tasks, costs, owners = [], [], []
    for j, (args, trials, seed, width) in enumerate(jobs):
        if trials < 1:
            raise ValueError(f"trials must be positive, got trials={trials}")
        for c, count in chunk_layout(trials):
            tasks.append((fn, args, seed, c, count))
            costs.append(width * count)
            owners.append(j)
    totals = [None] * len(jobs)
    for j, part in zip(owners, _map_tasks(_run_chunk, tasks, costs, workers)):
        if totals[j] is None:
            totals[j] = [0.0] * len(part)
        for i, v in enumerate(part):
            totals[j][i] += v
    return [tuple(t) for t in totals]


@dataclass(frozen=True)
class ColumnMoments:
    """Monte Carlo summary of a row statistic, one entry per column.

    totals are the column sums over all trials; mean is totals / trials and
    stderr is sqrt((E[x^2] - E[x]^2) / trials), clamped at 0.
    """

    totals: tuple[float, ...]
    mean: tuple[float, ...]
    stderr: tuple[float, ...]


@dataclass(frozen=True)
class MomentJob:
    """One estimate of mc_moments: the columns of stat(batch, *stat_args)
    over trials rows of make_sampler(spec), drawn from the chunk
    substreams of seed.

    stat is a module-level function mapping a (count, n) batch of sign
    rows to count values or a (count, columns) array; each row's values
    must not depend on the other rows, since a chunk reaches stat in row
    tiles.
    """

    stat: Callable
    stat_args: tuple
    spec: FamilySpec
    trials: int
    seed: int


def _moment_chunk(args, rng, count):
    """Column sums and sums of squares of stat over count sampled rows.

    The rows are drawn in tiles of tile_rows(n), one sample_batch call
    each, and stat runs per tile, so memory stays bounded as n grows.  The
    per-row values are joined into one (count, columns) array, so the sums
    are those of one tile of the same rows.
    """
    spec, stat, stat_args = args
    sampler = make_sampler(spec)
    step = tile_rows(spec.n)
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


def mc_moments(jobs: Sequence[MomentJob], workers: int = 1) -> list[ColumnMoments]:
    """Column means and standard errors of every job of a batch, one
    ColumnMoments per job; a single estimate is a batch of one.

    Every job is checked and its sampler built before any chunk runs: too
    few trials in any job raises first, and forked pool workers inherit the
    cached samplers (make_sampler caches 16).
    """
    for job in jobs:
        if job.trials < 100:
            raise ValueError("need at least 100 trials")
        make_sampler(job.spec)
    sums = map_reduce_chunks(
        _moment_chunk,
        [((job.spec, job.stat, job.stat_args), job.trials,
          job.seed, job.spec.n) for job in jobs],
        workers)
    out = []
    for job, job_sums in zip(jobs, sums):
        half = len(job_sums) // 2
        totals, squares = job_sums[:half], job_sums[half:]
        mean = tuple(total / job.trials for total in totals)
        stderr = tuple((max(sq / job.trials - m * m, 0.0) / job.trials) ** 0.5
                       for sq, m in zip(squares, mean))
        out.append(ColumnMoments(totals=totals, mean=mean, stderr=stderr))
    return out


def _empirical_task(task):
    spec, trials, seed = task
    return empirical_moments(make_sampler(spec), trials, substream(seed, spec.n))


def empirical_moments_batch(specs: Sequence[FamilySpec], trials: int, seed: int,
                            workers: int = 1) -> list[SampleMoments]:
    """empirical_moments of each spec's sampler over trials rows of its own
    sequential stream substream(seed, spec.n), one pool task per spec.

    Every size is checked and every sampler built before any task runs.
    """
    for spec in specs:
        check_empirical_size(spec.n)
    for spec in specs:
        make_sampler(spec)
    return _map_tasks(_empirical_task, [(spec, trials, seed) for spec in specs],
                      [spec.n for spec in specs], workers)
