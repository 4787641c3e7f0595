import multiprocessing
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kwalks import maximal_inequality as mi
from kwalks import parallel, sign_families, streams, walks
from kwalks.experiments import ExperimentConfig, run
from kwalks.gf2 import pack_signs
from kwalks.parallel import MomentJob, map_reduce_chunks, mc_moments
from kwalks.rng import TRIAL_CHUNK, chunk_layout, substream
from kwalks.sign_families import FamilySpec, make_sampler, tile_rows
from kwalks.walks import estimate_sup_moment

# 1500 trials span two chunks (1024 + 476).
TWO_CHUNKS = 1500


def _ones(batch):
    return np.ones(len(batch))


def _unreachable(*args):
    raise AssertionError("a chunk ran despite a bad job in the batch")


def test_map_reduce_sums_each_job_in_its_own_chunks():
    spec = FamilySpec(kind="PolynomialKWise", n=16, k=4)
    jobs = [MomentJob(_ones, (), spec, TWO_CHUNKS, 1),
            MomentJob(_ones, (), spec.with_n(64), 100, 2),
            MomentJob(walks.sup_moment_rows, (16, 1), spec, 3000, 3)]
    sums = map_reduce_chunks(jobs)
    assert sums[:2] == [(1500.0, 1500.0), (100.0, 100.0)]
    # the third job's sums are its own chunks' sums, in chunk order
    expected = [0.0, 0.0]
    for c, count in chunk_layout(3000):
        part = parallel._moment_chunk(jobs[2], substream(3, c), count)
        expected = [e + v for e, v in zip(expected, part)]
    assert sums[2] == tuple(expected)
    assert map_reduce_chunks(jobs, workers=2) == sums


def _good_job(spec):
    return MomentJob(walks.sup_moment_rows, (spec.n, 1), spec, TWO_CHUNKS, 1)


@pytest.mark.parametrize("stage,branch", [("H", "H2"), ("H3", "drift")])
@pytest.mark.parametrize("workers", [1, 2])
def test_mc_moments_rejects_bad_branch_before_any_chunk(monkeypatch, stage,
                                                        branch, workers):
    """The branch lives in the spec, which refuses a bad one when it is
    built, so a batch holding it never reaches a chunk."""
    monkeypatch.setattr(parallel, "_run_chunk", _unreachable)
    spec = FamilySpec(kind="AdversarialStage", n=16, stage=stage)
    with pytest.raises(ValueError, match="stage H"):
        mc_moments([_good_job(spec),
                    _good_job(replace(spec, branch=branch))], workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_moments_rejects_few_trials_in_any_job_before_any_chunk(
        monkeypatch, workers):
    monkeypatch.setattr(parallel, "_run_chunk", _unreachable)
    spec = FamilySpec(kind="AdversarialStage", n=16, stage="H")
    for trials in (99, 0, -5):
        few = MomentJob(walks.sup_moment_rows, (spec.n, 1), spec, trials, 2)
        with pytest.raises(ValueError, match="100 trials"):
            mc_moments([_good_job(spec), few], workers=workers)


# --------------------------------------------------------------------------
# one pool per batch

class _InlinePool:
    """Stands in for a pool too large to start in a test: runs the tasks
    in this process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of every pool kwalks.parallel starts, in order.  A pool
    of up to three processes is real; a larger one starts none."""
    sizes = []
    real = parallel.ProcessPoolExecutor

    def counting_pool(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers) if max_workers <= 3 else _InlinePool()

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", counting_pool)
    return sizes


def test_pool_is_capped_at_the_task_count(pool_sizes):
    spec = FamilySpec(kind="AdversarialStage", n=16, stage="H1")
    serial = estimate_sup_moment(spec, 1, TWO_CHUNKS, seed=4)
    assert estimate_sup_moment(spec, 1, TWO_CHUNKS, seed=4, workers=64) == serial
    specs = [spec, spec.with_n(64)]
    parallel.max_moment_deviations(specs, [np.zeros((4, 4)), np.zeros((8, 8))],
                                   200, seed=4, workers=64)
    assert pool_sizes == [2, 2]


def _config(kind, trials, family, **params):
    return ExperimentConfig(kind=kind, family=family, params=params,
                            trials=trials, seed=11)


STAGE_H = {"kind": "AdversarialStage", "stage": "H"}
BATCH_RUNS = {
    "walk-scaling": _config("walk-scaling", 2100, STAGE_H, n_list="16 64 256"),
    "stream-track": _config("stream-track", 1100,
                            {"kind": "PolynomialKWise", "k": "4"}, k="4",
                            generators="identity uniform", m_list="64 256"),
    "family-verify": _config("family-verify", 3000, STAGE_H, n_list="16 64"),
}


@pytest.mark.parametrize("name", BATCH_RUNS)
def test_batch_rows_do_not_depend_on_the_worker_count(pool_sizes, name):
    rows = [run(replace(BATCH_RUNS[name], workers=workers)).rows
            for workers in (1, 2, 3)]
    assert rows[0] == rows[1] == rows[2]
    # family-verify's two n values are two tasks, so workers=3 starts two
    assert pool_sizes == [2, 2 if name == "family-verify" else 3]


def test_branch_scaling_rows_do_not_depend_on_the_worker_count(pool_sizes):
    spec = FamilySpec(kind="AdversarialStage", n=16, stage="H", branch="drift")
    tables = [walks.scaling_table(spec, [16, 64, 256], 1, 2100, seed=8,
                                  workers=workers)
              for workers in (1, 2, 3)]
    assert tables[0] == tables[1] == tables[2]
    assert pool_sizes == [2, 3]


@pytest.mark.parametrize("name", ["walk-scaling", "family-verify"])
def test_a_run_starts_one_pool_and_leaves_no_process(pool_sizes, name):
    run(replace(BATCH_RUNS[name], workers=2))
    assert pool_sizes == [2]
    assert multiprocessing.active_children() == []


# Exact (mean, stderr) of each estimator on a two-chunk case, recorded
# before the four estimators shared one chunk kernel; compared with ==.

def test_pinned_estimate_sup_moment():
    spec = FamilySpec(kind="AdversarialStage", n=64, stage="H")
    est = estimate_sup_moment(spec, 2, TWO_CHUNKS, seed=7)
    assert (est.mean[0], est.stderr[0]) == (110.918, 5.009581970317816)
    est = estimate_sup_moment(replace(spec, branch="pairs"), 1, TWO_CHUNKS,
                              seed=7)
    assert (est.mean[0], est.stderr[0]) == (16.928, 0.16725791660386854)


def test_pinned_mc_sup_moment():
    stream = streams.uniform_stream(64, n=16, seed=1)
    spec = FamilySpec(kind="PolynomialKWise", n=16, k=4)
    (est,) = mc_moments([streams.sup_moment_job(stream, spec, 4, TWO_CHUNKS,
                                                seed=9)])
    assert (est.mean[0], est.stderr[0]) == (323228.338, 20850.42759652882)


def test_pinned_mc_tail():
    spec = FamilySpec(kind="PolynomialKWise", n=32, k=4)
    est = mi.mc_tail(spec, [1.0] * 32, [6.0, 10.0], TWO_CHUNKS, seed=3)
    assert list(zip(est.totals, est.mean, est.stderr)) == [
        (879, 0.586, 0.012717546933272941),
        (235, 0.15666666666666668, 0.009385173492348528)]


# --------------------------------------------------------------------------
# row tiles

def _adversarial(stage, branch=None):
    return FamilySpec(kind="AdversarialStage", n=1024, stage=stage, branch=branch)


SAMPLERS = {
    "kwise": FamilySpec(kind="PolynomialKWise", n=1024, k=4),
    "independent": FamilySpec(kind="FullyIndependent", n=1024),
    "H1": _adversarial("H1"),
    "balanced": _adversarial("H", "balanced"),
    "H2": _adversarial("H2"),
    "H3": _adversarial("H3"),
    "H": _adversarial("H"),
    "drift": _adversarial("H", "drift"),
    "pairs": _adversarial("H", "pairs"),
}


# these samplers draw their rows in row order, so their estimates do not
# depend on TILE_SIGNS; the others draw a per-batch vector (shifts, modes,
# branch picks) first, so a tile draws other rows than a whole chunk would
@pytest.mark.parametrize("name", ["kwise", "independent", "H1", "balanced"])
@pytest.mark.parametrize("rows", [1, 7, tile_rows(1024)])
def test_row_order_samplers_draw_the_same_rows_in_tiles(name, rows):
    sampler = make_sampler(SAMPLERS[name])
    count = 2 * tile_rows(sampler.n) + 88
    whole = sampler.sample_batch(substream(5, 0), count)
    rng = substream(5, 0)
    tiles = [sampler.sample_batch(rng, min(rows, count - lo))
             for lo in range(0, count, rows)]
    assert np.concatenate(tiles).tobytes() == whole.tobytes()
    # packed tiles of any size hold the same rows, packed
    rng = substream(5, 0)
    packed = [sampler.sample_packed(rng, min(rows, count - lo))
              for lo in range(0, count, rows)]
    assert np.concatenate(packed).tobytes() == pack_signs(whole).tobytes()


def _recording_stat(sizes):
    def stat(batch):
        sizes.append(len(batch))
        return np.zeros(len(batch))
    return stat


@pytest.mark.parametrize("name", SAMPLERS)
def test_moment_chunk_tiles_every_sampler(name, monkeypatch):
    # a chunk's packed tiles hold TILE_SIGNS bytes; a sampler whose rows
    # are int8 draws each in sample_batch calls of TILE_SIGNS signs
    spec = SAMPLERS[name]
    step = tile_rows(spec.n // 8)
    count = 2 * step + 88
    sizes, draws = [], []
    sampler = make_sampler(spec)
    if not isinstance(sampler, sign_families.KWiseSampler):
        real = type(sampler).sample_batch
        monkeypatch.setattr(type(sampler), "sample_batch", lambda self, rng, size:
                            draws.append(size) or real(self, rng, size))
    parallel._moment_chunk(MomentJob(_recording_stat(sizes), (), spec, count, 1),
                           substream(1, 0), count)
    assert sizes == [step, step, 88]
    if draws:
        small = tile_rows(spec.n)
        assert step == 8 * small and draws == [small] * 16 + [88]


@pytest.mark.parametrize("name", ["H2", "H3", "H", "drift", "pairs"])
def test_per_batch_samplers_draw_the_same_law_in_tiles(monkeypatch, name):
    # rows of a mixture are iid, so a tile that draws its own shifts, modes
    # and branch picks samples the same law as a whole chunk
    spec = SAMPLERS[name]
    assert tile_rows(spec.n) < TRIAL_CHUNK
    tiled = estimate_sup_moment(spec, 1, 2048, seed=8)
    monkeypatch.setattr(sign_families, "TILE_SIGNS", TRIAL_CHUNK * spec.n)
    whole = estimate_sup_moment(spec, 1, 2048, seed=8)
    assert (abs(tiled.mean[0] - whole.mean[0])
            < 4 * (tiled.stderr[0] ** 2 + whole.stderr[0] ** 2) ** 0.5)


STREAM = streams.uniform_stream(256, n=64, seed=1)
STATISTICS = {
    "sup_moment_rows": (walks.sup_moment_rows, (64, 2)),
    "sup_inner_power_rows": (streams.sup_inner_power_rows, (STREAM, 4)),
    "tail_hit_rows": (mi.tail_hit_rows, (tuple(np.linspace(0.1, 2.0, 64)),
                                         (4.0, 8.0, 12.0))),
}


@pytest.mark.parametrize("name", STATISTICS)
def test_chunk_totals_do_not_depend_on_the_tile_size(monkeypatch, name):
    stat, stat_args = STATISTICS[name]
    spec = FamilySpec(kind="PolynomialKWise", n=64, k=4)
    count = 300
    totals = []
    for rows in (1, 7, count):
        monkeypatch.setattr(sign_families, "TILE_SIGNS", rows * spec.n // 8)
        job = MomentJob(stat, stat_args, spec, count, 2)
        totals.append(parallel._moment_chunk(job, substream(2, 0), count))
    assert totals[0] == totals[1] == totals[2]


def test_kwise_estimate_memory_stays_bounded_at_large_n():
    # One 1024-row chunk at n = 2^16 is 64 MiB as a single int8 sign matrix,
    # and its sup kernel adds as much again; in row tiles of TILE_SIGNS
    # signs the estimate needs under 8 MiB beyond the sampler's tables.
    spec = FamilySpec(kind="PolynomialKWise", n=1 << 16, k=4)
    make_sampler(spec)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        estimate_sup_moment(spec, 1, 1024, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 8 * 2 ** 20


@pytest.mark.parametrize("name", ["H2", "H3", "H", "drift", "pairs"])
def test_adversarial_estimate_memory_stays_bounded_at_large_n(name):
    # One 1024-row chunk at n = 4^7 is 16 MiB as a single int8 sign matrix,
    # and its draw and sup kernel take several times that; in row tiles of
    # TILE_SIGNS signs the estimate needs under 8 MiB beyond the sampler's
    # tables.
    spec = replace(SAMPLERS[name], n=4 ** 7)
    make_sampler(spec)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        estimate_sup_moment(spec, 1, 1024, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 8 * 2 ** 20
