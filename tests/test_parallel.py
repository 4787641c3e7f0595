import pytest

from kwalks import maximal_inequality as mi
from kwalks import parallel, streams, walks
from kwalks.parallel import map_reduce_chunks, mc_moments
from kwalks.rng import substream
from kwalks.sign_families import FamilySpec
from kwalks.walks import estimate_sup_moment

# 1500 trials span two chunks (1024 + 476).
TWO_CHUNKS = 1500


def _count_chunk(args, rng, count):
    return (count, 1)


@pytest.mark.parametrize("trials", [0, -5])
def test_map_reduce_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        map_reduce_chunks(_count_chunk, None, trials, seed=1)


@pytest.mark.parametrize("stage,branch", [("H", "H2"), ("H3", "drift")])
@pytest.mark.parametrize("workers", [1, 2])
def test_mc_moments_rejects_bad_branch_before_any_chunk(monkeypatch, stage,
                                                        branch, workers):
    def unreachable(*args):
        raise AssertionError("a chunk ran despite the bad branch")

    monkeypatch.setattr(parallel, "_run_chunk", unreachable)
    spec = FamilySpec(kind="AdversarialStage", n=16, stage=stage)
    with pytest.raises(ValueError, match="stage H"):
        mc_moments(walks.sup_moment_rows, (1,), spec, TWO_CHUNKS, seed=1,
                   workers=workers, branch=branch)


# Exact (mean, stderr) of each estimator on a two-chunk case, recorded
# before the four estimators shared one chunk kernel; compared with ==.

def test_pinned_estimate_sup_moment():
    spec = FamilySpec(kind="AdversarialStage", n=64, stage="H", seed=4)
    est = estimate_sup_moment(spec, 2, TWO_CHUNKS, seed=7)
    assert (est.mean, est.stderr) == (110.918, 5.009581970317816)
    est = estimate_sup_moment(spec, 1, TWO_CHUNKS, seed=7, branch="pairs")
    assert (est.mean, est.stderr) == (16.928, 0.16725791660386854)


def test_pinned_mc_sup_moment():
    stream = streams.uniform_stream(64, n=16, seed=1)
    spec = FamilySpec(kind="PolynomialKWise", n=16, k=4, seed=2)
    est = streams.mc_sup_moment(stream, spec, 4, TWO_CHUNKS, seed=9)
    assert (est.mean, est.stderr) == (323228.338, 20850.42759652882)


def test_pinned_mz_moment_check():
    # the Monte Carlo path reports the moment and the bound, not its stderr
    v = substream(75, 0).standard_normal(16)
    moment, bound = streams.mz_moment_check(v, 4, trials=TWO_CHUNKS, seed=75)
    assert (moment, bound) == (391.62578872855397, 509.9724935977075)


def test_pinned_mc_tail():
    spec = FamilySpec(kind="PolynomialKWise", n=32, k=4, seed=3)
    rows = mi.mc_tail(spec, [1.0] * 32, [6.0, 10.0], TWO_CHUNKS, seed=3)
    assert [(r.hits, r.trials, r.empirical_p, r.stderr) for r in rows] == [
        (879, TWO_CHUNKS, 0.586, 0.012717546933272941),
        (235, TWO_CHUNKS, 0.15666666666666668, 0.009385173492348528)]
