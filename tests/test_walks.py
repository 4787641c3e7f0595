from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwalks import maximal_inequality as mi
from kwalks import streams
from kwalks.parallel import mc_moments
from kwalks.rng import substream
from kwalks.sign_families import FamilySpec, adversarial_params, make_sampler
from kwalks.walks import (drift_check_h1, estimate_sup_moment, fit_log_growth,
                          scaling_table, sup_abs_prefix_batch)

sign_vectors = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=200)


def sup_abs_prefix(v):
    """sup |S_i| of one sign vector, as a batch of one."""
    return int(sup_abs_prefix_batch(np.asarray([v]))[0])


def test_sup_abs_prefix_examples():
    assert sup_abs_prefix([1, -1, 1, -1]) == 1
    assert sup_abs_prefix([1, -1] * 4) == 1
    assert sup_abs_prefix([-1] * 16) == 16
    # hand walk: 1, 2, 3, 2, 1, 0, -1, -2 -> sup 3
    assert sup_abs_prefix([1, 1, 1, -1, -1, -1, -1, -1]) == 3


@given(sign_vectors)
def test_sup_negation_invariance(v):
    assert sup_abs_prefix(v) == sup_abs_prefix([-x for x in v])


@given(sign_vectors)
def test_sup_dominates_endpoint_and_one(v):
    sup = sup_abs_prefix(v)
    assert sup >= abs(sum(v))
    assert sup >= 1


def int64_abs_sup(batch):
    """The int64 prefix sums and abs copy that sup_abs_prefix_batch avoids."""
    return np.abs(np.cumsum(batch, axis=1, dtype=np.int64)).max(axis=1)


def test_sup_abs_prefix_batch_matches_int64_abs_formula():
    rng = substream(90, 0)
    n = 777
    batches = [
        make_sampler(FamilySpec(kind="PolynomialKWise", n=n, k=4)
                     ).sample_batch(rng, 50),
        make_sampler(FamilySpec(kind="AdversarialStage", n=1024, stage="H1")
                     ).sample_batch(rng, 50),
    ]
    # n = 1..70 covers every n % 16 tail with zero to four whole words;
    # 2^15 + 5 widens the word offsets to int32 and has a tail
    for n in [*range(1, 71), 777, (1 << 15) + 5]:
        signs = (rng.integers(0, 2, size=(12, n)) * 2 - 1).astype(np.int8)
        wide = np.empty((12, 2 * n), dtype=np.int8)
        wide[:, ::2] = signs
        wide[:, 1::2] = 1
        assert not wide[:, ::2].flags.c_contiguous
        batches += [signs, signs.astype(np.int64), signs.tolist(),
                    np.ones((3, n), dtype=np.int8), -np.ones((3, n), dtype=np.int8),
                    np.ones((0, n), dtype=np.int8), wide[:, ::2]]
    for batch in batches:
        got = sup_abs_prefix_batch(batch)
        want = int64_abs_sup(np.asarray(batch))
        assert got.dtype == np.int64 and got.shape == (len(batch),)
        assert (got == want).all()


@pytest.mark.parametrize("bad", [0, 2])
def test_packed_kernel_rejects_non_sign_entries(bad):
    for n in (16, 37):
        batch = np.ones((3, n), dtype=np.int8)
        batch[1, n - 2] = bad
        with pytest.raises(ValueError):
            sup_abs_prefix_batch(batch)
    with pytest.raises(ValueError):
        sup_abs_prefix_batch([[1.0, 0.5, -1.0]])


def test_estimate_requires_trials():
    spec = FamilySpec(kind="FullyIndependent", n=4)
    with pytest.raises(ValueError):
        estimate_sup_moment(spec, 1, 99, seed=0)


def test_estimate_branch_needs_stage_h():
    with pytest.raises(ValueError):
        FamilySpec(kind="AdversarialStage", n=16, stage="H2", branch="drift")
    with pytest.raises(ValueError):
        FamilySpec(kind="AdversarialStage", n=16, stage="H", branch="H2")
    # balanced blocks of 4 return the walk to 0 every 4 steps
    spec = FamilySpec(kind="AdversarialStage", n=16, stage="H", branch="balanced")
    est = estimate_sup_moment(spec, 1, 1000, seed=5)
    assert 1 <= est.mean[0] <= 2


def test_estimate_sup_moment_independent_walk_band():
    spec = FamilySpec(kind="FullyIndependent", n=1024)
    est = estimate_sup_moment(spec, 1, 10 ** 4, seed=5)
    assert 0.7 * 32 <= est.mean[0] <= 1.5 * 32
    assert est.stderr[0] > 0


def test_estimate_sup_moment_degenerate_n1():
    spec = FamilySpec(kind="FullyIndependent", n=1)
    est = estimate_sup_moment(spec, 2, 500, seed=5)
    assert est.mean == (1.0,)
    assert est.stderr == (0.0,)


def test_rotated_stage_exceeds_half_drift():
    # the rotated stage must reach at least half the maximal drift of the
    # biased stage in expectation
    n = 1024
    spec = FamilySpec(kind="AdversarialStage", n=n, stage="H2")
    est = estimate_sup_moment(spec, 1, 10 ** 4, seed=11)
    params = adversarial_params(n)
    peak = float(max(drift_check_h1(params, c) for c in range(1, params.root + 1)))
    assert est.mean[0] - 3 * est.stderr[0] >= peak / 2


def test_h_second_moment_matches_dimension():
    # pairwise independence pins E[S_n^2] = n exactly
    n = 256
    spec = FamilySpec(kind="AdversarialStage", n=n, stage="H")
    sampler = make_sampler(spec)
    rng = substream(3, 0)
    finals = sampler.sample_batch(rng, 10 ** 5).sum(axis=1).astype(np.float64)
    mean_sq = (finals ** 2).mean()
    stderr = (finals ** 2).std(ddof=1) / len(finals) ** 0.5
    assert abs(mean_sq - n) <= 4 * stderr


def test_drift_check_h1_values():
    params16 = adversarial_params(16)
    assert drift_check_h1(params16, 2) == 6
    assert drift_check_h1(params16, 4) == 0
    params64 = adversarial_params(64)
    assert drift_check_h1(params64, 4) == Fraction(50, 3)
    with pytest.raises(ValueError):
        drift_check_h1(params16, 5)
    with pytest.raises(ValueError):
        drift_check_h1(params16, 0)


def test_drift_matches_enumerated_means():
    # E[S at block boundaries] must equal the summed enumerated means
    from kwalks.sign_families import exact_moments

    params = adversarial_params(16)
    moments = exact_moments(FamilySpec(kind="AdversarialStage", n=16, stage="H1"))
    for c in range(1, 5):
        boundary_mean = sum((moments.block_mean[i // 4] for i in range(c * 4)),
                            Fraction(0))
        assert drift_check_h1(params, c) == boundary_mean


def test_scaling_table_monotone():
    spec = FamilySpec(kind="FullyIndependent", n=16)
    table = scaling_table(spec, [16, 64, 256], 1, 2000, seed=17)
    assert len(table) == 3
    means = [est.mean[0] for est in table]
    errs = [est.stderr[0] for est in table]
    for a, b, ea, eb in zip(means, means[1:], errs, errs[1:]):
        assert b >= a - 3 * (ea + eb)


def test_scaling_table_checks_every_n_before_estimating(monkeypatch):
    # mc_moments is where scaling_table draws; a check that ran after it
    # would record a call
    calls = []
    monkeypatch.setattr("kwalks.walks.mc_moments",
                        lambda *args, **kwargs: calls.append(args))
    spec = FamilySpec(kind="FullyIndependent", n=16)
    for ns, message in (([16, 64, 128], "n=128 is not a power of 4"),
                        ([16, 64, 64], "strictly increasing"),
                        ([16, 16], "strictly increasing"),
                        ([8], "n=8 is not a power of 4"),
                        ([0], "n=0 is not a power of 4")):
        with pytest.raises(ValueError, match=message):
            scaling_table(spec, ns, 1, 100, seed=1)
    assert calls == []


def _fit(ns, means):
    return fit_log_growth(ns, means, [0.0] * len(ns), 1)


def test_fit_log_growth_exact_line():
    ns = [16, 64, 256, 1024]
    fit = _fit(ns, [n ** 0.5 * np.log2(n) for n in ns])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_log_growth_flat():
    ns = [16, 64, 256]
    fit = _fit(ns, [n ** 0.5 for n in ns])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0    # zero residuals on a constant line


def test_fit_log_growth_needs_three_rows():
    with pytest.raises(ValueError):
        _fit([16, 64], [4.0, 8.0])


def test_growth_dichotomy_rotated_vs_fourwise():
    # the drift-carrying stage grows like lg n after dividing by sqrt(n),
    # the 4-wise family does not: their ratio must widen across n
    trials = 4000
    ratios = {}
    for idx, n in enumerate([16, 1024]):
        h2 = estimate_sup_moment(
            FamilySpec(kind="AdversarialStage", n=n, stage="H2"),
            1, trials, seed=100 + idx)
        kw = estimate_sup_moment(
            FamilySpec(kind="PolynomialKWise", n=n, k=4),
            1, trials, seed=200 + idx)
        ratios[n] = h2.mean[0] / kw.mean[0]
    assert ratios[1024] > ratios[16] * 1.5


def test_workers_do_not_change_results():
    spec = FamilySpec(kind="FullyIndependent", n=64)
    serial = estimate_sup_moment(spec, 2, 3000, seed=7, workers=1)
    parallel = estimate_sup_moment(spec, 2, 3000, seed=7, workers=2)
    assert serial == parallel
    stream = streams.uniform_stream(64, n=16, seed=1)
    kwise = FamilySpec(kind="PolynomialKWise", n=16, k=4)
    job = streams.sup_moment_job(stream, kwise, 4, 3000, seed=9)
    serial = mc_moments([job], workers=1)
    parallel = mc_moments([job], workers=2)
    assert serial == parallel
    sigmas, lambdas = [1.0] * 16, [4.0, 8.0]
    serial = mi.mc_tail(kwise, sigmas, lambdas, 3000, seed=3, workers=1)
    parallel = mi.mc_tail(kwise, sigmas, lambdas, 3000, seed=3, workers=2)
    assert serial == parallel
    assert 0 < serial[1].hits < serial[0].hits < 3000
