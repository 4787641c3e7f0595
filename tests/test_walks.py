from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwalks import maximal_inequality as mi
from kwalks import streams
from kwalks.gf2 import GF2Field, all_polynomial_signs
from kwalks.parallel import mc_moments
from kwalks.rng import substream
from kwalks.sign_families import FamilySpec, adversarial_params, make_sampler
from kwalks.walks import (estimate_sup_moment, fit_log_growth, scaling_table,
                          sup_abs_prefix_batch)

sign_vectors = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=200)


def drift(params, c):
    """Exact E[S_{c * root}] of the biased stage: root times the partial sum
    of the block mean profile."""
    return params.root * sum(params.f[:c], Fraction(0))


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
    peak = float(max(drift(params, c) for c in range(1, params.root + 1)))
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


def test_drift_matches_enumerated_means():
    # E[S at block boundaries] must equal the summed enumerated means
    from kwalks.sign_families import exact_moments

    params = adversarial_params(16)
    moments = exact_moments(FamilySpec(kind="AdversarialStage", n=16, stage="H1"))
    for c in range(1, 5):
        boundary_mean = sum((moments.block_mean[i // 4] for i in range(c * 4)),
                            Fraction(0))
        assert drift(params, c) == boundary_mean
    assert (drift(params, 2), drift(params, 4)) == (6, 0)
    assert drift(adversarial_params(64), 4) == Fraction(50, 3)


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


def cubic_walsh_law(width, n):
    """The rows of the 4-wise polynomial family over GF(2^width) at the
    points x = 0..n-1, from scalar field products, as a Counter of n-bit
    masks (bit x set where the sign is -1), and the rank of its cubic span.

    Over GF(2), y -> y^2 is linear, so the low bits of c_0, c_1 x and
    c_2 x^2 add up to b + <alpha, x> with b and alpha uniform.  The low bit
    of c_3 x^3 is linear in c_3, so its pattern is uniform on the span of
    x -> lsb(X^e x^3), e < width.  Each row b + <alpha, x> + P(x) is drawn
    with the same probability."""
    field = GF2Field(width)
    cubes = [field.mul(x, field.mul(x, x)) for x in range(n)]
    basis = []
    for e in range(width):
        v = sum((field.mul(1 << e, c) & 1) << x for x, c in enumerate(cubes))
        for u in basis:
            v = min(v, v ^ u)
        if v:
            basis.append(v)
    span = [0]
    for u in basis:
        span += [p ^ u for p in span]
    walsh = [sum((bin(a & x).count("1") & 1) << x for x in range(n))
             for a in range(n)]
    flips = (0, (1 << n) - 1)
    return Counter(b ^ w ^ p for b in flips for w in walsh for p in span), len(basis)


def mask_sups(masks, n):
    """sup_t |S_t| of each row given as an n-bit mask."""
    bits = (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    return np.abs(np.cumsum(1 - 2 * bits, axis=1)).max(axis=1)


def test_kwise_sampler_matches_exact_law_of_its_family():
    # the law over GF(2^4) is checked against every polynomial of the
    # family, so the construction is an oracle for the sampler's GF(2^64)
    n = 16
    small, rank = cubic_walsh_law(4, n)
    signs = all_polynomial_signs(4, n, 4)
    brute = Counter(((signs < 0).astype(np.int64) @ (1 << np.arange(n))).tolist())
    total = len(signs)
    assert rank == 4 and sum(small.values()) == 2 * n * 2 ** rank
    assert ({m: Fraction(c, total) for m, c in brute.items()}
            == {m: Fraction(c, 2 * n * 2 ** rank) for m, c in small.items()})

    law, rank = cubic_walsh_law(64, n)
    assert rank == 9 and sum(law.values()) == 16384
    masks = list(law)
    sups = mask_sups(masks, n).tolist()
    total = sum(law.values())
    exact = [sum(Fraction(law[m] * s ** order, total) for m, s in zip(masks, sups))
             for order in (1, 2)]
    assert exact == [Fraction(4613, 1024), Fraction(25477, 1024)]
    spec = FamilySpec(kind="PolynomialKWise", n=n, k=4)
    for order, value in zip((1, 2), exact):
        est = estimate_sup_moment(spec, order, 2 * 10 ** 5, seed=16)
        assert abs(est.mean[0] - float(value)) <= 4 * est.stderr[0]
