import hashlib
import math
import pickle
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwalks import sign_families
from kwalks.gf2 import all_polynomial_signs
from kwalks.rng import substream
from kwalks.sign_families import (H_BRANCHES, RAW_WORD_GENERATORS,
                                  AdversarialSampler, FamilySpec,
                                  IndependentSampler, KWiseSampler,
                                  ResourceLimitError,
                                  adversarial_params, empirical_moments,
                                  _rotate_blocks, _stage_block_moments,
                                  _uniform_signs,
                                  exact_moments, f_values, g_table,
                                  h2_cross_term_ratio, make_sampler)

F = Fraction


def adversarial(n, stage, branch=None):
    """Spec of an adversarial stage, or of one branch of stage H."""
    return FamilySpec(kind="AdversarialStage", n=n, stage=stage, branch=branch)


def kwise(n, k):
    return FamilySpec(kind="PolynomialKWise", n=n, k=k)


def mean_at(moments, i):
    """E[h_i] from the block tables of a MomentSummary."""
    return moments.block_mean[i // moments.root]


def second_moment(moments, i, j):
    """E[h_i h_j] from the block tables of a MomentSummary."""
    root = moments.root
    return F(1) if i == j else moments.block_pair[i // root][j // root]


def g_entry_direct(root, c1, c2):
    """Direct-summation oracle for the rotated-stage correlation table."""
    f = f_values(root)
    return sum(f[(c1 + d) % root] * f[(c2 + d) % root]
               for d in range(root)) / root


# --------------------------------------------------------------------------
# block mean profile

def test_f_values_root4():
    assert f_values(4) == [F(1, 2), F(1), F(-1), F(-1, 2)]


def test_f_values_root2():
    assert f_values(2) == [F(1), F(-1)]


def test_f_values_root8_sums_to_zero():
    assert sum(f_values(8)) == 0


@pytest.mark.parametrize("root", [1, 3, 0, -2])
def test_f_values_rejects_bad_root(root):
    with pytest.raises(ValueError):
        f_values(root)


@given(st.integers(min_value=1, max_value=64))
def test_f_values_antisymmetric(half):
    root = 2 * half
    f = f_values(root)
    assert all(f[c] == -f[root - 1 - c] for c in range(root))
    assert sum(f) == 0


# --------------------------------------------------------------------------
# correlation table

def test_g_table_matches_direct_summation():
    for root in (2, 4, 8, 16):
        g = g_table(root)
        for c1 in range(root):
            for c2 in range(root):
                assert g[c1][c2] == g_entry_direct(root, c1, c2)


def test_g_table_root4_frozen_entries():
    g = g_table(4)
    assert g[0][0] == F(5, 8)
    assert g[0][2] == F(-1, 2)
    assert g[0][1] == F(-1, 16)
    assert g[0][1] == g[0][3]


@pytest.mark.parametrize("root", [4, 8, 16, 32])
def test_g_table_symmetric_and_shift_invariant(root):
    g = g_table(root)
    for c1 in range(root):
        for c2 in range(root):
            assert g[c1][c2] == g[c2][c1]
            assert g[c1][c2] == g[(c1 + 1) % root][(c2 + 1) % root]
    assert all(g[c][c] > 0 for c in range(root))


# --------------------------------------------------------------------------
# mixing constants

def test_adversarial_params_n16_frozen():
    params = adversarial_params(16)
    assert params.g_scale == F(9, 4)
    assert params.c6 == F(20, 9)
    assert params.p == F(3, 8)
    assert params.p * params.c6 / 4 == F(5, 24)
    assert (1 - params.p) / 3 == F(5, 24)


def fraction_constants(n):
    """Oracle: g's first row, g_scale and c6 by Fraction arithmetic on the
    defining sums, g_scale over every pair c1 < c2 of the full table."""
    root = math.isqrt(n)
    f = f_values(root)
    row0 = [sum((f[d] * f[(d + r) % root] for d in range(root)), F(0)) / root
            for r in range(root)]
    g_scale = 1 + sum(abs(row0[c2 - c1]) for c1 in range(root)
                      for c2 in range(c1 + 1, root))
    return row0, g_scale, root * sum(abs(v) for v in row0) / g_scale


@pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096, 4 ** 8])
def test_adversarial_constants_match_fraction_formulas(n):
    row0, g_scale, c6 = fraction_constants(n)
    params = adversarial_params(n)
    root = params.root
    assert list(params.g[0]) == row0
    assert all(params.g[c][(c + r) % root] == row0[r]
               for c in range(root) for r in range(root))
    assert (params.g_scale, params.c6) == (g_scale, c6)
    assert params.p == 1 / (1 + c6 * (root - 1) / root)


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
def test_zero_covariance_balance(n):
    params = adversarial_params(n)
    root = params.root
    assert params.p * params.c6 / root - (1 - params.p) * F(1, root - 1) == 0


@pytest.mark.parametrize("n", [16, 64, 256])
def test_mixture_weights_sum_to_one(n):
    params = adversarial_params(n)
    weights = [1 / params.g_scale]
    for c1 in range(params.root):
        for c2 in range(c1 + 1, params.root):
            weights.append(abs(params.g[c1][c2]) / params.g_scale)
    assert sum(weights) == 1
    assert all(0 <= w <= 1 for w in weights)
    assert 0 <= params.p <= 1


@pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096])
def test_mode_cdf_ends_at_one(n):
    params = adversarial_params(n)
    assert params.mode_cdf[-1] == 1.0
    assert params.pair_mode_cdf[-1] == 1.0
    assert (np.diff(params.mode_cdf) >= 0).all()
    assert len(params.mode_cdf) == 1 + len(params.pair_modes[0])

    def fraction_cdf(weights, total):
        running, out = Fraction(0), []
        for w in weights:
            running += w
            out.append(float(running / total))
        return out

    assert params.mode_cdf.tolist() == fraction_cdf(
        [Fraction(1)] + params.pair_weights, params.g_scale)
    assert params.pair_mode_cdf.tolist() == fraction_cdf(
        params.pair_weights, params.g_scale - 1)


class _TopUniformFirst:
    """Generator stand-in whose first uniform draw is the largest float
    below 1; every later draw, raw words included, comes from the wrapped
    generator."""

    def __init__(self, rng):
        self.rng = rng
        self.bit_generator = rng.bit_generator
        self.first = True

    def random(self, size=None):
        if self.first:
            self.first = False
            return np.full(size, np.nextafter(1.0, 0.0))
        return self.rng.random(size)

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("n", [64, 1024, 4096])
def test_h3_top_uniform_draws_last_pair_mode(n):
    # the mode uniform lands above every boundary but the last, so the row
    # must come from the last pair mode: block root-2 at +1, block root-1
    # at its forced sign
    params = adversarial_params(n)
    rows = AdversarialSampler(adversarial(n, "H3")).sample_batch(
        _TopUniformFirst(substream(17, n)), 2)
    assert rows.shape == (2, n)
    root = params.root
    forced = params.pair_modes[2][-1]
    assert (rows[:, (root - 2) * root:(root - 1) * root] == 1).all()
    assert (rows[:, (root - 1) * root:] == forced).all()


@pytest.mark.parametrize("n", [4, 15, 32, 8])
def test_adversarial_params_rejects_bad_n(n):
    with pytest.raises(ValueError):
        adversarial_params(n)


def test_h2_cross_term_ratio_recorded_constant():
    ratios = [h2_cross_term_ratio(n) for n in (16, 64, 256, 1024)]
    assert ratios[0] == F(35, 8)
    assert ratios[1] == F(1361, 192)
    assert all(r < 13 for r in ratios)


# --------------------------------------------------------------------------
# family spec

def test_family_spec_validation():
    FamilySpec(kind="FullyIndependent", n=1)
    FamilySpec(kind="PolynomialKWise", n=16, k=4)
    FamilySpec(kind="AdversarialStage", n=16, stage="H")
    with pytest.raises(ValueError):
        FamilySpec(kind="PolynomialKWise", n=4, k=5)
    with pytest.raises(ValueError):
        FamilySpec(kind="PolynomialKWise", n=4, k=1)
    with pytest.raises(ValueError):
        FamilySpec(kind="AdversarialStage", n=32, stage="H")
    with pytest.raises(ValueError):
        FamilySpec(kind="AdversarialStage", n=16, stage="H5")
    with pytest.raises(ValueError):
        FamilySpec(kind="Nope", n=4)


def test_family_spec_config_roundtrip():
    specs = [
        FamilySpec(kind="FullyIndependent", n=7),
        FamilySpec(kind="PolynomialKWise", n=64, k=4),
        FamilySpec(kind="AdversarialStage", n=256, stage="H2"),
        FamilySpec(kind="PolynomialKWise", n=64, k=4),
        FamilySpec(kind="AdversarialStage", n=256, stage="H2"),
    ]
    configs = [
        {"kind": "FullyIndependent"},
        {"kind": "PolynomialKWise", "k": "4"},
        {"kind": "AdversarialStage", "stage": "H2"},
        # kind and stage may be spelled in any case
        {"kind": "polynomialKWISE", "k": "4"},
        {"kind": "adversarialstage", "stage": "h2"},
    ]
    for spec, config in zip(specs, configs):
        # the experiment sizes the family; the section holds no n
        assert FamilySpec.from_config(config, spec.n) == spec
        # pool workers receive the spec itself, pickled
        assert pickle.loads(pickle.dumps(spec)) == spec


@pytest.mark.parametrize("kind,k,stage,message", [
    ("FullyIndependent", 4, None, "k is read only by PolynomialKWise families; "
     "got k=4 for FullyIndependent"),
    ("AdversarialStage", 4, "H", "k is read only by PolynomialKWise families; "
     "got k=4 for AdversarialStage"),
    ("FullyIndependent", None, "H", "stage is read only by AdversarialStage "
     "families; got stage=H for FullyIndependent"),
    ("PolynomialKWise", 4, "H1", "stage is read only by AdversarialStage "
     "families; got stage=H1 for PolynomialKWise"),
], ids=["k-independent", "k-adversarial", "stage-independent", "stage-kwise"])
def test_family_spec_rejects_stray_k_and_stage(kind, k, stage, message):
    with pytest.raises(ValueError) as err:
        FamilySpec(kind=kind, n=16, k=k, stage=stage)
    assert str(err.value) == message
    section = {key: str(v) for key, v in
               {"kind": kind, "k": k, "stage": stage}.items() if v is not None}
    with pytest.raises(ValueError) as err:
        FamilySpec.from_config(section, 16)
    assert str(err.value) == message
    with pytest.raises(ValueError, match="unknown family keys: \\['n'\\]"):
        FamilySpec.from_config({"kind": kind, "n": "16"}, 16)


def test_independence_order():
    assert FamilySpec(kind="FullyIndependent", n=9).independence_order == 9
    assert FamilySpec(kind="PolynomialKWise", n=16, k=4).independence_order == 4
    assert FamilySpec(kind="AdversarialStage", n=16, stage="H").independence_order == 2
    assert FamilySpec(kind="AdversarialStage", n=16, stage="H2").independence_order == 1
    for branch in H_BRANCHES:
        assert adversarial(16, "H", branch).independence_order == 1


# --------------------------------------------------------------------------
# samplers: structure

def test_h1_forced_blocks_n16():
    rng = substream(7, 0)
    batch = AdversarialSampler(adversarial(16, "H1")).sample_batch(rng, 200)
    # bias 1 at block 2 (entries 5..8) and bias 0 at block 3 (entries 9..12)
    assert (batch[:, 4:8] == 1).all()
    assert (batch[:, 8:12] == -1).all()
    assert set(np.unique(batch)) <= {-1, 1}


def test_h1_single_draw_shape():
    draw = AdversarialSampler(adversarial(16, "H1")).sample_batch(substream(8, 0), 1)
    assert draw.shape == (1, 16)
    assert set(np.unique(draw)) <= {-1, 1}


def test_h1_empirical_mean_first_entry():
    # entry 1 sits in block 1 where the mean is 1/2
    rng = substream(9, 0)
    total = 0.0
    trials = 10 ** 6
    sampler = AdversarialSampler(adversarial(16, "H1"))
    for _ in range(trials // 10 ** 5):
        total += sampler.sample_batch(rng, 10 ** 5)[:, 0].sum()
    mean = total / trials
    sigma = (1 - 0.25) ** 0.5 / trials ** 0.5
    assert abs(mean - 0.5) <= 3 * sigma


def test_h2_is_block_rotation_of_h1():
    # every rotated draw keeps one all-plus block cyclically followed by an
    # all-minus block (the two saturated biases of the base stage)
    rng = substream(10, 0)
    batch = AdversarialSampler(adversarial(16, "H2")).sample_batch(rng, 300)
    for row in batch:
        blocks = row.reshape(4, 4)
        plus = [c for c in range(4) if (blocks[c] == 1).all()]
        assert any((blocks[(c + 1) % 4] == -1).all() for c in plus)


def test_h2_empirical_moments_match_g_table():
    params = adversarial_params(16)
    rng = substream(11, 0)
    spec = FamilySpec(kind="AdversarialStage", n=16, stage="H2")
    emp = empirical_moments(make_sampler(spec), 10 ** 6, rng)
    tol = 5.0 / 10 ** 3
    assert max(abs(v) for v in emp.mean) <= tol
    # cross-block entry (block 1, block 3) and a same-block pair
    assert abs(emp.covariance[0][8] - float(params.g[0][2])) <= tol
    assert abs(emp.covariance[0][1] - float(params.g[0][0])) <= tol


def test_h3_pair_mode_sign_rule():
    params = adversarial_params(16)
    c1s, c2s, forced = params.pair_modes
    # pair (block 1, block 3) has negative correlation, so the second block
    # is forced to +1 to cancel it
    idx = next(i for i in range(len(c1s)) if c1s[i] == 0 and c2s[i] == 2)
    assert params.g[0][2] < 0
    assert forced[idx] == 1
    # pair (1, 2) has g <= 0 as well at n=16; check a nonnegative case exists
    # at larger n or the rule stays consistent with the table
    for i in range(len(c1s)):
        g = params.g[c1s[i]][c2s[i]]
        assert forced[i] == (-1 if g >= 0 else 1)


def test_h3_empirical_moments():
    params = adversarial_params(16)
    rng = substream(12, 0)
    spec = FamilySpec(kind="AdversarialStage", n=16, stage="H3")
    emp = empirical_moments(make_sampler(spec), 10 ** 6, rng)
    tol = 5.0 / 10 ** 3
    same_block = float(params.c6) / 4
    assert abs(emp.covariance[0][1] - same_block) <= tol
    assert abs(emp.covariance[0][8]) <= tol        # different blocks
    assert abs(emp.covariance[3][4]) <= tol        # adjacent, different blocks


def test_h_block_sums_vanish_on_subset_branch():
    params = adversarial_params(16)
    rng = substream(13, 0)
    batch = AdversarialSampler(adversarial(16, "H")).sample_batch(rng, 2000)
    block_sums = batch.reshape(-1, 4, 4).sum(axis=2)
    frac_balanced = (block_sums == 0).all(axis=1).mean()
    # the subset branch (probability 1 - p = 5/8) always balances each block
    p = float(params.p)
    assert frac_balanced >= (1 - p) - 4 * (p * (1 - p) / 2000) ** 0.5


def test_h_empirical_moments_centered_uncorrelated():
    rng = substream(14, 0)
    spec = FamilySpec(kind="AdversarialStage", n=16, stage="H")
    emp = empirical_moments(make_sampler(spec), 10 ** 6, rng)
    tol = 5.0 / 10 ** 3
    assert max(abs(v) for v in emp.mean) <= tol
    worst = max(abs(emp.covariance[i][j])
                for i in range(16) for j in range(16) if i != j)
    assert worst <= tol
    assert all(emp.covariance[i][i] == 1.0 for i in range(16))


# sha256 over sample_batch of every stage and of every branch sampler
# on ADV_PIN_NS, each sequence followed by 8 bytes of the generator so the
# draws it leaves behind are pinned too; recorded with the take_along_axis
# rotation and the int64 np.where kernels that preceded the block kernels.
# The fully independent sampler is pinned the same way, odd n included.
ADV_PIN_NS = [16, 64, 256, 1024, 4096]
INDEPENDENT_PIN_NS = [1, 3, 16, 1000, 4097]
PIN_SIZES = [0, 1, 7, 1500]
ADV_PIN_SHA256 = ("9ae80032540d1d8621fd7bd2f593def3"
                  "c7fc3bd6bb88287a52eed6a1df52cb48")
INDEPENDENT_PIN_SHA256 = ("98618390a28eefce8ffb7783f97ede23"
                          "d895c9ac63dc279bcbd500a2695ab223")


def _pinned_rows(draw, n, digest):
    rng = substream(n, 0)
    for size in PIN_SIZES:
        batch = draw(rng, size)
        assert batch.dtype == np.int8 and batch.shape == (size, n)
        assert batch.flags.c_contiguous
        assert np.isin(batch, (-1, 1)).all()
        digest.update(batch.tobytes())
    digest.update(rng.bytes(8))


def test_adversarial_sample_batch_pinned_stream():
    digest = hashlib.sha256()
    for n in ADV_PIN_NS:
        for stage in ("H1", "H2", "H3", "H"):
            _pinned_rows(make_sampler(adversarial(n, stage)).sample_batch, n,
                         digest)
        for branch in H_BRANCHES:
            _pinned_rows(make_sampler(adversarial(n, "H", branch)).sample_batch,
                         n, digest)
    assert digest.hexdigest() == ADV_PIN_SHA256


def test_independent_sample_batch_pinned_stream():
    digest = hashlib.sha256()
    for n in INDEPENDENT_PIN_NS:
        _pinned_rows(IndependentSampler(FamilySpec(kind="FullyIndependent", n=n))
                     .sample_batch, n, digest)
    assert digest.hexdigest() == INDEPENDENT_PIN_SHA256


# --------------------------------------------------------------------------
# raw-word kernels against the numpy draws they replace

def generator_pair(bit_generator, seed):
    """Two generators in the same state."""
    return (np.random.Generator(bit_generator(seed)),
            np.random.Generator(bit_generator(seed)))


def assert_same_state(ours, theirs):
    """The two bit generators' state dicts are equal, all but the buffered
    half-word while none is buffered: that field then keeps whichever half
    was buffered last, and no later draw reads it."""
    states = [dict(rng.bit_generator.state) for rng in (ours, theirs)]
    for state in states:
        if not state["has_uint32"]:
            state["uinteger"] = None
    np.testing.assert_equal(states[0], states[1])


@pytest.mark.parametrize("bit_generator", RAW_WORD_GENERATORS)
@pytest.mark.parametrize("buffered", [False, True])
def test_uniform_signs_match_integers_draw(bit_generator, buffered):
    ours, theirs = generator_pair(bit_generator, 5)
    if buffered:
        # one 32-bit draw leaves a word's high half buffered
        assert ours.integers(0, 2) == theirs.integers(0, 2)
    for size in (0, 1, 2, 3, 7):
        for n in (1, 3, 16):
            got = _uniform_signs(ours, size, n)
            want = theirs.integers(0, 2, (size, n)) == 1
            assert got.dtype == np.int8 and got.shape == (size, n)
            assert (got == np.where(want, 1, -1)).all()
            assert_same_state(ours, theirs)
    # more words than one generator call takes
    got = _uniform_signs(ours, 3, 50001)
    assert (got == np.where(theirs.integers(0, 2, (3, 50001)) == 1, 1, -1)).all()
    assert_same_state(ours, theirs)


@pytest.mark.parametrize("bit_generator", RAW_WORD_GENERATORS)
@pytest.mark.parametrize("n", [16, 64, 1024])
def test_h1_matches_uniform_threshold(bit_generator, n):
    params = adversarial_params(n)
    # the blocks where f = +1 and f = -1 draw with bias 1 and 0
    assert {0.0, 1.0} <= set(params.h1_bias.tolist())
    ours, theirs = generator_pair(bit_generator, n)
    got = AdversarialSampler(adversarial(n, "H1")).sample_batch(ours, 300)
    want = np.where(theirs.random((300, n)) < params.h1_bias, 1, -1)
    assert (got == want).all()
    assert_same_state(ours, theirs)


@pytest.mark.parametrize("n", [16, 256, 4096])
def test_h1_cut_is_exact_at_its_boundary(n):
    # the words on either side of each cut, where a rounded threshold
    # would first disagree with rng.random < h1_bias
    params = adversarial_params(n)
    cut = params.h1_cut.astype(object)
    for word in (cut * 2048 - 1, cut * 2048):
        word = np.array([min(max(int(w), 0), 2 ** 64 - 1) for w in word],
                        dtype=np.uint64)
        uniform = (word >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        assert ((word >> np.uint64(11)) < params.h1_cut).tolist() == (
            uniform < params.h1_bias).tolist()


def argsort_balanced_rows(rng, size, root):
    """Oracle: the argsort of each block's rng.random uniforms, +1 at the
    ranks of the block's first ell uniforms."""
    order = rng.random((size, root, root)).argsort(axis=2)
    return np.where(order < root // 2, 1, -1).reshape(size, root * root)


@pytest.mark.parametrize("root", range(4, 65, 2))
def test_balanced_branch_matches_argsort(monkeypatch, root):
    # any even root, so sort rows of one block and of several are covered
    params = replace(adversarial_params(16), n=root * root, root=root,
                     ell=root // 2)
    monkeypatch.setattr(sign_families, "adversarial_params", lambda n: params)
    sampler = AdversarialSampler(adversarial(16, "H", "balanced"))
    for bit_generator in RAW_WORD_GENERATORS:
        ours, theirs = generator_pair(bit_generator, root)
        for size in (0, 1, 5, 40):
            assert (sampler.sample_batch(ours, size)
                    == argsort_balanced_rows(theirs, size, root)).all()
        assert_same_state(ours, theirs)


class _ConstantWords(np.random.Philox):
    """Bit generator whose raw words are all one value."""

    def random_raw(self, size=None, output=True):
        return np.full(size, 0x0123456789ABCDEF, dtype=np.uint64)


@pytest.mark.parametrize("n", [16, 64, 256, 4096])
def test_balanced_branch_breaks_ties_by_source_index(n):
    # all uniforms equal: each block keeps its order, so its first ell
    # slots take the ell +1 entries
    sampler = make_sampler(adversarial(n, "H", "balanced"))
    root, ell = sampler.params.root, sampler.params.ell
    blocks = sampler.sample_batch(np.random.Generator(_ConstantWords(0)),
                                  3).reshape(3, root, root)
    assert (blocks[:, :, :ell] == 1).all() and (blocks[:, :, ell:] == -1).all()


@pytest.mark.parametrize("size", [0, 4])
def test_samplers_refuse_other_bit_generators(size):
    samplers = ([make_sampler(adversarial(16, stage))
                 for stage in ("H1", "H2", "H3", "H")]
                + [make_sampler(adversarial(16, "H", branch))
                   for branch in H_BRANCHES]
                + [make_sampler(FamilySpec(kind="FullyIndependent", n=16))])
    for sampler in samplers:
        rng = np.random.Generator(np.random.MT19937(3))
        with pytest.raises(TypeError, match="MT19937"):
            sampler.sample_batch(rng, size)


def take_along_rotation(rows, shifts, root):
    """Oracle: rotation by whole blocks through a full (size, n) index."""
    n = rows.shape[1]
    idx = (np.arange(n)[None, :] + (shifts * root)[:, None]) % n
    return np.take_along_axis(rows, idx, axis=1)


@pytest.mark.parametrize("n", [16, 64])
def test_rotate_blocks_matches_index_formula(n):
    root = int(round(n ** 0.5))
    # every entry of a row distinct, so any misplaced entry shows
    rows = ((np.arange(n)[None, :] + 7 * np.arange(2 * root)[:, None]) % n
            ).astype(np.int8)
    for d in range(root):
        shifts = np.full(len(rows), d)
        assert (_rotate_blocks(rows, shifts, root)
                == take_along_rotation(rows, shifts, root)).all()
    mixed = substream(71, n).integers(0, root, size=len(rows))
    got = _rotate_blocks(rows, mixed, root)
    assert got.dtype == np.int8 and got.flags.c_contiguous
    assert (got == take_along_rotation(rows, mixed, root)).all()
    assert _rotate_blocks(rows[:0], mixed[:0], root).shape == (0, n)


def reference_h3_rows(params, rng, size):
    """Oracle: stage H3 through n-wide masks, with every pair row rotated
    before it is overwritten."""
    n, root = params.n, params.root
    mode = np.searchsorted(params.mode_cdf, rng.random(size), side="right")
    base = np.where(rng.random((size, n)) < params.h1_bias, 1, -1)
    out = take_along_rotation(base, rng.integers(0, root, size=size), root)
    pair = np.nonzero(mode > 0)[0]
    if len(pair):
        c1s, c2s, forced = params.pair_modes
        sel = mode[pair] - 1
        rows = rng.integers(0, 2, size=(len(pair), n)) * 2 - 1
        block = np.arange(n) // root
        rows = np.where(block[None, :] == c1s[sel][:, None], 1, rows)
        out[pair] = np.where(block[None, :] == c2s[sel][:, None],
                             forced[sel][:, None], rows)
    return mode, out.astype(np.int8)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_h3_rows_match_reference_with_mixed_modes(n):
    params = adversarial_params(n)
    mode, expected = reference_h3_rows(params, substream(72, n), 400)
    assert (mode == 0).any() and (mode > 0).any()
    got = AdversarialSampler(adversarial(n, "H3")).sample_batch(substream(72, n),
                                                               400)
    assert (got == expected).all()


# --------------------------------------------------------------------------
# polynomial families

def test_kwise_pairwise_exhaustive_gf4():
    # all 16 linear polynomials over GF(4): every pair of the 4 coordinates
    # is exactly uniform over the four sign patterns
    signs = all_polynomial_signs(2, 4, 2)
    assert signs.shape == (16, 4)
    for i, j in combinations(range(4), 2):
        patterns = (signs[:, i] == 1) * 2 + (signs[:, j] == 1)
        assert (np.bincount(patterns, minlength=4) == 4).all()


def test_kwise_fourwise_exhaustive_gf16():
    # all 16^4 cubic polynomials over GF(16): every one of the 1820
    # 4-subsets of coordinates is exactly uniform over the 16 sign patterns
    signs = all_polynomial_signs(4, 16, 4)
    assert signs.shape == (65536, 16)
    bits = (signs == 1).astype(np.int64)
    for i, j, k, l in combinations(range(16), 4):
        pattern = bits[:, i] * 8 + bits[:, j] * 4 + bits[:, k] * 2 + bits[:, l]
        assert (np.bincount(pattern, minlength=16) == 65536 // 16).all()


def test_kwise_pairwise_exhaustive_gf16():
    # the degree-1 family over GF(16): all 120 coordinate pairs uniform
    signs = all_polynomial_signs(4, 16, 2)
    bits = (signs == 1).astype(np.int64)
    for i, j in combinations(range(16), 2):
        pattern = bits[:, i] * 2 + bits[:, j]
        assert (np.bincount(pattern, minlength=4) == len(signs) // 4).all()


def test_kwise_sampler_pair_balance():
    sampler = make_sampler(kwise(64, 4))
    rng = substream(21, 0)
    batch = sampler.sample_batch(rng, 10 ** 5).astype(np.float64)
    gram = batch.T @ batch / len(batch)
    off = gram - np.eye(64)
    assert np.abs(off).max() <= 5.0 / len(batch) ** 0.5
    assert sampler.sample_batch(rng, 1).shape == (1, 64)


# sha256 over sample_batch on KWISE_PIN_GRID, recorded with the per-sign
# popcount kernel that preceded the parity tables.
KWISE_PIN_GRID = [(4, 2), (16, 2), (16, 4), (100, 3), (1024, 4), (4096, 4),
                  (16384, 4), (16384, 2)]
KWISE_PIN_SIZES = [0, 1, 7, 1500]
KWISE_PIN_SHA256 = ("b484b9acb13656fd51d0888cbfb764fc"
                    "de61018499028cd4baf902c7e9da9611")


def test_kwise_sample_batch_pinned_stream():
    digest = hashlib.sha256()
    for n, k in KWISE_PIN_GRID:
        sampler = KWiseSampler(kwise(n, k))
        rng = np.random.default_rng(n * 100 + k)
        for size in KWISE_PIN_SIZES:
            batch = sampler.sample_batch(rng, size)
            assert batch.dtype == np.int8 and batch.shape == (size, n)
            digest.update(batch.tobytes())
    assert digest.hexdigest() == KWISE_PIN_SHA256


def test_kwise_rejects_bad_orders():
    # the spec owns the order rule; k = n is the largest order it allows
    for k in (1, 5):
        with pytest.raises(ValueError, match="2 <= k <= n"):
            kwise(4, k)
    assert make_sampler(kwise(4, 4)).sample_batch(substream(20, 0), 3).shape == (3, 4)


@pytest.mark.parametrize("k,tables", [(2, 0), (3, 0), (4, 16)])
def test_kwise_nibble_tables_only_for_nonlinear_powers(k, tables):
    # powers 1 and 2 go through the Walsh part; at width 64 each other
    # power has 16 nibble tables, and below k = 4 there is none
    nibbles = make_sampler(kwise(64, k)).tables.nibbles
    assert nibbles.shape[0] * nibbles.shape[1] == tables


def test_kwise_direct_batch_memory_is_bounded():
    # the int8 result alone is 6.1 MiB; the kernel's temporaries are
    # O(batch) words, not O(batch * tables)
    sampler = make_sampler(kwise(64, 4))
    tracemalloc.start()
    try:
        sampler.sample_batch(substream(22, 0), 10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


@pytest.mark.parametrize("sampler", [
    make_sampler(kwise(16, 4)),
    make_sampler(FamilySpec(kind="FullyIndependent", n=16)),
    make_sampler(adversarial(16, "H"))],
    ids=lambda sampler: type(sampler).__name__)
def test_samplers_reject_negative_sizes(sampler):
    with pytest.raises(ValueError, match="size must be nonnegative"):
        sampler.sample_batch(substream(23, 0), -1)
    assert sampler.sample_batch(substream(23, 0), 0).shape == (0, 16)


# --------------------------------------------------------------------------
# exact moments

@pytest.mark.parametrize("n", [16, 64, 256])
def test_exact_moments_h_identity(n):
    spec = FamilySpec(kind="AdversarialStage", n=n, stage="H")
    assert exact_moments(spec).is_identity()


def test_exact_moments_h2_same_block_entry():
    spec = FamilySpec(kind="AdversarialStage", n=16, stage="H2")
    moments = exact_moments(spec)
    assert second_moment(moments, 0, 1) == F(5, 8)
    assert all(mean_at(moments, i) == 0 for i in range(16))


def test_exact_moments_h1_diagonal():
    spec = FamilySpec(kind="AdversarialStage", n=16, stage="H1")
    moments = exact_moments(spec)
    assert second_moment(moments, 0, 0) == 1
    params = adversarial_params(16)
    assert mean_at(moments, 0) == params.f[0]
    assert second_moment(moments, 0, 4) == params.f[0] * params.f[1]


def test_exact_moments_h3_structure():
    spec = FamilySpec(kind="AdversarialStage", n=16, stage="H3")
    moments = exact_moments(spec)
    params = adversarial_params(16)
    assert second_moment(moments, 0, 1) == params.c6 / 4
    assert second_moment(moments, 0, 5) == 0


def test_exact_moments_resource_limit():
    spec = FamilySpec(kind="AdversarialStage", n=4 ** 9, stage="H")
    with pytest.raises(ResourceLimitError):
        exact_moments(spec)


def test_exact_moments_rejects_polynomial_families():
    with pytest.raises(ValueError):
        exact_moments(FamilySpec(kind="PolynomialKWise", n=16, k=2))


def dense_moments(moments):
    """The n-vector of E[h_i] and the n x n table of E[h_i h_j], expanded
    from the block tables through the coordinate accessors."""
    n = moments.root * moments.root
    return ([mean_at(moments, i) for i in range(n)],
            [[second_moment(moments, i, j) for j in range(n)] for i in range(n)])


def coordinate_moments(spec):
    """The n x n construction exact_moments returned before it went block
    level: one entry per coordinate pair, 1 on the diagonal."""
    params = adversarial_params(spec.n)
    n, root = params.n, params.root
    block = [i // root for i in range(n)]
    mean_block, pair_value = _stage_block_moments(params, spec.stage)
    mean = [mean_block[block[i]] for i in range(n)]
    one = F(1)
    covariance = [
        [one if i == j else pair_value[block[i]][block[j]] for j in range(n)]
        for i in range(n)
    ]
    return mean, covariance


@pytest.mark.parametrize("stage", ["H1", "H2", "H3", "H"])
def test_block_expansion_matches_coordinate_construction(stage):
    spec = FamilySpec(kind="AdversarialStage", n=64, stage=stage)
    moments = exact_moments(spec)
    mean, covariance = coordinate_moments(spec)
    assert dense_moments(moments) == (mean, covariance)
    floats = moments.second_moments_float()
    assert floats.shape == (64, 64)
    assert floats.tolist() == [[float(v) for v in row] for row in covariance]


BLOCK_NS = [16, 64, 256, 1024, 4096, 16384]


def _block_tables(n, stage):
    moments = exact_moments(FamilySpec(kind="AdversarialStage", n=n, stage=stage))
    root = adversarial_params(n).root
    assert moments.root == root and root * root == n
    assert len(moments.block_mean) == root
    assert [len(row) for row in moments.block_pair] == [root] * root
    return moments


@pytest.mark.parametrize("n", BLOCK_NS)
def test_block_tables_h_centered_identity(n):
    moments = _block_tables(n, "H")
    assert all(v == 0 for v in moments.block_mean)
    assert all(v == 0 for row in moments.block_pair for v in row)
    assert moments.is_identity()
    params = adversarial_params(n)
    assert params.p * params.c6 / params.root == (1 - params.p) / (params.root - 1)


@pytest.mark.parametrize("n", BLOCK_NS)
def test_block_tables_h3_within_block_only(n):
    moments = _block_tables(n, "H3")
    params = adversarial_params(n)
    same_block = params.c6 / params.root
    assert all(v == (same_block if c1 == c2 else 0)
               for c1, row in enumerate(moments.block_pair)
               for c2, v in enumerate(row))


@pytest.mark.parametrize("n", BLOCK_NS)
def test_block_tables_h2_centered_with_g(n):
    moments = _block_tables(n, "H2")
    assert all(v == 0 for v in moments.block_mean)
    assert moments.block_pair == [list(row) for row in adversarial_params(n).g]


@pytest.mark.parametrize("n", BLOCK_NS)
def test_block_tables_h1_mean_is_bias_profile(n):
    moments = _block_tables(n, "H1")
    assert moments.block_mean == list(adversarial_params(n).f)


@pytest.mark.parametrize("n", [16, 64])
def test_is_identity_equals_coordinate_scan(n):
    # every block entry is read by some off-diagonal pair, so the block
    # check agrees with the n^2 scan; one nonzero entry anywhere fails it
    for stage in ("H", "H2"):
        mean, covariance = coordinate_moments(
            FamilySpec(kind="AdversarialStage", n=n, stage=stage))
        scan = (all(v == 0 for v in mean)
                and all(v == (1 if i == j else 0)
                        for i, row in enumerate(covariance)
                        for j, v in enumerate(row)))
        moments = exact_moments(FamilySpec(kind="AdversarialStage", n=n,
                                           stage=stage))
        assert moments.is_identity() == scan == (stage == "H")
    moments = exact_moments(FamilySpec(kind="AdversarialStage", n=n, stage="H"))
    root = moments.root
    for c in range(root):
        moments.block_mean[c] = F(1, n)
        assert not moments.is_identity()
        moments.block_mean[c] = F(0)
        for c2 in range(root):
            moments.block_pair[c][c2] = F(-1, n)
            assert not moments.is_identity()
            moments.block_pair[c][c2] = F(0)
    assert moments.is_identity()


def test_exact_moments_at_the_limit():
    spec = FamilySpec(kind="AdversarialStage", n=4 ** 8, stage="H")
    assert exact_moments(spec).is_identity()


def test_empirical_moments_refuse_large_n_before_drawing():
    def no_draws(rng, size):
        raise AssertionError("sampled despite the size limit")

    sampler = SimpleNamespace(n=4 ** 7, sample_batch=no_draws)
    with pytest.raises(ResourceLimitError, match="n x n float64"):
        empirical_moments(sampler, 10, substream(3, 4))


def test_empirical_moments_single_trial_diagonal():
    spec = FamilySpec(kind="AdversarialStage", n=16, stage="H")
    emp = empirical_moments(make_sampler(spec), 1, substream(3, 3))
    assert all(emp.covariance[i][i] == 1.0 for i in range(16))


# --------------------------------------------------------------------------
# full enumeration oracle for the stage moments at n = 16

def _accumulate(mean, cov, prob, vector):
    n = len(vector)
    for i in range(n):
        if vector[i]:
            mean[i] += prob * vector[i]
    for i in range(n):
        vi = vector[i]
        row = cov[i]
        for j in range(n):
            row[j] += prob * vi * vector[j]


def _independent_moments(biases):
    """Exact moments of independent entries with P[+1] = biases[i],
    by enumerating every outcome of the strictly random positions."""
    n = len(biases)
    fixed = [1 if b == 1 else -1 if b == 0 else 0 for b in biases]
    free = [i for i in range(n) if fixed[i] == 0]
    mean = [F(0)] * n
    cov = [[F(0)] * n for _ in range(n)]
    for mask in range(1 << len(free)):
        vector = list(fixed)
        prob = F(1)
        for bit, i in enumerate(free):
            if mask >> bit & 1:
                vector[i] = 1
                prob *= biases[i]
            else:
                vector[i] = -1
                prob *= 1 - biases[i]
        _accumulate(mean, cov, prob, vector)
    return mean, cov


def _mix(components):
    """Convex mixture of (weight, mean, cov) triples."""
    n = len(components[0][1])
    mean = [sum((w * m[i] for w, m, _ in components), F(0)) for i in range(n)]
    cov = [[sum((w * c[i][j] for w, _, c in components), F(0))
            for j in range(n)] for i in range(n)]
    return mean, cov


@lru_cache(maxsize=None)
def _oracle_pieces():
    """Exactly enumerated moments at n=16: stages H1 and H2, the pair-mode
    components of H3 as (weight within H3, mean, cov), and the
    balanced-subset branch of H."""
    params = adversarial_params(16)
    root = params.root
    biases_h1 = [F(1, 2) + params.f[i // root] / 2 for i in range(16)]
    h1 = _independent_moments(biases_h1)

    shifts = [_independent_moments([biases_h1[(i + d * root) % 16]
                                    for i in range(16)]) for d in range(root)]
    h2 = _mix([(F(1, root), m, c) for m, c in shifts])

    pair_modes = []
    for c1 in range(root):
        for c2 in range(c1 + 1, root):
            forced = -1 if params.g[c1][c2] >= 0 else 1
            biases = [F(1, 2)] * 16
            for i in range(16):
                if i // root == c1:
                    biases[i] = F(1)
                elif i // root == c2:
                    biases[i] = F(1) if forced == 1 else F(0)
            weight = abs(params.g[c1][c2]) / params.g_scale
            pair_modes.append((weight, *_independent_moments(biases)))

    # balanced-subset branch: every way of choosing 2 of 4 positive signs
    # per block, uniformly
    subsets = list(combinations(range(root), params.ell))
    mean_b = [F(0)] * 16
    cov_b = [[F(0)] * 16 for _ in range(16)]
    prob = F(1, len(subsets) ** root)
    for choice in product(subsets, repeat=root):
        vector = [-1] * 16
        for block, subset in enumerate(choice):
            for offset in subset:
                vector[block * root + offset] = 1
        _accumulate(mean_b, cov_b, prob, vector)
    return h1, h2, tuple(pair_modes), (mean_b, cov_b)


def enumeration_oracle(stage):
    """Moments of any stage at n=16 by direct outcome enumeration."""
    params = adversarial_params(16)
    h1, h2, pair_modes, balanced = _oracle_pieces()
    if stage == "H1":
        return h1
    if stage == "H2":
        return h2
    h3 = _mix([(F(1) / params.g_scale, *h2), *pair_modes])
    if stage == "H3":
        return h3
    h3_neg = ([-v for v in h3[0]], h3[1])
    return _mix([
        (params.p / 2, *h3),
        (params.p / 2, *h3_neg),
        (1 - params.p, *balanced),
    ])


def branch_oracle(branch):
    """Moments at n=16 of stage H conditioned on one of its branches.

    The drift branch is H2 and the pair-mode branch is H3 given a pair
    mode, each under a fair global negation."""
    params = adversarial_params(16)
    _, h2, pair_modes, balanced = _oracle_pieces()
    if branch == "balanced":
        return balanced
    if branch == "drift":
        mean, cov = h2
    else:
        rescale = params.g_scale / (params.g_scale - 1)
        mean, cov = _mix([(w * rescale, m, c) for w, m, c in pair_modes])
    return _mix([(F(1, 2), mean, cov), (F(1, 2), [-v for v in mean], cov)])


@pytest.mark.parametrize("stage", ["H1", "H2", "H3", "H"])
def test_exact_moments_match_full_enumeration(stage):
    spec = FamilySpec(kind="AdversarialStage", n=16, stage=stage)
    mean, covariance = dense_moments(exact_moments(spec))
    oracle_mean, oracle_cov = enumeration_oracle(stage)
    assert mean == oracle_mean
    assert covariance == oracle_cov


@pytest.mark.parametrize("n", [16, 64, 256])
def test_h_branch_weights_sum_to_one(n):
    weights = adversarial_params(n).branch_weights
    assert tuple(weights) == H_BRANCHES
    assert sum(weights.values()) == 1
    assert all(0 < w < 1 for w in weights.values())


def test_h_branch_mixture_is_stage_h():
    params = adversarial_params(16)
    weights = params.branch_weights
    assert weights["drift"] == params.p / params.g_scale == F(1, 6)
    mixed = _mix([(weights[b], *branch_oracle(b)) for b in H_BRANCHES])
    assert mixed == enumeration_oracle("H")


@pytest.mark.parametrize("branch", H_BRANCHES)
def test_h_branch_empirical_moments_match_oracle(branch):
    sampler = make_sampler(adversarial(16, "H", branch))
    rng = substream(15, H_BRANCHES.index(branch))
    emp = empirical_moments(sampler, 10 ** 6, rng)
    oracle_mean, oracle_cov = branch_oracle(branch)
    tol = 5.0 / 10 ** 3
    assert max(abs(e - float(o)) for e, o in zip(emp.mean, oracle_mean)) <= tol
    worst = max(abs(emp.covariance[i][j] - float(oracle_cov[i][j]))
                for i in range(16) for j in range(16) if i != j)
    assert worst <= tol
    assert all(emp.covariance[i][i] == 1.0 for i in range(16))


def test_make_sampler_rejects_bad_branch():
    """A bad branch is refused when its spec is built, so no sampler for it
    exists: on stages H1/H2/H3, with names outside H_BRANCHES, and on the
    non-adversarial kinds."""
    for stage in ("H1", "H2", "H3"):
        with pytest.raises(ValueError, match="branch needs stage H"):
            make_sampler(adversarial(16, stage, "drift"))
    for name in ("H2", "Drift", ""):
        with pytest.raises(ValueError, match="branch needs stage H"):
            make_sampler(adversarial(16, "H", name))
    for kind, k in (("PolynomialKWise", 4), ("FullyIndependent", None)):
        with pytest.raises(ValueError, match="branch is read only by "
                           "AdversarialStage families; got branch=drift"):
            make_sampler(FamilySpec(kind=kind, n=16, k=k, branch="drift"))
    rng = substream(16, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        make_sampler(adversarial(16, "H", "pairs")).sample_batch(rng, -1)
    draws = make_sampler(adversarial(16, "H", "pairs")).sample_batch(rng, 0)
    assert draws.shape == (0, 16)


def test_make_sampler_is_cached_per_spec():
    spec = adversarial(64, "H", "pairs")
    assert make_sampler(spec) is make_sampler(replace(spec))
    assert spec.with_n(256).branch == "pairs"
    assert make_sampler(spec) is not make_sampler(replace(spec, branch="drift"))


@pytest.mark.parametrize("stage,branch", [(stage, None) for stage in
                                          ("H1", "H2", "H3", "H")]
                         + [("H", branch) for branch in H_BRANCHES])
def test_sampler_builds_its_tables_at_construction(stage, branch):
    adversarial_params.cache_clear()        # fresh params: no table built
    make_sampler.cache_clear()
    sampler = make_sampler(adversarial(64, stage, branch))
    params = sampler.params
    built = set(vars(params))
    sampler.sample_batch(substream(3, 0), 20)
    assert set(vars(params)) == built       # drawing builds nothing more
    pair_tables = {"mode_cdf", "pair_mode_cdf", "pair_modes"}
    if stage in ("H1", "H2") or branch in ("drift", "balanced"):
        assert not built & pair_tables


# --------------------------------------------------------------------------
# determinism

@pytest.mark.parametrize("stage", ["H1", "H2", "H3", "H"])
def test_adversarial_determinism(stage):
    spec = FamilySpec(kind="AdversarialStage", n=16, stage=stage)
    a = make_sampler(spec).sample_batch(substream(99, 0), 50)
    b = make_sampler(spec).sample_batch(substream(99, 0), 50)
    assert (a == b).all()


def test_kwise_determinism():
    sampler = make_sampler(kwise(32, 4))
    a = sampler.sample_batch(substream(5, 0), 20)
    b = sampler.sample_batch(substream(5, 0), 20)
    assert (a == b).all()
    c = sampler.sample_batch(substream(6, 0), 20)
    assert (a != c).any()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_determinism_any_seed(seed):
    spec = FamilySpec(kind="AdversarialStage", n=16, stage="H")
    a = make_sampler(spec).sample_batch(substream(seed, 0), 4)
    b = make_sampler(spec).sample_batch(substream(seed, 0), 4)
    assert (a == b).all()
