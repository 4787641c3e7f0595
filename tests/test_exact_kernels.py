"""The integer kernels of the exact layer against per-object reference
code: Fraction arithmetic per table entry for the stage moment tables, one
Fraction per variance for the profile numerators, and one IntervalNode per
node, made through a keyword dict, for the interval tree.  Every comparison
is exact equality."""

import json
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwalks import maximal_inequality as mi
from kwalks.rng import substream
from kwalks.sign_families import STAGES, _stage_block_moments, adversarial_params

F = Fraction
ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------------------
# stage moment tables

def fraction_stage_block_moments(params, stage):
    """Per-block mean and per-block-pair E[h_i h_j] (i != j) for a stage,
    one Fraction operation per term."""
    root = params.root
    f, g = params.f, params.g

    if stage == "H1":
        return list(f), [[a * b for b in f] for a in f]

    if stage == "H2":
        return [Fraction(0)] * root, [list(row) for row in g]

    if stage == "H3":
        gs = params.g_scale
        mean = [(sum(abs(v) for v in g[c][c + 1:])
                 - sum(g[a][c] for a in range(c))) / gs for c in range(root)]
        pair = [[(sum(abs(v) for v in g[c1]) if c1 == c2
                  else g[c1][c2] - g[min(c1, c2)][max(c1, c2)]) / gs
                 for c2 in range(root)] for c1 in range(root)]
        return mean, pair

    if stage == "H":
        p = params.p
        _, pair3 = fraction_stage_block_moments(params, "H3")
        mean = [Fraction(0)] * root
        within = Fraction(-1, root - 1)
        pair = [[p * v + (1 - p) * (within if c1 == c2 else 0)
                 for c2, v in enumerate(row)] for c1, row in enumerate(pair3)]
        return mean, pair

    raise ValueError(f"stage must be one of {STAGES}")


@pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096])
@pytest.mark.parametrize("stage", STAGES)
def test_stage_tables_match_fraction_oracle(stage, n):
    params = adversarial_params(n)
    mean, pair = _stage_block_moments(params, stage)
    assert (mean, pair) == fraction_stage_block_moments(params, stage)
    assert all(type(v) is Fraction for v in mean)
    assert all(type(v) is Fraction for row in pair for v in row)
    # fresh lists: a caller may write into them
    assert len({id(row) for row in pair}) == len(pair)
    assert all(row is not g_row for row, g_row in zip(pair, params.g))


class Skewed:
    """AdversarialParams with a g that is neither circulant nor symmetric."""

    def __init__(self, params, seed):
        rng = substream(seed, 0)
        self.root, self.f, self.g_scale, self.p = (
            params.root, params.f, params.g_scale, params.p)
        self.g = tuple(tuple(v + F(int(rng.integers(-5, 6)), int(rng.integers(1, 9)))
                             for v in row) for row in params.g)


@pytest.mark.parametrize("stage", ["H3", "H"])
def test_stage_tables_take_no_shortcut_on_a_skewed_g(stage):
    # the H3 and H checks exist to catch a g without the circulant
    # symmetry; the kernel must give the oracle's tables on such a g too
    for n, seed in ((16, 1), (64, 2), (256, 3)):
        params = Skewed(adversarial_params(n), seed)
        got = _stage_block_moments(params, stage)
        assert got == fraction_stage_block_moments(params, stage)
        assert any(v != 0 for row in got[1] for v in row)


# --------------------------------------------------------------------------
# variance profiles

def fraction_profile_numerators(values):
    """(kept, nums) of a profile, one Fraction per variance."""
    sigmas = tuple(Fraction(v) for v in values)
    kept = tuple(i + 1 for i, s in enumerate(sigmas) if s.numerator > 0)
    den = 1
    for i in kept:
        den = lcm(den, sigmas[i - 1].denominator)
    nums = [0]
    for i in kept:
        s = sigmas[i - 1]
        nums.append(nums[-1] + s.numerator * (den // s.denominator))
    return kept, tuple(nums)


def seeded_sigmas(n, seed, zeros):
    rng = substream(seed, 0)
    sigmas = mi.random_variances(n, 2.0 + seed % 5, rng)
    if zeros:
        sigmas[rng.random(n) < 0.3] = 0.0
    return sigmas


@pytest.mark.parametrize("values", [
    [F(1, 3), 0, 2, 0.25, "1/7", "0.5", np.float64(1e-300), True],
    [0.1, 0.2, 0.30000000000000004, 5e-324, 1.7976931348623157e308],
    [0, 0, F(2, 9)],
], ids=["mixed", "float-extremes", "leading-zeros"])
def test_profile_numerators_match_fraction_oracle(values):
    profile = mi.VarianceProfile.from_sigmas(values)
    assert (profile.kept, profile.nums) == fraction_profile_numerators(values)
    assert profile.n_original == len(values)


def test_numpy_integers_are_read_as_python_ints():
    # a Fraction keeps a numpy integer's type, and its rescaled numerator
    # would overflow int64 beside a float as small as 1e-300
    profile = mi.VarianceProfile.from_sigmas([np.int64(3), 1e-300, np.uint8(2)])
    assert profile == mi.VarianceProfile.from_sigmas([3, 1e-300, 2])
    assert all(type(v) is int for v in profile.nums)


def test_seeded_profile_numerators_match_fraction_oracle():
    for i, n in enumerate((64, 256, 1024, 4096)):
        for zeros in (False, True):
            sigmas = seeded_sigmas(n, i, zeros)
            profile = mi.VarianceProfile.from_sigmas(sigmas)
            assert (profile.kept, profile.nums) == fraction_profile_numerators(sigmas)
            assert profile == mi.VarianceProfile.from_sigmas(sigmas.tolist())


# --------------------------------------------------------------------------
# interval trees

def object_build_tree(profile):
    """The nodes of build_tree, one IntervalNode each, split by the same
    rule in the same order."""
    P = list(profile.nums)
    nodes = [mi.IntervalNode(a=0, b=profile.n_reduced, level=0)]
    stack = [(0, 0)]
    while stack:
        idx, depth = stack.pop()
        node = nodes[idx]
        a, b = node.a, node.b
        if a == b:
            continue
        delta = P[b] - P[a]
        lo_threshold = P[a] + -(-mi.WINDOW_LO.numerator * delta
                                // mi.WINDOW_LO.denominator)
        t0 = bisect_left(P, lo_threshold, a, b + 1)
        if (t0 <= b and (P[t0] - P[a]) * mi.WINDOW_HI.denominator
                <= mi.WINDOW_HI.numerator * delta):
            split_left, split_right = t0, t0
            shared = True
        else:
            split_left = t0 - 1
            split_right = t0
            shared = False
        node.shared_split = shared
        if not shared:
            depth += 1
        child = dict(level=node.level + 1, parent=idx, bad=not shared,
                     rank=None if shared else depth)
        left = mi.IntervalNode(a=a, b=split_left, **child)
        right = mi.IntervalNode(a=split_right, b=b, **child)
        node.left = len(nodes)
        nodes.append(left)
        node.right = len(nodes)
        nodes.append(right)
        stack.append((node.right, depth))
        stack.append((node.left, depth))
    return nodes


def columns_of(nodes):
    """NodeTable columns of a node list, as lists, and its level index."""
    def ints(values):
        return [-1 if v is None else v for v in values]

    cols = {
        "parent": ints(nd.parent for nd in nodes),
        "a": [nd.a for nd in nodes], "b": [nd.b for nd in nodes],
        "left": ints(nd.left for nd in nodes),
        "right": ints(nd.right for nd in nodes),
        "level": [nd.level for nd in nodes],
        "shared": [bool(nd.shared_split) for nd in nodes],
        "bad": [nd.bad for nd in nodes],
        "rank": [nd.rank if nd.bad else 0 for nd in nodes],
    }
    levels = [[i for i, nd in enumerate(nodes) if nd.level == lv]
              for lv in range(max(cols["level"]) + 1)]
    return cols, levels


def assert_tree_matches_oracle(profile):
    tree = mi.build_tree(profile)
    nodes = object_build_tree(profile)
    cols, levels = columns_of(nodes)
    tab = tree.table
    for name, expected in cols.items():
        column = getattr(tab, name)
        assert column.dtype == (bool if name in ("shared", "bad") else np.int64)
        assert column.tolist() == expected, name
    assert [idxs.tolist() for idxs in tab.levels] == levels
    assert tree.nodes == nodes
    return tree


def test_trees_match_object_oracle_on_seeded_profiles():
    deepest = 0
    for i, n in enumerate((64, 256, 1024, 4096)):
        for zeros in (False, True):
            sigmas = seeded_sigmas(n, 10 + i, zeros)
            tree = assert_tree_matches_oracle(mi.VarianceProfile.from_sigmas(sigmas))
            deepest = max(deepest, mi.max_rank(tree))
    assert deepest >= 2


@pytest.mark.parametrize("sigmas", [
    [1], [0, 1, 0], [1, 1], [F(44, 100), F(56, 100)], [1, 0, 2, 0, 4],
    [F(55, 100) ** i for i in range(1, 20)], [F(3, 10) ** i for i in range(1, 30)],
], ids=["one", "one-kept", "two", "gap", "zeros", "geometric-055", "geometric-03"])
def test_trees_match_object_oracle_on_small_profiles(sigmas):
    assert_tree_matches_oracle(mi.VarianceProfile.from_sigmas(sigmas))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=2,
                max_size=40).filter(any))
def test_trees_match_object_oracle_on_arbitrary_profiles(raw):
    # the profiles of test_invariants_on_arbitrary_profiles, with
    # zero-variance steps allowed
    assert_tree_matches_oracle(
        mi.VarianceProfile.from_sigmas([F(x, 10 ** 6) for x in raw]))


# --------------------------------------------------------------------------
# kernel harness

def test_bench_exact_writes_its_file(tmp_path):
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_exact.py"), "--repeats", "3",
         "--moment-n", "16", "64", "--tree-n", "64", "--out-dir", str(tmp_path)],
        check=True, capture_output=True, text=True).stdout
    (path,) = tmp_path.glob("BENCH_exact_*.json")
    assert out.splitlines()[-1] == str(path)
    result = json.loads(path.read_text())
    assert {"revision", "python", "numpy", "nproc"} <= set(result)
    assert list(result["kernels"]) == [
        "exact_moments_H_n16", "exact_moments_H_n64", "h2_check_n64",
        "from_sigmas_n64", "build_tree_n64", "check_invariants_n64",
        "prefix_minima_n1024", "chain_forms_identity_m4096"]
    assert list(result["cold"]) == ["prefix_minima_n1024"]
    for stats in [*result["kernels"].values(), *result["cold"].values()]:
        assert stats["repeats"] == 3
        assert 0 <= stats["q1_s"] <= stats["median_s"] <= stats["q3_s"]
    for stats in result["kernels"].values():
        assert isinstance(stats["tracemalloc_peak_bytes"], int)
    # the minima hold one 1024 x 1024 float64 array and one column tile
    assert 8 * 1024 ** 2 < result["kernels"]["prefix_minima_n1024"][
        "tracemalloc_peak_bytes"] <= 1.5 * 8 * 1024 ** 2
    # the chain forms hold two buffers the size of W, 100 x 4097 float64
    w_bytes = 100 * 4097 * 8
    assert 2 * w_bytes <= result["kernels"]["chain_forms_identity_m4096"][
        "tracemalloc_peak_bytes"] <= 2.5 * w_bytes
    # the cold call's peak takes in the factor, 8 MiB at n = 1024
    cold = result["cold"]["prefix_minima_n1024"]
    assert cold["vmhwm_before_kib"] + 8 * 1024 <= cold["vmhwm_after_kib"]
    # a second run on the same day keeps the first file
    again = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_exact.py"), "--repeats", "2",
         "--moment-n", "16", "--tree-n", "16", "--out-dir", str(tmp_path)],
        check=True, capture_output=True, text=True).stdout.splitlines()[-1]
    assert again == str(path.with_name(path.stem + "_2.json"))
    assert json.loads(path.read_text()) == result
