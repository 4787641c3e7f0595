from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwalks import maximal_inequality as mi
from kwalks.gf2 import pack_signs
from kwalks.rng import substream
from kwalks.sign_families import FamilySpec, make_sampler

F = Fraction


def build(sigmas):
    return mi.build_tree(mi.VarianceProfile.from_sigmas(sigmas))


def bad_mass(tree, q):
    """T-mass of the rank-q bad intervals, as a Fraction."""
    P, tab = tree.profile.nums, tree.table
    at = np.flatnonzero(tab.bad & (tab.rank == q))
    return F(sum(P[tab.b[i]] - P[tab.a[i]] for i in at), P[-1])


def spans(tree, **filters):
    out = []
    for node in tree.nodes:
        if all(getattr(node, key) == val for key, val in filters.items()):
            out.append((node.a, node.b))
    return out


# --------------------------------------------------------------------------
# profiles

def prefixes(profile):
    """The normalized variance prefixes T_0 = 0, ..., T_n = 1."""
    return tuple(F(p, profile.nums[-1]) for p in profile.nums)


def test_profile_uniform_prefixes():
    profile = mi.VarianceProfile.from_sigmas([F(1, 16)] * 16)
    assert prefixes(profile) == tuple(F(i, 16) for i in range(17))
    assert profile.n_original == profile.n_reduced == 16


def test_profile_drops_zero_variance():
    profile = mi.VarianceProfile.from_sigmas([1, 0, 2, 0])
    assert profile.kept == (1, 3)
    assert prefixes(profile) == (F(0), F(1, 3), F(1))


def test_profile_rejects_bad_input():
    with pytest.raises(mi.InvalidProfileError):
        mi.VarianceProfile.from_sigmas([])
    with pytest.raises(mi.InvalidProfileError):
        mi.VarianceProfile.from_sigmas([0, 0])
    with pytest.raises(mi.InvalidProfileError):
        mi.VarianceProfile.from_sigmas([1, -1])
    # non-finite values, as floats or strings, name their index
    for bad in (float("nan"), float("inf"), -float("inf"), np.float64("nan"),
                "nan", "inf"):
        with pytest.raises(mi.InvalidProfileError, match="variance 2 is not"):
            mi.VarianceProfile.from_sigmas([1, 0.5, bad, 2])
    with pytest.raises(mi.InvalidProfileError, match="variance 1 is not"):
        mi.VarianceProfile.from_sigmas(np.array([1.0, np.inf]))
    # exact inputs are read as before
    profile = mi.VarianceProfile.from_sigmas([1, F(1, 2), "1/3", "0.25", 0.5])
    assert prefixes(profile)[1:] == tuple(F(x, 31) for x in (12, 18, 22, 25, 31))


def test_profile_float_inputs_exact():
    profile = mi.VarianceProfile.from_sigmas([0.5, 0.5])
    assert prefixes(profile) == (F(0), F(1, 2), F(1))


# --------------------------------------------------------------------------
# tree construction

def test_uniform_profile_root_splits_in_window():
    tree = build([F(1, 16)] * 16)
    root = tree.nodes[0]
    assert root.shared_split is True
    left, right = tree.nodes[root.left], tree.nodes[root.right]
    assert (left.a, left.b) == (0, 8)
    assert (right.a, right.b) == (8, 16)
    # only zero-length intervals ever go bad on the uniform profile
    assert all(a == b for a, b in spans(tree, bad=True))
    for q in range(1, mi.max_rank(tree) + 1):
        assert bad_mass(tree, q) == 0


def test_even_split_profile():
    tree = build([F(1, 2), F(1, 2)])
    root = tree.nodes[0]
    assert root.shared_split is True
    assert (tree.nodes[root.left].a, tree.nodes[root.left].b) == (0, 1)
    assert (tree.nodes[root.right].a, tree.nodes[root.right].b) == (1, 2)
    # no bad interval carries any variance mass
    assert all(bad_mass(tree, q) == 0
               for q in range(1, mi.max_rank(tree) + 1))


def test_gap_profile_044_056():
    tree = build([F(44, 100), F(56, 100)])
    root = tree.nodes[0]
    assert root.shared_split is False
    left, right = tree.nodes[root.left], tree.nodes[root.right]
    assert (left.a, left.b) == (0, 1)
    assert (right.a, right.b) == (2, 2)
    assert left.bad and right.bad
    assert left.rank == right.rank == 1
    # the unit-length bad child splits again into rank-2 singletons
    inner = [tree.nodes[left.left], tree.nodes[left.right]]
    assert all(node.bad and node.rank == 2 for node in inner)
    assert bad_mass(tree, 1) == F(44, 100) <= F(9, 10)
    assert mi.check_invariants(tree) == []


def test_geometric_profile_nested_bad_ranks():
    tree = build([F(3, 10) ** i for i in range(1, 10)])
    ranks = {node.rank for node in tree.nodes if node.bad}
    assert 2 in ranks
    for q in range(1, mi.max_rank(tree) + 1):
        assert bad_mass(tree, q) <= F(9, 10) ** q


def test_adversarial_geometric_055():
    tree = build([F(55, 100) ** i for i in range(1, 20)])
    assert not mi.check_invariants(tree)
    for q in range(1, mi.max_rank(tree) + 1):
        assert bad_mass(tree, q) <= F(9, 10) ** q


def test_bad_mass_empty_rank():
    tree = build([F(1, 16)] * 16)
    assert bad_mass(tree, 40) == 0


def test_check_invariants_reports_rank_mass_over_bound():
    tree = build([F(1, 16)] * 16)
    # mark both halves of the root bad: rank-1 mass 1 > 0.9
    for idx in (tree.nodes[0].left, tree.nodes[0].right):
        tree.table.bad[idx], tree.table.rank[idx] = True, 1
    assert bad_mass(tree, 1) == 1
    assert "rank 1 mass exceeds 9/10^1" in mi.check_invariants(tree)


def two_pass_ranks(tree):
    """(bad, rank) per node as a second pass over a built tree assigned
    them: a stack walk from the root that marks the children of abutting
    splits bad and counts the bad intervals on each root path."""
    out = [None] * len(tree.nodes)
    order = [0]
    bad_depth = {0: 0}
    while order:
        idx = order.pop()
        node = tree.nodes[idx]
        depth = bad_depth[idx]
        bad = (node.parent is not None
               and tree.nodes[node.parent].shared_split is False)
        if bad:
            depth += 1
        out[idx] = (bad, depth if bad else None)
        if node.left is not None:
            bad_depth[node.left] = depth
            bad_depth[node.right] = depth
            order.append(node.left)
            order.append(node.right)
    return out


def test_build_tree_ranks_match_a_second_pass():
    rng = substream(31, 0)
    profiles = [[F(3, 10) ** i for i in range(1, 30)],
                [1, 0, 0, 2, 0, 3, 0, 1], [F(44, 100), F(56, 100)]]
    for i in range(17):
        sigmas = mi.random_variances(64 + 16 * i, 2.0 + i % 5, rng)
        if i % 2:       # zero-variance steps
            sigmas[rng.random(len(sigmas)) < 0.3] = 0.0
        profiles.append(sigmas)
    deepest = 0
    for sigmas in profiles:
        tree = build(sigmas)
        ranks = two_pass_ranks(tree)
        assert [(nd.bad, nd.rank) for nd in tree.nodes] == ranks
        P = tree.profile.nums
        assert mi.max_rank(tree) == max(
            (r for _, r in ranks if r is not None), default=0)
        for q in range(1, mi.max_rank(tree) + 2):
            mass = sum(P[nd.b] - P[nd.a]
                       for nd, (bad, r) in zip(tree.nodes, ranks)
                       if bad and r == q)
            assert bad_mass(tree, q) == F(mass, P[-1])
        deepest = max(deepest, mi.max_rank(tree))
    assert deepest >= 3


def test_classify_and_rank_returns_its_argument():
    tree = build([F(3, 10) ** i for i in range(1, 10)])
    ranks = [(nd.bad, nd.rank) for nd in tree.nodes]
    assert mi.classify_and_rank(tree) is tree
    assert [(nd.bad, nd.rank) for nd in tree.nodes] == ranks


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10 ** 6), min_size=2,
                max_size=40))
def test_invariants_on_arbitrary_profiles(raw):
    tree = build([F(x, 10 ** 6) for x in raw])
    assert mi.check_invariants(tree) == []


def _reference_problems(tree):
    """check_invariants as a per-level loop over IntervalNode objects that
    re-sorts every shallower leaf span: the reference the array version
    must match exactly.  The nodes are built from the table as it stands."""
    problems = []
    P = tree.profile.nums
    total = P[-1]
    n = tree.profile.n_reduced
    nodes = mi.IntervalTree(profile=tree.profile, table=tree.table).nodes
    leaf_spans = []
    for level, idxs in enumerate(tree.table.levels):
        idxs = idxs.tolist()
        spans = sorted((nodes[i].a, nodes[i].b) for i in idxs)
        cursor = -1
        for a, b in sorted(spans + leaf_spans):
            if a > cursor + 1:
                problems.append(f"level {level}: gap before {a}")
                break
            cursor = max(cursor, b)
        if cursor < n:
            problems.append(f"level {level}: coverage stops at {cursor}")
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            if b1 > a2:
                problems.append(f"level {level}: [{a1},{b1}] overlaps [{a2},{b2}]")
        den_pow = mi.LENGTH_DECAY.denominator ** level
        num_pow = mi.LENGTH_DECAY.numerator ** level
        for i in idxs:
            nd = nodes[i]
            if (P[nd.b] - P[nd.a]) * den_pow > num_pow * total:
                problems.append(
                    f"level {level}: [{nd.a},{nd.b}] longer than 0.55^{level}")
        leaf_spans += [(nodes[i].a, nodes[i].b) for i in idxs
                       if nodes[i].left is None]
    for nd in nodes:
        if nd.left is None or nd.shared_split is None:
            continue
        if nodes[nd.left].bad != nodes[nd.right].bad:
            problems.append(f"siblings of [{nd.a},{nd.b}] differ in badness")
    mass = {}
    for nd in nodes:
        if nd.bad:
            mass[nd.rank] = mass.get(nd.rank, 0) + P[nd.b] - P[nd.a]
    num, den = mi.RANK_DECAY.numerator, mi.RANK_DECAY.denominator
    for q in sorted(mass):
        if mass[q] * den ** q > num ** q * total:
            problems.append(f"rank {q} mass exceeds {mi.RANK_DECAY}^{q}")
    return problems


def test_check_invariants_matches_reference_on_corrupted_trees():
    rng = substream(2718, 0)
    reported = 0
    for trial in range(40):
        tree = mi.build_tree(mi.random_profile(128, 4.0, rng))
        n = tree.profile.n_reduced
        # move a few endpoints: gaps, overlaps, short coverage, long spans
        tab = tree.table
        for i in rng.choice(len(tab.a), size=trial % 5, replace=False):
            tab.a[i] = np.clip(tab.a[i] + rng.integers(-3, 4), 0, n)
            tab.b[i] = np.clip(tab.b[i] + rng.integers(-3, 4), tab.a[i], n)
        problems = mi.check_invariants(tree)
        assert problems == _reference_problems(tree)
        reported += bool(problems)
    assert reported >= 20


def test_invariants_on_seeded_profiles():
    rng = substream(12345, 0)
    for _ in range(20):     # the acceptance suite runs the full 200
        profile = mi.random_profile(256, 4.0, rng)
        tree = mi.build_tree(profile)
        assert mi.check_invariants(tree) == []


# --------------------------------------------------------------------------
# hop rule

def realization(profile, rng):
    steps = np.zeros(profile.n_original, dtype=np.int64)
    signs = rng.integers(0, 2, size=profile.n_reduced) * 2 - 1
    steps[np.array(profile.kept) - 1] = signs
    return np.concatenate([[0], np.cumsum(steps)])


# zero-variance steps; n_reduced of 1, 2 (window and abutting root split)
# and 3; both shared and abutting splits in one tree
SMALL_PROFILES = [[1, 0, 1, 0, 1], [0, 1, 0], [1, 1], [F(44, 100), F(56, 100)],
                  [1, 0, 2, 0, 4], [F(55, 100) ** i for i in range(1, 20)]]

REAL_HOP_START = mi._hop_start


def moved_hop_start(moves):
    """_hop_start with the hops that moves(end, a, b, shared) selects
    started from the other endpoint of the parent (from a when the rule
    says b, from b otherwise)."""
    def mutant(tab, S_red, par, end):
        start = REAL_HOP_START(tab, S_red, par, end)
        a, b = tab.a[par, None], tab.b[par, None]
        moved = np.where(start == a, b, a)
        return np.where(moves(end, a, b, tab.shared[par, None]), moved, start)
    return mutant


def inner(end, a, b):
    """Whether end lies strictly inside its parent [a, b]."""
    return (end != a) & (end != b)


# the good-min hop crosses the larger sibling
WINDOW_FLIP = moved_hop_start(lambda end, a, b, shared: inner(end, a, b) & shared)
# the bad hop crosses the sibling of the bad child holding its endpoint
ABUTTING_FLIP = moved_hop_start(lambda end, a, b, shared: inner(end, a, b) & ~shared)
# a chain on an endpoint of the parent hops across the parent
NEVER_EQUAL = moved_hop_start(lambda end, a, b, shared: ~inner(end, a, b))


@pytest.fixture
def split_case():
    """A seeded n = 256 tree with both split kinds, each with an inner
    endpoint, and 100 realizations at reduced positions alongside."""
    rng = substream(54, 0)
    tree = mi.build_tree(mi.random_profile(256, 4.0, rng))
    S = np.array([realization(tree.profile, rng) for _ in range(100)])
    splits = [(nd, tree.nodes[nd.left], tree.nodes[nd.right])
              for nd in tree.nodes if nd.left is not None]
    assert any(nd.shared_split for nd, _, _ in splits)
    assert any(not nd.shared_split and inner(lft.b, nd.a, nd.b)
               for nd, lft, _ in splits)
    assert mi.hop_rule_violations(tree, S) == 0
    return tree, S, S[:, [0, *tree.profile.kept]], splits


def test_good_min_hops_take_the_smaller_sibling(split_case, monkeypatch):
    tree, S, S_red, splits = split_case
    # a window split's two inner child endpoints are its split point; the
    # flipped hop breaks the rule on every row whose siblings' |increments|
    # differ
    differ = sum(
        2 * np.count_nonzero(np.abs(S_red[:, lft.b] - S_red[:, lft.a])
                             != np.abs(S_red[:, rgt.b] - S_red[:, rgt.a]))
        for nd, lft, rgt in splits if nd.shared_split)
    monkeypatch.setattr(mi, "_hop_start", WINDOW_FLIP)
    assert mi.hop_rule_violations(tree, S) == differ > 0


def test_bad_hops_cross_the_bad_child(split_case, monkeypatch):
    tree, S, _, splits = split_case
    inner_ends = sum(int(inner(lft.b, nd.a, nd.b)) + int(inner(rgt.a, nd.a, nd.b))
                     for nd, lft, rgt in splits if not nd.shared_split)
    monkeypatch.setattr(mi, "_hop_start", ABUTTING_FLIP)
    assert mi.hop_rule_violations(tree, S) == len(S) * inner_ends > 0
    monkeypatch.undo()
    # a bad hop must cross a bad node: unmark one child of an abutting split
    lft = next(nd.left for nd, lft, _ in splits
               if not nd.shared_split and inner(lft.b, nd.a, nd.b))
    tree.table.bad[lft] = False
    assert mi.hop_rule_violations(tree, S) == len(S)


def test_equal_hops_stay_on_the_parent_endpoint(split_case, monkeypatch):
    tree, S, _, splits = split_case
    # a parent's own endpoints are a of its left child, b of its right
    # child, and the inner endpoint of a singleton child
    outer_ends = sum(
        sum(int(not inner(e, nd.a, nd.b)) for e in (lft.a, lft.b, rgt.a, rgt.b))
        for nd, lft, rgt in splits)
    monkeypatch.setattr(mi, "_hop_start", NEVER_EQUAL)
    assert mi.hop_rule_violations(tree, S) == len(S) * outer_ends > 0


def test_bad_ranks_are_distinct_along_a_chain(split_case):
    tree, S, _, _ = split_case
    # a bad leaf deeper than rank 1 takes its nearest bad ancestor's rank
    leaf = next(i for i, nd in enumerate(tree.nodes)
                if nd.left is None and nd.bad and nd.rank >= 2)
    tree.table.rank[leaf] -= 1
    assert mi.hop_rule_violations(tree, S) == 1
    assert mi.hop_rule_violations(tree, S[0]) == 1


def test_hop_rule_holds_on_random_profiles():
    rng = substream(51, 0)
    for _ in range(5):
        profile = mi.random_profile(48, 4.0, rng)
        tree = mi.build_tree(profile)
        S = np.array([realization(profile, rng) for _ in range(5)])
        assert mi.hop_rule_violations(tree, S) == 0
        assert all(mi.hop_rule_violations(tree, row) == 0 for row in S)


def test_hop_rule_holds_on_small_profiles(monkeypatch):
    rng = substream(53, 0)
    flipped = 0
    for sigmas in SMALL_PROFILES:
        tree = build(sigmas)
        S = np.array([realization(tree.profile, rng) for _ in range(20)])
        assert mi.hop_rule_violations(tree, S) == 0
        assert mi.telescoping_defect(tree, S) == 0
        with monkeypatch.context() as m:
            m.setattr(mi, "_hop_start", ABUTTING_FLIP)
            flipped += mi.hop_rule_violations(tree, S)
    # the abutting splits of [44/100, 56/100] and 0.55^i have inner endpoints
    assert flipped > 0


def test_hop_rule_with_zero_variance_steps():
    tree = build([1, 0, 1, 0, 1])
    S = np.concatenate([[0], np.cumsum([1, 0, -1, 0, 1])])
    assert mi.hop_rule_violations(tree, S) == 0
    # realizations that move across dropped steps are rejected
    moves = np.concatenate([[0], np.cumsum([1, 1, -1, 0, 1])])
    with pytest.raises(ValueError, match="flat there"):
        mi.hop_rule_violations(tree, np.stack([S, moves]))


@pytest.mark.parametrize("batch", [False, True], ids=["row", "batch"])
def test_telescoping_defect_rejects_bad_realizations(batch):
    tree = build([1, 0, 1, 0, 1])
    S = np.concatenate([[0], np.cumsum([1, 0, -1, 0, 1])])
    moves = np.concatenate([[0], np.cumsum([1, 1, -1, 0, 1])])
    cases = [(moves, "flat there"), (np.append(S, 1), r"length n \+ 1"),
             (S[:-1], r"length n \+ 1")]
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            mi.telescoping_defect(tree, np.stack([bad, bad]) if batch else bad)
    with pytest.raises(ValueError, match="flat there"):
        mi.telescoping_defect(tree, np.stack([S, moves]))
    assert mi.telescoping_defect(tree, np.stack([S, S]) if batch else S) == 0


# --------------------------------------------------------------------------
# Monte Carlo tail

def test_mc_tail_independent_walk():
    n = 1024
    spec = FamilySpec(kind="FullyIndependent", n=n)
    lambdas = [2 * 32.0, 100 * 32.0]
    est = mi.mc_tail(spec, [1.0] * n, lambdas, 10 ** 4, seed=2)
    bound = n / lambdas[0] ** 2          # sum sigma_i^2 / lambda^2
    assert bound == pytest.approx(0.25)
    assert est.mean[0] <= bound + 3 * est.stderr[0]
    assert est.mean[1] == 0.0
    assert est.totals[1] == 0


def test_mc_tail_scaled_fourwise():
    n = 256
    rng = substream(60, 0)
    sigmas = np.sqrt(mi.random_variances(n, 4, rng))
    total = float((sigmas ** 2).sum())
    spec = FamilySpec(kind="PolynomialKWise", n=n, k=4)
    lambdas = [m * total ** 0.5 for m in (2, 4, 8)]
    est = mi.mc_tail(spec, sigmas, lambdas, 10 ** 4, seed=3)
    for mult, lam, p, stderr in zip((2, 4, 8), lambdas, est.mean, est.stderr):
        bound = total / lam ** 2
        assert bound == pytest.approx(1 / mult ** 2)
        assert p <= bound + 3 * stderr


def test_mc_tail_rejects_weak_independence():
    spec = FamilySpec(kind="AdversarialStage", n=16, stage="H")
    with pytest.raises(ValueError):
        mi.mc_tail(spec, [1.0] * 16, [4.0], 1000, seed=1)
    with pytest.raises(ValueError):
        mi.mc_tail(replace(spec, branch="drift"), [1.0] * 16, [4.0], 1000, seed=1)
    good = FamilySpec(kind="PolynomialKWise", n=16, k=4)
    with pytest.raises(ValueError):
        mi.mc_tail(good, [1.0] * 8, [4.0], 1000, seed=1)


def float_copy_tail_hits(batch, sigmas, lambdas):
    """Tail indicators through a float64 copy of the batch and an abs copy
    of its prefix sums."""
    steps = batch.astype(np.float64) * np.asarray(sigmas, dtype=np.float64)
    sups = np.abs(np.cumsum(steps, axis=1)).max(axis=1)
    return sups, sups[:, None] >= np.asarray(lambdas, dtype=np.float64)


def test_tail_hit_rows_match_float_copy_formula():
    n = 256
    rng = substream(61, 0)
    sigmas = tuple(float(s) for s in np.sqrt(mi.random_variances(n, 4, rng)))
    kwise = make_sampler(FamilySpec(kind="PolynomialKWise", n=n, k=4))
    batches = [
        kwise.sample_batch(rng, 200),
        np.ones((3, n), dtype=np.int8),
        -np.ones((3, n), dtype=np.int8),
        np.ones((0, n), dtype=np.int8),
    ]
    for batch in batches:
        sups, _ = float_copy_tail_hits(batch, sigmas, ())
        # thresholds on the old suprema themselves test every boundary
        lambdas = tuple(float(s) for s in sups[:16]) + (0.0, 1.0, 1e9)
        _, old = float_copy_tail_hits(batch, sigmas, lambdas)
        hits = mi.tail_hit_rows(pack_signs(batch), sigmas, lambdas)
        assert hits.shape == old.shape == (len(batch), len(lambdas))
        assert (hits == old).all()
