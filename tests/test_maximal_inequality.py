from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwalks import maximal_inequality as mi
from kwalks.rng import substream
from kwalks.sign_families import FamilySpec, make_sampler

F = Fraction


def build(sigmas):
    return mi.build_tree(mi.VarianceProfile.from_sigmas(sigmas))


def spans(tree, **filters):
    out = []
    for node in tree.nodes:
        if all(getattr(node, key) == val for key, val in filters.items()):
            out.append((node.a, node.b))
    return out


# --------------------------------------------------------------------------
# profiles

def test_profile_uniform_prefixes():
    profile = mi.VarianceProfile.from_sigmas([F(1, 16)] * 16)
    assert profile.T == tuple(F(i, 16) for i in range(17))
    assert profile.n_original == profile.n_reduced == 16


def test_profile_drops_zero_variance():
    profile = mi.VarianceProfile.from_sigmas([1, 0, 2, 0])
    assert profile.kept == (1, 3)
    assert profile.T == (F(0), F(1, 3), F(1))
    assert profile.reduced_position(0) == 0
    assert profile.reduced_position(2) == 1
    assert profile.reduced_position(4) == 2
    assert profile.original_position(2) == 3


def test_profile_rejects_bad_input():
    with pytest.raises(mi.InvalidProfileError):
        mi.VarianceProfile.from_sigmas([])
    with pytest.raises(mi.InvalidProfileError):
        mi.VarianceProfile.from_sigmas([0, 0])
    with pytest.raises(mi.InvalidProfileError):
        mi.VarianceProfile.from_sigmas([1, -1])


def test_profile_float_inputs_exact():
    profile = mi.VarianceProfile.from_sigmas([0.5, 0.5])
    assert profile.T == (F(0), F(1, 2), F(1))


# --------------------------------------------------------------------------
# tree construction

def test_uniform_profile_root_splits_in_window():
    tree = build([F(1, 16)] * 16)
    root = tree.root
    assert root.shared_split is True
    left, right = tree.nodes[root.left], tree.nodes[root.right]
    assert (left.a, left.b) == (0, 8)
    assert (right.a, right.b) == (8, 16)
    # only zero-length intervals ever go bad on the uniform profile
    assert all(a == b for a, b in spans(tree, bad=True))
    for q in range(1, mi.max_rank(tree) + 1):
        assert mi.bad_mass_exact(tree, q) == 0


def test_even_split_profile():
    tree = build([F(1, 2), F(1, 2)])
    root = tree.root
    assert root.shared_split is True
    assert (tree.nodes[root.left].a, tree.nodes[root.left].b) == (0, 1)
    assert (tree.nodes[root.right].a, tree.nodes[root.right].b) == (1, 2)
    # no bad interval carries any variance mass
    assert all(mi.bad_mass_exact(tree, q) == 0
               for q in range(1, mi.max_rank(tree) + 1))


def test_gap_profile_044_056():
    tree = build([F(44, 100), F(56, 100)])
    root = tree.root
    assert root.shared_split is False
    left, right = tree.nodes[root.left], tree.nodes[root.right]
    assert (left.a, left.b) == (0, 1)
    assert (right.a, right.b) == (2, 2)
    assert left.bad and right.bad
    assert left.rank == right.rank == 1
    # the unit-length bad child splits again into rank-2 singletons
    inner = [tree.nodes[left.left], tree.nodes[left.right]]
    assert all(node.bad and node.rank == 2 for node in inner)
    assert mi.bad_mass_exact(tree, 1) == F(44, 100) <= F(9, 10)
    assert mi.check_invariants(tree) == []


def test_geometric_profile_nested_bad_ranks():
    tree = build([F(3, 10) ** i for i in range(1, 10)])
    ranks = {node.rank for node in tree.nodes if node.bad}
    assert 2 in ranks
    for q in range(1, mi.max_rank(tree) + 1):
        assert mi.bad_mass_exact(tree, q) <= F(9, 10) ** q


def test_adversarial_geometric_055():
    tree = build([F(55, 100) ** i for i in range(1, 20)])
    assert not mi.check_invariants(tree)
    for q in range(1, mi.max_rank(tree) + 1):
        assert mi.bad_mass_exact(tree, q) <= F(9, 10) ** q


def test_bad_mass_empty_rank():
    tree = build([F(1, 16)] * 16)
    assert mi.bad_mass_exact(tree, 40) == 0


def test_check_invariants_reports_rank_mass_over_bound():
    tree = build([F(1, 16)] * 16)
    # mark both halves of the root bad: rank-1 mass 1 > 0.9
    for idx in (tree.root.left, tree.root.right):
        tree.nodes[idx].bad, tree.nodes[idx].rank = True, 1
    assert mi.bad_mass_exact(tree, 1) == 1
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
        if not node.is_leaf:
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
            assert mi.bad_mass_exact(tree, q) == F(mass, P[-1])
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
    """check_invariants as a per-level loop that re-sorts every shallower
    leaf span: the reference the array version must match exactly."""
    problems = []
    P = tree.profile.nums
    total = P[-1]
    n = tree.profile.n_reduced
    leaf_spans = []
    for level, idxs in enumerate(tree.table.levels):
        idxs = idxs.tolist()
        spans = sorted((tree.nodes[i].a, tree.nodes[i].b) for i in idxs)
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
            nd = tree.nodes[i]
            if (P[nd.b] - P[nd.a]) * den_pow > num_pow * total:
                problems.append(
                    f"level {level}: [{nd.a},{nd.b}] longer than 0.55^{level}")
        leaf_spans += [(tree.nodes[i].a, tree.nodes[i].b) for i in idxs
                       if tree.nodes[i].is_leaf]
    for nd in tree.nodes:
        if nd.is_leaf or nd.shared_split is None:
            continue
        if tree.nodes[nd.left].bad != tree.nodes[nd.right].bad:
            problems.append(f"siblings of [{nd.a},{nd.b}] differ in badness")
    mass = {}
    for nd in tree.nodes:
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
        for i in rng.choice(len(tree.nodes), size=trial % 5, replace=False):
            nd = tree.nodes[int(i)]
            nd.a = int(np.clip(nd.a + rng.integers(-3, 4), 0, n))
            nd.b = int(np.clip(nd.b + rng.integers(-3, 4), nd.a, n))
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
# chain paths

def realization(profile, rng):
    steps = np.zeros(profile.n_original, dtype=np.int64)
    signs = rng.integers(0, 2, size=profile.n_reduced) * 2 - 1
    steps[np.array(profile.kept) - 1] = signs
    return np.concatenate([[0], np.cumsum(steps)])


def validate_path(tree, S, path):
    profile = tree.profile
    assert path.hops[0].start == 0
    assert path.hops[-1].end == path.index
    for prev_hop, hop in zip(path.hops, path.hops[1:]):
        assert prev_hop.end == hop.start
    bad_spans = {(profile.original_position(nd.a), profile.original_position(nd.b)):
                 nd.rank for nd in tree.nodes if nd.bad}
    seen_ranks = []
    for hop in path.hops:
        if hop.kind == mi.HOP_EQUAL:
            assert S[hop.start] == S[hop.end]
        elif hop.kind == mi.HOP_BAD:
            lo, hi = min(hop.start, hop.end), max(hop.start, hop.end)
            assert (lo, hi) in bad_spans
            assert bad_spans[(lo, hi)] == hop.rank
            seen_ranks.append(hop.rank)
        elif hop.kind == mi.HOP_ROOT:
            assert (hop.start, hop.end) == (0, profile.original_position(
                profile.n_reduced))
        else:
            assert hop.kind == mi.HOP_GOOD_MIN
    # nested bad intervals have distinct ranks along one chain
    assert len(seen_ranks) == len(set(seen_ranks))


def test_chain_path_endpoints():
    rng = substream(50, 0)
    profile = mi.random_profile(64, 3.0, rng)
    tree = mi.build_tree(profile)
    S = realization(profile, rng)
    path0 = mi.chain_path(tree, S, 0)
    assert sum(S[h.end] - S[h.start] for h in path0.hops) == 0
    assert all(h.kind == mi.HOP_EQUAL for h in path0.hops)
    pathn = mi.chain_path(tree, S, 64)
    assert sum(S[h.end] - S[h.start] for h in pathn.hops) == S[64]


def test_chain_path_telescopes_everywhere():
    rng = substream(51, 0)
    for _ in range(5):
        profile = mi.random_profile(48, 4.0, rng)
        tree = mi.build_tree(profile)
        for _ in range(5):
            S = realization(profile, rng)
            for i in range(profile.n_original + 1):
                path = mi.chain_path(tree, S, i)
                assert sum(S[h.end] - S[h.start] for h in path.hops) == S[i]
                validate_path(tree, S, path)


def test_good_min_hops_take_the_smaller_sibling():
    rng = substream(52, 0)
    profile = mi.random_profile(64, 2.0, rng)
    tree = mi.build_tree(profile)
    orig = profile.original_position
    shared = {}
    for nd in tree.nodes:
        if nd.shared_split:
            left, right = tree.nodes[nd.left], tree.nodes[nd.right]
            shared[orig(left.b)] = (orig(left.a), orig(left.b),
                                    orig(right.a), orig(right.b))
    S = realization(profile, rng)
    for i in range(65):
        for hop in mi.chain_path(tree, S, i).hops:
            if hop.kind != mi.HOP_GOOD_MIN:
                continue
            la, lb, ra, rb = shared[hop.end]
            inc = abs(S[hop.end] - S[hop.start])
            assert inc == min(abs(S[lb] - S[la]), abs(S[rb] - S[ra]))


# zero-variance steps; n_reduced of 1, 2 (window and abutting root split)
# and 3; both shared and abutting splits in one tree
SMALL_PROFILES = [[1, 0, 1, 0, 1], [0, 1, 0], [1, 1], [F(44, 100), F(56, 100)],
                  [1, 0, 2, 0, 4], [F(55, 100) ** i for i in range(1, 20)]]


def test_telescoping_defect_matches_chain_path():
    rng = substream(53, 0)
    profile = mi.random_profile(128, 4.0, rng)
    batch = np.cumsum(
        (rng.integers(0, 2, size=(50, 128)) * 2 - 1).astype(np.int64), axis=1)
    S = np.concatenate([np.zeros((50, 1), dtype=np.int64), batch], axis=1)
    cases = [(profile, S)]
    for sigmas in SMALL_PROFILES:
        small = mi.VarianceProfile.from_sigmas(sigmas)
        cases.append((small, np.array([realization(small, rng)
                                       for _ in range(20)])))
    for profile, S in cases:
        tree = mi.build_tree(profile)
        per_row = [mi.telescoping_defect(tree, row) for row in S]
        assert mi.telescoping_defect(tree, S) == max(per_row) == 0
        for row in S:
            for i in range(profile.n_original + 1):
                path = mi.chain_path(tree, row, i)
                assert sum(row[h.end] - row[h.start] for h in path.hops) == row[i]
                validate_path(tree, row, path)


def test_chain_path_with_zero_variance_steps():
    profile = mi.VarianceProfile.from_sigmas([1, 0, 1, 0, 1])
    tree = mi.build_tree(profile)
    steps = np.array([1, 0, -1, 0, 1])
    S = np.concatenate([[0], np.cumsum(steps)])
    for i in range(6):
        path = mi.chain_path(tree, S, i)
        assert sum(S[h.end] - S[h.start] for h in path.hops) == S[i]
    # a dropped index maps onto its predecessor through an equal hop
    path = mi.chain_path(tree, S, 2)
    assert path.hops[-1].kind == mi.HOP_EQUAL
    assert path.hops[-1].end == 2
    # realizations that move across dropped steps are rejected
    bad_S = np.concatenate([[0], np.cumsum([1, 1, -1, 0, 1])])
    with pytest.raises(ValueError):
        mi.chain_path(tree, bad_S, 2)


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
    rows = mi.mc_tail(spec, [1.0] * n, [2 * 32.0, 100 * 32.0], 10 ** 4, seed=2)
    assert rows[0].variance_bound == pytest.approx(0.25)
    assert rows[0].empirical_p <= 0.25 + 3 * rows[0].stderr
    assert rows[1].empirical_p == 0.0
    assert rows[1].hits == 0


def test_mc_tail_scaled_fourwise():
    n = 256
    rng = substream(60, 0)
    sigmas = np.sqrt(mi.random_variances(n, 4, rng))
    total = float((sigmas ** 2).sum())
    spec = FamilySpec(kind="PolynomialKWise", n=n, k=4)
    lambdas = [m * total ** 0.5 for m in (2, 4, 8)]
    rows = mi.mc_tail(spec, sigmas, lambdas, 10 ** 4, seed=3)
    for mult, row in zip((2, 4, 8), rows):
        assert row.variance_bound == pytest.approx(1 / mult ** 2)
        assert row.empirical_p <= row.variance_bound + 3 * row.stderr


def test_mc_tail_rejects_weak_independence():
    spec = FamilySpec(kind="AdversarialStage", n=16, stage="H")
    with pytest.raises(ValueError):
        mi.mc_tail(spec, [1.0] * 16, [4.0], 1000, seed=1)
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
        hits = mi.tail_hit_rows(batch, sigmas, lambdas)
        assert hits.shape == old.shape == (len(batch), len(lambdas))
        assert (hits == old).all()
