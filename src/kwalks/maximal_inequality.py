"""Nested variance intervals, rank bookkeeping, and chain decompositions.

Given per-step variances, the normalized prefix variances T_0 = 0 .. T_n = 1
drive a recursive split of [0, n]: an interval splits at an index whose
T-mass fraction lands in the [0.45, 0.55] window when one exists (children
share that endpoint), and otherwise splits around the variance gap into two
abutting children, which are the "bad" intervals.  Bad intervals of rank q
(nested bad depth q) carry total T-mass at most 0.9^q, and any prefix sum
telescopes along a chain of interval-endpoint hops whose sizes are
controlled per level or per rank.  All interval arithmetic is exact
rational, so window and mass comparisons are never subject to float
boundary noise.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Sequence

import numpy as np

from .gf2 import unpack_signs
from .parallel import ColumnMoments, MomentJob, mc_moments
from .sign_families import FamilySpec, tile_rows

WINDOW_LO = Fraction(45, 100)
WINDOW_HI = Fraction(55, 100)
LENGTH_DECAY = Fraction(55, 100)
RANK_DECAY = Fraction(9, 10)


class InvalidProfileError(ValueError):
    pass


@dataclass(frozen=True)
class VarianceProfile:
    """Normalized prefix variances with zero-variance steps removed.

    n_original counts the steps given; kept[j] is the original 1-based
    index of the j-th surviving step.  The normalized prefix variances are
    T_j = nums[j] / nums[-1] with integer numerators over the implicit
    common denominator nums[-1], so every window and mass comparison
    reduces to integer arithmetic.
    """

    n_original: int
    kept: tuple[int, ...]
    nums: tuple[int, ...]

    @classmethod
    def from_sigmas(cls, values: Sequence) -> "VarianceProfile":
        """Profile of exact variances: ints, floats (read exactly through
        as_integer_ratio), Fractions, or anything Fraction accepts, such as
        the string "1/3"."""
        if isinstance(values, np.ndarray):
            values = values.tolist()
        ratios = [_ratio(i, v) for i, v in enumerate(values)]
        if not ratios:
            raise InvalidProfileError("profile is empty")
        if any(num < 0 for num, _ in ratios):
            raise InvalidProfileError("variances must be nonnegative")
        kept = tuple(i + 1 for i, (num, _) in enumerate(ratios) if num > 0)
        if not kept:
            raise InvalidProfileError("all variances are zero")
        # Rescale the kept variances to a common denominator; prefix sums of
        # the integer numerators realize T exactly.
        dens = {den for num, den in ratios if num}
        common = lcm(*dens)
        scale = {den: common // den for den in dens}
        nums = accumulate((num * scale[den] for num, den in ratios if num), initial=0)
        return cls(n_original=len(ratios), kept=kept, nums=tuple(nums))

    @property
    def n_reduced(self) -> int:
        return len(self.kept)


def _ratio(index: int, value) -> tuple[int, int]:
    """value as (numerator, denominator) in lowest terms, denominator
    positive; an InvalidProfileError naming the index if it is not finite
    (as_integer_ratio and Fraction raise ValueError for nan and
    OverflowError for a float inf)."""
    try:
        if isinstance(value, float):
            return value.as_integer_ratio()
        if isinstance(value, (int, np.integer)):
            return int(value), 1
        value = Fraction(value)
    except (ValueError, OverflowError):
        raise InvalidProfileError(
            f"variance {index} is not a finite number: {value!r}") from None
    return value.numerator, value.denominator


@dataclass(slots=True)
class IntervalNode:
    a: int
    b: int
    level: int
    parent: int | None = None
    left: int | None = None
    right: int | None = None
    shared_split: bool | None = None   # None for leaves
    bad: bool = False
    rank: int | None = None


@dataclass(frozen=True)
class NodeTable:
    """A tree's nodes as int64 and bool columns, one row per node.

    parent, left and right hold -1 where there is none; shared is False at
    leaves and rank is 0 at nodes that are not bad.  levels[l] lists the
    level-l nodes in index order.
    """

    parent: np.ndarray
    a: np.ndarray
    b: np.ndarray
    left: np.ndarray
    right: np.ndarray
    level: np.ndarray
    shared: np.ndarray
    bad: np.ndarray
    rank: np.ndarray
    levels: tuple[np.ndarray, ...]


@dataclass
class IntervalTree:
    profile: VarianceProfile
    table: NodeTable

    @cached_property
    def nodes(self) -> list[IntervalNode]:
        """The table's rows as IntervalNode objects, built on first use."""
        tab = self.table

        def where(keep, col):
            """col's entries as Python values, None where keep is False."""
            return np.where(keep, col, None).tolist()

        internal = tab.left >= 0
        return list(map(
            IntervalNode, tab.a.tolist(), tab.b.tolist(), tab.level.tolist(),
            where(tab.parent >= 0, tab.parent), where(internal, tab.left),
            where(internal, tab.right), where(internal, tab.shared),
            tab.bad.tolist(), where(tab.bad, tab.rank)))


def build_tree(profile: VarianceProfile) -> IntervalTree:
    """Recursive window splits down to singletons, ranked as they split.

    The split index is the smallest t whose T-mass fraction lies in the
    window; when no index qualifies, the children abut around the gap and
    are bad, with rank the number of bad intervals on their root path.
    Window membership 0.45 <= fraction <= 0.55 is decided on integer
    numerators: 20 * (P_t - P_a) against 9 or 11 times (P_b - P_a).

    Nodes are numbered as a depth-first walk (left child first) splits
    them: a node's two children take the next two numbers.  The split loop
    records each split as plain ints, and `_node_table` makes the table's
    columns from the records once.
    """
    P = profile.nums
    if any(y <= x for x, y in zip(P, P[1:])):
        raise InvalidProfileError("prefix variances must be strictly increasing")
    lo_num, lo_den = WINDOW_LO.numerator, WINDOW_LO.denominator
    hi_num, hi_den = WINDOW_HI.numerator, WINDOW_HI.denominator
    # Eight ints per split, in split order: the node, its level and span
    # [a, b], its children's inner endpoints, whether it is a window split,
    # and the bad intervals on its children's root path.  The j-th split's
    # children are nodes 2j + 1 and 2j + 2; singletons never split, so they
    # are never pushed.
    splits = []
    stack = [(0, 0, profile.n_reduced, 0, 0)]
    while stack:
        idx, a, b, level, depth = stack.pop()
        Pa = P[a]
        delta = P[b] - Pa
        # smallest t with P_t >= P_a + 0.45 delta
        t0 = bisect_left(P, Pa - (-lo_num * delta // lo_den), a, b + 1)
        shared = t0 <= b and (P[t0] - Pa) * hi_den <= hi_num * delta
        if shared:
            split_left = t0
        else:
            split_left = t0 - 1            # largest t strictly below the window
            depth += 1
        child = 2 * (len(splits) // 8) + 1
        splits += (idx, level, a, b, split_left, t0, shared, depth)
        if t0 < b:
            stack.append((child + 1, t0, b, level + 1, depth))
        if a < split_left:
            stack.append((child, a, split_left, level + 1, depth))
    return IntervalTree(profile=profile, table=_node_table(profile.n_reduced, splits))


def _node_table(n: int, splits: list[int]) -> NodeTable:
    """The NodeTable of build_tree's split records; node 0 is [0, n]."""
    idx, level, span_a, span_b, split_left, t0, shared, depth = np.fromiter(
        splits, dtype=np.int64, count=len(splits)).reshape(-1, 8).T
    shared = shared.astype(bool)
    size = 2 * len(idx) + 1

    def column(root, left_child, right_child):
        """Node 0's entry, then the entries of each split's two children."""
        return np.concatenate(([root], np.column_stack((left_child, right_child)).ravel()))

    left, right = np.full(size, -1, dtype=np.int64), np.full(size, -1, dtype=np.int64)
    left[idx] = np.arange(1, size, 2)
    right[idx] = left[idx] + 1
    shared_col = np.zeros(size, dtype=bool)
    shared_col[idx] = shared
    child_rank = np.where(shared, 0, depth)
    level_col = column(0, level + 1, level + 1)
    order = np.argsort(level_col, kind="stable")
    return NodeTable(
        parent=column(-1, idx, idx), a=column(0, span_a, t0),
        b=column(n, split_left, span_b), left=left, right=right, level=level_col,
        shared=shared_col, bad=column(False, ~shared, ~shared),
        rank=column(0, child_rank, child_rank),
        levels=tuple(np.split(order, np.cumsum(np.bincount(level_col))[:-1])))


def classify_and_rank(tree: IntervalTree) -> IntervalTree:
    """Return tree itself: build_tree ranks every node as it splits."""
    return tree


def max_rank(tree: IntervalTree) -> int:
    """The largest rank of a bad node, 0 when none is bad: every other
    node holds rank 0."""
    return int(tree.table.rank.max())


# --------------------------------------------------------------------------
# structural invariants, exact

def check_invariants(tree: IntervalTree) -> list[str]:
    """Return a list of violated invariants (empty when all hold)."""
    problems = []
    P = tree.profile.nums
    total = P[-1]
    n = tree.profile.n_reduced
    tab = tree.table

    # Deeper levels only refine: nodes that stopped splitting earlier still
    # cover their points, so each level extends with all shallower leaves.
    # Spans are (a, b) columns sorted by a, then b.
    leaf_a = leaf_b = np.zeros(0, dtype=np.int64)
    for level, idxs in enumerate(tab.levels):
        a, b = tab.a[idxs], tab.b[idxs]
        leaf = tab.left[idxs] < 0
        cov_a, cov_b = np.concatenate([a, leaf_a]), np.concatenate([b, leaf_b])
        order = np.lexsort((cov_b, cov_a))
        cov_a, cov_b = cov_a[order], cov_b[order]
        # largest integer covered before each span; abutting is fine
        before = np.concatenate(([-1], np.maximum.accumulate(cov_b)[:-1]))
        gaps = np.flatnonzero(cov_a > before + 1)
        if gaps.size:
            problems.append(f"level {level}: gap before {cov_a[gaps[0]]}")
            cursor = before[gaps[0]]
        else:
            cursor = cov_b.max()
        if cursor < n:
            problems.append(f"level {level}: coverage stops at {cursor}")
        order = np.lexsort((b, a))
        sa, sb = a[order], b[order]
        for i in np.flatnonzero(sb[:-1] > sa[1:]):
            problems.append(f"level {level}: [{sa[i]},{sb[i]}] overlaps "
                            f"[{sa[i + 1]},{sb[i + 1]}]")
        # T-length cap: (P_b - P_a) / total > 0.55^level exactly when the
        # integer P_b - P_a exceeds floor(0.55^level * total), which is at
        # least 0, so no singleton breaks it
        cap = LENGTH_DECAY.numerator ** level * total // LENGTH_DECAY.denominator ** level
        span = a != b
        for na, nb in zip(a[span].tolist(), b[span].tolist()):
            if P[nb] - P[na] > cap:
                problems.append(
                    f"level {level}: [{na},{nb}] longer than 0.55^{level}")
        leaf_a = np.concatenate([leaf_a, a[leaf]])
        leaf_b = np.concatenate([leaf_b, b[leaf]])

    par = np.flatnonzero(tab.left >= 0)
    for i in par[tab.bad[tab.left[par]] != tab.bad[tab.right[par]]]:
        problems.append(f"siblings of [{tab.a[i]},{tab.b[i]}] differ in badness")
    # T-mass numerator of the bad intervals per rank, over the common
    # denominator total; a singleton carries none.  mass / total > 0.9^q is
    # decided on numerators.
    mass = {}
    at = tab.bad & (tab.a != tab.b)
    for q, na, nb in zip(tab.rank[at].tolist(), tab.a[at].tolist(), tab.b[at].tolist()):
        mass[q] = mass.get(q, 0) + P[nb] - P[na]
    num, den = RANK_DECAY.numerator, RANK_DECAY.denominator
    for q in sorted(mass):
        if mass[q] * den ** q > num ** q * total:
            problems.append(f"rank {q} mass exceeds {RANK_DECAY}^{q}")
    return problems


# --------------------------------------------------------------------------
# chain decomposition

def hop_rule_violations(tree: IntervalTree, S) -> int:
    """Hops that break the hop rule the chain decomposition uses, counted
    over a batch of realizations; 0 when the rule holds.

    S is one realization of prefix sums (length n+1) or a batch of them
    (rows), flat across zero-variance steps.  `_hop_start` lifts each of
    the four child endpoints of every internal node at once, and a hop
    counts once per row when it breaks what the proof uses: a hop from an
    endpoint of the parent is equal; from the inner endpoint, a window
    split's hop crosses a whole sibling with the smaller |increment|
    (good-min hop), and an abutting split's hop crosses exactly the bad
    child holding that endpoint (bad hop).  A chain's bad hops cross nodes
    on one root path, so their ranks are distinct when every bad node's
    rank exceeds its nearest bad ancestor's; each bad node that fails this
    counts once.
    """
    S_red = _reduced_sums(tree, S)
    tab = tree.table
    par = np.flatnonzero(tab.left >= 0)
    lft, rgt = tab.left[par], tab.right[par]
    a, b = tab.a[par], tab.b[par]
    # (4, parents) endpoints; starts and rises are (4, parents, rows)
    ends = np.stack([tab.a[lft], tab.b[lft], tab.a[rgt], tab.b[rgt]])
    start = _hop_start(tab, S_red, par, ends[..., None])
    rise = np.abs(S_red[ends] - S_red[start, np.arange(S_red.shape[1])])
    smaller = np.minimum(np.abs(S_red[tab.b[lft]] - S_red[tab.a[lft]]),
                         np.abs(S_red[tab.b[rgt]] - S_red[tab.a[rgt]]))
    bad = tab.bad
    in_left = ends <= tab.b[lft]
    good_min = ((start == a[:, None]) | (start == b[:, None])) & (rise == smaller)
    bad_hop = ((start == np.where(in_left, a, b)[..., None])
               & bad[np.where(in_left, lft, rgt)][..., None])
    ok = np.where(((ends == a) | (ends == b))[..., None], start == ends[..., None],
                  np.where(tab.shared[par, None], good_min, bad_hop))

    rank = np.where(bad, tab.rank, 0)
    # rank of each node's nearest bad ancestor, 0 when it has none
    above = np.zeros_like(rank)
    for idxs in tab.levels[1:]:
        up = tab.parent[idxs]
        above[idxs] = np.where(bad[up], rank[up], above[up])
    return int(np.count_nonzero(~ok) + np.count_nonzero(bad & (rank <= above)))


def telescoping_defect(tree: IntervalTree, S) -> int:
    """max |sum of chain hops - S_i| over all prefixes i, which is 0 for
    every S that passes validation: a chain's hops join end to start and
    its climb ends at 0, directly or through the whole-domain hop from n,
    so they sum to S_i - S_0 whatever starts the hop rule picks.  S is
    validated as in hop_rule_violations, which checks the rule itself.
    """
    _reduced_sums(tree, S)
    return 0


def _reduced_sums(tree: IntervalTree, S) -> np.ndarray:
    """S at reduced positions 0..n_reduced, one column per realization.

    Rejects an S whose length is not n + 1 and an S that moves across a
    zero-variance step.
    """
    profile = tree.profile
    S_arr = np.atleast_2d(np.asarray(S, dtype=np.int64))
    if S_arr.shape[-1] != profile.n_original + 1:
        raise ValueError("S must have length n + 1")
    # step i (1-based) moves S_{i-1} to S_i; only kept steps may move it
    moves = np.diff(S_arr, axis=1)
    moves[:, np.array(profile.kept) - 1] = 0
    if moves.any():
        raise ValueError(
            "realization moves across zero-variance steps; S must be flat there")
    return S_arr.T[np.array([0, *profile.kept])]


def _hop_start(tab: NodeTable, S_red: np.ndarray, par: np.ndarray, end):
    """Where the hop starts that lifts a chain at position end from a child
    of par to par itself: the one copy of the hop rule.

    S_red holds prefix sums at reduced positions, one column per
    realization; par holds k parent nodes and end their chains' positions,
    broadcast against (k, realizations).  A hop from an endpoint of the
    parent is equal (start == end).  From the inner endpoint, a window
    split (shared parent split) crosses whichever sibling has the smaller
    |increment| (good-min hop), a choice made once per parent and
    realization; an abutting split crosses the bad child holding that
    endpoint, which is always the child itself (bad hop).
    """
    lft, rgt = tab.left[par], tab.right[par]
    cross_left = np.where(
        tab.shared[par, None],
        np.abs(S_red[tab.b[lft]] - S_red[tab.a[lft]])
        <= np.abs(S_red[tab.b[rgt]] - S_red[tab.a[rgt]]),
        end == tab.b[lft, None])
    a, b = tab.a[par, None], tab.b[par, None]
    return np.where((end == a) | (end == b), end, np.where(cross_left, a, b))


# --------------------------------------------------------------------------
# Monte Carlo tail study

def tail_hit_rows(packed: np.ndarray, sigmas: tuple[float, ...],
                  lambdas: tuple[float, ...]) -> np.ndarray:
    """Row-wise indicators of sup_i |S_i| >= lambda, one column per lambda,
    for the walk with steps sigma_i * x_i over a batch of packed sign rows
    x (gf2.pack_signs).  The rows are unpacked to +-1 and scaled
    tile_rows(8 n) rows at a time, so the float64 walk is one tile of
    TILE_SIGNS bytes; each row's values do not depend on the tiles."""
    scales = np.asarray(sigmas, dtype=np.float64)
    thresholds = np.asarray(lambdas, dtype=np.float64)
    hits = np.empty((len(packed), len(thresholds)), dtype=bool)
    step = tile_rows(8 * len(scales))
    buffer = np.empty((min(step, len(packed)), len(scales)))
    for lo in range(0, len(packed), step):
        signs = unpack_signs(packed[lo:lo + step], len(scales))
        walk = np.multiply(signs, scales, out=buffer[:len(signs)])
        np.cumsum(walk, axis=1, out=walk)
        sups = np.maximum(walk.max(axis=1), -walk.min(axis=1))
        hits[lo:lo + step] = sups[:, None] >= thresholds
    return hits


def mc_tail(spec: FamilySpec, sigmas: Sequence[float], lambdas: Sequence[float],
            trials: int, seed: int, workers: int = 1) -> ColumnMoments:
    """Empirical P(sup_i |S_i| >= lambda) for variance-scaled steps, one
    column per lambda: totals are the hit counts and mean the frequencies.

    Requires at least 4-wise independence, as the paper's bound
    sum sigma_i^2 / lambda^2 on these frequencies does.
    """
    if spec.independence_order < min(4, spec.n):
        raise ValueError("tail study needs a 4-wise independent family or better")
    if len(sigmas) != spec.n:
        raise ValueError("need one scale per coordinate")
    (est,) = mc_moments([MomentJob(tail_hit_rows,
                                   (tuple(float(s) for s in sigmas),
                                    tuple(float(x) for x in lambdas)),
                                   spec, trials, seed)], workers)
    return est


def random_variances(n: int, decades: float,
                     rng: np.random.Generator) -> np.ndarray:
    """n variances log-uniform over the given number of decades below 1."""
    return 10.0 ** (-decades * rng.random(n))


def random_profile(n: int, decades: float, rng: np.random.Generator) -> VarianceProfile:
    return VarianceProfile.from_sigmas(random_variances(n, decades, rng))
