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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .parallel import mc_moments
from .sign_families import FamilySpec

WINDOW_LO = Fraction(45, 100)
WINDOW_HI = Fraction(55, 100)
LENGTH_DECAY = Fraction(55, 100)
RANK_DECAY = Fraction(9, 10)

HOP_EQUAL = "equal"
HOP_BAD = "bad-hop"
HOP_GOOD_MIN = "good-min-hop"
HOP_ROOT = "root-span"


class InvalidProfileError(ValueError):
    pass


@dataclass(frozen=True)
class VarianceProfile:
    """Normalized prefix variances with zero-variance steps removed.

    kept[j] is the original 1-based index of the j-th surviving step.
    The normalized prefix variances are T_j = nums[j] / nums[-1] with
    integer numerators over the implicit common denominator nums[-1], so
    every window and mass comparison reduces to integer arithmetic.
    """

    sigma_sq: tuple[Fraction, ...]
    kept: tuple[int, ...]
    nums: tuple[int, ...]

    @classmethod
    def from_sigmas(cls, values: Sequence) -> "VarianceProfile":
        sigmas = tuple(Fraction(v) for v in values)
        if not sigmas:
            raise InvalidProfileError("profile is empty")
        # a Fraction's sign is its numerator's
        if any(s.numerator < 0 for s in sigmas):
            raise InvalidProfileError("variances must be nonnegative")
        kept = tuple(i + 1 for i, s in enumerate(sigmas) if s.numerator > 0)
        if not kept:
            raise InvalidProfileError("all variances are zero")
        # Rescale the kept variances to a common denominator; prefix sums of
        # the integer numerators realize T exactly.
        den = 1
        for i in kept:
            den = lcm(den, sigmas[i - 1].denominator)
        nums = [0]
        for i in kept:
            s = sigmas[i - 1]
            nums.append(nums[-1] + s.numerator * (den // s.denominator))
        return cls(sigma_sq=sigmas, kept=kept, nums=tuple(nums))

    @property
    def T(self) -> tuple[Fraction, ...]:
        total = self.nums[-1]
        return tuple(Fraction(p, total) for p in self.nums)

    @property
    def n_original(self) -> int:
        return len(self.sigma_sq)

    @property
    def n_reduced(self) -> int:
        return len(self.kept)

    def reduced_position(self, i: int) -> int:
        """Number of surviving steps with original index <= i."""
        if not 0 <= i <= self.n_original:
            raise ValueError(f"position must lie in 0..{self.n_original}")
        return bisect_right(self.kept, i)

    def original_position(self, j: int) -> int:
        """Original index of reduced position j (0 maps to 0)."""
        return 0 if j == 0 else self.kept[j - 1]


@dataclass
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

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class NodeTable:
    """A tree's nodes as arrays indexed like tree.nodes, built once.

    parent, left and right hold -1 where there is none; shared is False at
    leaves.  levels[l] lists the level-l nodes in index order, and
    first_leaf[j] is the first-built leaf [j, j] per reduced position j.
    """

    parent: np.ndarray
    a: np.ndarray
    b: np.ndarray
    left: np.ndarray
    right: np.ndarray
    shared: np.ndarray
    levels: tuple[np.ndarray, ...]
    first_leaf: np.ndarray

    @classmethod
    def of(cls, nodes: list[IntervalNode], n_reduced: int) -> "NodeTable":
        parent, a, b, left, right, level = np.array(
            [(-1 if nd.parent is None else nd.parent, nd.a, nd.b,
              -1 if nd.left is None else nd.left,
              -1 if nd.right is None else nd.right, nd.level)
             for nd in nodes], dtype=np.int64).T
        shared = np.array([bool(nd.shared_split) for nd in nodes])
        order = np.argsort(level, kind="stable")
        levels = tuple(np.split(order, np.cumsum(np.bincount(level))[:-1]))
        leaves = np.flatnonzero(left < 0)
        # np.unique returns each position's first occurrence among leaves
        positions, first = np.unique(a[leaves], return_index=True)
        if len(positions) != n_reduced + 1:
            raise RuntimeError("some positions never reached a singleton leaf")
        return cls(parent=parent, a=a, b=b, left=left, right=right,
                   shared=shared, levels=levels, first_leaf=leaves[first])


@dataclass
class IntervalTree:
    profile: VarianceProfile
    nodes: list[IntervalNode]
    table: NodeTable

    @property
    def root(self) -> IntervalNode:
        return self.nodes[0]


def build_tree(profile: VarianceProfile) -> IntervalTree:
    """Recursive window splits down to singletons, ranked as they split.

    The split index is the smallest t whose T-mass fraction lies in the
    window; when no index qualifies, the children abut around the gap and
    are bad, with rank the number of bad intervals on their root path.
    Window membership 0.45 <= fraction <= 0.55 is decided on integer
    numerators: 20 * (P_t - P_a) against 9 or 11 times (P_b - P_a).
    """
    P = list(profile.nums)
    if any(y <= x for x, y in zip(P, P[1:])):
        raise InvalidProfileError("prefix variances must be strictly increasing")
    nodes = [IntervalNode(a=0, b=profile.n_reduced, level=0)]
    # (node, bad intervals on its root path, itself included)
    stack = [(0, 0)]
    while stack:
        idx, depth = stack.pop()
        node = nodes[idx]
        a, b = node.a, node.b
        if a == b:
            continue
        delta = P[b] - P[a]
        # smallest t with P_t >= P_a + 0.45 delta
        lo_threshold = P[a] + -(-WINDOW_LO.numerator * delta // WINDOW_LO.denominator)
        t0 = bisect_left(P, lo_threshold, a, b + 1)
        if t0 <= b and (P[t0] - P[a]) * WINDOW_HI.denominator <= WINDOW_HI.numerator * delta:
            split_left, split_right = t0, t0
            shared = True
        else:
            split_left = t0 - 1            # largest t strictly below the window
            split_right = t0
            shared = False
        node.shared_split = shared
        if not shared:
            depth += 1
        child = dict(level=node.level + 1, parent=idx, bad=not shared,
                     rank=None if shared else depth)
        left = IntervalNode(a=a, b=split_left, **child)
        right = IntervalNode(a=split_right, b=b, **child)
        node.left = len(nodes)
        nodes.append(left)
        node.right = len(nodes)
        nodes.append(right)
        stack.append((node.right, depth))
        stack.append((node.left, depth))
    return IntervalTree(profile=profile, nodes=nodes,
                        table=NodeTable.of(nodes, profile.n_reduced))


def classify_and_rank(tree: IntervalTree) -> IntervalTree:
    """Return tree itself: build_tree ranks every node as it splits."""
    return tree


def _rank_mass(tree: IntervalTree) -> dict[int, int]:
    """Integer T-mass numerator of the bad intervals per rank, over the
    common denominator profile.nums[-1]; every rank held by a bad node is
    a key, zero-mass ranks included."""
    P = tree.profile.nums
    mass: dict[int, int] = {}
    for nd in tree.nodes:
        if nd.bad:
            mass[nd.rank] = mass.get(nd.rank, 0) + P[nd.b] - P[nd.a]
    return mass


def bad_mass_exact(tree: IntervalTree, q: int) -> Fraction:
    return Fraction(_rank_mass(tree).get(q, 0), tree.profile.nums[-1])


def max_rank(tree: IntervalTree) -> int:
    return max(_rank_mass(tree), default=0)


# --------------------------------------------------------------------------
# structural invariants, exact

def check_invariants(tree: IntervalTree) -> list[str]:
    """Return a list of violated invariants (empty when all hold)."""
    problems = []
    P = tree.profile.nums
    total = P[-1]
    n = tree.profile.n_reduced

    # Deeper levels only refine: nodes that stopped splitting earlier still
    # cover their points, so each level extends with all shallower leaves.
    # Spans are (a, b) columns sorted by a, then b.
    leaf_a = leaf_b = np.zeros(0, dtype=np.int64)
    for level, idxs in enumerate(tree.table.levels):
        nodes = [tree.nodes[i] for i in idxs.tolist()]
        a, b = np.array([(nd.a, nd.b) for nd in nodes],
                        dtype=np.int64).reshape(-1, 2).T
        leaf = np.array([nd.is_leaf for nd in nodes], dtype=bool)
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
        # T-length cap 0.55^level, on integer numerators
        den_pow = LENGTH_DECAY.denominator ** level
        num_pow = LENGTH_DECAY.numerator ** level
        for nd in nodes:
            if (P[nd.b] - P[nd.a]) * den_pow > num_pow * total:
                problems.append(
                    f"level {level}: [{nd.a},{nd.b}] longer than 0.55^{level}")
        leaf_a = np.concatenate([leaf_a, a[leaf]])
        leaf_b = np.concatenate([leaf_b, b[leaf]])

    for nd in tree.nodes:
        if nd.is_leaf or nd.shared_split is None:
            continue
        left, right = tree.nodes[nd.left], tree.nodes[nd.right]
        if left.bad != right.bad:
            problems.append(f"siblings of [{nd.a},{nd.b}] differ in badness")
    # mass / total > 0.9^q is decided on numerators
    mass = _rank_mass(tree)
    num, den = RANK_DECAY.numerator, RANK_DECAY.denominator
    for q in sorted(mass):
        if mass[q] * den ** q > num ** q * total:
            problems.append(f"rank {q} mass exceeds {RANK_DECAY}^{q}")
    return problems


# --------------------------------------------------------------------------
# chain decomposition

@dataclass(frozen=True)
class Hop:
    start: int          # original indices
    end: int
    kind: str
    level: int
    rank: int | None = None


@dataclass(frozen=True)
class ChainPath:
    """Hops 0 = i_0 -> i_1 -> ... -> i_d = i, each classified by kind."""

    index: int
    hops: tuple[Hop, ...]


def chain_path(tree: IntervalTree, S: Sequence[int], i: int) -> ChainPath:
    """Decompose S_i into interval-endpoint hops, climbing from the first
    leaf [j, j] of i's reduced position j to the root.

    If the climb tops out at the right root endpoint, a final whole-domain
    hop anchors the chain at 0; an index dropped as a zero-variance step
    ends the chain with an equal hop from its reduced position.
    """
    profile = tree.profile
    if not 0 <= i <= profile.n_original:
        raise ValueError(f"index must lie in 0..{profile.n_original}")
    S_red = _reduced_sums(tree, S, [i])
    tab = tree.table
    orig = profile.original_position
    j = profile.reduced_position(i)
    hops_up: list[Hop] = []
    node, top = int(tab.first_leaf[j]), j
    while (par := int(tab.parent[node])) >= 0:
        end, top = top, int(_hop_start(tab, S_red, np.array([par]), top)[0, 0])
        if top == end:
            kind, rank = HOP_EQUAL, None
        elif tab.shared[par]:
            kind, rank = HOP_GOOD_MIN, None
        else:
            kind, rank = HOP_BAD, tree.nodes[node].rank
        hops_up.append(Hop(start=orig(top), end=orig(end), kind=kind,
                           level=tree.nodes[node].level, rank=rank))
        node = par
    if top == profile.n_reduced:
        hops_up.append(Hop(start=0, end=orig(top), kind=HOP_ROOT, level=0))
    hops = hops_up[::-1]
    if i != orig(j):
        # the first hop leaves the leaf [j, j]
        hops.append(Hop(start=orig(j), end=i, kind=HOP_EQUAL,
                        level=hops_up[0].level))
    return ChainPath(index=i, hops=tuple(hops))


def telescoping_defect(tree: IntervalTree, S) -> int:
    """max |sum of chain hops - S_i| over all prefixes i; 0 when correct.

    S is one realization of prefix sums (length n+1) or a batch of them
    (rows), flat across zero-variance steps.  A chain sits on an endpoint
    of its node after every hop, so the rest of its climb depends only on
    (node, endpoint) and the row.  One pass over the levels, root first,
    gives every node the hop totals from its a and from its b endpoint to
    the root, for the whole batch; each chain's total is then read at its
    first leaf, in O(rows x nodes) work.
    """
    S_red = _reduced_sums(tree, S, np.arange(tree.profile.n_original + 1))
    tab = tree.table
    # totals per (node, row) from the node's a and b endpoints; at the
    # root, the right endpoint takes the whole-domain hop
    from_a = np.zeros((len(tab.a), S_red.shape[1]), dtype=np.int64)
    from_b = np.zeros_like(from_a)
    from_b[0] = S_red[-1] - S_red[0]
    for idxs in tab.levels:
        par = idxs[tab.left[idxs] >= 0]
        lft, rgt = tab.left[par], tab.right[par]
        ends = np.stack([tab.a[lft], tab.b[lft], tab.a[rgt], tab.b[rgt]])
        start = _hop_start(tab, S_red, par, ends[..., None])
        # every hop starts at an endpoint of the parent
        total = S_red[ends] + np.where(start == tab.a[par, None],
                                       from_a[par] - S_red[tab.a[par]],
                                       from_b[par] - S_red[tab.b[par]])
        from_a[lft], from_b[lft], from_a[rgt], from_b[rgt] = total
    chains = from_a[tab.first_leaf]
    return int(np.abs(chains - (S_red - S_red[0])).max())


def _reduced_sums(tree: IntervalTree, S, at) -> np.ndarray:
    """S at reduced positions 0..n_reduced, one column per realization.

    Rejects an S whose length is not n + 1 and an S that moves across a
    zero-variance step before any original position in at.
    """
    profile = tree.profile
    S_arr = np.atleast_2d(np.asarray(S, dtype=np.int64))
    if S_arr.shape[-1] != profile.n_original + 1:
        raise ValueError("S must have length n + 1")
    reduced = np.array([0, *profile.kept])
    # S_i must equal S at the original position of i's reduced position
    anchor = reduced[np.searchsorted(profile.kept, at, side="right")]
    if (S_arr[:, at] != S_arr[:, anchor]).any():
        raise ValueError(
            "realization moves across zero-variance steps; S must be flat there")
    return S_arr.T[reduced]


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

@dataclass(frozen=True)
class TailRow:
    lam: float
    hits: int
    trials: int
    empirical_p: float
    stderr: float
    variance_bound: float
    fitted_constant: float


def tail_hit_rows(batch: np.ndarray, sigmas: tuple[float, ...],
                  lambdas: tuple[float, ...]) -> np.ndarray:
    """Row-wise indicators of sup_i |S_i| >= lambda, one column per lambda,
    for the walk with steps sigma_i * x_i over a batch of sign rows x."""
    walk = batch * np.asarray(sigmas, dtype=np.float64)
    np.cumsum(walk, axis=1, out=walk)
    sups = np.maximum(walk.max(axis=1), -walk.min(axis=1))
    return sups[:, None] >= np.asarray(lambdas, dtype=np.float64)


def mc_tail(spec: FamilySpec, sigmas: Sequence[float], lambdas: Sequence[float],
            trials: int, seed: int, workers: int = 1) -> list[TailRow]:
    """Empirical P(sup_i |S_i| >= lambda) for variance-scaled steps.

    Requires at least 4-wise independence; reports the second-moment bound
    sum sigma_i^2 / lambda^2 next to each frequency, plus the constant that
    would make the bound tight.
    """
    if spec.independence_order < min(4, spec.n):
        raise ValueError("tail study needs a 4-wise independent family or better")
    if len(sigmas) != spec.n:
        raise ValueError("need one scale per coordinate")
    total_var = float(np.sum(np.asarray(sigmas, dtype=np.float64) ** 2))
    est = mc_moments(tail_hit_rows, (tuple(float(s) for s in sigmas),
                                     tuple(float(x) for x in lambdas)),
                     spec, trials, seed, workers)
    rows = []
    for lam, hits, p, stderr in zip(lambdas, est.totals, est.mean, est.stderr):
        bound = total_var / float(lam) ** 2
        rows.append(TailRow(lam=float(lam), hits=int(hits), trials=trials,
                            empirical_p=p, stderr=stderr, variance_bound=bound,
                            fitted_constant=p / bound if bound else 0.0))
    return rows


def random_variances(n: int, decades: float,
                     rng: np.random.Generator) -> np.ndarray:
    """n variances log-uniform over the given number of decades below 1."""
    return 10.0 ** (-decades * rng.random(n))


def random_profile(n: int, decades: float, rng: np.random.Generator) -> VarianceProfile:
    return VarianceProfile.from_sigmas(random_variances(n, decades, rng))
