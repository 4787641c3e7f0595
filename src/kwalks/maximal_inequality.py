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
from dataclasses import dataclass, field
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
        if any(s < 0 for s in sigmas):
            raise InvalidProfileError("variances must be nonnegative")
        kept = tuple(i + 1 for i, s in enumerate(sigmas) if s > 0)
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
    pos: int                      # 1-based position within the level
    parent: int | None = None
    left: int | None = None
    right: int | None = None
    shared_split: bool | None = None   # None for leaves
    bad: bool = False
    rank: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class IntervalTree:
    profile: VarianceProfile
    nodes: list[IntervalNode] = field(default_factory=list)
    ranked: bool = False

    @property
    def root(self) -> IntervalNode:
        return self.nodes[0]

    def levels(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for idx, node in enumerate(self.nodes):
            out.setdefault(node.level, []).append(idx)
        return out

    def first_leaf_for(self) -> np.ndarray:
        """Index of the first-built leaf [j, j] per reduced position j."""
        out = np.full(self.profile.n_reduced + 1, -1, dtype=np.int64)
        for idx, node in enumerate(self.nodes):
            if node.is_leaf and out[node.a] < 0:
                out[node.a] = idx
        if (out < 0).any():
            raise RuntimeError("some positions never reached a singleton leaf")
        return out


def build_tree(profile: VarianceProfile) -> IntervalTree:
    """Recursive window splits down to singletons.

    The split index is the smallest t whose T-mass fraction lies in the
    window; when no index qualifies, the children abut around the gap and
    are later classified bad.  Window membership 0.45 <= fraction <= 0.55
    is decided on integer numerators: 20 * (P_t - P_a) against 9 or 11
    times (P_b - P_a).
    """
    P = list(profile.nums)
    if any(y <= x for x, y in zip(P, P[1:])):
        raise InvalidProfileError("prefix variances must be strictly increasing")
    tree = IntervalTree(profile=profile)
    nodes = tree.nodes
    nodes.append(IntervalNode(a=0, b=profile.n_reduced, level=0, pos=1))
    stack = [0]
    while stack:
        idx = stack.pop()
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
        left = IntervalNode(a=a, b=split_left, level=node.level + 1,
                            pos=2 * node.pos - 1, parent=idx)
        right = IntervalNode(a=split_right, b=b, level=node.level + 1,
                             pos=2 * node.pos, parent=idx)
        node.left = len(nodes)
        nodes.append(left)
        node.right = len(nodes)
        nodes.append(right)
        stack.append(node.right)
        stack.append(node.left)
    return tree


def classify_and_rank(tree: IntervalTree) -> IntervalTree:
    """Mark abutting-split children bad and assign nested-bad-depth ranks."""
    order = [0]
    bad_depth = {0: 0}
    while order:
        idx = order.pop()
        node = tree.nodes[idx]
        depth = bad_depth[idx]
        node.bad = (node.parent is not None
                    and tree.nodes[node.parent].shared_split is False)
        if node.bad:
            depth += 1
            node.rank = depth
        else:
            node.rank = None
        if not node.is_leaf:
            bad_depth[node.left] = depth
            bad_depth[node.right] = depth
            order.append(node.left)
            order.append(node.right)
    tree.ranked = True
    return tree


def bad_mass_exact(tree: IntervalTree, q: int) -> Fraction:
    if not tree.ranked:
        raise ValueError("classify_and_rank the tree first")
    P = tree.profile.nums
    mass = sum(P[nd.b] - P[nd.a] for nd in tree.nodes
               if nd.bad and nd.rank == q)
    return Fraction(mass, P[-1])


def max_rank(tree: IntervalTree) -> int:
    return max((nd.rank for nd in tree.nodes if nd.rank is not None), default=0)


# --------------------------------------------------------------------------
# structural invariants, exact

def check_invariants(tree: IntervalTree) -> list[str]:
    """Return a list of violated invariants (empty when all hold)."""
    problems = []
    P = tree.profile.nums
    total = P[-1]
    n = tree.profile.n_reduced
    levels = tree.levels()

    # Deeper levels only refine: nodes that stopped splitting earlier still
    # cover their points, so each level extends with all shallower leaves.
    leaf_spans: list[tuple[int, int]] = []
    for level, idxs in sorted(levels.items()):
        spans = sorted((tree.nodes[i].a, tree.nodes[i].b) for i in idxs)
        covered = sorted(spans + leaf_spans)
        cursor = -1    # largest integer covered so far; abutting is fine
        for a, b in covered:
            if a > cursor + 1:
                problems.append(f"level {level}: gap before {a}")
                break
            cursor = max(cursor, b)
        if cursor < n:
            problems.append(f"level {level}: coverage stops at {cursor}")
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            if b1 > a2:
                problems.append(f"level {level}: [{a1},{b1}] overlaps [{a2},{b2}]")
        # T-length cap 0.55^level, on integer numerators
        den_pow = LENGTH_DECAY.denominator ** level
        num_pow = LENGTH_DECAY.numerator ** level
        for i in idxs:
            nd = tree.nodes[i]
            if (P[nd.b] - P[nd.a]) * den_pow > num_pow * total:
                problems.append(
                    f"level {level}: [{nd.a},{nd.b}] longer than 0.55^{level}")
        leaf_spans += [(tree.nodes[i].a, tree.nodes[i].b) for i in idxs
                       if tree.nodes[i].is_leaf]

    if tree.ranked:
        for nd in tree.nodes:
            if nd.is_leaf or nd.shared_split is None:
                continue
            left, right = tree.nodes[nd.left], tree.nodes[nd.right]
            if left.bad != right.bad:
                problems.append(f"siblings of [{nd.a},{nd.b}] differ in badness")
        for q in range(1, max_rank(tree) + 1):
            if bad_mass_exact(tree, q) > RANK_DECAY ** q:
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
    """Decompose S_i into interval-endpoint hops: the climb of a batch of
    one, read as Hop records.

    If the climb tops out at the right root endpoint, a final whole-domain
    hop anchors the chain at 0; an index dropped as a zero-variance step
    ends the chain with an equal hop from its reduced position.
    """
    profile = tree.profile
    if not 0 <= i <= profile.n_original:
        raise ValueError(f"index must lie in 0..{profile.n_original}")
    if len(S) != profile.n_original + 1:
        raise ValueError("S must have length n + 1")

    orig = profile.original_position
    j = profile.reduced_position(i)
    if S[i] != S[orig(j)]:
        raise ValueError(
            "realization moves across zero-variance steps; S must be flat there")

    S_red = np.asarray(S)[None, [0, *profile.kept]]
    hops_up: list[Hop] = []
    top = j
    for _, child, ends, starts in _climb(tree, S_red, np.array([j])):
        node = tree.nodes[int(child[0])]
        end, top = int(ends[0, 0]), int(starts[0, 0])
        if top == end:
            kind, rank = HOP_EQUAL, None
        elif tree.nodes[node.parent].shared_split:
            kind, rank = HOP_GOOD_MIN, None
        else:
            kind, rank = HOP_BAD, node.rank
        hops_up.append(Hop(start=orig(top), end=orig(end), kind=kind,
                           level=node.level, rank=rank))
    if top == profile.n_reduced:
        hops_up.append(Hop(start=0, end=orig(top), kind=HOP_ROOT, level=0))
    hops = hops_up[::-1]
    if i != orig(j):
        # the first wave leaves the leaf [j, j]
        hops.append(Hop(start=orig(j), end=i, kind=HOP_EQUAL,
                        level=hops_up[0].level))
    return ChainPath(index=i, hops=tuple(hops))


def telescoping_defect(tree: IntervalTree, S) -> int:
    """max |sum of chain hops - S_i| over all prefixes i; 0 when correct.

    S is one realization of prefix sums (length n+1) or a batch of them
    (rows); the whole batch climbs the tree together.
    """
    profile = tree.profile
    S_arr = np.atleast_2d(np.asarray(S, dtype=np.int64))
    S_red = S_arr[:, [0, *profile.kept]]         # (batch, n_reduced + 1)
    chains = np.arange(profile.n_reduced + 1)
    total = np.zeros_like(S_red)
    top = np.broadcast_to(chains, S_red.shape).copy()
    rows = np.arange(len(S_red))[:, None]
    for active, _, end, start in _climb(tree, S_red, chains):
        total[:, active] += S_red[rows, end] - S_red[rows, start]
        top[:, active] = start
    # whole-domain hop when a chain tops out at the right root endpoint
    total += np.where(top == profile.n_reduced, S_red[:, -1:] - S_red[:, :1], 0)
    return int(np.abs(total - (S_red - S_red[:, :1])).max())


def _climb(tree: IntervalTree, S_red: np.ndarray, chains: np.ndarray):
    """Walk chains from their leaves to the root, one vectorized wave per
    step up.  chain_path and telescoping_defect both read this climb, so the
    hop rule lives here alone.

    S_red holds rows of prefix sums at reduced positions 0..n_reduced, and
    chains the reduced positions the chains start from.  The node path of a
    chain is the same in every row; only the choice at window splits reads
    S_red.  Each wave yields (active, child, end, start): the indices into
    chains still climbing, the node each one leaves, and per row the
    positions its hop ends and starts at.  A hop from an endpoint of the
    parent is equal (start == end).  From the inner endpoint, a window
    split (shared parent split) crosses whichever sibling has the smaller
    |increment| (good-min hop); an abutting split crosses the bad child
    holding that endpoint, which is always the child itself (bad hop).
    """
    if not tree.ranked:
        raise ValueError("classify_and_rank the tree first")
    nodes = tree.nodes
    parent = np.array([-1 if nd.parent is None else nd.parent for nd in nodes])
    a = np.array([nd.a for nd in nodes])
    b = np.array([nd.b for nd in nodes])
    left = np.array([-1 if nd.left is None else nd.left for nd in nodes])
    right = np.array([-1 if nd.right is None else nd.right for nd in nodes])
    shared = np.array([bool(nd.shared_split) for nd in nodes])

    node_idx = tree.first_leaf_for()[chains]
    cur = np.broadcast_to(chains, (len(S_red), len(chains))).copy()
    active = np.flatnonzero(parent[node_idx] >= 0)
    while len(active):
        child = node_idx[active]
        par = parent[child]
        lft, rgt = left[par], right[par]
        end = cur[:, active]
        cross_left = np.where(
            shared[par],
            np.abs(S_red[:, b[lft]] - S_red[:, a[lft]])
            <= np.abs(S_red[:, b[rgt]] - S_red[:, a[rgt]]),
            end == b[lft])
        start = np.where((end == a[par]) | (end == b[par]), end,
                         np.where(cross_left, a[par], b[par]))
        yield active, child, end, start
        cur[:, active] = start
        node_idx[active] = par
        active = active[parent[par] >= 0]


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


def random_profile(n: int, decades: float, rng: np.random.Generator) -> VarianceProfile:
    """Variances log-uniform over the given number of decades."""
    sigma_sq = 10.0 ** (-decades * rng.random(n))
    return VarianceProfile.from_sigmas(sigma_sq)
