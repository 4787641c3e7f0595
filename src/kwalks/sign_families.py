"""Sign families over {-1,+1}^n with controlled independence.

Two kinds of constructions live here.  The polynomial families are exactly
k-wise independent: a random degree-(k-1) polynomial over a binary field,
evaluated at fixed distinct points and mapped to signs through the low bit.

The adversarial family is pairwise independent yet drifts as far from the
origin as pairwise independence allows.  It is assembled in four stages:

* stage H1 draws entries independently with a per-block bias that ramps
  harmonically up to 1 and then mirrors down to -1, so prefix sums drift;
* stage H2 rotates an H1 draw by a uniform number of blocks, which zeroes
  every marginal mean while keeping the drift reachable;
* stage H3 mixes H2 with forced two-block sign patterns, chosen so every
  cross-block correlation cancels exactly;
* stage H mixes H3 (with a fair global negation) against balanced
  per-block sign subsets, weighted so the remaining within-block
  correlation vanishes exactly as well.

Stage H is therefore an exact three-branch mixture (`H_BRANCHES`): the
rotated drift branch (H2 up to a global sign), the pair-mode branch and the
balanced-subset branch.  `AdversarialParams.branch_weights` holds the exact
weights and `make_sampler(spec, branch)` draws from one branch.

All stage constants are exact rationals; samplers convert them to floats
once at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import lcm
from typing import NamedTuple

import numpy as np

from .gf2 import GF2Field, parity_tables, point_lsb_vectors, signs_from_tables

FULLY_INDEPENDENT = "FullyIndependent"
POLYNOMIAL_KWISE = "PolynomialKWise"
ADVERSARIAL_STAGE = "AdversarialStage"
KINDS = (FULLY_INDEPENDENT, POLYNOMIAL_KWISE, ADVERSARIAL_STAGE)
STAGES = ("H1", "H2", "H3", "H")
H_BRANCHES = ("drift", "pairs", "balanced")

# Largest n for which exact moment tables (root x root rationals) are built.
EXACT_MOMENT_LIMIT = 4 ** 8
# Largest n for which sample moments (an n x n float64 table) are estimated.
EMPIRICAL_MOMENT_LIMIT = 4096

_BATCH = 1 << 14
# Signs per row tile.  Monte Carlo chunks and stream gathers handle their
# rows in tiles of at most this many signs (one row if a row is longer), so
# their temporaries stay bounded as n grows.
TILE_SIGNS = 1 << 18
# Random values per generator call in _chunked_signs, sized to stay in cache.
_DRAW_VALUES = 1 << 16


class ResourceLimitError(RuntimeError):
    """Request would materialize a table beyond the supported size."""


def tile_rows(width: int) -> int:
    """Rows of width entries per tile: TILE_SIGNS // width, at least 1."""
    return max(1, TILE_SIGNS // width)


def _is_power_of_four(n: int) -> bool:
    if n < 1:
        return False
    while n % 4 == 0:
        n //= 4
    return n == 1


def parse_number(kind, key: str, text):
    """kind(text), or a ValueError naming the config key."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{key} needs {kind.__name__} values, got {text!r}") from None


@dataclass(frozen=True)
class FamilySpec:
    """Description of one sign family; hashable and cheap to copy.

    kind selects the construction; n is the domain size; k is the
    independence order (polynomial families only); stage picks one of the
    adversarial stages.  The seed belongs to the experiment drawing from it.
    """

    kind: str
    n: int
    k: int | None = None
    stage: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.kind == POLYNOMIAL_KWISE:
            if self.k is None or not 2 <= self.k <= self.n:
                raise ValueError("polynomial family needs 2 <= k <= n")
        if self.kind == ADVERSARIAL_STAGE:
            if self.stage not in STAGES:
                raise ValueError(f"stage must be one of {STAGES}")
            if self.n < 16 or not _is_power_of_four(self.n):
                raise ValueError("adversarial family needs n a power of 4, n >= 16")

    @property
    def independence_order(self) -> int:
        """Largest k for which any k coordinates are independent signs."""
        if self.kind == FULLY_INDEPENDENT:
            return self.n
        if self.kind == POLYNOMIAL_KWISE:
            return self.k  # type: ignore[return-value]
        return 2 if self.stage == "H" else 1

    @classmethod
    def from_config(cls, mapping: dict[str, str]) -> "FamilySpec":
        """Spec from a [family] section's strings; kind and stage may be
        spelled in any case."""
        known = {"kind", "n", "k", "stage"}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown family keys: {sorted(unknown)}")
        if "kind" not in mapping or "n" not in mapping:
            raise ValueError("family config needs at least kind and n")
        kind = mapping["kind"]
        stage = mapping.get("stage")
        return cls(
            kind=next((c for c in KINDS if c.lower() == kind.lower()), kind),
            n=parse_number(int, "n", mapping["n"]),
            k=parse_number(int, "k", mapping["k"]) if "k" in mapping else None,
            stage=stage.upper() if stage is not None else None,
        )

    def with_n(self, n: int) -> "FamilySpec":
        return replace(self, n=n)


def f_values(root: int) -> list[Fraction]:
    """Per-block mean profile: 1/(l+1-c) for c <= l, then -1/(c-l).

    root is the block count (and block size); l = root/2.  The profile is
    antisymmetric around the middle, so it sums to zero.
    """
    if root < 2 or root % 2:
        raise ValueError("block count must be even and at least 2")
    ell = root // 2
    return [Fraction(1, ell + 1 - c) if c <= ell else Fraction(-1, c - ell)
            for c in range(1, root + 1)]


def g_table(root: int) -> list[list[Fraction]]:
    """Cross-block correlations of the rotated stage.

    Entry (c1, c2) is the average over rotations d of f_{c1+d} * f_{c2+d}
    (indices cyclic).  The average depends only on c2 - c1 mod root, so one
    row is computed by direct summation and shifted into place.
    """
    f = f_values(root)
    row0 = [sum((f[d] * f[(d + r) % root] for d in range(root)), Fraction(0)) / root
            for r in range(root)]
    return [[row0[(c2 - c1) % root] for c2 in range(root)] for c1 in range(root)]


@dataclass(eq=False)
class AdversarialParams:
    """Exact constants of the adversarial construction for one n.

    root is the block count and block size (sqrt of n); ell = root / 2.
    f holds the per-block means of the biased stage, g the cross-block
    correlations of the rotated stage.  g_scale normalizes the pair-mode
    mixture (1 plus the total absolute off-diagonal correlation), c6 scales
    the surviving within-block correlation (c6 / root per pair), and p is
    the mixing probability that balances that correlation against the
    balanced-subset branch so it cancels exactly.
    """

    n: int
    root: int
    ell: int
    f: tuple[Fraction, ...]
    g: tuple[tuple[Fraction, ...], ...]
    g_scale: Fraction
    c6: Fraction
    p: Fraction

    @cached_property
    def h1_bias(self) -> np.ndarray:
        """P[entry = +1] for each position, as float64."""
        per_block = [0.5 + float(fc) / 2 for fc in self.f]
        return np.repeat(per_block, self.root)

    @cached_property
    def pair_modes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c1, c2, forced sign of block c2) per pair mode, 0-based blocks."""
        c1s, c2s, signs = [], [], []
        for c1 in range(self.root):
            for c2 in range(c1 + 1, self.root):
                c1s.append(c1)
                c2s.append(c2)
                signs.append(-1 if self.g[c1][c2] >= 0 else 1)
        return (np.array(c1s, dtype=np.int64), np.array(c2s, dtype=np.int64),
                np.array(signs, dtype=np.int8))

    @cached_property
    def pair_weights(self) -> list[Fraction]:
        """|g(c1, c2)| per pair mode, in lexicographic (c1, c2) order."""
        return [abs(self.g[c1][c2]) for c1 in range(self.root)
                for c2 in range(c1 + 1, self.root)]

    @cached_property
    def mode_cdf(self) -> np.ndarray:
        """Inverse-CDF boundaries: slot 0 draws the rotated stage, then the
        pair modes; cumulated exactly, so the last one is 1.0."""
        return _exact_cdf([Fraction(1)] + self.pair_weights, self.g_scale)

    @cached_property
    def pair_mode_cdf(self) -> np.ndarray:
        """Inverse-CDF boundaries over the pair modes alone, given that a
        pair mode is drawn; cumulated exactly, so the last one is 1.0."""
        return _exact_cdf(self.pair_weights, self.g_scale - 1)

    @cached_property
    def branch_weights(self) -> dict[str, Fraction]:
        """Exact probability of each branch of stage H, keyed by H_BRANCHES:
        H3 is drawn with probability p and is the rotated stage with
        probability 1/g_scale; the rest is balanced subsets."""
        drift = self.p / self.g_scale
        return {"drift": drift, "pairs": self.p - drift, "balanced": 1 - self.p}

    @cached_property
    def p_float(self) -> float:
        return float(self.p)


def _exact_cdf(weights: list[Fraction], total: Fraction) -> np.ndarray:
    """Float boundaries of the exact running sums of weights / total, as
    integer numerators over one common denominator; int / int rounds
    correctly, as Fraction.__float__ does."""
    den = lcm(total.denominator, *{w.denominator for w in weights})
    scale = total.numerator * (den // total.denominator)
    sums = accumulate(w.numerator * (den // w.denominator) for w in weights)
    return np.array([c / scale for c in sums])


@lru_cache(maxsize=16)
def adversarial_params(n: int) -> AdversarialParams:
    """All closed-form constants of the adversarial family, exactly."""
    if n < 16 or not _is_power_of_four(n):
        raise ValueError("adversarial family needs n a power of 4, n >= 16")
    root = int(round(n ** 0.5))
    assert root * root == n
    f = f_values(root)
    g = g_table(root)
    g_scale = 1 + sum(abs(v) for c1, row in enumerate(g) for v in row[c1 + 1:])
    row_abs = sum(abs(v) for v in g[0])
    c6 = root * row_abs / g_scale
    p = Fraction(1) / (1 + c6 * (root - 1) / root)
    params = AdversarialParams(
        n=n, root=root, ell=root // 2, f=tuple(f),
        g=tuple(tuple(r) for r in g), g_scale=g_scale, c6=c6, p=p)
    # Mixture bookkeeping must be exact for the family to be pairwise
    # independent; fail loudly if it ever is not.
    assert Fraction(1) / g_scale + (g_scale - 1) / g_scale == 1
    assert p * c6 / root == (1 - p) * Fraction(1, root - 1)
    return params


def h2_cross_term_ratio(n: int) -> Fraction:
    """Total absolute off-diagonal correlation of the rotated stage, per n."""
    params = adversarial_params(n)
    root, g = params.root, params.g
    # root^2 coordinate pairs per block pair, root(root - 1) within a block
    total = sum(abs(v) * root * (root - (c1 == c2))
                for c1, row in enumerate(g) for c2, v in enumerate(row))
    return total / n


# --------------------------------------------------------------------------
# samplers

# The float tables of AdversarialParams that each kernel (stage or branch)
# reads.  A sampler builds them at construction, so one built in the parent
# reaches forked workers complete.
_KERNEL_TABLES = {
    "H1": ("h1_bias",), "H2": ("h1_bias",), "drift": ("h1_bias",),
    "H3": ("h1_bias", "mode_cdf", "pair_modes"),
    "H": ("h1_bias", "mode_cdf", "pair_modes", "p_float"),
    "pairs": ("pair_mode_cdf", "pair_modes"),
    "balanced": (),
}

# The kernels that draw their rows in row order (see AdversarialSampler).
_TILEABLE_KERNELS = ("H1", "balanced")


class AdversarialSampler:
    """Draws from one adversarial stage, or from one branch of stage H.
    Immutable after construction.

    branch, one of H_BRANCHES, conditions stage H on that branch of its
    mixture: drift is the rotated stage times a fair global sign, pairs a
    pair mode (chosen with probability proportional to |g|) times a fair
    global sign, balanced the per-block balanced subsets.  Mixing the
    branches with `params.branch_weights` gives stage H exactly.

    tileable means that sample_batch(rng, a + b) equals sample_batch(rng,
    a) followed by sample_batch(rng, b), byte for byte.  It holds for H1
    and the balanced branch, which draw their rows in row order; the other
    kernels draw a per-batch vector first.
    """

    def __init__(self, params: AdversarialParams, stage: str,
                 branch: str | None = None):
        if stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}")
        if branch is not None and (stage != "H" or branch not in H_BRANCHES):
            raise ValueError(f"branch needs stage H and one of {H_BRANCHES}")
        self.params = params
        self.stage = stage
        self.branch = branch
        self.n = params.n
        self.tileable = (branch or stage) in _TILEABLE_KERNELS
        for table in _KERNEL_TABLES[branch or stage]:
            getattr(params, table)

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError("size must be nonnegative")
        kernel = "_batch_" + (self.branch or self.stage).lower()
        return getattr(self, kernel)(rng, size)

    def _batch_h1(self, rng, size):
        bias = self.params.h1_bias
        return _chunked_signs(size, self.n, lambda m: rng.random((m, self.n)) < bias)

    def _batch_h2(self, rng, size, keep=slice(None)):
        """H2 rows.  keep (an index or mask) selects the rows to build, but
        all size rows are drawn, so the stream does not depend on keep."""
        base = self._batch_h1(rng, size)[keep]
        shifts = rng.integers(0, self.params.root, size=size)[keep]
        return _rotate_blocks(base, shifts, self.params.root)

    def _batch_h3(self, rng, size):
        mode = np.searchsorted(self.params.mode_cdf, rng.random(size), side="right")
        drift = mode == 0
        out = np.empty((size, self.n), dtype=np.int8)
        out[drift] = self._batch_h2(rng, size, drift)
        out[~drift] = self._pair_mode_rows(rng, mode[~drift] - 1)
        return out

    def _batch_h(self, rng, size):
        pick3 = rng.random(size) < self.params.p_float
        n3 = int(pick3.sum())
        out = np.empty((size, self.n), dtype=np.int8)
        out[pick3] = self._batch_h3(rng, n3) * _uniform_signs(rng, n3, 1)
        out[~pick3] = self._batch_balanced(rng, size - n3)
        return out

    def _batch_drift(self, rng, size):
        return self._batch_h2(rng, size) * _uniform_signs(rng, size, 1)

    def _batch_pairs(self, rng, size):
        sel = np.searchsorted(self.params.pair_mode_cdf, rng.random(size),
                              side="right")
        return self._pair_mode_rows(rng, sel) * _uniform_signs(rng, size, 1)

    def _batch_balanced(self, rng, size):
        """Uniform size-ell subset of each block set to +1.  The argsort of
        a block's iid uniforms is a uniform permutation; the slots whose
        entry (a source index) is below ell are the ranks of the first ell
        uniforms, which form a uniform ell-subset."""
        root, ell = self.params.root, self.params.ell
        return _chunked_signs(size, self.n, lambda m: (
            rng.random((m, root, root)).argsort(axis=2) < ell).reshape(m, self.n))

    def _pair_mode_rows(self, rng, sel):
        """One row per entry of sel (0-based pair-mode indices): block c1 set
        to +1, block c2 to its forced sign, every other entry uniform."""
        c1s, c2s, forced = self.params.pair_modes
        rows = _uniform_signs(rng, len(sel), self.n)
        blocks = rows.reshape(len(sel), self.params.root, self.params.root)
        at = np.arange(len(sel))
        blocks[at, c1s[sel]] = 1
        blocks[at, c2s[sel]] = forced[sel][:, None]
        return rows


def _chunked_signs(size: int, n: int, draw) -> np.ndarray:
    """(size, n) int8 rows, +1 where draw(m) is true and -1 elsewhere.

    draw(m) makes the generator call for the next m rows.  Split by rows,
    the calls used here draw the same stream as one call for all rows, and
    their float64 or int64 values stay cache-sized."""
    bits = np.empty((size, n), dtype=bool)
    step = max(1, _DRAW_VALUES // n)
    for lo in range(0, size, step):
        bits[lo:lo + step] = draw(min(step, size - lo))
    signs = bits.view(np.int8)
    signs += signs
    signs -= 1
    return signs


def _uniform_signs(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """Fair +-1 int8 signs from rng.integers(0, 2, (size, n)), the draw
    every sampler here has always made."""
    return _chunked_signs(size, n, lambda m: rng.integers(0, 2, size=(m, n)) == 1)


def _rotate_blocks(rows: np.ndarray, shifts: np.ndarray, root: int) -> np.ndarray:
    """Entry i of row r is rows[r, (i + shifts[r] * root) % n]: a rotation
    by whole blocks, one slice pair per distinct shift."""
    n = rows.shape[1]
    out = np.empty_like(rows)
    for shift in np.unique(shifts):
        at = np.flatnonzero(shifts == shift)
        cut = int(shift) * root
        out[at, :n - cut] = rows[at, cut:]
        out[at, n - cut:] = rows[at, :cut]
    return out


class KWiseSampler:
    """Exactly k-wise independent signs from random polynomials over
    GF(2^64).  A batch draws its coefficients in one call; full-range uint64
    draws split by rows give the same stream, so the sampler is tileable."""

    tileable = True

    def __init__(self, n: int, k: int):
        if not 2 <= k <= n:
            raise ValueError("need 2 <= k <= n")
        self.n = n
        self.k = k
        self.tables = parity_tables(point_lsb_vectors(GF2Field(64), n, k), 64)

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError("size must be nonnegative")
        coeffs = rng.integers(0, 1 << 64, size=(size, self.k), dtype=np.uint64)
        return signs_from_tables(self.tables, coeffs, self.n)


class IndependentSampler:
    """Fully independent uniform signs."""

    tileable = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return _uniform_signs(rng, size, self.n)


def make_sampler(spec: FamilySpec, branch: str | None = None):
    """Sampler for any family spec, or for one branch (of H_BRANCHES) of a
    stage-H family.  Samplers are stateless between calls and built once
    per (spec, branch)."""
    # positional, so make_sampler(spec) and make_sampler(spec, None) share
    # one cache entry
    return _build_sampler(spec, branch)


@lru_cache(maxsize=16)
def _build_sampler(spec: FamilySpec, branch: str | None):
    if spec.kind == ADVERSARIAL_STAGE:
        return AdversarialSampler(adversarial_params(spec.n), spec.stage, branch)
    if branch is not None:
        raise ValueError("branches are defined for adversarial stage H only")
    if spec.kind == FULLY_INDEPENDENT:
        return IndependentSampler(spec.n)
    return KWiseSampler(spec.n, spec.k)


# --------------------------------------------------------------------------
# moments

@dataclass
class MomentSummary:
    """Exact first two moments of an adversarial stage, one value per block.

    Coordinate i lies in block i // root.  block_mean[c] is E[h_i] for i in
    block c, and block_pair[c1][c2] is E[h_i h_j] for i != j in blocks c1
    and c2; every E[h_i^2] is 1.
    """

    root: int
    block_mean: list
    block_pair: list

    @property
    def n(self) -> int:
        return self.root * self.root

    def second_moments_float(self) -> np.ndarray:
        """The n x n table of E[h_i h_j] as float64, for empirical checks."""
        table = np.kron([[float(v) for v in row] for row in self.block_pair],
                        np.ones((self.root, self.root)))
        np.fill_diagonal(table, 1.0)
        return table

    def is_identity(self) -> bool:
        """True when the mean is exactly 0 and E[h_i h_j] is exactly I.

        Every block holds root >= 4 coordinates, so each block_pair entry is
        E[h_i h_j] for some i != j: checking every block entry is the same
        test as checking all n^2 coordinate pairs.
        """
        return (all(v == 0 for v in self.block_mean)
                and all(v == 0 for row in self.block_pair for v in row))


def exact_moments(spec: FamilySpec) -> MomentSummary:
    """Closed-form mean and second-moment tables of an adversarial stage.

    Everything is exact rational arithmetic driven by the mixture structure:
    the biased stage factors over entries, the rotated stage averages block
    shifts, the cancelling stage mixes the rotated stage with pair modes,
    and the final stage mixes that against balanced block subsets.  Every
    moment depends only on the blocks of its coordinates, so the tables are
    root x root, never n x n.
    """
    if spec.kind != ADVERSARIAL_STAGE:
        raise ValueError("exact moments are defined for adversarial stages")
    if spec.n > EXACT_MOMENT_LIMIT:
        raise ResourceLimitError(
            f"n={spec.n} exceeds the exact-moment limit {EXACT_MOMENT_LIMIT}")
    params = adversarial_params(spec.n)
    mean, pair = _stage_block_moments(params, spec.stage)
    return MomentSummary(root=params.root, block_mean=mean, block_pair=pair)


def _stage_block_moments(params: AdversarialParams, stage: str):
    """Per-block mean and per-block-pair E[h_i h_j] (i != j) for a stage."""
    root = params.root
    f, g = params.f, params.g

    if stage == "H1":
        return list(f), [[a * b for b in f] for a in f]

    if stage == "H2":
        return [Fraction(0)] * root, [list(row) for row in g]

    if stage == "H3":
        # The rotated stage has weight 1/gs and adds g_c1c2 to E[h_i h_j].
        # Pair mode (a, b), a < b, has weight |g_ab|/gs and sets block a to
        # +1 and block b to -sign(g_ab): it adds |g_ab| to the mean of block
        # a, -g_ab to the mean of block b and to E[h_i h_j] across the two
        # blocks, and |g_ab| within either block.  g_cc > 0, so a diagonal
        # entry is the absolute sum of row c.
        gs = params.g_scale
        mean = [(sum(abs(v) for v in g[c][c + 1:])
                 - sum(g[a][c] for a in range(c))) / gs for c in range(root)]
        pair = [[(sum(abs(v) for v in g[c1]) if c1 == c2
                  else g[c1][c2] - g[min(c1, c2)][max(c1, c2)]) / gs
                 for c2 in range(root)] for c1 in range(root)]
        return mean, pair

    if stage == "H":
        p = params.p
        _, pair3 = _stage_block_moments(params, "H3")
        mean = [Fraction(0)] * root               # fair negation centers H3
        within = Fraction(-1, root - 1)           # balanced block subsets
        pair = [[p * v + (1 - p) * (within if c1 == c2 else 0)
                 for c2, v in enumerate(row)] for c1, row in enumerate(pair3)]
        return mean, pair

    raise ValueError(f"stage must be one of {STAGES}")


class SampleMoments(NamedTuple):
    """Sample means of h (length n) and of h h^T (n x n), as float64."""

    mean: np.ndarray
    covariance: np.ndarray


def check_empirical_size(n: int) -> None:
    """Refuses n whose n x n float64 sample table would be too large."""
    if n > EMPIRICAL_MOMENT_LIMIT:
        raise ResourceLimitError(
            f"empirical moments at n={n} need an n x n float64 table "
            f"({8 * n * n / 2 ** 30:.3g} GiB); the limit is "
            f"{EMPIRICAL_MOMENT_LIMIT}, or run with trials = 0")


def empirical_moments(sampler, trials: int, rng: np.random.Generator) -> SampleMoments:
    """Sample means of h and of h h^T; floating point, for cross-checks."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    n = sampler.n
    check_empirical_size(n)
    total = np.zeros(n)
    gram = np.zeros((n, n))
    # A tile has at least n rows, so it is no larger than the gram it
    # updates, and the n x n gram is rewritten at most once per n rows:
    # tiles of TILE_SIGNS // n rows were 13x slower at n = 4096.
    # Every partial sum and gram entry is an integer below 2^53, exact in
    # float64, so the tiles do not change the result.  The sampling batch
    # stays _BATCH rows: stage H's stream depends on it.
    step = max(tile_rows(n), n)
    for done in range(0, trials, _BATCH):
        batch = sampler.sample_batch(rng, min(_BATCH, trials - done))
        for lo in range(0, len(batch), step):
            tile = batch[lo:lo + step].astype(np.float64)
            total += tile.sum(axis=0)
            gram += tile.T @ tile
    return SampleMoments(mean=total / trials, covariance=gram / trials)
