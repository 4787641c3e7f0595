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
weights, and a spec whose `branch` names one of them draws from that branch.

All stage constants are exact rationals; samplers convert them to floats
once at construction.

The sampling kernels read the generator's 64-bit words through
`bit_generator.random_raw` and write the bytes the plain numpy draws
would.  For the bit generators in `RAW_WORD_GENERATORS`, `rng.random` is
(word >> 11) * 2^-53 of one word, so `rng.random() < b` is
(word >> 11) < ceil(2^53 b) (stage H1), and an argsort of a block's
uniforms orders it as a sort of the integer keys word >> 11 (the balanced
branch).  `rng.integers(0, 2)` is the top bit of one 32-bit half-word
(Lemire's method for a range of 2 never rejects), and the halves of a word
are drawn low first, the high one buffered for the next 32-bit draw, so
fair signs are the top bits of the words' halves (`_uniform_signs`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd, isfinite, lcm
from operator import sub
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
# The bit generators whose words the sampling kernels read (see the module
# docstring); for any other, such as MT19937, the two rules do not hold.
RAW_WORD_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                       np.random.SFC64)
# Keys per sort row in the balanced branch, at most, for blocks shorter than
# this: several blocks share a row, tagged by their place in it.
_SORT_SPAN = 32


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
    """kind(text), or a ValueError naming the config key; a float must be
    finite, since nan and inf would make a gate or a scale meaningless."""
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"{key} needs {kind.__name__} values, got {text!r}") from None
    if kind is float and not isfinite(value):
        raise ValueError(f"{key} needs finite float values, got {text!r}")
    return value


@dataclass(frozen=True)
class FamilySpec:
    """Description of one sign family; hashable and cheap to copy.

    kind selects the construction; n is the domain size; k is the
    independence order (polynomial families only); stage picks one of the
    adversarial stages, and branch, one of H_BRANCHES, conditions stage H on
    that branch of its mixture.  The seed belongs to the experiment drawing
    from it.
    """

    kind: str
    n: int
    k: int | None = None
    stage: str | None = None
    branch: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        for key, owner in (("k", POLYNOMIAL_KWISE), ("stage", ADVERSARIAL_STAGE),
                           ("branch", ADVERSARIAL_STAGE)):
            value = getattr(self, key)
            if value is not None and self.kind != owner:
                raise ValueError(f"{key} is read only by {owner} families; "
                                 f"got {key}={value} for {self.kind}")
        if self.kind == POLYNOMIAL_KWISE:
            if self.k is None or not 2 <= self.k <= self.n:
                raise ValueError("polynomial family needs 2 <= k <= n")
        if self.kind == ADVERSARIAL_STAGE:
            if self.stage not in STAGES:
                raise ValueError(f"stage must be one of {STAGES}")
            if self.n < 16 or not _is_power_of_four(self.n):
                raise ValueError("adversarial family needs n a power of 4, n >= 16")
            if self.branch is not None and (self.stage != "H"
                                            or self.branch not in H_BRANCHES):
                raise ValueError(f"branch needs stage H and one of {H_BRANCHES}; "
                                 f"got branch={self.branch} for stage {self.stage}")

    @property
    def independence_order(self) -> int:
        """Largest k for which any k coordinates are independent signs."""
        if self.kind == FULLY_INDEPENDENT:
            return self.n
        if self.kind == POLYNOMIAL_KWISE:
            return self.k  # type: ignore[return-value]
        return 2 if self.stage == "H" and self.branch is None else 1

    @classmethod
    def from_config(cls, mapping: dict[str, str], n: int) -> "FamilySpec":
        """Spec of size n from a [family] section's strings; kind and stage
        may be spelled in any case.  The experiment sizes the family, so
        the section holds no n, and no config draws from a branch."""
        unknown = set(mapping) - {"kind", "k", "stage"}
        if unknown:
            raise ValueError(f"unknown family keys: {sorted(unknown)}")
        if "kind" not in mapping:
            raise ValueError("[family] needs a kind")
        kind = mapping["kind"]
        stage = mapping.get("stage")
        return cls(
            kind=next((c for c in KINDS if c.lower() == kind.lower()), kind),
            n=n,
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


@lru_cache(maxsize=16)
def _g_row_numerators(root: int) -> tuple[tuple[int, ...], int]:
    """g's first row as integers over one denominator: (nums, den) with
    g[0][r] = nums[r] / den and den = root * lcm(1..ell)^2.

    Every f_c is an integer over lcm(1..ell), so each entry of the row is a
    sum of integer products, with no Fraction arithmetic per term.
    """
    common = lcm(*range(1, root // 2 + 1))
    f = [v.numerator * (common // v.denominator) for v in f_values(root)]
    nums = tuple(sum(f[d] * f[(d + r) % root] for d in range(root))
                 for r in range(root))
    return nums, root * common * common


def g_table(root: int) -> list[list[Fraction]]:
    """Cross-block correlations of the rotated stage.

    Entry (c1, c2) is the average over rotations d of f_{c1+d} * f_{c2+d}
    (indices cyclic).  The average depends only on c2 - c1 mod root, so one
    row is summed and shifted into place.
    """
    nums, den = _g_row_numerators(root)
    row0 = [Fraction(v, den) for v in nums]
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
    def h1_cut(self) -> np.ndarray:
        """ceil(2^53 h1_bias) as uint64, exact: a word's top 53 bits are
        below it exactly when rng.random of that word is below h1_bias."""
        return np.ceil(np.ldexp(self.h1_bias, 53)).astype(np.uint64)

    @property
    def balanced_span(self) -> int:
        """Keys per sort row of the balanced branch: a count of whole
        blocks that divides root, up to _SORT_SPAN keys (one block if a
        block is longer)."""
        return self.root * gcd(self.root, max(1, _SORT_SPAN // self.root))

    @cached_property
    def balanced_keys(self) -> np.ndarray:
        """The low bits of the balanced branch's sort keys, per position:
        bit 0 is set from slot ell of a block on, and the bits from 54 up
        number the block within its sort row."""
        at = np.arange(self.n, dtype=np.uint64)
        tag = at // self.root % (self.balanced_span // self.root)
        return (tag << 54) | (at % self.root >= self.ell)

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
    # g is circulant: root - r of its pairs c1 < c2 lie at distance r
    nums, den = _g_row_numerators(root)
    g_scale = Fraction(den + sum((root - r) * abs(nums[r]) for r in range(1, root)),
                       den)
    row_abs = Fraction(sum(abs(v) for v in nums), den)
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

class AdversarialSampler:
    """Draws from one adversarial stage, or from one branch of stage H.
    Immutable after construction.

    A branch conditions stage H on that branch of its mixture: drift is the
    rotated stage times a fair global sign, pairs a pair mode (chosen with
    probability proportional to |g|) times a fair global sign, balanced the
    per-block balanced subsets.  Mixing the branches with
    `params.branch_weights` gives stage H exactly.
    """

    def __init__(self, spec: FamilySpec):
        self.params = adversarial_params(spec.n)
        self.stage = spec.stage
        self.n = self.params.n
        self._draw, tables = _KERNELS[spec.branch or spec.stage]
        for table in tables:
            getattr(self.params, table)

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError("size must be nonnegative")
        return self._draw(self, rng, size)

    def _batch_h1(self, rng, size, keep=None):
        """H1 rows: +1 where a word's top 53 bits are below h1_cut, that is
        where rng.random((size, n)) is below h1_bias.  keep, a boolean mask
        over the size rows, selects the rows to build, but every row's
        words are drawn, so the stream does not depend on keep."""
        cut = self.params.h1_cut
        source = _word_source(rng)

        def draw(m, rows):
            words = source.random_raw((m, self.n))[rows]
            words >>= 11
            return words < cut

        return _chunked_signs(size, self.n, draw, keep)

    def _batch_h2(self, rng, size, keep=None):
        """H2 rows; keep selects rows as in _batch_h1."""
        base = self._batch_h1(rng, size, keep)
        shifts = rng.integers(0, self.params.root, size=size)
        return _rotate_blocks(base, shifts if keep is None else shifts[keep],
                              self.params.root)

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
        """Uniform size-ell subset of each block set to +1.

        Sorting a block's iid uniforms is a uniform permutation; the slots
        that receive the block's first ell uniforms form a uniform
        ell-subset.  The uniforms are the words' top 53 bits, so they are
        sorted as integer keys (word >> 11) << 1 with bit 0 set for the
        last ell slots of a block: where a sorted key's bit 0 is clear, the
        slot gets +1.  This is the argsort of the rng.random uniforms, and
        it is deterministic: equal 53-bit uniforms keep their source order,
        where an argsort leaves it to numpy's sort.  Short blocks are
        sorted several to a row, tagged in the high bits by their place.
        """
        params = self.params
        tags, span = params.balanced_keys, params.balanced_span
        source = _word_source(rng)

        def draw(m, rows):
            keys = source.random_raw((m, self.n))
            keys >>= 11
            keys <<= 1
            keys |= tags
            keys = keys.view(np.int64).reshape(-1, span)
            keys.sort(axis=1)
            low = keys.astype("<i8", copy=False).view(np.uint8)[:, ::8]
            return ((low & 1) == 0).reshape(m, self.n)

        return _chunked_signs(size, self.n, draw)

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


# Per kernel (a stage, or a branch of stage H): its draw method and the
# float tables of AdversarialParams it reads.  A sampler builds its tables
# at construction, so one built in the parent reaches forked workers
# complete.
_KERNELS = {
    "H1": (AdversarialSampler._batch_h1, ("h1_cut",)),
    "H2": (AdversarialSampler._batch_h2, ("h1_cut",)),
    "H3": (AdversarialSampler._batch_h3, ("h1_cut", "mode_cdf", "pair_modes")),
    "H": (AdversarialSampler._batch_h, ("h1_cut", "mode_cdf", "pair_modes",
                                        "p_float", "balanced_keys")),
    "drift": (AdversarialSampler._batch_drift, ("h1_cut",)),
    "pairs": (AdversarialSampler._batch_pairs, ("pair_mode_cdf", "pair_modes")),
    "balanced": (AdversarialSampler._batch_balanced, ("balanced_keys",)),
}


def _chunked_signs(size: int, n: int, draw, keep=None) -> np.ndarray:
    """Int8 rows, +1 where draw is true and -1 elsewhere.

    draw(m, rows) makes the generator call for the next m rows and returns
    the bits of the rows that rows (a slice or boolean mask) selects among
    them.  keep, a boolean mask over the size rows, picks the rows returned;
    without it all size rows are.  Split by rows, the calls used here draw
    the same stream as one call for all rows, and their values stay
    cache-sized."""
    bits = np.empty((size if keep is None else np.count_nonzero(keep), n),
                    dtype=bool)
    step = max(1, _DRAW_VALUES // n)
    at = 0
    for lo in range(0, size, step):
        m = min(step, size - lo)
        chunk = draw(m, slice(None) if keep is None else keep[lo:lo + m])
        bits[at:at + len(chunk)] = chunk
        at += len(chunk)
    return _to_signs(bits)


def _to_signs(bits: np.ndarray) -> np.ndarray:
    """bits as int8 signs in place: +1 where true, -1 elsewhere."""
    signs = bits.view(np.int8)
    signs += signs
    signs -= 1
    return signs


def _word_source(rng: np.random.Generator):
    """rng's bit generator, whose random_raw words are the ones rng.random
    and rng.integers(0, 2) read; a TypeError if it is not one of
    RAW_WORD_GENERATORS, whose words are read that way."""
    source = rng.bit_generator
    if not isinstance(source, RAW_WORD_GENERATORS):
        raise TypeError(
            f"sign sampling needs one of "
            f"{', '.join(g.__name__ for g in RAW_WORD_GENERATORS)}, "
            f"not {type(source).__name__}")
    return source


def _uniform_signs(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """Fair +-1 int8 signs, byte for byte rng.integers(0, 2, (size, n)) == 1,
    the draw every sampler here has always made, and leaving the generator
    where that draw would.

    Each sign is the top bit of a 32-bit half-word: first the half the
    generator holds buffered, if any, then both halves of each new word,
    low half first.  An odd last sign comes from rng.integers(0, 2), which
    buffers its word's high half as the full draw would."""
    source = _word_source(rng)
    count = size * n
    bits = np.empty(count, dtype=bool)
    first = int(count > 0 and source.state["has_uint32"])
    if first:
        bits[0] = rng.integers(0, 2)
    for lo in range(first, count - 1, 2 * _DRAW_VALUES):
        words = source.random_raw(min(_DRAW_VALUES, (count - lo) // 2))
        halves = words.astype("<u8", copy=False).view("<u4")
        bits[lo:lo + len(halves)] = halves >= 1 << 31
    if (count - first) % 2:
        bits[-1] = rng.integers(0, 2)
    return _to_signs(bits).reshape(size, n)


def _rotate_blocks(rows: np.ndarray, shifts: np.ndarray, root: int) -> np.ndarray:
    """Entry i of row r is rows[r, (i + shifts[r] * root) % n]: a rotation
    by whole blocks, one gather of each row's blocks viewed as single items."""
    blocks = np.ascontiguousarray(rows).view(f"V{root * rows.itemsize}")
    at = (np.arange(root) + shifts[:, None]) % root
    return np.take_along_axis(blocks, at, axis=1).view(rows.dtype)


class KWiseSampler:
    """Exactly k-wise independent signs from random polynomials over
    GF(2^64).  A batch draws its coefficients in one call."""

    def __init__(self, spec: FamilySpec):
        self.n = spec.n
        self.k = spec.k
        self.tables = parity_tables(
            point_lsb_vectors(GF2Field(64), self.n, self.k), 64)

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError("size must be nonnegative")
        coeffs = rng.integers(0, 1 << 64, size=(size, self.k), dtype=np.uint64)
        return signs_from_tables(self.tables, coeffs, self.n)


class IndependentSampler:
    """Fully independent uniform signs."""

    def __init__(self, spec: FamilySpec):
        self.n = spec.n

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError("size must be nonnegative")
        return _uniform_signs(rng, size, self.n)


@lru_cache(maxsize=16)
def make_sampler(spec: FamilySpec):
    """Sampler for any family spec, a stage-H branch included.  Samplers are
    stateless between calls and built once per spec."""
    return _SAMPLERS[spec.kind](spec)


_SAMPLERS = {FULLY_INDEPENDENT: IndependentSampler, POLYNOMIAL_KWISE: KWiseSampler,
             ADVERSARIAL_STAGE: AdversarialSampler}


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
    """Per-block mean and per-block-pair E[h_i h_j] (i != j) for a stage.

    Each table is summed in integer numerators over one common denominator,
    read off the full f and g tables, and turned into Fractions at the end
    (`_over`).  Every entry follows its formula; none leans on g being
    circulant or symmetric, which the H3 and H checks exist to test.
    """
    root = params.root

    if stage == "H1":
        f, den = _numerators(params.f)
        return list(params.f), _over([[a * b for b in f] for a in f], den * den)

    if stage == "H2":
        return [Fraction(0)] * root, [list(row) for row in params.g]

    if stage not in ("H3", "H"):
        raise ValueError(f"stage must be one of {STAGES}")
    # H3: the rotated stage has weight 1/gs and adds g_c1c2 to E[h_i h_j].
    # Pair mode (a, b), a < b, has weight |g_ab|/gs and sets block a to +1
    # and block b to -sign(g_ab): it adds |g_ab| to the mean of block a,
    # -g_ab to the mean of block b and to E[h_i h_j] across the two blocks,
    # and |g_ab| within either block.  g_cc > 0, so a diagonal entry is the
    # absolute sum of row c.  x3 is H3's pair table in numerators over
    # den * gs.
    flat, den = _numerators([v for row in params.g for v in row])
    g = [flat[i:i + root] for i in range(0, root * root, root)]
    cols = list(zip(*g))
    # off the diagonal, g[c1][c2] - g[min(c1, c2)][max(c1, c2)]
    x3 = [list(map(sub, row, (*cols[c][:c], *row[c:]))) for c, row in enumerate(g)]
    for c, row in enumerate(g):
        x3[c][c] = sum(map(abs, row))
    gs = params.g_scale
    if stage == "H3":
        mean = [sum(map(abs, g[c][c + 1:])) - sum(cols[c][:c]) for c in range(root)]
        tables = _over([[v * gs.denominator for v in row] for row in (mean, *x3)],
                       den * gs.numerator)
        return tables[0], tables[1:]
    # H: H3 with probability p under a fair negation, which centers it, and
    # balanced block subsets otherwise, whose within-block correlation is
    # -1/(root - 1).  p * x3 / (den * gs) - (1 - p) / (root - 1) on the
    # diagonal, in numerators over p's denominator * den * gs * (root - 1).
    p = params.p
    scale = p.numerator * gs.denominator * (root - 1)
    within = (p.denominator - p.numerator) * den * gs.numerator
    pair = [[v * scale for v in row] for row in x3]
    for c, row in enumerate(pair):
        row[c] -= within
    return ([Fraction(0)] * root,
            _over(pair, p.denominator * den * gs.numerator * (root - 1)))


def _numerators(values) -> tuple[list[int], int]:
    """Fractions as integer numerators over their lcm denominator."""
    dens = {v.denominator for v in values}
    den = lcm(*dens)
    scale = {d: den // d for d in dens}
    return [v.numerator * scale[v.denominator] for v in values], den


def _over(rows: list[list[int]], den: int) -> list[list[Fraction]]:
    """Rows of integer numerators as fresh lists of Fractions over den,
    with one Fraction object per distinct numerator."""
    made = {num: Fraction(num, den) for num in set().union(*rows)}
    return [list(map(made.__getitem__, row)) for row in rows]


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
