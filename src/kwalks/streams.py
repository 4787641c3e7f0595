"""Insertion-only streams, prefix nets, and chaining forms.

A stream of items p_1..p_m over [n] tracks a counting vector z; z^(t) is
the count vector after t items.  For each level r the net points are a
greedy subsequence of prefixes pairwise farther apart than 2^(-r/2)||z||,
every prefix sits within that radius of its preceding net point, and level
r holds at most 2^r + 1 points.  Chain forms sum squared (or k-th power)
inner products over net-point differences and deterministically dominate
the supremum statistic up to explicit factors.

Radius comparisons square both sides and stay in integer arithmetic, so
net membership is never decided by floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .gf2 import all_polynomial_signs, min_width
from .parallel import MomentJob
from .sign_families import FamilySpec, tile_rows
from .walks import sup_abs_prefix_batch

# Exact k-th moment constants for +-1 valued steps.
MOMENT_CONSTANTS = {2: 1, 4: 3}


def _lg(m: int) -> int:
    if m < 1 or m & (m - 1):
        raise ValueError("stream length must be a power of 2")
    return m.bit_length() - 1


@dataclass(eq=False)
class InsertionStream:
    """Items p_1..p_m in [n], 1-based; m must be a power of two."""

    items: np.ndarray
    n: int

    def __post_init__(self):
        self.items = np.asarray(self.items, dtype=np.int64)
        if self.items.ndim != 1 or len(self.items) == 0:
            raise ValueError("stream must be a nonempty 1-d sequence")
        _lg(len(self.items))
        if self.items.min() < 1 or self.items.max() > self.n:
            raise ValueError(f"items must lie in 1..{self.n}")

    @property
    def m(self) -> int:
        return len(self.items)

    def counts(self) -> np.ndarray:
        """Final count vector z."""
        return np.bincount(self.items, minlength=self.n + 1)[1:]

    def norm_sq(self) -> int:
        return int((self.counts().astype(object) ** 2).sum())

    @cached_property
    def item_order(self) -> np.ndarray:
        """Positions 0..m-1 stably sorted by item, computed once."""
        return np.argsort(self.items, kind="stable")

    def _check_rows(self, rows: np.ndarray) -> np.ndarray:
        """rows as an array, which must be a (count, n) batch."""
        arr = np.asarray(rows)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ValueError(f"expected shape (count, {self.n})")
        return arr

    def prefix_inner_rows(self, rows: np.ndarray) -> np.ndarray:
        """W_t = <x, z^(t)> for t = 0..m, one row per row x of a
        (count, n) batch."""
        arr = self._check_rows(rows)
        out = np.zeros((len(arr), self.m + 1))
        np.cumsum(np.take(arr, self.items - 1, axis=1), axis=1,
                  dtype=np.float64, out=out[:, 1:])
        return out


def identity_stream(m: int) -> InsertionStream:
    """p_j = j: the plain random-walk case."""
    return InsertionStream(items=np.arange(1, m + 1), n=m)


def single_item_stream(m: int) -> InsertionStream:
    """Every insertion hits coordinate 1."""
    return InsertionStream(items=np.ones(m, dtype=np.int64), n=1)


def two_phase_stream(m: int, n: int = 256) -> InsertionStream:
    """Spread phase (round-robin over [n]) then a heavy second phase on 1."""
    half = m // 2
    first = (np.arange(half) % n) + 1
    second = np.ones(m - half, dtype=np.int64)
    return InsertionStream(items=np.concatenate([first, second]), n=n)


def uniform_stream(m: int, n: int = 256, seed: int = 0) -> InsertionStream:
    """Items drawn uniformly from [n] with a fixed seed."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return InsertionStream(items=rng.integers(1, n + 1, size=m), n=n)


def dyadic_burst_stream(m: int, n: int = 256) -> InsertionStream:
    """Runs of doubling length (1, 2, 4, ...) over cycling items."""
    out = np.empty(m, dtype=np.int64)
    pos, j = 0, 0
    while pos < m:
        run = min(1 << j, m - pos)
        out[pos:pos + run] = (j % n) + 1
        pos += run
        j += 1
    return InsertionStream(items=out, n=n)


STREAM_GENERATORS = {
    "identity": identity_stream,
    "single-item": single_item_stream,
    "two-phase": two_phase_stream,
    "uniform": uniform_stream,
    "dyadic-bursts": dyadic_burst_stream,
}


def read_stream(path: str | Path, n: int | None = None) -> InsertionStream:
    tokens = Path(path).read_text().split()
    if not tokens:
        raise ValueError(f"stream file {path} holds no items")
    try:
        arr = np.array([int(tok) for tok in tokens], dtype=np.int64)
    except ValueError:
        raise ValueError(f"stream file {path} holds a non-integer item") from None
    return InsertionStream(items=arr, n=n if n is not None else int(arr.max()))


# --------------------------------------------------------------------------
# net hierarchy

@dataclass(frozen=True)
class NetLevel:
    times: np.ndarray               # prefix times of the net points
    parents: np.ndarray | None      # index into the previous level, or None

    @property
    def size(self) -> int:
        """d_r: one less than the number of net points."""
        return len(self.times) - 1


@dataclass(eq=False)
class NetHierarchy:
    stream: InsertionStream
    norm_sq: int
    prefix_norm_sq: np.ndarray
    levels: list[NetLevel]

    def sizes_within_cap(self) -> bool:
        """d_r <= 2^r at every level."""
        return all(lvl.size <= 1 << r for r, lvl in enumerate(self.levels))

    def to_csv(self, out: IO[str]) -> None:
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["level", "s", "time", "parent_s"])
        for r, lvl in enumerate(self.levels):
            for s, t in enumerate(lvl.times):
                parent = "" if lvl.parents is None else int(lvl.parents[s])
                writer.writerow([r, s, int(t), parent])


def _net_times(items: np.ndarray, norm_sq: int, r: int) -> list[int]:
    """Greedy net point times at level r, exact integer comparisons.

    The next point after the one at time t1 is the first t with
    ||z^(t) - z^(t1)||^2 * 2^r > ||z||^2.
    """
    m = len(items)
    if (1 << r) > norm_sq:
        return list(range(m + 1))       # radius below 1: every prefix
    times = [0]
    deltas: dict[int, int] = {}
    dist_sq = 0
    for t, c in enumerate(items.tolist(), start=1):
        d = deltas.get(c, 0)
        dist_sq += 2 * d + 1
        deltas[c] = d + 1
        if (dist_sq << r) > norm_sq:
            times.append(t)
            deltas.clear()
            dist_sq = 0
    return times


def _earlier_counts(stream: InsertionStream, seg: np.ndarray) -> np.ndarray:
    """Per position, how often its item occurs earlier in the same segment
    (seg nondecreasing): a stable sort by item keeps positions in order, so
    each (item, segment) group is one run of the sorted order."""
    order = stream.item_order
    key_i, key_s = stream.items[order], seg[order]
    idx = np.arange(stream.m)
    starts = np.ones(stream.m, dtype=bool)
    starts[1:] = (key_i[1:] != key_i[:-1]) | (key_s[1:] != key_s[:-1])
    out = np.empty(stream.m, dtype=np.int64)
    out[order] = idx - np.maximum.accumulate(np.where(starts, idx, 0))
    return out


def build_nets(stream: InsertionStream) -> NetHierarchy:
    """Greedy nets for levels r = 0 .. 2 lg m + 1 with parent maps."""
    m = stream.m
    running = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(2 * _earlier_counts(stream, np.zeros(m, np.int64)) + 1,
              out=running[1:])
    norm_sq = int(running[-1])

    levels: list[NetLevel] = []
    for r in range(2 * _lg(m) + 2):
        times = np.array(_net_times(stream.items, norm_sq, r), dtype=np.int64)
        if r == 0:
            parents = None
        else:
            parents = np.searchsorted(levels[r - 1].times, times, side="right") - 1
        levels.append(NetLevel(times=times, parents=parents))
    return NetHierarchy(stream=stream, norm_sq=norm_sq,
                        prefix_norm_sq=running, levels=levels)


def coverage_check(nets: NetHierarchy, r: int) -> bool:
    """Every prefix within 2^(-r/2)||z|| of its preceding level-r net point,
    verified on squared distances in integer arithmetic."""
    if not 0 <= r < len(nets.levels):
        raise ValueError(f"level must lie in 0..{len(nets.levels) - 1}")
    times = nets.levels[r].times
    pos = np.arange(1, nets.stream.m + 1)
    # prefix t lies in segment #{net times < t}, which a net time t closes
    seg = np.searchsorted(times, pos, side="left")
    steps = 2 * _earlier_counts(nets.stream, seg) + 1
    dist_sq = np.cumsum(steps)
    dist_sq -= (dist_sq - steps)[np.searchsorted(seg, seg, side="left")]
    at_net = np.searchsorted(times, pos, side="right") > seg
    # dist_sq * 2^r > norm_sq on integers, without the int64 overflow
    return not ((dist_sq > nets.norm_sq >> r) & ~at_net).any()


# --------------------------------------------------------------------------
# chain forms

def chain_forms(nets: NetHierarchy, w: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """Both chain forms, row-wise, from one pass over the levels r >= 1.

    w holds rows W_t = <x, z^(t)> from stream.prefix_inner_rows.  Each
    level-r net-point difference <a_{r,s} - parent, x> is squared once and
    added to the quadratic form, the sum of the squares, and to the k-th
    power form, the sum over r of 2^(r/2) times the k-th power sums.  A
    level whose times equal level r-1's has identity parents and all-zero
    differences, so it is skipped: adding 0.0 leaves a float total
    unchanged.  Returns (quadratic, k-th power).
    """
    if k < 4 or k % 2:
        raise ValueError("k must be even and at least 4")
    quad, kth = np.zeros(len(w)), np.zeros(len(w))
    for r in range(1, len(nets.levels)):
        lvl, prev = nets.levels[r], nets.levels[r - 1]
        if np.array_equal(lvl.times, prev.times):
            continue
        sq = w[..., lvl.times] - w[..., prev.times[lvl.parents]]
        # d*d is exact for integer-valued d; numpy's d ** k is slower and
        # not correctly rounded past 2^53
        sq *= sq
        quad += sq.sum(axis=1)
        kth += 2 ** (r / 2) * (sq ** (k // 2)).sum(axis=1)
    return quad, kth


def chain_dominance_floor(k: int, m: int) -> float:
    """Explicit constant c with chain_form_k >= c * sup_t <z^(t), x>^k.

    Against the worst split of a unit sum into L = 2 lg m + 1 hop values,
    the geometric profile with ratio 2^(-1/(2k)) equalizes the weighted
    terms; its head value gives the floor ((1 - rho) / (1 - rho^L))^k.
    """
    if k < 4 or k % 2:
        raise ValueError("k must be even and at least 4")
    levels = 2 * _lg(m) + 1
    rho = 2.0 ** (-1.0 / (2 * k))
    head = (1 - rho) / (1 - rho ** levels)
    return head ** k


def sup_inner_rows(stream: InsertionStream, rows: np.ndarray) -> np.ndarray:
    """Row-wise sup over 1 <= t <= m of |<x, z^(t)>| for a (count, n) batch
    of +-1 sign rows x, as float64.

    <x, z^(t)> is the t-th prefix sum of the steps x_{p_1}, ..., x_{p_m}.
    The steps are gathered tile_rows(m) rows at a time, so memory stays
    bounded however long the stream, and reduced by the exact integer
    kernel walks.sup_abs_prefix_batch; no (count, m + 1) float W is built.
    It raises ValueError when a streamed column holds anything but +-1.
    """
    arr = stream._check_rows(rows)
    out = np.empty(len(arr))
    step = tile_rows(stream.m)
    for lo in range(0, len(arr), step):
        steps = np.take(arr[lo:lo + step], stream.items - 1, axis=1)
        out[lo:lo + step] = sup_abs_prefix_batch(steps)
    return out


# --------------------------------------------------------------------------
# moment checks

def mz_moment_check(v: Sequence[int], k: int) -> tuple[Fraction, Fraction]:
    """Exact E<v, X>^k for k-wise independent signs X, against
    B_k * ||v||_2^k.

    v must be integer-valued and short enough to enumerate (n <= 16): the
    moment is a Fraction over every polynomial of the narrowest field, and
    the bound is asserted with zero tolerance.  k in {2, 4}; returns
    (moment, bound).
    """
    if k not in MOMENT_CONSTANTS:
        raise ValueError(f"supported moment orders: {sorted(MOMENT_CONSTANTS)}")
    n = len(v)
    vec = [int(x) for x in v]
    if list(v) != vec:
        raise ValueError("exact moment check needs integer entries")
    if not 1 <= n <= 16:
        raise ValueError("exact enumeration supports 1 <= n <= 16")
    width = min_width(n)
    signs = all_polynomial_signs(width, n, k)
    inner = signs @ np.array(vec, dtype=np.int64)
    total = int((inner.astype(object) ** k).sum())
    moment = Fraction(total, len(signs))
    norm_sq = sum(x * x for x in vec)
    bound = Fraction(MOMENT_CONSTANTS[k]) * Fraction(norm_sq) ** (k // 2)
    if moment > bound:
        raise AssertionError(f"moment {moment} exceeds bound {bound}")
    return moment, bound


def sup_inner_power_rows(batch: np.ndarray, stream: InsertionStream,
                         k: int) -> np.ndarray:
    """Row-wise sup_t |<x, z^(t)>|^k for a (count, n) batch of sign rows x."""
    return sup_inner_rows(stream, batch) ** k


def sup_moment_job(stream: InsertionStream, spec: FamilySpec, k: int,
                   trials: int, seed: int) -> MomentJob:
    """The mc_moments job of E[sup_t |<X, z^(t)>|^k], one stream-track row."""
    if spec.n != stream.n:
        raise ValueError("family dimension must match the stream dimension")
    if k < 1:
        raise ValueError(f"moment order must be positive, got k={k}")
    # beyond n coordinates the independence requirement is vacuous
    needed = min(2 if k == 2 else k, spec.n)
    if spec.independence_order < needed:
        raise ValueError(
            f"order-{k} supremum moments need {needed}-wise independence")
    return MomentJob(sup_inner_power_rows, (stream, k), spec, trials, seed)

