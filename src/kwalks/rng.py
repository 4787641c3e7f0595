"""Deterministic seeding helpers.

Monte Carlo work is split into fixed-size trial chunks; chunk c of a run
owns the substream derived from (master seed, c), so results never depend
on execution order or on how many workers process the chunks.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

MASK64 = (1 << 64) - 1

# Trials per substream.  Fixed globally: changing it changes results, while
# changing the worker count does not.
TRIAL_CHUNK = 1024

# The bit generator behind every substream.
BIT_GENERATOR = np.random.Philox


def splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step; returns (advanced state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, (z ^ (z >> 31)) & MASK64


def mix64(seed: int, index: int) -> int:
    """Mix a master seed with a stream index into one 64-bit key."""
    state = (seed ^ ((index + 1) * 0xD1342543DE82EF95)) & MASK64
    state, _ = splitmix64(state)
    _, out = splitmix64(state)
    return out


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for the index-th substream of a master seed."""
    return np.random.Generator(BIT_GENERATOR(key=mix64(seed, index)))


def chunk_layout(trials: int) -> Iterator[tuple[int, int]]:
    """Yield (chunk_index, trial_count) pairs covering `trials` trials in
    chunks of TRIAL_CHUNK."""
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    for c in range(-(-trials // TRIAL_CHUNK)):
        yield c, min(TRIAL_CHUNK, trials - c * TRIAL_CHUNK)
