"""Deterministic RNG streams.

Every random draw in the package flows through a generator built here. A
root seed plus an integer path (restart index, replicate index, ...)
fully determines the stream, so runs are reproducible and independent
substreams never collide.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DomainError

# Fixed root seed used when the caller supplies none.
DEFAULT_SEED = 20260814


def _check_seed(seed) -> None:
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


def _seed_sequence(seed, path) -> np.random.SeedSequence:
    _check_seed(seed)
    return np.random.SeedSequence(seed, spawn_key=path)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for the substream identified by ``path``.

    The same (seed, path) pair always yields the same stream, and distinct
    paths yield statistically independent streams. A seed that is not a
    non-negative integer is a DomainError.
    """
    return np.random.default_rng(_seed_sequence(seed, path))


def child_seed(seed: int, *path: int) -> int:
    """Derive a 63-bit integer seed for the substream at ``path``.

    Useful when an API takes a plain integer seed but the caller needs
    independent streams per work item.
    """
    state = _seed_sequence(seed, path).generate_state(2, np.uint64)
    return int(state[0] ^ (state[1] << np.uint64(1))) & ((1 << 63) - 1)
