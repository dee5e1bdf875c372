"""Component parameters, zeta wrappers and samplers on the integers x >= x_min.

Two families: a discrete power law normalized by the Hurwitz zeta
function, and a discrete exponential, the geometric pmf
(1 - e^-lam) e^(-lam (x - x_min)), which sums to one on the support.
The component densities are evaluated only by
``mixture._component_logs``, which ``mixture_log_pmf`` and
``responsibilities`` (and through it ``tail_threshold``) call, over the
``kernels`` helpers that the fits use; the power-law sampler reads the
same zeta.

The power-law sampler inverts the cumulative pmf over the first 2^20
support values, whatever alpha is, and draws beyond them from the
continuous power law (Clauset, Shalizi & Newman 2009, App. D). That
table is never held whole: per (alpha, x_min) it keeps the first 4096
prefix sums and every 256th, 64 KB, for the 32 most recently used
keys, and folds again only the 256-value blocks that draws fall in. A
caller that cycles through up to 32 keys builds each once per process,
in whatever order it visits them. Draws beyond the table edge scale
with 1 / (1 - S) at the edge, so the last bits of zeta reach them, and
take libm's pow, which gives one result on every CPU.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError
from .seeding import substream

# Validation bounds; alpha must exceed 1 by a real margin or the zeta
# normalization diverges, rates must be strictly positive, and both must
# be finite.
ALPHA_MIN = 1.0 + 1e-9
RATE_MIN = 1e-12

# The power-law sampler's table spans _TABLE_SIZE support values at every
# alpha; the continuous power law takes the draws beyond it. Kept per
# (alpha, x_min): the first _HEAD prefix sums and the last sum of every
# _BLOCK-value block, 2 x 32 KB. _BLOCK and _HEAD divide _CHUNK, so both
# line up with the build's chunk ends.
_TABLE_SIZE = 1 << 20
_BLOCK = 256
_HEAD = 4096
# Values folded per build step (512 KB of float64), and keys kept.
_CHUNK = 1 << 16
_KEPT_KEYS = 32
_INT64_MAX = np.iinfo(np.int64).max
# Largest x_min: the sampler's table values x_min + k and zeta's bases
# q + 0..9 stay exact float64 integers up to here.
_X_MIN_MAX = 1 << 52


def _check_x_min(x_min) -> int:
    # the range test first, so that inf and nan never reach int()
    if not 1 <= x_min <= _X_MIN_MAX or int(x_min) != x_min:
        raise DomainError(f"x_min must be an integer from 1 to 2^52, got {x_min!r}")
    return int(x_min)


def _check_support(x, x_min: int) -> np.ndarray:
    """Values as float64; DomainError unless all are integers >= x_min."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and (np.floor(arr) != arr).any():
        raise DomainError("support values must be integers")
    if arr.size and arr.min() < x_min:
        idx = int(np.argmin(arr))
        raise DomainError(
            f"value {arr.flat[idx]:.0f} at index {idx} is below x_min={x_min}"
        )
    return arr


@dataclass(frozen=True)
class ParetoParams:
    """Discrete power-law parameters: exponent alpha on {x_min, x_min+1, ...}."""

    alpha: float
    x_min: int = 1

    def __post_init__(self):
        if not (ALPHA_MIN < self.alpha < math.inf):
            raise DomainError(
                f"alpha must exceed {ALPHA_MIN} and be finite, got {self.alpha}"
            )
        object.__setattr__(self, "x_min", _check_x_min(self.x_min))


@dataclass(frozen=True)
class ExpParams:
    """Discrete exponential parameters. ``rate`` is the decay rate lambda."""

    rate: float

    def __post_init__(self):
        if not (RATE_MIN < self.rate < math.inf):
            raise DomainError(
                f"rate must exceed {RATE_MIN} and be finite, got {self.rate}"
            )


def hurwitz_zeta(alpha: float, x_min: int = 1) -> float:
    """Normalizing constant zeta(alpha, x_min) = sum_{x>=x_min} x^-alpha."""
    p = ParetoParams(alpha, x_min)
    return kernels.zeta_pair(p.alpha, float(p.x_min))[0]


def sample_exp(params: ExpParams, n: int, seed, x_min: int = 1) -> np.ndarray:
    """Draw n values from the discrete exponential component."""
    x_min = _check_x_min(x_min)
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    p = -math.expm1(-params.rate)
    return rng.geometric(p, size=n).astype(np.int64) + (x_min - 1)


def _fold(sums: np.ndarray, alpha: float, z: float) -> None:
    """Prefix sums of power-law masses, in place, along the last axis.

    On entry each row holds a start sum in column 0 and the support
    values x after it; on exit column j holds the start sum plus the
    masses x^-alpha / z of columns 1..j, added left to right. The power
    runs over the whole contiguous array, so every x takes the same path
    wherever it sits in it.
    """
    start = sums[..., 0].copy()
    sums[..., 0] = 1.0
    np.power(sums, -alpha, out=sums)
    sums /= z
    sums[..., 0] = start
    np.cumsum(sums, axis=-1, out=sums)


@functools.lru_cache(maxsize=_KEPT_KEYS)
def _pareto_checkpoints(alpha: float, x_min: int):
    """(zeta, head, ends) of the cumulative pmf S over the _TABLE_SIZE
    values from x_min on.

    S is folded in _CHUNK steps through one buffer, each continuing the
    running sum from the last, so every prefix equals a one-shot cumsum
    bit for bit. Only head = S[:_HEAD] and ends = S[_BLOCK-1::_BLOCK]
    are kept, read-only.
    """
    z = kernels.zeta_pair(alpha, float(x_min))[0]
    ends = np.empty(_TABLE_SIZE // _BLOCK)
    steps = np.arange(_CHUNK, dtype=np.float64)
    run = np.zeros(_CHUNK + 1)
    for lo in range(0, _TABLE_SIZE, _CHUNK):
        run[0] = run[-1]  # the last chunk's last sum; 0.0 before the first
        np.add(steps, x_min + lo, out=run[1:])
        _fold(run, alpha, z)
        if not lo:
            head = run[1 : _HEAD + 1].copy()
        ends[lo // _BLOCK : (lo + _CHUNK) // _BLOCK] = run[_BLOCK::_BLOCK]
    head.flags.writeable = ends.flags.writeable = False
    return z, head, ends


def _pow(base: float, exponent: float) -> float:
    """libm's pow, as ``math.pow`` calls it, with inf where it overflows."""
    try:
        return math.pow(base, exponent)
    except OverflowError:
        return math.inf


def sample_pareto(params: ParetoParams, n: int, seed) -> np.ndarray:
    """Draw n values from the discrete power law by inverse CDF.

    A draw u maps to the number of prefix sums S[i] <= u. Draws below
    the head's last sum are looked up in the head. The others find their
    block among the checkpoints; the blocks that some draw falls in are
    folded again from the checkpoint before them, as in the build, so
    the lookup is the one a full table gives, bit for bit. Draws at or
    beyond the last checkpoint use a continuous power-law draw from the
    table edge, through libm's pow, rounded to the nearest integer.
    Results are clamped to the int64 maximum; at very small alpha a draw
    can exceed it, and pow can overflow.
    """
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    # float() so that an alpha given as a 0-d array is hashable
    alpha = float(params.alpha)
    z, head, ends = _pareto_checkpoints(alpha, params.x_min)
    u = rng.random(n)
    idx = np.searchsorted(head, u, side="right")
    far = np.flatnonzero(idx == head.shape[0])
    block = np.searchsorted(ends, u[far], side="right")
    inner = block < ends.shape[0]
    mid = far[inner]
    if mid.size:
        # each such block lies past the head, so a checkpoint precedes it
        blocks, row = np.unique(block[inner], return_inverse=True)
        sums = np.empty((blocks.shape[0], _BLOCK + 1))
        sums[:, 0] = ends[blocks - 1]
        sums[:, 1:] = (params.x_min + _BLOCK * blocks)[:, None] + np.arange(
            _BLOCK, dtype=np.float64
        )
        _fold(sums, alpha, z)
        # pos counts every sum of the rows before the draw's row, and its
        # row's start sum: all are <= u. The rest is its place in the block.
        pos = np.searchsorted(sums.ravel(), u[mid], side="right")
        idx[mid] = _BLOCK * blocks[row] + pos - (_BLOCK + 1) * row - 1
    out = params.x_min + idx.astype(np.int64)
    tail = far[~inner]
    if tail.size:
        edge = params.x_min + _TABLE_SIZE - 1
        v = (u[tail] - ends[-1]) / (1.0 - ends[-1])
        # conditional survival beyond edge approximated by the continuous
        # power law through the half-integer boundary
        power = -1.0 / (alpha - 1.0)
        scale = np.array([_pow(s, power) for s in (1.0 - v).tolist()])
        draw = np.floor((edge + 0.5) * scale + 0.5)
        # largest float64 below 2**63, so the int64 cast cannot overflow
        draw = np.clip(draw, edge + 1, np.nextafter(float(_INT64_MAX), 0.0))
        out[tail] = draw.astype(np.int64)
    return out
