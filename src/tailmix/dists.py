"""Component parameters, zeta wrappers and samplers on the integers x >= x_min.

Two families: a discrete power law normalized by the Hurwitz zeta
function, and a discrete exponential. The exponential has two modes:
"discrete" renormalizes the geometric form so it sums to one on the
support, "paper-literal" evaluates the unnormalized continuous density
lam*exp(-lam*x) pointwise. The literal mode is not a probability mass
function, so sampling under it is refused. The component densities are
evaluated only by ``mixture.component_log_pmfs``, over the ``kernels``
helpers that the fits use; the power-law sampler reads the same zeta.

The power-law sampler inverts a cumulative table of up to 8 MB. The
last table built is kept, keyed on (alpha, x_min), so a run of draws at
one power tail builds it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, UnsupportedOperationError
from .seeding import substream

# Validation floors; alpha must exceed 1 by a real margin or the zeta
# normalization diverges, and rates must be strictly positive.
ALPHA_MIN = 1.0 + 1e-9
RATE_MIN = 1e-12

EXP_MODES = ("discrete", "paper-literal")

# Sampling table controls: extend until this much mass is covered, then
# fall back to the analytic tail for the remainder.
_TABLE_MASS = 1.0 - 1e-12
_TABLE_MAX = 1 << 20
_INT64_MAX = np.iinfo(np.int64).max


def _check_x_min(x_min) -> int:
    if int(x_min) != x_min or x_min < 1:
        raise DomainError(f"x_min must be an integer >= 1, got {x_min!r}")
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
        if not (self.alpha > ALPHA_MIN):
            raise DomainError(f"alpha must exceed {ALPHA_MIN}, got {self.alpha}")
        object.__setattr__(self, "x_min", _check_x_min(self.x_min))


@dataclass(frozen=True)
class ExpParams:
    """Discrete exponential parameters. ``rate`` is the decay rate lambda."""

    rate: float
    mode: str = "discrete"

    def __post_init__(self):
        if not (self.rate > RATE_MIN):
            raise DomainError(f"rate must exceed {RATE_MIN}, got {self.rate}")
        if self.mode not in EXP_MODES:
            raise DomainError(
                f"mode must be one of {EXP_MODES}, got {self.mode!r}"
            )


def hurwitz_zeta(alpha: float, x_min: int = 1) -> float:
    """Normalizing constant zeta(alpha, x_min) = sum_{x>=x_min} x^-alpha."""
    if not (alpha > ALPHA_MIN):
        raise DomainError(f"alpha must exceed {ALPHA_MIN}, got {alpha}")
    x_min = _check_x_min(x_min)
    return kernels.zeta_pair(alpha, float(x_min))[0]


def hurwitz_zeta_dalpha(alpha: float, x_min: int = 1) -> float:
    """Derivative of zeta(alpha, x_min) with respect to alpha."""
    if not (alpha > ALPHA_MIN):
        raise DomainError(f"alpha must exceed {ALPHA_MIN}, got {alpha}")
    x_min = _check_x_min(x_min)
    return kernels.zeta_pair(alpha, float(x_min))[1]


def sample_exp(params: ExpParams, n: int, seed, x_min: int = 1) -> np.ndarray:
    """Draw n values from the discrete exponential component."""
    if params.mode == "paper-literal":
        raise UnsupportedOperationError(
            "paper-literal mode is unnormalized and cannot be sampled"
        )
    x_min = _check_x_min(x_min)
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    p = -math.expm1(-params.rate)
    return rng.geometric(p, size=n).astype(np.int64) + (x_min - 1)


def _build_pareto_table(params: ParetoParams) -> np.ndarray:
    """Cumulative pmf over x_min..x_min+L-1. L starts at 1024 and doubles
    until the table covers _TABLE_MASS or reaches _TABLE_MAX.

    The table is built in place in one _TABLE_MAX buffer: each doubling
    computes only its new terms and carries the running sum on from the
    last entry. The running sum adds in order, so every prefix equals a
    one-shot cumsum of that length bit for bit.
    """
    z = kernels.zeta_pair(params.alpha, float(params.x_min))[0]
    cum = np.empty(_TABLE_MAX)
    lo, hi = 0, 1 << 10
    while True:
        new = cum[lo:hi]
        new[:] = np.arange(params.x_min + lo, params.x_min + hi, dtype=np.float64)
        np.power(new, -params.alpha, out=new)
        new /= z
        run = cum[max(lo - 1, 0) : hi]
        np.cumsum(run, out=run)
        if cum[hi - 1] >= _TABLE_MASS or hi >= _TABLE_MAX:
            return cum[:hi]
        lo, hi = hi, hi << 1


# The last table built, keyed on (alpha, x_min): at most one entry.
_kept_table: dict = {}


def _pareto_table(params: ParetoParams) -> np.ndarray:
    """The sampling table of params, read-only, built on a miss.

    One table is kept: a replicate study draws many samples at one
    (alpha, x_min) in a row. A miss drops the kept table before it builds
    the next, so two full tables are never alive at once; a cache that
    evicts after building (``lru_cache``) would hold 16 MB at each miss.
    The table is a pure function of (alpha, x_min), so a kept table
    equals a new build bit for bit.
    """
    # float() so that an alpha given as a 0-d array is hashable
    key = (float(params.alpha), params.x_min)
    cum = _kept_table.get(key)
    if cum is None:
        _kept_table.clear()
        cum = _build_pareto_table(params)
        cum.flags.writeable = False
        _kept_table[key] = cum
    return cum


def sample_pareto(params: ParetoParams, n: int, seed) -> np.ndarray:
    """Draw n values from the discrete power law by inverse CDF.

    Draws beyond the tabulated range use a continuous power-law draw from
    the table edge, rounded to the nearest integer. Results are clamped
    to the int64 maximum; at very small alpha a draw can exceed it.
    """
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    cum = _pareto_table(params)
    u = rng.random(n)
    idx = np.searchsorted(cum, u, side="right")
    out = params.x_min + idx.astype(np.int64)
    in_tail = idx >= cum.shape[0]
    if in_tail.any():
        edge = params.x_min + cum.shape[0] - 1
        v = (u[in_tail] - cum[-1]) / (1.0 - cum[-1])
        # conditional survival beyond edge approximated by the continuous
        # power law through the half-integer boundary
        draw = (edge + 0.5) * (1.0 - v) ** (-1.0 / (params.alpha - 1.0))
        draw = np.floor(draw + 0.5)
        # largest float64 below 2**63, so the int64 cast cannot overflow
        draw = np.clip(draw, edge + 1, np.nextafter(float(_INT64_MAX), 0.0))
        out[in_tail] = draw.astype(np.int64)
    return out
