"""Mixture family over binned counts: P, EP, and EEP models.

A model mixes n_exp discrete exponential components (n_exp in {0, 1, 2})
with one discrete power-law tail on the integers x >= x_min. Each
component is a pmf that sums to one on that support, so log-likelihoods,
BICs and Bayes factors compare models as evidence. Component order
everywhere is [exponentials..., power tail].
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import dists, kernels
from .dists import ExpParams, ParetoParams
from .errors import ContractError, DataError, DomainError
from .seeding import substream

# Model labels, indexed by the number of exponential components
LABELS = ("P", "EP", "EEP")

# tail_threshold refuses s = alpha / min rate at or past _S_MAX, and scans
# in blocks of at most _BLOCK_MAX values
_S_MAX = 1 << 26
_BLOCK_MAX = 1 << 20


@dataclass(frozen=True)
class ModelSpec:
    """Structural description of a mixture: component counts and support.

    ``exp_mode`` names the exponential form for reports; "discrete" is
    the only one.
    """

    n_exp: int
    x_min: int = 1
    exp_mode: str = "discrete"

    def __post_init__(self):
        if self.n_exp not in (0, 1, 2):
            raise DomainError(f"n_exp must be 0, 1 or 2, got {self.n_exp}")
        object.__setattr__(self, "x_min", dists._check_x_min(self.x_min))
        if self.exp_mode != "discrete":
            raise DomainError(f"exp_mode must be 'discrete', got {self.exp_mode!r}")

    @property
    def label(self) -> str:
        return LABELS[self.n_exp]

    @property
    def n_components(self) -> int:
        return self.n_exp + 1

    @property
    def dof(self) -> int:
        """Free parameters: n_exp mixing weights, n_exp rates, one exponent."""
        return 2 * self.n_exp + 1


@dataclass(frozen=True)
class MixtureParams:
    """Parameter point: mixing weights (power-tail weight last), rates, alpha.

    Rate order is not constrained here. A fitted EEP has its rates in
    descending order, fastest decay first, because the fit's slack
    system keeps every iterate at rate1 > rate2.
    """

    weights: tuple
    lambdas: tuple
    alpha: float

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        lam = tuple(float(v) for v in self.lambdas)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "lambdas", lam)
        if len(w) != len(lam) + 1:
            raise DomainError(
                f"need len(weights) == len(lambdas) + 1, got {len(w)} and {len(lam)}"
            )
        if not all(0.0 < v < math.inf for v in w):
            raise DomainError(f"weights must be positive and finite, got {w}")
        if abs(sum(w) - 1.0) > 1e-9:
            raise DomainError(f"weights must sum to 1, got sum {sum(w)!r}")
        if not all(0.0 < v < math.inf for v in lam):
            raise DomainError(f"rates must be positive and finite, got {lam}")
        ParetoParams(self.alpha)  # the tail's own alpha check

    def as_arrays(self):
        m = np.asarray(self.weights, dtype=np.float64)
        lam = np.asarray(self.lambdas, dtype=np.float64)
        return m, lam


@dataclass(frozen=True)
class BinnedSeries:
    """Per-bin flow counts at one window size, ready for fitting."""

    counts: np.ndarray
    bin_seconds: float
    source_id: str = ""
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.ndim != 1:
            raise DataError(f"counts must be one-dimensional, got shape {arr.shape}")
        if arr.size and (np.floor(arr) != arr).any():
            raise DataError("counts must be integers")
        if arr.dtype.kind == "f":
            # the int64 cast would turn these into numbers not in the input
            huge = np.abs(arr) >= 2.0**63
            if huge.any():
                idx = int(np.argmax(huge))
                raise DataError(
                    f"count {float(arr[idx])!r} at index {idx} is outside the "
                    "64-bit integer range"
                )
        arr = arr.astype(np.int64)
        if arr.size and arr.min() < 0:
            idx = int(np.argmin(arr))
            raise DataError(f"negative count {arr[idx]} at index {idx}")
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)
        if not (0 < self.bin_seconds < math.inf):
            raise DataError(
                f"bin_seconds must be positive and finite, got {self.bin_seconds}"
            )

    @property
    def n(self) -> int:
        return int(self.counts.size)

    def fingerprint(self) -> str:
        """Stable hash of the data, used to check fits refer to one series."""
        h = hashlib.blake2s(digest_size=16)
        h.update(np.float64(self.bin_seconds).tobytes())
        h.update(self.counts.tobytes())
        return h.hexdigest()


def as_series(series) -> BinnedSeries:
    """The one way in for counts: a BinnedSeries as it is, or raw counts
    as a series of 1 s bins, checked by BinnedSeries."""
    if isinstance(series, BinnedSeries):
        return series
    return BinnedSeries(np.asarray(series), bin_seconds=1.0)


def check_compat(spec: ModelSpec, params: MixtureParams) -> None:
    if len(params.lambdas) != spec.n_exp:
        raise ContractError(
            f"{spec.label} expects {spec.n_exp} rates, got {len(params.lambdas)}"
        )


def _component_logs(x, spec: ModelSpec, params: MixtureParams) -> np.ndarray:
    """Weighted component log terms at x, shape (n_components, n)."""
    check_compat(spec, params)
    arr = np.atleast_1d(dists._check_support(x, spec.x_min))
    z = kernels.zeta_pair(params.alpha, float(spec.x_min))[0]
    return kernels.component_logs(
        arr, np.log(arr), *params.as_arrays(), params.alpha, float(spec.x_min), z,
    )


def mixture_log_pmf(x, spec: ModelSpec, params: MixtureParams):
    """Log of the mixture density at x (scalar in, scalar out)."""
    logs = _component_logs(x, spec, params)
    out = kernels.log_sum_exp(logs)
    return float(out[0]) if np.isscalar(x) else out


def mixture_pmf(x, spec: ModelSpec, params: MixtureParams):
    return np.exp(mixture_log_pmf(x, spec, params))


def responsibilities(x, spec: ModelSpec, params: MixtureParams):
    """Posterior component probabilities at x.

    Scalar x gives a vector of length n_components; an array gives shape
    (n, n_components). Rows sum to one.
    """
    logs = _component_logs(x, spec, params)
    resp = np.exp(logs - kernels.log_sum_exp(logs)).T
    return resp[0] if np.isscalar(x) else resp


def aggregate_counts(counts: np.ndarray, x_min: int):
    """Collapse counts to unique values and multiplicities for the kernels."""
    arr = np.asarray(counts, dtype=np.int64)
    if arr.size == 0:
        raise DataError("series is empty")
    if arr.min() < x_min:
        idx = int(np.argmin(arr))
        raise DataError(f"count {arr[idx]} at index {idx} is below x_min={x_min}")
    values, mult = np.unique(arr, return_counts=True)
    return values.astype(np.float64), mult.astype(np.float64)


def log_likelihood(series, spec: ModelSpec, params: MixtureParams) -> float:
    """Total log-likelihood of a series (or raw counts, see as_series):
    the log density at each unique count, summed over the multiplicities
    as the fit sums them, so it equals a fit's loglik bit for bit."""
    values, mult = aggregate_counts(as_series(series).counts, spec.x_min)
    return float(kernels._dot_wt(mixture_log_pmf(values, spec, params), mult))


def tail_threshold(spec: ModelSpec, params: MixtureParams) -> int:
    """First x >= x_min from which the power tail owns every larger value.

    The tail owns a value where its responsibility reaches 0.5. Past
    s = alpha / min rate the tail's log-odds over the body only rise,
    since their slope in x is at least min rate - alpha / x. So the scan
    runs over blocks that double from 4096 values to _BLOCK_MAX, stops
    at the first block that reaches s and ends tail-owned, and returns
    one past the last body-owned value, or x_min if no value is
    body-owned. s at or past 2^26 is a DomainError.
    """
    check_compat(spec, params)
    if spec.n_exp == 0:
        return spec.x_min
    s = params.alpha / min(params.lambdas)
    if not s < _S_MAX:
        raise DomainError(
            f"the tail takes over only past s = alpha / min rate = {s!r}, "
            "and s must be below 2^26"
        )
    start = lo = spec.x_min
    block = 4096
    while True:
        xs = np.arange(lo, lo + block, dtype=np.float64)
        body = np.flatnonzero(responsibilities(xs, spec, params)[:, -1] < 0.5)
        if body.size:
            start = lo + int(body[-1]) + 1
        lo += block
        if lo - 1 >= s and start < lo:
            return start
        block = min(2 * block, _BLOCK_MAX)


def sample_mixture(spec: ModelSpec, params: MixtureParams, n: int, seed) -> np.ndarray:
    """Draw n values from the mixture. Deterministic given the seed."""
    check_compat(spec, params)
    if n < 0:
        raise DomainError(f"sample size must be non-negative, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    labels = rng.choice(spec.n_components, size=n, p=np.asarray(params.weights))
    out = np.empty(n, dtype=np.int64)
    for e, rate in enumerate(params.lambdas):
        mask = labels == e
        cnt = int(mask.sum())
        if cnt:
            out[mask] = dists.sample_exp(
                ExpParams(rate), cnt, rng, spec.x_min
            )
    mask = labels == spec.n_exp
    cnt = int(mask.sum())
    if cnt:
        out[mask] = dists.sample_pareto(
            ParetoParams(params.alpha, spec.x_min), cnt, rng
        )
    return out
