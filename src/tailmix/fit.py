"""Constrained maximum-likelihood fitting via a log-barrier interior method.

The free parameter vector is theta = [weights of the exponential
components..., rates..., alpha]; the power-tail weight is one minus the
rest. All constraints are affine in theta, so feasibility slacks are
s = A @ theta + b and the penalized objective is

    phi_c(theta) = loglik(theta) + c * sum(log(s))

maximized for a decreasing barrier weight schedule, warm-starting each
stage from the last. The inner solver is BFGS with Armijo backtracking
that treats infeasible points as +inf. Multiple random restarts guard
against local optima; the restart with the best raw log-likelihood wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import FitError
from .mixture import BinnedSeries, MixtureParams, ModelSpec, aggregate_counts
from .seeding import DEFAULT_SEED, substream

# Random-restart initialization ranges. Weights start at least this far
# inside the simplex; rates and exponents start well inside their boxes.
WEIGHT_FLOOR = 0.02
LAMBDA_INIT_RANGE = (0.05, 3.0)
ALPHA_INIT_RANGE = (1.1, 3.5)

# Barrier weight schedule, one BFGS stage each, and the inner solver's
# stopping rule (gradient infinity norm, iteration cap).
BARRIER_WEIGHTS = (1e-2, 1e-5, 1e-8)
INNER_TOL = 1e-6
MAX_INNER_ITERS = 500

# Upper bounds of the feasible box for alpha and for each rate.
ALPHA_MAX = 4.0
LAMBDA_MAX = 3.5

_ARMIJO_C1 = 1e-4
_MIN_STEP = 1e-14


@dataclass(frozen=True)
class FitConfig:
    """Restart count and root seed. Defaults match the validation experiments."""

    restarts: int = 20
    seed: int = DEFAULT_SEED


@dataclass(frozen=True)
class FittedModel:
    """A fitted mixture: parameters at the best restart plus diagnostics."""

    spec: ModelSpec
    params: MixtureParams
    loglik: float
    n: int
    data_fingerprint: str
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def bic(self) -> float:
        """Schwarz approximation to the log model evidence."""
        return self.loglik - 0.5 * math.log(self.n) * self.spec.dof


def slack_system(spec: ModelSpec):
    """Affine slack map (A, b) with s = A @ theta + b, all s > 0 feasible.

    Slacks cover: each free weight above 0, the implied power-tail weight
    above 0, each rate inside (0, LAMBDA_MAX), alpha inside
    (1, ALPHA_MAX), and for two exponentials the ordering rate1 > rate2.
    """
    k = spec.n_exp
    dim = 2 * k + 1
    rows = []
    offs = []

    def row(coeffs, off):
        r = np.zeros(dim)
        for j, v in coeffs:
            r[j] = v
        rows.append(r)
        offs.append(off)

    for i in range(k):
        row([(i, 1.0)], 0.0)  # weight_i > 0
    if k:
        row([(i, -1.0) for i in range(k)], 1.0)  # power-tail weight > 0
    for i in range(k):
        row([(k + i, 1.0)], 0.0)  # rate_i > 0
        row([(k + i, -1.0)], LAMBDA_MAX)  # rate_i < LAMBDA_MAX
    row([(dim - 1, 1.0)], -1.0)  # alpha > 1
    row([(dim - 1, -1.0)], ALPHA_MAX)  # alpha < ALPHA_MAX
    if k == 2:
        row([(k, 1.0), (k + 1, -1.0)], 0.0)  # rate order: first decays faster
    return np.array(rows), np.array(offs)


def theta_to_params(theta: np.ndarray, spec: ModelSpec) -> MixtureParams:
    k = spec.n_exp
    free = theta[:k]
    return MixtureParams(
        weights=tuple(free) + (1.0 - float(free.sum()),),
        lambdas=tuple(theta[k : 2 * k]),
        alpha=float(theta[-1]),
    )


def random_init(spec: ModelSpec, rng: np.random.Generator):
    """Feasible random starting point for one restart."""
    k = spec.n_exp
    theta = np.empty(2 * k + 1)
    if k == 1:
        theta[0] = rng.uniform(WEIGHT_FLOOR, 1.0 - WEIGHT_FLOOR)
    elif k == 2:
        w = WEIGHT_FLOOR + (1.0 - 3 * WEIGHT_FLOOR) * rng.dirichlet(np.ones(3))
        theta[0:2] = w[0:2]
    lam = rng.uniform(*LAMBDA_INIT_RANGE, size=k)
    lam[::-1].sort()
    while k == 2 and lam[0] - lam[1] < 1e-6:
        lam = rng.uniform(*LAMBDA_INIT_RANGE, size=k)
        lam[::-1].sort()
    theta[k : 2 * k] = lam
    theta[-1] = rng.uniform(*ALPHA_INIT_RANGE)
    return theta


def _make_objective(values, log_values, mult, spec, barrier_weight):
    """Return f(theta) -> (-phi, -grad), +inf outside the feasible set."""
    literal = spec.exp_mode == "paper-literal"
    x_min = float(spec.x_min)
    k = spec.n_exp
    a_mat, b_vec = slack_system(spec)

    def neg_phi(theta):
        s = a_mat @ theta + b_vec
        if (s <= 0.0).any():
            return np.inf, None
        m = np.empty(k + 1)
        m[:k] = theta[:k]
        m[k] = 1.0 - theta[:k].sum()
        lam = np.ascontiguousarray(theta[k : 2 * k])
        alpha = theta[-1]
        z, dz = kernels.zeta_pair(alpha, x_min)
        ll, g_m, g_lam, g_alpha = kernels.mix_loglik_grad(
            values, log_values, mult, m, lam, alpha, x_min, z, dz, literal
        )
        grad = np.empty(theta.shape[0])
        grad[:k] = g_m[:k] - g_m[k]
        grad[k : 2 * k] = g_lam
        grad[-1] = g_alpha
        phi = ll + barrier_weight * np.log(s).sum()
        grad += barrier_weight * (a_mat.T @ (1.0 / s))
        return -phi, -grad

    return neg_phi


def _bfgs_min(fun, x0, tol, max_iters):
    """Minimize fun (value and gradient) from x0 by BFGS with backtracking.

    Infeasible trial points return +inf and are rejected by the line
    search. Returns (x, f, grad, iters, status) with status one of
    "gradtol" (gradient norm met), "stalled" (function improvements fell
    below float rounding), "linesearch" (no acceptable step), "maxiter".
    """
    x = np.array(x0, dtype=np.float64)
    f, g = fun(x)
    if not np.isfinite(f):
        raise FitError("starting point is infeasible", partial={"x0": x0})
    dim = x.shape[0]
    h_inv = np.eye(dim)
    first_update = True
    stalls = 0
    iters = 0
    for iters in range(1, max_iters + 1):
        if np.abs(g).max() <= tol:
            return x, f, g, iters - 1, "gradtol"
        d = -h_inv @ g
        slope = float(d @ g)
        if slope >= 0.0:
            h_inv = np.eye(dim)
            first_update = True
            d = -g
            slope = float(d @ g)
        step = 1.0
        while True:
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            if np.isfinite(f_new) and f_new <= f + _ARMIJO_C1 * step * slope:
                break
            step *= 0.5
            if step < _MIN_STEP:
                return x, f, g, iters, "linesearch"
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            if first_update:
                h_inv *= sy / float(y @ y)
                first_update = False
            rho = 1.0 / sy
            v = np.eye(dim) - rho * np.outer(s, y)
            h_inv = v @ h_inv @ v.T + rho * np.outer(s, s)
        # once improvements sink into float rounding of f, stop: the
        # gradient test may be unreachable in double precision
        if f - f_new <= 1e-12 * (abs(f) + 1.0):
            stalls += 1
            if stalls >= 2:
                return x_new, f_new, g_new, iters, "stalled"
        else:
            stalls = 0
        x, f, g = x_new, f_new, g_new
    return x, f, g, iters, "maxiter"


def fit_model(series, spec: ModelSpec, config: FitConfig | None = None) -> FittedModel:
    """Fit one model by restarted barrier optimization.

    Accepts a BinnedSeries or a raw integer count array. Restart r draws
    its start from substream(config.seed, r), so fits are reproducible.
    Raises FitError (with per-restart diagnostics attached) if no restart
    produces a finite log-likelihood.
    """
    if config is None:
        config = FitConfig()
    if isinstance(series, BinnedSeries):
        counts = series.counts
        fingerprint = series.fingerprint()
    else:
        series = BinnedSeries(np.asarray(series), bin_seconds=1.0)
        counts = series.counts
        fingerprint = series.fingerprint()
    values, mult = aggregate_counts(counts, spec.x_min)
    log_values = np.log(values)
    n = int(mult.sum())

    restart_logliks = []
    restart_reports = []
    best = None
    for r in range(config.restarts):
        rng = substream(config.seed, r)
        theta = random_init(spec, rng)
        try:
            iters_total = 0
            stage_status = []
            for c in BARRIER_WEIGHTS:
                fun = _make_objective(values, log_values, mult, spec, c)
                theta, _, grad, iters, status = _bfgs_min(
                    fun, theta, INNER_TOL, MAX_INNER_ITERS
                )
                iters_total += iters
                stage_status.append(status)
            raw = _make_objective(values, log_values, mult, spec, 0.0)
            neg_ll, _ = raw(theta)
            ll = -neg_ll
        except (FitError, FloatingPointError) as exc:
            restart_logliks.append(float("-inf"))
            restart_reports.append({"error": str(exc)})
            continue
        restart_logliks.append(float(ll))
        restart_reports.append(
            {
                "iters": iters_total,
                "stage_status": stage_status,
                "grad_inf_norm": float(np.abs(grad).max()),
            }
        )
        if np.isfinite(ll) and (best is None or ll > best[0]):
            best = (float(ll), r, theta.copy())

    if best is None:
        raise FitError(
            f"all {config.restarts} restarts failed for model {spec.label}",
            partial={"restart_logliks": restart_logliks, "restarts": restart_reports},
        )
    ll, r_best, theta = best
    fun_last = _make_objective(values, log_values, mult, spec, BARRIER_WEIGHTS[-1])
    neg_phi, _ = fun_last(theta)
    diagnostics = {
        "restart_chosen": r_best,
        "restart_logliks": restart_logliks,
        "restarts": restart_reports,
        "barrier_residual": float(abs(-neg_phi - ll)),
        "n_unique_values": int(values.shape[0]),
    }
    return FittedModel(
        spec=spec,
        params=theta_to_params(theta, spec).canonical(),
        loglik=ll,
        n=n,
        data_fingerprint=fingerprint,
        diagnostics=diagnostics,
    )
