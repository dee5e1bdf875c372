"""Constrained maximum-likelihood fitting via a log-barrier interior method.

The free parameter vector is theta = [weights of the exponential
components..., rates..., alpha]; the power-tail weight is one minus the
rest. All constraints are affine in theta, so feasibility slacks are
s = A @ theta + b and the penalized objective is

    phi_c(theta) = loglik(theta) + c * sum(log(s))

maximized for a decreasing barrier weight schedule, warm-starting each
stage from the last. The inner solver takes damped Newton steps on the
analytic Hessian of -phi_c / n, with a Levenberg shift where that
Hessian is not safely positive definite, and Armijo backtracking; a
stage ends when the Newton decrement per observation is below
NEWTON_TOL (Boyd & Vandenberghe, Convex Optimization, 2004, 9.5 and
11.3). Multiple random restarts guard against local optima; the restart
with the best raw log-likelihood wins.

Each restart of a fit keeps its own iterate, step and stage, and opens
its next stage as soon as it ends one, by reweighting the barrier term
from the values stored at its iterate, so no point is evaluated twice.
One batched log-likelihood call per round evaluates the pending
line-search trial of every restart, whatever its stage. Backtracking
never evaluates a point outside the feasible set: the slacks are affine
and halving a step is exact, so one scan of the halved steps finds the
first feasible trial step, the one that rejecting infeasible points one
at a time would reach. Every restart's result is bit-identical to
running it alone.

fit_models runs the restarts of many fits that share one ModelSpec (so
one slack system and one dimension) through a single lockstep: each
round makes one kernel call per fit, on that fit's own values, but does
its bookkeeping once for all rows, so the bookkeeping rounds drop from
the sum over fits to the most any fit needs. fit_model is its
one-series case.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DataError, DomainError, FitError, TailmixError
from .mixture import BinnedSeries, MixtureParams, ModelSpec, aggregate_counts
from .seeding import DEFAULT_SEED, substream

# Random-restart initialization ranges. Weights start at least this far
# inside the simplex; rates and exponents start well inside their boxes.
# With two exponentials one rate starts log-uniform over
# LOG_SLOW_LAMBDA_INIT_RANGE instead, so that restarts reach slow
# components with small weight, which carry the far tail.
WEIGHT_FLOOR = 0.02
LAMBDA_INIT_RANGE = (0.05, 3.0)
LOG_SLOW_LAMBDA_INIT_RANGE = (math.log(3e-4), math.log(3.0))
ALPHA_INIT_RANGE = (1.1, 3.5)

# Barrier weight schedule, one Newton stage each, and the inner solver's
# stopping rule (Newton decrement lambda^2 / 2 per observation,
# iteration cap).
BARRIER_WEIGHTS = (1e-2, 1e-5, 1e-8)
NEWTON_TOL = 1e-13
MAX_INNER_ITERS = 500

# Upper bounds of the feasible box for alpha and for each rate.
ALPHA_MAX = 4.0
LAMBDA_MAX = 3.5

_ARMIJO_C1 = 1e-4
_MIN_STEP = 1e-14
# Hessian eigenvalues below this fraction of the largest are rounding noise.
_EIG_FLOOR = 1e-14


@dataclass(frozen=True)
class FitConfig:
    """Restart count and root seed. Defaults match the validation experiments."""

    restarts: int = 20
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not (isinstance(self.restarts, numbers.Integral) and self.restarts >= 1):
            raise DomainError(
                f"restarts must be a positive integer, got {self.restarts!r}"
            )
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise DomainError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )


def bic(loglik: float, n: int, dof: int) -> float:
    """Schwarz approximation to the log evidence: loglik - log(n) * dof / 2."""
    if n < 1:
        raise DomainError(f"n must be a positive count, got {n}")
    if dof < 0:
        raise DomainError(f"dof must be nonnegative, got {dof}")
    return loglik - 0.5 * math.log(n) * dof


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
        return bic(self.loglik, self.n, self.spec.dof)


def slack_system(spec: ModelSpec):
    """Affine slack map (A, b) with s = A @ theta + b, all s > 0 feasible.

    Slacks cover: each free weight above 0, the implied power-tail weight
    above 0, each rate inside (0, LAMBDA_MAX), alpha inside
    (1, ALPHA_MAX), and for two exponentials the ordering rate1 > rate2.
    """
    k = spec.n_exp
    eye = np.eye(2 * k + 1)
    rows = [(eye[i], 0.0) for i in range(k)]  # weight_i > 0
    if k:
        rows.append((0.0 - eye[:k].sum(axis=0), 1.0))  # power-tail weight > 0
    for i in range(k):
        rows += [(eye[k + i], 0.0), (0.0 - eye[k + i], LAMBDA_MAX)]  # rate_i in box
    rows += [(eye[-1], -1.0), (0.0 - eye[-1], ALPHA_MAX)]  # alpha in (1, ALPHA_MAX)
    if k == 2:
        rows.append((eye[k] - eye[k + 1], 0.0))  # rate order: first decays faster
    return np.array([r for r, _ in rows]), np.array([off for _, off in rows])


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
        theta[1] = rng.uniform(*LAMBDA_INIT_RANGE)
    elif k == 2:
        w = WEIGHT_FLOOR + (1.0 - 3 * WEIGHT_FLOOR) * rng.dirichlet(np.ones(3))
        theta[0:2] = w[0:2]
        lam = (0.0, 0.0)
        while lam[0] - lam[1] < 1e-6:
            slow = math.exp(rng.uniform(*LOG_SLOW_LAMBDA_INIT_RANGE))
            lam = sorted((slow, rng.uniform(*LAMBDA_INIT_RANGE)), reverse=True)
        theta[2:4] = lam
    theta[-1] = rng.uniform(*ALPHA_INIT_RANGE)
    return theta


def _objective(fits, starts, spec):
    """Return f(theta, rows) -> (loglik, grad, hess) for a batch of
    feasible points.

    ``fits`` holds one (values, mult) pair per fit, and fit j owns the
    rows from starts[j] up to the next fit's start. ``theta`` has shape
    (B, d), and ``rows`` (ascending) names the row of each point. Every
    point must have all slacks A @ theta + b > 0: the starting points are
    feasible by construction and ``_feasible_steps`` only hands out
    feasible trial points. Each fit's points go through one zeta and one
    kernel call on that fit's own values and multiplicities. The kernel's
    gradient and Hessian, taken with all weights free, map to theta
    through the affine simplex Jacobian (the tail weight is one minus the
    others). Every operation is shaped so that row b equals the
    evaluation of a batch of one at that point, bit for bit. The barrier
    term is added by ``_barrier``.
    """
    literal = spec.exp_mode == "paper-literal"
    x_min = float(spec.x_min)
    k = spec.n_exp
    jac = np.insert(np.eye(2 * k + 1), k, 0.0, axis=0)
    jac[k, :k] = -1.0  # d(tail weight) / d(free weights)
    data = [(values, np.log(values), mult) for values, mult in fits]
    inner_starts = np.asarray(starts[1:])

    def loglik_grad_hess(theta, rows):
        m = np.empty((theta.shape[0], k + 1))
        m[:, :k] = theta[:, :k]
        m[:, k] = 1.0 - theta[:, :k].sum(axis=1)
        lam = np.ascontiguousarray(theta[:, k : 2 * k])
        alpha = np.ascontiguousarray(theta[:, -1])
        cuts = [0, *np.searchsorted(rows, inner_starts).tolist(), rows.size]
        parts = []
        for (values, log_values, mult), lo, hi in zip(data, cuts, cuts[1:]):
            if lo == hi:
                continue
            z, dz, d2z = kernels.zeta_pair(alpha[lo:hi], x_min, second=True)
            parts.append(kernels.mix_loglik_grad(
                values, log_values, mult, m[lo:hi], lam[lo:hi], alpha[lo:hi],
                x_min, z, dz, literal, d2z=d2z,
            ))
        if len(parts) == 1:
            ll, g_m, g_lam, g_alpha, hess = parts[0]
        else:
            ll, g_m, g_lam, g_alpha, hess = map(np.concatenate, zip(*parts))
        grad = np.empty(theta.shape)
        grad[:, :k] = g_m[:, :k] - g_m[:, k, None]
        grad[:, k : 2 * k] = g_lam
        grad[:, -1] = g_alpha
        return ll, grad, jac.T @ hess @ jac

    return loglik_grad_hess


def _barrier(a_mat, b_vec, theta, ll, grad, hess, weight, n):
    """(-phi, -grad phi, -hess phi) / n at feasible rows ``theta`` from
    their raw log-likelihoods ``ll``, gradients ``grad`` and Hessians
    ``hess``, where phi = ll + weight * sum(log(s)) and s = A @ theta +
    b. Dividing by the observation count n (a scalar, or one per row)
    makes the stage tolerance per observation. The only code that adds
    the barrier.
    """
    s = (a_mat @ theta[:, :, None])[..., 0] + b_vec
    inv_s = 1.0 / s
    # a trailing axis, so that a scalar or one value per row broadcasts
    weight = np.asarray(weight)[..., None]
    n = np.asarray(n)[..., None]
    phi = ll + weight[..., 0] * np.log(s).sum(axis=1)
    g = grad + weight * (a_mat.T @ inv_s[:, :, None])[..., 0]
    h = hess - weight[..., None] * (a_mat.T @ (inv_s[:, :, None] ** 2 * a_mat))
    return -phi / n[..., 0], -g / n, -h / n[..., None]


# Every step a line search can try from a unit step: 1, 1/2, 1/4, ...
# down to the last power of two not below _MIN_STEP.
_HALVINGS = np.ldexp(1.0, -np.arange(int(-math.log2(_MIN_STEP)) + 1))


def _feasible_steps(a_mat, b_vec, x, d, step):
    """Largest feasible step in step, step/2, step/4, ... for each row,
    and the trial point there.

    Row r tries x[r] + t * d[r] for the halvings t of step[r] that are
    not below _MIN_STEP, with the objective's own slack test, and gets
    the first t that passes, or 0.0 if none does. Halving is exact, so
    this is the step that backtracking past infeasible points one trial
    at a time would reach. The current step is tested first; only rows
    where it fails scan the rest of the ladder. Returns (steps, points)
    with points[r] = x[r] + steps[r] * d[r] wherever a step was found.
    """
    points = x + step[:, None] * d
    s = (a_mat @ points[:, :, None])[..., 0] + b_vec
    ok = ~(s <= 0.0).any(axis=1) & (step >= _MIN_STEP)
    if ok.all():
        return step, points
    found = np.where(ok, step, 0.0)
    rows = (~ok).nonzero()[0]
    steps = step[rows, None] * _HALVINGS[1:]
    ladder = x[rows, None, :] + steps[:, :, None] * d[rows, None, :]
    s = (a_mat @ ladder[..., None])[..., 0] + b_vec
    ok = ~(s <= 0.0).any(axis=2) & (steps >= _MIN_STEP)
    hit = ok.any(axis=1)
    first = ok[hit].argmax(axis=1)
    found[rows[hit]] = steps[hit, first]
    points[rows[hit]] = ladder[hit, first]
    return found, points


def _row_dot(u, v):
    """u[r] @ v[r] for each row, as a (1, d) @ (d, 1) product per row."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _newton_directions(g, h):
    """Damped Newton directions d = -(h + mu D)^-1 g, one per row, where
    D is the diagonal of |h|.

    The eigenvalues are taken of the Jacobi-scaled D^-1/2 h D^-1/2, whose
    diagonal is one: the barrier curvature of a slack near 0 can exceed
    the rest of h by 1e15, and unscaled it would bury the other
    eigenvalues in rounding. The Levenberg shift mu is 0 where the scaled
    Hessian is positive definite with its smallest eigenvalue above
    _EIG_FLOOR times its largest. Elsewhere it lifts the smallest
    eigenvalue to that floor plus the infinity norm of the scaled
    gradient, so that far from a minimum the step shortens and turns
    toward -D^-1 g (Nocedal & Wright, Numerical Optimization, 2006, 3.4).
    """
    sig = 1.0 / np.sqrt(np.abs(np.diagonal(h, axis1=1, axis2=2)))
    g = g * sig
    w, v = np.linalg.eigh(h * sig[:, :, None] * sig[:, None, :])
    floor = _EIG_FLOOR * np.abs(w).max(axis=1)
    low = w[:, 0] < floor
    mu = np.where(low, floor - w[:, 0] + np.abs(g).max(axis=1), 0.0)
    coef = (np.swapaxes(v, 1, 2) @ g[:, :, None])[..., 0] / (w + mu[:, None])
    return -sig * (v @ coef[:, :, None])[..., 0]


def _lockstep(fun, a_mat, b_vec, theta0, n, raw_first_step=False):
    """Run every restart through the barrier schedule, in one batch.

    Row r of ``theta0`` starts restart r; ``fun(theta, rows)`` gives raw
    log-likelihoods, gradients and Hessians at the points ``theta`` of
    rows ``rows``, and n is the observation count, a scalar or one per
    row: the rows may belong to many fits that share one slack system.
    One call of ``fun`` evaluates every starting point. Each live
    restart then runs one stage of damped Newton steps with Armijo
    backtracking per weight in BARRIER_WEIGHTS, warm-started from the
    last and opened, as soon as the last ends, by reweighting the barrier
    term from the raw values stored at its iterate. Each round evaluates
    one line-search trial for every restart still in a stage; trial
    points outside the feasible set are skipped by ``_feasible_steps``.
    With ``raw_first_step`` (EP fits) the first step is the raw gradient,
    unit step on the unscaled objective, as BFGS's first step was: a long
    move that reaches optima (a slow component of small weight) that
    Newton steps from the start miss.

    A stage ends "converged" (Newton decrement lambda^2 / 2 at most
    NEWTON_TOL), "linesearch" (no acceptable step down to _MIN_STEP) or
    "maxiter". A restart whose starting log-likelihood is not finite
    fails. Returns (theta, f, grad, decrement, loglik, iters,
    stage_status, errors), one entry per restart: f, grad and decrement
    are the last stage's objective, gradient and lambda^2 / 2 at theta;
    loglik is the raw log-likelihood there, or -inf and errors[r] a
    message where restart r failed, else None.
    """
    n_rows, dim = theta0.shape
    x = np.array(theta0, dtype=np.float64)
    n = np.broadcast_to(np.asarray(n, dtype=np.float64), (n_rows,))
    ll, ll_grad, ll_hess = fun(x, np.arange(n_rows))
    live = np.isfinite(ll)
    c = np.array(BARRIER_WEIGHTS)
    stage, it, iters = np.zeros((3, n_rows), dtype=np.int64)
    f, step, slope, decrement = np.zeros((4, n_rows))
    g, d = np.zeros((2, n_rows, dim))
    in_stage = np.zeros(n_rows, dtype=bool)
    status = [[] for _ in range(n_rows)]

    def begin_stage(rows):
        """Reweight the barrier at the stored values; first iteration."""
        raw = (x[rows], ll[rows], ll_grad[rows], ll_hess[rows], c[stage[rows]])
        f[rows], g[rows], h_r = _barrier(a_mat, b_vec, *raw, n[rows])
        it[rows] = 1
        in_stage[rows] = True
        begin_iteration(rows, g[rows], h_r)

    def end_stage(rows, name, done_iters):
        iters[rows] += done_iters
        for r in rows.tolist():
            status[r].append(name)
        in_stage[rows] = False
        stage[rows] += 1
        rows = rows[stage[rows] < c.size]
        if rows.size:
            begin_stage(rows)

    def begin_iteration(rows, g_r, h_r):
        """Top of a Newton iteration: direction, then decrement test."""
        d_r = _newton_directions(g_r, h_r)
        slope_r = _row_dot(d_r, g_r)
        decrement[rows] = -0.5 * slope_r
        done = decrement[rows] <= NEWTON_TOL
        if done.any():
            end_stage(rows[done], "converged", it[rows[done]] - 1)
            rows, d_r, slope_r = rows[~done], d_r[~done], slope_r[~done]
        d[rows] = d_r
        slope[rows] = slope_r
        step[rows] = 1.0

    def try_step(rows, x_new):
        """Evaluate the trial points; Armijo test; move where it passes."""
        new = fun(x_new, rows)
        f_new, g_new, h_new = _barrier(
            a_mat, b_vec, x_new, *new, c[stage[rows]], n[rows]
        )
        accept = np.isfinite(f_new) & (
            f_new <= f[rows] + _ARMIJO_C1 * step[rows] * slope[rows]
        )
        if not accept.all():
            # a halved step below _MIN_STEP ends the stage in the next
            # round's _feasible_steps, with no further objective call
            step[rows[~accept]] *= 0.5
            if not accept.any():
                return
            rows, x_new, f_new, g_new, h_new = (
                rows[accept], x_new[accept], f_new[accept], g_new[accept], h_new[accept]
            )
            new = [v[accept] for v in new]
        x[rows] = x_new
        f[rows] = f_new
        g[rows] = g_new
        ll[rows], ll_grad[rows], ll_hess[rows] = new
        capped = it[rows] >= MAX_INNER_ITERS
        if capped.any():
            end_stage(rows[capped], "maxiter", it[rows[capped]])
            rows, g_new, h_new = rows[~capped], g_new[~capped], h_new[~capped]
        it[rows] += 1
        begin_iteration(rows, g_new, h_new)

    begin_stage(live.nonzero()[0])
    if raw_first_step:
        rows = (in_stage & (stage == 0)).nonzero()[0]
        d[rows] = -n[rows, None] * g[rows]
        slope[rows] = _row_dot(d[rows], g[rows])
    while in_stage.any():
        rows = in_stage.nonzero()[0]
        found, trial_x = _feasible_steps(a_mat, b_vec, x[rows], d[rows], step[rows])
        step[rows] = found
        stuck = found == 0.0
        if stuck.any():
            end_stage(rows[stuck], "linesearch", it[rows[stuck]])
            rows, trial_x = rows[~stuck], trial_x[~stuck]
        if rows.size:
            try_step(rows, trial_x)

    loglik = np.where(live, ll, -np.inf)
    errors = [None if ok else "starting log-likelihood is not finite" for ok in live]
    return x, f, g, decrement, loglik, iters, status, errors


def _prepare(series, spec):
    """(series, values, mult, n) for one fit; DataError if fewer than 2
    distinct counts remain, since no model can then be told from
    another."""
    if not isinstance(series, BinnedSeries):
        series = BinnedSeries(np.asarray(series), bin_seconds=1.0)
    values, mult = aggregate_counts(series.counts, spec.x_min)
    if values.shape[0] < 2:
        raise DataError(
            f"need at least 2 distinct counts >= x_min={spec.x_min} to fit "
            f"{spec.label}, got {values.shape[0]}"
        )
    return series, values, mult, int(mult.sum())


def _fitted(series, values, n, spec, thetas, fs, grads, decrements, logliks,
            iters, status, errors):
    """The FittedModel of one fit from its restarts' lockstep results, or
    a FitError (with per-restart diagnostics attached) if no restart
    produced a finite log-likelihood."""
    restarts = len(logliks)
    restart_logliks = [float(ll) for ll in logliks]
    restart_reports = [
        {"error": errors[r]} if errors[r] is not None else {
            "iters": int(iters[r]),
            "stage_status": status[r],
            "grad_inf_norm": float(n * np.abs(grads[r]).max()),
            "newton_decrement": float(decrements[r]),
        }
        for r in range(restarts)
    ]

    finite = np.isfinite(logliks)
    if not finite.any():
        return FitError(
            f"all {restarts} restarts failed for model {spec.label}",
            partial={"restart_logliks": restart_logliks, "restarts": restart_reports},
        )
    # the first restart with the largest finite log-likelihood wins
    r_best = int(np.where(finite, logliks, -np.inf).argmax())
    ll, theta = restart_logliks[r_best], thetas[r_best]
    diagnostics = {
        "restart_chosen": r_best,
        "restart_logliks": restart_logliks,
        "restarts": restart_reports,
        "barrier_residual": float(abs(-n * fs[r_best] - ll)),
        "n_unique_values": int(values.shape[0]),
    }
    return FittedModel(
        spec=spec,
        params=theta_to_params(theta, spec).canonical(),
        loglik=ll,
        n=n,
        data_fingerprint=series.fingerprint(),
        diagnostics=diagnostics,
    )


def fit_models(series_list, spec: ModelSpec, configs) -> list:
    """Fit one model to many series by restarted barrier optimization.

    Each series is a BinnedSeries or a raw integer count array, fitted
    with the FitConfig at the same place in ``configs``. Restart r of
    fit j draws its start from substream(configs[j].seed, r), so fits
    are reproducible. Every restart of every fit runs through one
    ``_lockstep``: a round costs one kernel call per fit but its
    bookkeeping once, and each fit's result is bit-identical to fitting
    its series alone.

    Returns one entry per series: its FittedModel, or the TailmixError
    that series hit, so one series' error does not stop the others. A
    DataError means fewer than 2 distinct counts remain; a FitError
    (with per-restart diagnostics attached) means no restart produced a
    finite log-likelihood.
    """
    results = [None] * len(series_list)
    ready, prepared = [], []  # (j, config) and _prepare's output per fit
    for j, (series, config) in enumerate(zip(series_list, configs, strict=True)):
        try:
            prepared.append(_prepare(series, spec))
        except TailmixError as exc:
            results[j] = exc
        else:
            ready.append((j, config))
    if not ready:
        return results

    restarts = [config.restarts for _, config in ready]
    starts = np.cumsum([0] + restarts)
    fun = _objective([(values, mult) for _, values, mult, _ in prepared],
                     starts[:-1], spec)
    a_mat, b_vec = slack_system(spec)
    theta0 = np.array([
        random_init(spec, substream(config.seed, r))
        for _, config in ready for r in range(config.restarts)
    ]).reshape(starts[-1], spec.dof)
    n_rows = np.repeat([n for *_, n in prepared], restarts)
    out = _lockstep(fun, a_mat, b_vec, theta0, n_rows, spec.n_exp == 1)
    for (j, _), (series, values, _, n), lo, hi in zip(ready, prepared, starts,
                                                       starts[1:]):
        results[j] = _fitted(series, values, n, spec, *(o[lo:hi] for o in out))
    return results


def fit_model(series, spec: ModelSpec, config: FitConfig | None = None) -> FittedModel:
    """Fit one model to one series: the one-series case of fit_models.

    Raises the DataError or FitError that fit_models reports for it.
    """
    if config is None:
        config = FitConfig()
    (result,) = fit_models([series], spec, [config])
    if isinstance(result, TailmixError):
        raise result
    return result
