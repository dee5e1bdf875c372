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

from . import kernels, seeding
from .errors import DataError, DomainError, FitError, TailmixError
from .mixture import MixtureParams, ModelSpec, aggregate_counts, as_series
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

# Random restarts per fit, unless a FitConfig says otherwise.
DEFAULT_RESTARTS = 20

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

    restarts: int = DEFAULT_RESTARTS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not (isinstance(self.restarts, numbers.Integral) and self.restarts >= 1):
            raise DomainError(
                f"restarts must be a positive integer, got {self.restarts!r}"
            )
        seeding._check_seed(self.seed)


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
    feasible trial points. One zeta call covers every point (zeta depends
    on alpha and x_min only), and each fit's points go through one kernel
    call on that fit's own values and multiplicities; with one fit that
    call takes the arrays whole, with no cutting or joining. The kernel's
    gradient and Hessian, taken with all weights free, map to theta
    through the affine simplex Jacobian (the tail weight is one minus the
    others). Every operation is shaped so that row b equals the
    evaluation of a batch of one at that point, bit for bit. The barrier
    term is added by ``_barrier``.
    """
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
        z, dz, d2z = kernels.zeta_pair(alpha, x_min, second=True)
        if len(data) == 1:
            ll, g_m, g_lam, g_alpha, hess = kernels.mix_loglik_grad(
                *data[0], m, lam, alpha, x_min, z, dz, d2z=d2z
            )
        else:
            cuts = [0, *np.searchsorted(rows, inner_starts).tolist(), rows.size]
            parts = [
                kernels.mix_loglik_grad(
                    values, log_values, mult, m[lo:hi], lam[lo:hi], alpha[lo:hi],
                    x_min, z[lo:hi], dz[lo:hi], d2z=d2z[lo:hi],
                )
                for (values, log_values, mult), lo, hi in zip(data, cuts, cuts[1:])
                if lo < hi
            ]
            ll, g_m, g_lam, g_alpha, hess = map(np.concatenate, zip(*parts))
        grad = np.empty(theta.shape)
        grad[:, :k] = g_m[:, :k] - g_m[:, k, None]
        grad[:, k : 2 * k] = g_lam
        grad[:, -1] = g_alpha
        return ll, grad, jac.T @ hess @ jac

    return loglik_grad_hess


def _slacks(a_mat, b_vec, theta):
    """Slacks s = A @ theta + b of each row of ``theta``."""
    return (a_mat @ theta[:, :, None])[..., 0] + b_vec


def _barrier(a_mat, s, ll, grad, hess, weight, n):
    """(-phi, -grad phi, -hess phi) / n at feasible rows with slacks ``s``
    (``_slacks``) from their raw log-likelihoods ``ll``, gradients
    ``grad`` and Hessians ``hess``, where phi = ll + weight *
    sum(log(s)), with the barrier weight and the observation count n one
    per row. Dividing by n makes the stage tolerance per observation.
    The only code that adds the barrier.
    """
    inv_s = 1.0 / s
    phi = ll + weight * np.log(s).sum(axis=1)
    g = grad + weight[:, None] * (a_mat.T @ inv_s[:, :, None])[..., 0]
    h = hess - weight[:, None, None] * (a_mat.T @ (inv_s[:, :, None] ** 2 * a_mat))
    return -phi / n, -g / n[:, None], -h / n[:, None, None]


# Every step a line search can try from a unit step: 1, 1/2, 1/4, ...
# down to the last power of two not below _MIN_STEP.
_HALVINGS = np.ldexp(1.0, -np.arange(int(-math.log2(_MIN_STEP)) + 1))


def _feasible_steps(a_mat, b_vec, x, d, step):
    """Largest feasible step in step, step/2, step/4, ... for each row,
    the trial point there and its slacks.

    Row r tries x[r] + t * d[r] for the halvings t of step[r] that are
    not below _MIN_STEP, with the objective's own slack test, and gets
    the first t that passes, or 0.0 if none does. Halving is exact, so
    this is the step that backtracking past infeasible points one trial
    at a time would reach. The current step is tested first; only rows
    where it fails scan the rest of the ladder. Returns (steps, points,
    slacks) with points[r] = x[r] + steps[r] * d[r] and slacks[r] =
    ``_slacks`` at points[r] wherever a step was found, so that
    ``_barrier`` need not form them again.
    """
    points = x + step[:, None] * d
    s = _slacks(a_mat, b_vec, points)
    ok = ~(s <= 0.0).any(axis=1) & (step >= _MIN_STEP)
    # every round asks whether any or all of its rows pass a test:
    # np.count_nonzero is one C call, where .any() and .all() go through
    # numpy's Python wrappers
    if np.count_nonzero(ok) == ok.size:
        return step, points, s
    found = np.where(ok, step, 0.0)
    rows = (~ok).nonzero()[0]
    steps = step[rows, None] * _HALVINGS[1:]
    ladder = x[rows, None, :] + steps[:, :, None] * d[rows, None, :]
    s_ladder = (a_mat @ ladder[..., None])[..., 0] + b_vec
    ok = ~(s_ladder <= 0.0).any(axis=2) & (steps >= _MIN_STEP)
    hit = ok.any(axis=1)
    at = (hit.nonzero()[0], ok[hit].argmax(axis=1))
    rows = rows[hit]
    found[rows] = steps[at]
    points[rows] = ladder[at]
    s[rows] = s_ladder[at]
    return found, points, s


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
    The shift is formed only when some row needs it; a row that does not
    keeps its eigenvalues, as adding a zero shift to them would.
    """
    sig = 1.0 / np.sqrt(np.abs(np.diagonal(h, axis1=1, axis2=2)))
    g = g * sig
    w, v = np.linalg.eigh(h * sig[:, :, None] * sig[:, None, :])
    floor = _EIG_FLOOR * np.abs(w).max(axis=1)
    low = w[:, 0] < floor
    if np.count_nonzero(low):
        w += np.where(low, floor - w[:, 0] + np.abs(g).max(axis=1), 0.0)[:, None]
    coef = (np.swapaxes(v, 1, 2) @ g[:, :, None])[..., 0] / w
    return -sig * (v @ coef[:, :, None])[..., 0]


def _lockstep(fun, a_mat, b_vec, theta0, n, raw_first_step=False):
    """Run every restart through the barrier schedule, in one batch.

    Row r of ``theta0`` starts restart r; ``fun(theta, rows)`` gives raw
    log-likelihoods, gradients and Hessians at the points ``theta`` of
    rows ``rows``, and n holds the observation counts, one per row: the
    rows may belong to many fits that share one slack system.
    One call of ``fun`` evaluates every starting point. Each live
    restart then runs one stage of damped Newton steps with Armijo
    backtracking per weight in BARRIER_WEIGHTS, warm-started from the
    last. A stage opens by reweighting the barrier term from the raw
    values stored at the restart's iterate, and the next one opens as
    soon as the last ends, in the same round.

    The loop runs one round per pass over the active rows, those live
    with a stage left. A round finds each row's feasible trial step
    (``_feasible_steps`` skips trial points outside the feasible set,
    and its slacks there are the ones ``_barrier`` takes), evaluates
    every trial in one call of ``fun``, halves the step where
    the Armijo test fails and moves where it passes; a moved row takes
    its next Newton direction at once. With ``raw_first_step`` (EP
    fits) the first step is the raw gradient, unit step on the unscaled
    objective: a long move that reaches optima (a slow component of
    small weight) that Newton steps from the start miss.

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
    n = np.asarray(n, dtype=np.float64)
    ll, ll_grad, ll_hess = fun(x, np.arange(n_rows))
    live = np.isfinite(ll)
    c = np.array(BARRIER_WEIGHTS)
    stage, it, iters = np.zeros((3, n_rows), dtype=np.int64)
    f, step, slope, decrement = np.zeros((4, n_rows))
    g, d = np.zeros((2, n_rows, dim))
    status = [[] for _ in range(n_rows)]
    active = live.copy()  # live with a stage left

    def open_stage(rows):
        """Reweight the barrier at the stored raw values: (rows,
        gradients, Hessians)."""
        f[rows], g_r, h = _barrier(
            a_mat, _slacks(a_mat, b_vec, x[rows]), ll[rows], ll_grad[rows],
            ll_hess[rows], c[stage[rows]], n[rows],
        )
        g[rows] = g_r
        it[rows] = 1
        return rows, g_r, h

    def end_stage(rows, name, done_iters):
        """Record how the stage ended and open the next, where one is left."""
        iters[rows] += done_iters
        for r in rows.tolist():
            status[r].append(name)
        stage[rows] += 1
        left = stage[rows] < c.size
        active[rows[~left]] = False
        rows = rows[left]
        # no barrier work for rows that have ended their last stage
        return open_stage(rows) if rows.size else (rows, None, None)

    def direct(rows, g_r, h):
        """Newton direction, decrement and unit step at gradients g_r;
        rows whose decrement passes end the stage and take the next
        stage's direction."""
        while rows.size:
            d[rows] = d_r = _newton_directions(g_r, h)
            slope[rows] = slope_r = _row_dot(d_r, g_r)
            decrement[rows] = dec = -0.5 * slope_r
            step[rows] = 1.0
            done = dec <= NEWTON_TOL
            if not np.count_nonzero(done):
                break
            rows, g_r, h = end_stage(rows[done], "converged", it[rows[done]] - 1)

    direct(*open_stage(live.nonzero()[0]))
    if raw_first_step:
        rows = (live & (stage == 0)).nonzero()[0]
        d[rows] = -n[rows, None] * g[rows]
        slope[rows] = _row_dot(d[rows], g[rows])
    while (rows := active.nonzero()[0]).size:
        found, trial_x, trial_s = _feasible_steps(
            a_mat, b_vec, x[rows], d[rows], step[rows]
        )
        step[rows] = found
        stuck = found == 0.0
        if np.count_nonzero(stuck):
            direct(*end_stage(rows[stuck], "linesearch", it[rows[stuck]]))
            rows, found, trial_x, trial_s = (
                v[~stuck] for v in (rows, found, trial_x, trial_s)
            )
            if not rows.size:
                continue
        new = fun(trial_x, rows)
        f_new, g_new, h_new = _barrier(
            a_mat, trial_s, *new, c[stage[rows]], n[rows]
        )
        accept = np.isfinite(f_new) & (
            f_new <= f[rows] + _ARMIJO_C1 * found * slope[rows]
        )
        if np.count_nonzero(accept) < accept.size:
            # a halved step below _MIN_STEP ends the stage in the next
            # round's _feasible_steps, with no further objective call
            step[rows[~accept]] *= 0.5
            rows, trial_x, f_new, g_new, h_new, *new = (
                v[accept] for v in (rows, trial_x, f_new, g_new, h_new, *new)
            )
        x[rows], f[rows], g[rows] = trial_x, f_new, g_new
        ll[rows], ll_grad[rows], ll_hess[rows] = new
        it_r = it[rows]
        capped = it_r >= MAX_INNER_ITERS
        if np.count_nonzero(capped):
            direct(*end_stage(rows[capped], "maxiter", it_r[capped]))
            rows, it_r, g_new, h_new = (
                v[~capped] for v in (rows, it_r, g_new, h_new)
            )
        it[rows] = it_r + 1
        direct(rows, g_new, h_new)

    loglik = np.where(live, ll, -np.inf)
    errors = [None if ok else "starting log-likelihood is not finite" for ok in live]
    return x, f, g, decrement, loglik, iters, status, errors


def _prepare(series, spec):
    """(series, values, mult, n) for one fit, the series taken through
    as_series; DataError if fewer than 2 distinct counts remain, since
    no model can then be told from another."""
    series = as_series(series)
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
        params=theta_to_params(theta, spec),
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
