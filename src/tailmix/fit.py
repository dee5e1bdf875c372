"""Constrained maximum-likelihood fitting via a log-barrier interior method.

The free parameter vector is theta = [weights of the exponential
components..., rates..., alpha]; the power-tail weight is one minus the
rest. All constraints are affine in theta, so feasibility slacks are
s = A @ theta + b and the penalized objective is

    phi_c(theta) = loglik(theta) + c * sum(log(s))

maximized for a decreasing barrier weight schedule, warm-starting each
stage from the last. The inner solver is BFGS with Armijo backtracking.
Multiple random restarts guard against local optima; the restart with
the best raw log-likelihood wins.

The restarts of a fit run each stage together, each with its own BFGS
state. One batched log-likelihood call evaluates the starting points,
and one per round evaluates every pending line-search trial; a stage
opens by reweighting the barrier term from the values stored at each
iterate, so no point is evaluated twice. Backtracking never evaluates a
point outside the feasible set: the slacks are affine and halving a step
is exact, so one scan of the halved steps finds the first feasible trial
step, the one that rejecting infeasible points one at a time would
reach. Every restart's result is bit-identical to running it alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DataError, DomainError, FitError
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

    def __post_init__(self):
        if not (isinstance(self.restarts, numbers.Integral) and self.restarts >= 1):
            raise DomainError(
                f"restarts must be a positive integer, got {self.restarts!r}"
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


def _objective(values, log_values, mult, spec):
    """Return f(theta) -> (loglik, grad) for a batch of feasible points.

    ``theta`` has shape (B, d), and every row must have all slacks
    A @ theta + b > 0: the starting points are feasible by construction
    and ``_feasible_steps`` only hands out feasible trial points. The
    rows go through one zeta and one kernel call. Every operation is
    shaped so that row b equals the evaluation of a batch of one at that
    point, bit for bit. The barrier term is added by ``_barrier``.
    """
    literal = spec.exp_mode == "paper-literal"
    x_min = float(spec.x_min)
    k = spec.n_exp

    def loglik_grad(theta):
        m = np.empty((theta.shape[0], k + 1))
        m[:, :k] = theta[:, :k]
        m[:, k] = 1.0 - theta[:, :k].sum(axis=1)
        lam = np.ascontiguousarray(theta[:, k : 2 * k])
        alpha = np.ascontiguousarray(theta[:, -1])
        z, dz = kernels.zeta_pair(alpha, x_min)
        ll, g_m, g_lam, g_alpha = kernels.mix_loglik_grad(
            values, log_values, mult, m, lam, alpha, x_min, z, dz, literal
        )
        grad = np.empty(theta.shape)
        grad[:, :k] = g_m[:, :k] - g_m[:, k, None]
        grad[:, k : 2 * k] = g_lam
        grad[:, -1] = g_alpha
        return ll, grad

    return loglik_grad


def _barrier(a_mat, b_vec, theta, ll, grad, weight):
    """(-phi, -grad phi) at feasible rows ``theta`` from their raw
    log-likelihoods ``ll`` and gradients ``grad``, where phi = ll + weight
    * sum(log(s)) and s = A @ theta + b. The only code that adds the barrier.
    """
    s = (a_mat @ theta[:, :, None])[..., 0] + b_vec
    phi = ll + weight * np.log(s).sum(axis=1)
    return -phi, -(grad + weight * (a_mat.T @ (1.0 / s)[:, :, None])[..., 0])


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


def _lockstep(fun, a_mat, b_vec, theta0):
    """Run every restart through the barrier schedule together.

    Row r of ``theta0`` starts restart r. One call of ``fun`` evaluates
    every starting point. For each weight in BARRIER_WEIGHTS, every live
    restart then runs one stage of BFGS with Armijo backtracking,
    warm-started from the last. A stage opens by reweighting the barrier
    term from the raw log-likelihood and gradient stored at each
    iterate, without a call of ``fun``; each round then evaluates one
    line-search trial for every restart still in the stage. Each restart
    keeps its own iterate, inverse Hessian and step. Trial points
    outside the feasible set are skipped by ``_feasible_steps`` rather
    than evaluated.

    A stage ends "gradtol" (gradient infinity norm met), "stalled"
    (improvements fell below float rounding of f), "linesearch" (no
    acceptable step down to _MIN_STEP) or "maxiter". A restart whose
    starting log-likelihood is not finite fails. Returns (theta, f,
    grad, loglik, iters, stage_status, errors), one entry per restart:
    f and grad are the last stage's objective and gradient at theta;
    loglik is the raw log-likelihood there, or -inf and errors[r] a
    message where restart r failed, else None.
    """
    n_rows, dim = theta0.shape
    eye = np.eye(dim)
    x = np.array(theta0, dtype=np.float64)
    ll, ll_grad = fun(x)
    live = np.isfinite(ll)
    f = np.zeros(n_rows)
    g = np.zeros((n_rows, dim))
    h_inv = np.zeros((n_rows, dim, dim))
    first_update = np.zeros(n_rows, dtype=bool)
    stalls = np.zeros(n_rows, dtype=np.int64)
    it = np.zeros(n_rows, dtype=np.int64)
    iters = np.zeros(n_rows, dtype=np.int64)
    step = np.ones(n_rows)
    d = np.zeros((n_rows, dim))
    slope = np.zeros(n_rows)
    in_stage = np.zeros(n_rows, dtype=bool)
    status = [[] for _ in range(n_rows)]

    def end_stage(rows, name, done_iters):
        iters[rows] += done_iters
        for r in rows.tolist():
            status[r].append(name)
        in_stage[rows] = False

    def begin_iteration(rows, g_r):
        """Top of a BFGS iteration: gradient test, then descent direction.
        ``g_r`` is g[rows]."""
        done = np.abs(g_r).max(axis=1) <= INNER_TOL
        if done.any():
            end_stage(rows[done], "gradtol", it[rows[done]] - 1)
            rows, g_r = rows[~done], g_r[~done]
        d_r = ((-h_inv[rows]) @ g_r[:, :, None])[..., 0]
        slope_r = _row_dot(d_r, g_r)
        uphill = slope_r >= 0.0
        if uphill.any():
            h_inv[rows[uphill]] = eye
            first_update[rows[uphill]] = True
            d_r[uphill] = -g_r[uphill]
            slope_r[uphill] = _row_dot(d_r[uphill], g_r[uphill])
        d[rows] = d_r
        slope[rows] = slope_r
        step[rows] = 1.0

    def try_step(rows, x_new, weight):
        """Evaluate the trial points; Armijo test; BFGS update where it passes."""
        ll_new, ll_grad_new = fun(x_new)
        f_new, g_new = _barrier(a_mat, b_vec, x_new, ll_new, ll_grad_new, weight)
        f_r = f[rows]
        accept = np.isfinite(f_new) & (
            f_new <= f_r + _ARMIJO_C1 * step[rows] * slope[rows]
        )
        if not accept.all():
            rejected = rows[~accept]
            step[rejected] *= 0.5
            too_small = rejected[step[rejected] < _MIN_STEP]
            end_stage(too_small, "linesearch", it[too_small])
            if not accept.any():
                return
            rows, x_new, f_new, g_new, f_r = (
                rows[accept], x_new[accept], f_new[accept], g_new[accept], f_r[accept]
            )
            ll_new, ll_grad_new = ll_new[accept], ll_grad_new[accept]
        s = x_new - x[rows]
        y = g_new - g[rows]
        sy = _row_dot(s, y)
        yy = _row_dot(y, y)
        curved = sy > 1e-12 * np.sqrt(_row_dot(s, s)) * np.sqrt(yy)
        scale = curved & first_update[rows]
        if scale.any():
            h_inv[rows[scale]] *= (sy[scale] / yy[scale])[:, None, None]
            first_update[rows[scale]] = False
        upd, s_c, y_c, sy_c = rows, s, y, sy
        if not curved.all():
            upd, s_c, y_c, sy_c = rows[curved], s[curved], y[curved], sy[curved]
        if upd.size:
            rho = (1.0 / sy_c)[:, None, None]
            v = eye - rho * (s_c[:, :, None] * y_c[:, None, :])
            h_inv[upd] = v @ h_inv[upd] @ v.transpose(0, 2, 1) + rho * (
                s_c[:, :, None] * s_c[:, None, :]
            )
        # once improvements sink into float rounding of f, stop: the
        # gradient test may be unreachable in double precision
        flat = f_r - f_new <= 1e-12 * (np.abs(f_r) + 1.0)
        stalls_r = np.where(flat, stalls[rows] + 1, 0)
        stalls[rows] = stalls_r
        x[rows] = x_new
        f[rows] = f_new
        g[rows] = g_new
        ll[rows] = ll_new
        ll_grad[rows] = ll_grad_new
        stop = flat & (stalls_r >= 2)
        if stop.any():
            end_stage(rows[stop], "stalled", it[rows[stop]])
            rows, g_new = rows[~stop], g_new[~stop]
        capped = it[rows] >= MAX_INNER_ITERS
        if capped.any():
            end_stage(rows[capped], "maxiter", it[rows[capped]])
            rows, g_new = rows[~capped], g_new[~capped]
        it[rows] += 1
        begin_iteration(rows, g_new)

    for weight in BARRIER_WEIGHTS:
        rows = live.nonzero()[0]
        f[rows], g[rows] = _barrier(
            a_mat, b_vec, x[rows], ll[rows], ll_grad[rows], weight
        )
        h_inv[rows] = eye
        first_update[rows] = True
        stalls[rows] = 0
        it[rows] = 1
        in_stage[rows] = True
        begin_iteration(rows, g[rows])
        while in_stage.any():
            rows = in_stage.nonzero()[0]
            found, trial_x = _feasible_steps(
                a_mat, b_vec, x[rows], d[rows], step[rows]
            )
            step[rows] = found
            stuck = found == 0.0
            if stuck.any():
                end_stage(rows[stuck], "linesearch", it[rows[stuck]])
                rows, trial_x = rows[~stuck], trial_x[~stuck]
            if rows.size:
                try_step(rows, trial_x, weight)

    loglik = np.where(live, ll, -np.inf)
    errors = [None if ok else "starting log-likelihood is not finite" for ok in live]
    return x, f, g, loglik, iters, status, errors


def fit_model(series, spec: ModelSpec, config: FitConfig | None = None) -> FittedModel:
    """Fit one model by restarted barrier optimization.

    Accepts a BinnedSeries or a raw integer count array. Restart r draws
    its start from substream(config.seed, r), so fits are reproducible.
    Raises DataError if fewer than 2 distinct counts remain, since no
    model can then be told from another, and FitError (with per-restart
    diagnostics attached) if no restart produces a finite log-likelihood.
    """
    if config is None:
        config = FitConfig()
    if not isinstance(series, BinnedSeries):
        series = BinnedSeries(np.asarray(series), bin_seconds=1.0)
    values, mult = aggregate_counts(series.counts, spec.x_min)
    if values.shape[0] < 2:
        raise DataError(
            f"need at least 2 distinct counts >= x_min={spec.x_min} to fit "
            f"{spec.label}, got {values.shape[0]}"
        )
    log_values = np.log(values)
    n = int(mult.sum())

    fun = _objective(values, log_values, mult, spec)
    a_mat, b_vec = slack_system(spec)
    theta0 = np.array(
        [random_init(spec, substream(config.seed, r)) for r in range(config.restarts)]
    ).reshape(config.restarts, spec.dof)
    thetas, fs, grads, logliks, iters, status, errors = _lockstep(
        fun, a_mat, b_vec, theta0
    )

    restart_logliks = [float(ll) for ll in logliks]
    restart_reports = []
    for r in range(config.restarts):
        if errors[r] is not None:
            restart_reports.append({"error": errors[r]})
            continue
        restart_reports.append(
            {
                "iters": int(iters[r]),
                "stage_status": status[r],
                "grad_inf_norm": float(np.abs(grads[r]).max()),
            }
        )

    finite = np.isfinite(logliks)
    if not finite.any():
        raise FitError(
            f"all {config.restarts} restarts failed for model {spec.label}",
            partial={"restart_logliks": restart_logliks, "restarts": restart_reports},
        )
    # the first restart with the largest finite log-likelihood wins
    r_best = int(np.where(finite, logliks, -np.inf).argmax())
    ll, theta = restart_logliks[r_best], thetas[r_best]
    diagnostics = {
        "restart_chosen": r_best,
        "restart_logliks": restart_logliks,
        "restarts": restart_reports,
        "barrier_residual": float(abs(-fs[r_best] - ll)),
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
