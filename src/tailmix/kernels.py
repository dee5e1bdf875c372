"""Numeric kernels, in numpy.

The two hot operations are the Hurwitz zeta pair (value and alpha
derivative, and on request the second alpha derivative) and the mixture
log-likelihood with its analytic gradient and, on request, its analytic
Hessian, which the fit's Newton steps use.
Zeta is one fixed-length Euler-Maclaurin sum, vectorized over alpha: its
cost does not grow as alpha nears 1, and the fit takes it once per round
for the points of every fit in the round.
The mixture log-density is written once here: the log-amplitude of the
exponential components (geometric pmfs, normalized on x >= x_min), the
weighted log term of each component, and their log-sum-exp. The kernel
and the density functions in ``mixture`` all evaluate it through these
helpers; ``component_logs`` with unit weights gives each component's log pmf.
Every component's log term and score are linear in one row of
``_abscissa`` (x - x_min for the exponentials, log x for the tail), so
the kernel forms each for all components in one broadcast over that
(k, n) array, with the bits a loop over the components gives.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

# Name of the one numeric implementation, for benchmark environment records.
ACTIVE_BACKEND = "numpy"

LN_HALF_POINT = 0.6931471805599453  # ln 2, switch point for log(1 - e^-x)

# Euler-Maclaurin summation, as in Cephes zeta.c: _EM_TERMS terms
# summed directly, then the integral term, the half term and the
# Bernoulli corrections B_2j / (2j)! through B_24 at w = q + _EM_TERMS.
_EM_TERMS = 9
_EM_BERNOULLI = (
    1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
    -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000,
    43867 / 5109094217170944000, -174611 / 802857662698291200000,
    77683 / 14101100039391805440000,
    -236364091 / 1693824136731743669452800000,
)
# The Bernoulli sum is a polynomial in alpha with this many powers, 0 .. 23.
_EM_POWERS = 2 * len(_EM_BERNOULLI)


@functools.lru_cache(maxsize=64)
def _em_constants(q):
    """(bases, w, log w, coef) of the Euler-Maclaurin sum at q.

    ``bases`` holds q, ..., q + 8 and w = q + 9. With E = w^-alpha, the
    half and Bernoulli terms are E * P(alpha), where P(alpha) = 1/2 +
    sum_j B_2j / (2j)! * alpha (alpha + 1) ... (alpha + 2j - 2) * w^(1-2j)
    is a polynomial whose coefficients depend on q only; their alpha
    derivatives are E * (P' - P log w) and E * (P'' - 2 P' log w + P
    log^2 w). ``coef`` (33, 3) maps the row of (q + k)^-alpha for k < 9
    and E alpha^i for i < 24 to the direct sums plus those terms: to
    zeta, d zeta / d alpha and d^2 zeta / d alpha^2 less the integral term.
    """
    bases = q + np.arange(_EM_TERMS + 1, dtype=np.float64)
    w = float(bases[-1])
    log_w = math.log(w)
    log_b = np.log(bases[:-1])
    # rising holds (alpha)_n / w^n, lowest power first, after n factors
    rising = np.zeros(_EM_POWERS)
    rising[0] = 1.0
    poly = np.zeros(_EM_POWERS)
    poly[0] = 0.5
    for i in range(_EM_POWERS - 1):
        # times (alpha + i) / w
        rising[1:] = rising[:-1] + i * rising[1:]
        rising[0] *= i
        rising /= w
        if i % 2 == 0:
            poly += _EM_BERNOULLI[i // 2] * rising
    power = np.arange(1, _EM_POWERS)
    d1 = np.append(power * poly[1:], 0.0)
    d2 = np.append(power * d1[1:], 0.0)
    coef = np.empty((_EM_TERMS + _EM_POWERS, 3))
    coef[:_EM_TERMS] = np.stack([np.ones(_EM_TERMS), -log_b, log_b * log_b], 1)
    coef[_EM_TERMS:, 0] = poly
    coef[_EM_TERMS:, 1] = d1 - log_w * poly
    coef[_EM_TERMS:, 2] = d2 - 2.0 * log_w * d1 + log_w * log_w * poly
    coef.flags.writeable = False
    return bases, w, log_w, coef


def zeta_pair(alpha, q, second=False):
    """Hurwitz zeta(alpha, q) and its alpha derivative, and with
    ``second`` also its second alpha derivative.

    One fixed-length Euler-Maclaurin sum (see ``_em_constants``), with
    both derivatives in closed form: relative error within a few units
    of 2^-53 for alpha > 1 and q >= 1, down to alpha = 1 + 1e-9. The
    value and first derivative do not depend on ``second``.

    ``alpha`` may be a 1-D array, which gives arrays; each row takes
    the same elementwise steps and its own (1, 33) @ (33, 3) product, so
    it equals the scalar call at its alpha bit for bit.
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    bases, w, log_w, coef = _em_constants(float(q))
    y = np.empty((alphas.shape[0], coef.shape[0]))
    y[:, _EM_TERMS:] = alphas[:, None]
    # (q + k)^-alpha for k < 9 and E = w^-alpha, then E alpha^i by a
    # running product, which never overflows: E falls faster than
    # alpha^23 grows
    np.power(bases, -alphas[:, None], out=y[:, : _EM_TERMS + 1])
    np.multiply.accumulate(y[:, _EM_TERMS:], axis=1, out=y[:, _EM_TERMS:])
    sums = (y[:, None, :] @ coef)[:, 0]
    # the integral term w^(1-alpha) / (alpha - 1) and its derivatives
    inv = 1.0 / (alphas - 1.0)
    rate = log_w + inv
    integral = w * y[:, _EM_TERMS] * inv
    zeta = sums[:, 0] + integral
    dzeta = sums[:, 1] - integral * rate
    out = (zeta, dzeta)
    if second:
        out += (sums[:, 2] + integral * (rate * rate + inv * inv),)
    if np.ndim(alpha) == 0:
        return tuple(arr[0] for arr in out)
    return out


def exp_log_amp(lam):
    """Log-amplitude of each exponential component with rates ``lam``:
    log(1 - e^-lam), the geometric normalizer, computed on whichever side
    of ln 2 keeps it accurate."""
    return np.where(
        lam > LN_HALF_POINT, np.log1p(-np.exp(-lam)), np.log(-np.expm1(-lam))
    )


def _abscissa(x, log_x, x_min, n_exp):
    """The (k, len(x)) rows each component's log density is linear in:
    x - x_min for the exponentials, log x for the power tail."""
    ab = np.empty((n_exp + 1, x.shape[0]))
    np.subtract(x, x_min, out=ab[:n_exp])
    ab[n_exp] = log_x
    return ab


def _weighted_logs(ab, m, lam, alpha, z):
    """``component_logs`` on the abscissa rows ``ab``: offset - rate * ab
    in one broadcast, then log z off the tail row. The offset is log m,
    plus the log-amplitude on the exponential rows; the rate is
    (lam..., alpha)."""
    alpha = np.asarray(alpha)
    n_exp = lam.shape[-1]
    offset = np.log(m)
    if n_exp:
        offset[..., :n_exp] += exp_log_amp(lam)
    rate = np.empty(offset.shape)
    rate[..., :n_exp] = lam
    rate[..., n_exp] = alpha
    logs = np.multiply(rate[..., None], ab)
    np.subtract(offset[..., None], logs, out=logs)
    log_z = np.fromiter(map(math.log, np.ravel(z).tolist()), np.float64)
    log_z = log_z.reshape(alpha.shape)
    logs[..., n_exp, :] -= log_z[..., None]
    return logs


def component_logs(x, log_x, m, lam, alpha, x_min, z):
    """Weighted log density of each component at x, shape (..., k, len(x)).

    Components are ordered [exponential..., power tail]; ``m`` holds
    their weights and ``z`` is zeta(alpha, x_min). Row j is
    log(m_j) + log pmf_j(x); with unit weights it is the log pmf.
    ``alpha`` and ``z`` are scalars, or arrays of a batch shape that
    ``m`` and ``lam`` carry as leading axes; each batch row is computed
    exactly as a batch of one would be.
    """
    ab = _abscissa(x, log_x, x_min, lam.shape[-1])
    return _weighted_logs(ab, m, lam, alpha, z)


def log_sum_exp(logs):
    """Log of the summed exponentials over the component axis (-2) of
    ``logs``."""
    mx = logs.max(axis=-2)
    shifted = logs - mx[..., None, :]
    return mx + np.log(np.exp(shifted, out=shifted).sum(axis=-2))


def _dot_wt(v, wt):
    """``wt @ v`` for each row of v: a (1, n) @ (n,) product per row, so
    every row is summed as the 1-D dot product would sum it."""
    return (v[..., None, :] @ wt)[..., 0]


@functools.lru_cache(maxsize=8)
def _hess_index(n_exp):
    """Flat indices into a (dim, dim) Hessian, dim = 2 * n_exp + 2: each
    component's (weight, parameter) entry and its mirror, shape (2, k),
    and the (parameter, parameter) diagonal, shape (k,)."""
    dim = 2 * n_exp + 2
    w = np.arange(n_exp + 1)
    p = w + n_exp + 1
    cross, diag = np.stack([w * dim + p, p * dim + w]), p * dim + p
    cross.flags.writeable = diag.flags.writeable = False
    return cross, diag


def mix_loglik_grad(x, log_x, wt, m, lam, alpha, x_min, z, dz, literal=False,
                    d2z=None):
    """Weighted mixture log-likelihood and gradient, and with ``d2z`` the
    Hessian.

    ``x`` holds the unique observed values, ``wt`` their multiplicities.
    ``z``/``dz``/``d2z`` are the zeta value and its first and second
    alpha derivatives at (alpha, x_min). ``literal`` must be false: it
    is kept only so that callers passing ten positional arguments keep
    working, and a true value, which once asked for the unnormalized
    form lam*exp(-lam*x), raises DomainError.

    Returns (loglik, grad_weights, grad_lambdas, grad_alpha); the weight
    gradient is taken with all weights free (no simplex projection).
    With ``d2z`` given, a fifth entry holds the Hessian in the same
    coordinates: all k+1 weights, then the rates, then alpha.
    With array ``alpha`` (shape (B,), and ``m``, ``lam``, ``z``, ``dz``
    batched to match) it evaluates B parameter points at once and every
    output gains the leading batch axis; row b equals the scalar call at
    point b bit for bit.

    Each quantity is one broadcast over all k components on the rows of
    ``_abscissa``: the log terms are offset - rate * abscissa, and each
    component's own score (d log pmf_e / d rate_e, or d log pmf_tail /
    d alpha) is const - abscissa. Every element takes the operations a
    loop over the components would give it.
    """
    if literal:
        raise DomainError("the unnormalized exponential form was removed")
    n_exp = lam.shape[-1]
    k = n_exp + 1
    ab = _abscissa(x, log_x, x_min, n_exp)
    logs = _weighted_logs(ab, m, lam, alpha, z)
    log_f = log_sum_exp(logs)
    logs -= log_f[..., None, :]
    # u_t holds one row per coordinate and one column per value: the
    # responsibilities in rows 0..k-1, and resp_e times component e's
    # score in row k+e. Each row summed with weights wt is a gradient
    # entry.
    u_t = np.empty(logs.shape[:-2] + (2 * k, x.shape[0]))
    resp = np.exp(logs, out=u_t[..., :k, :])
    del logs
    ll = _dot_wt(log_f, wt)
    resp_wt = resp @ wt
    g_m = resp_wt / m
    # the score is const - abscissa: 1 / expm1(lam) - (x - x_min) on the
    # exponential rows and -dz/z - log x on the tail row
    dz_z = np.asarray(dz / z)
    const = np.empty(resp_wt.shape)
    d_const = np.divide(1.0, np.expm1(lam), out=const[..., :n_exp])
    const[..., n_exp] = -dz_z
    score = np.subtract(const[..., None], ab)
    rows = np.multiply(resp, score, out=u_t[..., k:, :])
    g_par = _dot_wt(rows, wt)
    g_lam, g_alpha = g_par[..., :n_exp], g_par[..., n_exp]
    if np.ndim(alpha) == 0:
        out = (float(ll), g_m, g_lam, float(g_alpha))
    else:
        out = (ll, g_m, g_lam, g_alpha)
    if d2z is None:
        return out
    score_sq = _dot_wt(np.multiply(rows, score, out=score), wt)
    # d2 log f = (d2 f)/f - u u^T with u = (d f)/f, summed with weights
    # wt; u is column j of u_t once rows 0..k-1 are divided by the
    # weights. (d2 f)/f is nonzero only on a component's (weight,
    # parameter) entries, where it is resp * score / m, and on its
    # (parameter, parameter) entry, where it is resp * (score^2 + d score
    # / d parameter).
    curv = np.empty(resp_wt.shape)
    np.multiply(-d_const, 1.0 + d_const, out=curv[..., :n_exp])
    curv[..., n_exp] = dz_z * dz_z - np.asarray(d2z / z)
    cross, diag = _hess_index(n_exp)
    hess = np.zeros(resp.shape[:-2] + (4 * k * k,))
    hess[..., cross] = (g_par / m)[..., None, :]
    hess[..., diag] = score_sq + curv * resp_wt
    hess = hess.reshape(resp.shape[:-2] + (2 * k, 2 * k))
    resp /= m[..., None]
    u_t *= np.sqrt(wt)
    hess -= u_t @ np.swapaxes(u_t, -1, -2)
    return (*out, hess)
