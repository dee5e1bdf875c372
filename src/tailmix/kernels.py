"""Numeric kernels, in numpy.

The two hot operations are the Hurwitz zeta pair (value and alpha
derivative) and the mixture log-likelihood with its analytic gradient.
The mixture log-density is written once here: the log-amplitude of the
exponential components, the weighted log term of each component, and
their log-sum-exp. The kernel and the density functions in ``dists``
and ``mixture`` all evaluate it through these helpers.
"""

from __future__ import annotations

import math

import numpy as np

# Name of the one numeric implementation, for benchmark environment records.
ACTIVE_BACKEND = "numpy"

LN_HALF_POINT = 0.6931471805599453  # ln 2, switch point for log(1 - e^-x)

# Truncation rule for the zeta sums: enough direct terms that the
# Euler-Maclaurin tail correction is accurate, more as alpha -> 1.
ZETA_MIN_TERMS = 100
ZETA_MAX_TERMS = 1_000_000


def _zeta_terms(alpha: float) -> int:
    k = int(math.ceil(10.0 / (alpha - 1.0)))
    if k < ZETA_MIN_TERMS:
        k = ZETA_MIN_TERMS
    if k > ZETA_MAX_TERMS:
        k = ZETA_MAX_TERMS
    return k


def zeta_pair(alpha, q):
    """Hurwitz zeta(alpha, q) and its alpha derivative.

    Direct summation of the first K terms plus an Euler-Maclaurin tail
    through the B4 term. Absolute error is below 1e-10 for the value and
    1e-9 for the derivative over alpha in (1, 4] and integer q >= 1.
    """
    k_terms = _zeta_terms(alpha)
    base = q + np.arange(k_terms, dtype=np.float64)
    t = base ** (-alpha)
    s0 = float(t.sum())
    s1 = -float((np.log(base) * t).sum())
    n_edge = q + k_terms
    ln_n = math.log(n_edge)
    am1 = alpha - 1.0
    t_int = n_edge ** (-am1) / am1
    t_half = 0.5 * n_edge ** (-alpha)
    t_b2 = alpha * n_edge ** (-alpha - 1.0) / 12.0
    poly = alpha * (alpha + 1.0) * (alpha + 2.0)
    t_b4 = poly * n_edge ** (-alpha - 3.0) / 720.0
    zeta = s0 + t_int + t_half + t_b2 - t_b4
    d_int = -t_int * (ln_n + 1.0 / am1)
    d_half = -ln_n * t_half
    d_b2 = (1.0 - alpha * ln_n) * n_edge ** (-alpha - 1.0) / 12.0
    d_poly = 3.0 * alpha * alpha + 6.0 * alpha + 2.0
    d_b4 = (d_poly - poly * ln_n) * n_edge ** (-alpha - 3.0) / 720.0
    dzeta = s1 + d_int + d_half + d_b2 - d_b4
    return zeta, dzeta


def exp_log_amp(lam, literal):
    """Log-amplitude of each exponential component with rates ``lam``.

    Discrete mode: log(1 - e^-lam), the geometric normalizer, computed
    on whichever side of ln 2 keeps it accurate. Literal mode: log(lam),
    the amplitude of the unnormalized continuous form lam*exp(-lam*x).
    """
    if literal:
        return np.log(lam)
    return np.where(
        lam > LN_HALF_POINT, np.log1p(-np.exp(-lam)), np.log(-np.expm1(-lam))
    )


def exp_offset(x, x_min, literal):
    """Distance the exponential density decays over at x: x - x_min for
    the discrete pmf, x itself for the literal form."""
    return x if literal else x - x_min


def component_logs(x, log_x, m, lam, alpha, x_min, z, literal):
    """Weighted log density of each component at x, shape (k, len(x)).

    Components are ordered [exponential..., power tail]; ``m`` holds
    their weights and ``z`` is zeta(alpha, x_min). Row j is
    log(m_j) + log pmf_j(x); with unit weights it is the log pmf.
    """
    n_exp = lam.shape[0]
    logs = np.empty((n_exp + 1, x.shape[0]))
    log_amp = exp_log_amp(lam, literal)
    shifted = exp_offset(x, x_min, literal)
    log_m = np.log(m)
    for e in range(n_exp):
        logs[e] = log_m[e] + log_amp[e] - lam[e] * shifted
    logs[n_exp] = log_m[n_exp] - alpha * log_x - math.log(z)
    return logs


def log_sum_exp(logs):
    """Log of the summed exponentials down each column of ``logs``."""
    mx = logs.max(axis=0)
    return mx + np.log(np.exp(logs - mx).sum(axis=0))


def mix_loglik_grad(x, log_x, wt, m, lam, alpha, x_min, z, dz, literal):
    """Weighted mixture log-likelihood and gradient.

    ``x`` holds the unique observed values, ``wt`` their multiplicities.
    ``z``/``dz`` are the zeta value and alpha derivative at
    (alpha, x_min). ``literal`` switches the exponential density from the
    discretely normalized geometric form to the unnormalized continuous
    form lam*exp(-lam*x).

    Returns (loglik, grad_weights, grad_lambdas, grad_alpha); the weight
    gradient is taken with all weights free (no simplex projection).
    """
    n_exp = lam.shape[0]
    logs = component_logs(x, log_x, m, lam, alpha, x_min, z, literal)
    log_f = log_sum_exp(logs)
    resp = np.exp(logs - log_f)
    ll = float(wt @ log_f)
    g_m = (resp @ wt) / m
    d_const = 1.0 / lam if literal else 1.0 / np.expm1(lam)
    shifted = exp_offset(x, x_min, literal)
    g_lam = np.empty(n_exp)
    for e in range(n_exp):
        g_lam[e] = float(wt @ (resp[e] * (d_const[e] - shifted)))
    g_alpha = float(wt @ (resp[n_exp] * (-log_x - dz / z)))
    return ll, g_m, g_lam, g_alpha
