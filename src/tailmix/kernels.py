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
# Largest number of terms of a batched direct sum held in memory at once.
ZETA_CHUNK_ELEMS = 1 << 16


def _zeta_terms(alpha: float) -> int:
    k = int(math.ceil(10.0 / (alpha - 1.0)))
    if k < ZETA_MIN_TERMS:
        k = ZETA_MIN_TERMS
    if k > ZETA_MAX_TERMS:
        k = ZETA_MAX_TERMS
    return k


def _zeta_tail(alpha, q, k_terms, s0, s1):
    """Add the Euler-Maclaurin tail beyond the first k_terms to the direct
    sums s0 (value) and s1 (alpha derivative), for one alpha."""
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


def zeta_pair(alpha, q):
    """Hurwitz zeta(alpha, q) and its alpha derivative.

    Direct summation of the first K terms plus an Euler-Maclaurin tail
    through the B4 term. Absolute error is below 1e-10 for the value and
    1e-9 for the derivative over alpha in (1, 4] and integer q >= 1.

    ``alpha`` may be a 1-D array, which gives arrays. The direct sums of
    alphas with the same K are taken together (a batch of one for scalar
    alpha); the tail is evaluated per alpha in scalar arithmetic, where
    numpy's vector power would differ from ``pow`` in the last bit.
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    alpha_list = alphas.tolist()
    terms = [_zeta_terms(a) for a in alpha_list]
    zeta = np.empty(alphas.shape)
    dzeta = np.empty(alphas.shape)
    for k_terms in sorted(set(terms)):
        rows = np.flatnonzero(np.equal(terms, k_terms))
        base = q + np.arange(k_terms, dtype=np.float64)
        log_base = np.log(base)
        chunk = max(1, ZETA_CHUNK_ELEMS // k_terms)
        for lo in range(0, rows.size, chunk):
            part = rows[lo : lo + chunk]
            t = base ** (-alphas[part, None])
            s0 = t.sum(axis=1)
            s1 = -(log_base * t).sum(axis=1)
            for r, v0, v1 in zip(part.tolist(), s0.tolist(), s1.tolist()):
                zeta[r], dzeta[r] = _zeta_tail(alpha_list[r], q, k_terms, v0, v1)
    if np.ndim(alpha) == 0:
        return zeta[0], dzeta[0]
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
    """Weighted log density of each component at x, shape (..., k, len(x)).

    Components are ordered [exponential..., power tail]; ``m`` holds
    their weights and ``z`` is zeta(alpha, x_min). Row j is
    log(m_j) + log pmf_j(x); with unit weights it is the log pmf.
    ``alpha`` and ``z`` are scalars, or arrays of a batch shape that
    ``m`` and ``lam`` carry as leading axes; each batch row is computed
    exactly as a batch of one would be.
    """
    alpha = np.asarray(alpha)
    n_exp = lam.shape[-1]
    logs = np.empty(alpha.shape + (n_exp + 1, x.shape[0]))
    log_amp = exp_log_amp(lam, literal)
    shifted = exp_offset(x, x_min, literal)
    log_m = np.log(m)
    for e in range(n_exp):
        amp = log_m[..., e] + log_amp[..., e]
        logs[..., e, :] = amp[..., None] - lam[..., e, None] * shifted
    log_z = np.reshape([math.log(v) for v in np.ravel(z).tolist()], alpha.shape)
    tail = log_m[..., n_exp, None] - alpha[..., None] * log_x
    logs[..., n_exp, :] = tail - log_z[..., None]
    return logs


def log_sum_exp(logs):
    """Log of the summed exponentials over the component axis (-2) of
    ``logs``."""
    mx = logs.max(axis=-2)
    return mx + np.log(np.exp(logs - mx[..., None, :]).sum(axis=-2))


def _dot_wt(v, wt):
    """``wt @ v`` for each row of v: a (1, n) @ (n,) product per row, so
    every row is summed as the 1-D dot product would sum it."""
    return (v[..., None, :] @ wt)[..., 0]


def mix_loglik_grad(x, log_x, wt, m, lam, alpha, x_min, z, dz, literal):
    """Weighted mixture log-likelihood and gradient.

    ``x`` holds the unique observed values, ``wt`` their multiplicities.
    ``z``/``dz`` are the zeta value and alpha derivative at
    (alpha, x_min). ``literal`` switches the exponential density from the
    discretely normalized geometric form to the unnormalized continuous
    form lam*exp(-lam*x).

    Returns (loglik, grad_weights, grad_lambdas, grad_alpha); the weight
    gradient is taken with all weights free (no simplex projection).
    With array ``alpha`` (shape (B,), and ``m``, ``lam``, ``z``, ``dz``
    batched to match) it evaluates B parameter points at once and every
    output gains the leading batch axis; row b equals the scalar call at
    point b bit for bit.
    """
    n_exp = lam.shape[-1]
    logs = component_logs(x, log_x, m, lam, alpha, x_min, z, literal)
    log_f = log_sum_exp(logs)
    resp = np.exp(logs - log_f[..., None, :])
    ll = _dot_wt(log_f, wt)
    g_m = (resp @ wt) / m
    d_const = 1.0 / lam if literal else 1.0 / np.expm1(lam)
    shifted = exp_offset(x, x_min, literal)
    g_lam = np.empty(lam.shape)
    for e in range(n_exp):
        g_lam[..., e] = _dot_wt(resp[..., e, :] * (d_const[..., e, None] - shifted), wt)
    score = -log_x - np.asarray(dz / z)[..., None]
    g_alpha = _dot_wt(resp[..., n_exp, :] * score, wt)
    if np.ndim(alpha) == 0:
        return float(ll), g_m, g_lam, float(g_alpha)
    return ll, g_m, g_lam, g_alpha
