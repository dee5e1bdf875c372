"""Numeric kernels, in numpy.

The two hot operations are the Hurwitz zeta pair (value and alpha
derivative, and on request the second alpha derivative) and the mixture
log-likelihood with its analytic gradient and, on request, its analytic
Hessian, which the fit's Newton steps use.
The mixture log-density is written once here: the log-amplitude of the
exponential components (geometric pmfs, normalized on x >= x_min), the
weighted log term of each component, and their log-sum-exp. The kernel
and the density functions in ``mixture`` all evaluate it through these
helpers; ``mixture.component_log_pmfs`` is the per-component density.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

# Name of the one numeric implementation, for benchmark environment records.
ACTIVE_BACKEND = "numpy"

LN_HALF_POINT = 0.6931471805599453  # ln 2, switch point for log(1 - e^-x)

# Truncation rule for the zeta sums: enough direct terms that the
# Euler-Maclaurin tail correction is accurate, more as alpha -> 1.
ZETA_MIN_TERMS = 100
ZETA_MAX_TERMS = 1_000_000
# Largest number of terms of a batched direct sum held in memory at once.
ZETA_CHUNK_ELEMS = 1 << 16
# Longest direct sum whose bases are kept between calls, and how many
# (q, K) pairs are kept: at most 64 x 4096 x 16 bytes, 4 MB.
ZETA_CACHE_TERMS = 4096
ZETA_CACHE_ENTRIES = 64


def _zeta_terms(alpha: float) -> int:
    k = int(math.ceil(10.0 / (alpha - 1.0)))
    if k < ZETA_MIN_TERMS:
        k = ZETA_MIN_TERMS
    if k > ZETA_MAX_TERMS:
        k = ZETA_MAX_TERMS
    return k


def _zeta_tail(alpha, q, k_terms, s0, s1, s2=None):
    """Add the Euler-Maclaurin tail beyond the first k_terms to the direct
    sums s0 (value) and s1 (alpha derivative), for one alpha; with s2
    (second alpha derivative) given, return its tailed sum as well."""
    n_edge = q + k_terms
    ln_n = math.log(n_edge)
    am1 = alpha - 1.0
    pow_b2 = n_edge ** (-alpha - 1.0)
    pow_b4 = n_edge ** (-alpha - 3.0)
    t_int = n_edge ** (-am1) / am1
    t_half = 0.5 * n_edge ** (-alpha)
    t_b2 = alpha * pow_b2 / 12.0
    poly = alpha * (alpha + 1.0) * (alpha + 2.0)
    t_b4 = poly * pow_b4 / 720.0
    zeta = s0 + t_int + t_half + t_b2 - t_b4
    d_int = -t_int * (ln_n + 1.0 / am1)
    d_half = -ln_n * t_half
    d_b2 = (1.0 - alpha * ln_n) * pow_b2 / 12.0
    d_poly = 3.0 * alpha * alpha + 6.0 * alpha + 2.0
    d_b4 = (d_poly - poly * ln_n) * pow_b4 / 720.0
    dzeta = s1 + d_int + d_half + d_b2 - d_b4
    if s2 is None:
        return zeta, dzeta
    rate = ln_n + 1.0 / am1
    d2_int = t_int * (rate * rate + 1.0 / (am1 * am1))
    d2_half = ln_n * ln_n * t_half
    d2_b2 = ln_n * (alpha * ln_n - 2.0) * pow_b2 / 12.0
    d2_poly = 6.0 * alpha + 6.0
    d2_b4 = (d2_poly - ln_n * (2.0 * d_poly - poly * ln_n)) * pow_b4 / 720.0
    return zeta, dzeta, s2 + d2_int + d2_half + d2_b2 - d2_b4


@functools.lru_cache(maxsize=ZETA_CACHE_ENTRIES)
def _cached_bases(q, k_terms):
    """``_bases``, kept read-only for the last ZETA_CACHE_ENTRIES pairs."""
    base, log_base = _bases(q, k_terms)
    base.flags.writeable = False
    log_base.flags.writeable = False
    return base, log_base


def _bases(q, k_terms):
    """The direct-sum bases q, q+1, ..., q+k_terms-1 and their logs."""
    base = q + np.arange(k_terms, dtype=np.float64)
    return base, np.log(base)


def zeta_pair(alpha, q, second=False):
    """Hurwitz zeta(alpha, q) and its alpha derivative, and with
    ``second`` also its second alpha derivative.

    Direct summation of the first K terms plus an Euler-Maclaurin tail
    through the B4 term. Absolute error is below 1e-10 for the value and
    1e-9 for the derivative over alpha in (1, 4] and integer q >= 1.
    The second derivative is one more direct sum over the same bases;
    the value and first derivative do not depend on ``second``.

    ``alpha`` may be a 1-D array, which gives arrays. The direct sums of
    alphas with the same K are taken together (a batch of one for scalar
    alpha); the tail is evaluated per alpha in scalar arithmetic, where
    numpy's vector power and log would differ from libm's in the last
    bit. The bases q + arange(K) and their logs are kept between calls
    for K up to ZETA_CACHE_TERMS; the longer ones of alphas near 1 are
    built per call and dropped.
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    alpha_list = alphas.tolist()
    terms = [_zeta_terms(a) for a in alpha_list]
    if len(set(terms)) == 1:
        groups = [(terms[0], np.arange(len(terms)))]
    else:
        groups = [(k, np.flatnonzero(np.equal(terms, k))) for k in sorted(set(terms))]
    zeta = np.empty(alphas.shape)
    dzeta = np.empty(alphas.shape)
    d2zeta = np.empty(alphas.shape)
    for k_terms, rows in groups:
        bases = _cached_bases if k_terms <= ZETA_CACHE_TERMS else _bases
        base, log_base = bases(q, k_terms)
        chunk = max(1, ZETA_CHUNK_ELEMS // k_terms)
        for lo in range(0, rows.size, chunk):
            part = rows[lo : lo + chunk]
            # each sum's terms overwrite the last's: base^-alpha, then
            # times log(base), then times log(base) again
            t = base ** (-alphas[part, None])
            s0 = t.sum(axis=1).tolist()
            t *= log_base
            s1 = (-t.sum(axis=1)).tolist()
            if not second:
                for r, v0, v1 in zip(part.tolist(), s0, s1):
                    zeta[r], dzeta[r] = _zeta_tail(alpha_list[r], q, k_terms, v0, v1)
                continue
            t *= log_base
            s2 = t.sum(axis=1).tolist()
            for r, v0, v1, v2 in zip(part.tolist(), s0, s1, s2):
                zeta[r], dzeta[r], d2zeta[r] = _zeta_tail(
                    alpha_list[r], q, k_terms, v0, v1, v2
                )
    out = (zeta, dzeta, d2zeta) if second else (zeta, dzeta)
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


def component_logs(x, log_x, m, lam, alpha, x_min, z):
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
    log_amp = exp_log_amp(lam)
    shifted = x - x_min
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
    shifted = logs - mx[..., None, :]
    return mx + np.log(np.exp(shifted, out=shifted).sum(axis=-2))


def _dot_wt(v, wt):
    """``wt @ v`` for each row of v: a (1, n) @ (n,) product per row, so
    every row is summed as the 1-D dot product would sum it."""
    return (v[..., None, :] @ wt)[..., 0]


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
    """
    if literal:
        raise DomainError("the unnormalized exponential form was removed")
    n_exp = lam.shape[-1]
    dim = 2 * n_exp + 2
    logs = component_logs(x, log_x, m, lam, alpha, x_min, z)
    log_f = log_sum_exp(logs)
    logs -= log_f[..., None, :]
    # u_t holds one row per coordinate and one column per value: the
    # responsibilities in rows 0..k, and resp_e times component e's own
    # score (d log pmf_e / d rate_e, or d log pmf_tail / d alpha) in row
    # k+1+e. Each row summed with weights wt is a gradient entry.
    u_t = np.empty(logs.shape[:-2] + (dim, x.shape[0]))
    resp = np.exp(logs, out=u_t[..., : n_exp + 1, :])
    del logs
    ll = _dot_wt(log_f, wt)
    resp_wt = resp @ wt
    g_m = resp_wt / m
    d_const = 1.0 / np.expm1(lam)
    shifted = x - x_min
    dz_z = np.asarray(dz / z)
    score_sq = np.empty(resp_wt.shape)
    for e in range(n_exp + 1):
        if e < n_exp:
            score = d_const[..., e, None] - shifted
        else:
            score = -log_x - dz_z[..., None]
        row = np.multiply(resp[..., e, :], score, out=u_t[..., n_exp + 1 + e, :])
        if d2z is not None:
            score_sq[..., e] = _dot_wt(np.multiply(row, score, out=score), wt)
    g_par = _dot_wt(u_t[..., n_exp + 1 :, :], wt)
    g_lam, g_alpha = g_par[..., :n_exp], g_par[..., n_exp]
    if np.ndim(alpha) == 0:
        out = (float(ll), g_m, g_lam, float(g_alpha))
    else:
        out = (ll, g_m, g_lam, g_alpha)
    if d2z is None:
        return out
    # d2 log f = (d2 f)/f - u u^T with u = (d f)/f, summed with weights
    # wt; u is column j of u_t once rows 0..k are divided by the weights.
    # (d2 f)/f is nonzero only on a component's (weight, parameter)
    # entries, where it is resp * score / m, and on its (parameter,
    # parameter) entry, where it is resp * (score^2 + d score / d parameter).
    curv = -d_const * (1.0 + d_const)
    curv = np.concatenate([curv, (dz_z * dz_z - np.asarray(d2z / z))[..., None]], -1)
    hess = np.zeros(resp.shape[:-2] + (dim, dim))
    par = range(n_exp + 1, dim)
    for e, p in enumerate(par):
        hess[..., e, p] = hess[..., p, e] = g_par[..., e] / m[..., e]
    hess[..., par, par] = score_sq + curv * resp_wt
    resp /= m[..., None]
    u_t *= np.sqrt(wt)
    hess -= u_t @ np.swapaxes(u_t, -1, -2)
    return (*out, hess)
