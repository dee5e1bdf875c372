"""The numeric kernels against a scalar-loop oracle and direct formulas."""

import math

import numpy as np
import pytest

from tailmix import kernels
from tailmix.seeding import substream


def mix_loglik_grad_oracle(x, log_x, wt, m, lam, alpha, x_min, z, dz, literal):
    """Scalar-loop reference for :func:`kernels.mix_loglik_grad`.

    Same arguments and return value; one value and one component at a
    time, so it shares no vector code with the kernel under test.
    """
    n_exp = lam.shape[0]
    k = n_exp + 1
    n_vals = x.shape[0]
    log_m = np.empty(k)
    for j in range(k):
        log_m[j] = math.log(m[j])
    log_amp = np.empty(n_exp)
    d_const = np.empty(n_exp)
    for e in range(n_exp):
        lv = lam[e]
        if literal:
            log_amp[e] = math.log(lv)
            d_const[e] = 1.0 / lv
        else:
            if lv > kernels.LN_HALF_POINT:
                log_amp[e] = math.log1p(-math.exp(-lv))
            else:
                log_amp[e] = math.log(-math.expm1(-lv))
            d_const[e] = 1.0 / math.expm1(lv)
    ln_z = math.log(z)
    dz_over_z = dz / z
    ll = 0.0
    g_m = np.zeros(k)
    g_lam = np.zeros(n_exp)
    g_alpha = 0.0
    logs = np.empty(k)
    for i in range(n_vals):
        xv = x[i]
        mx = -np.inf
        for e in range(n_exp):
            if literal:
                t = log_m[e] + log_amp[e] - lam[e] * xv
            else:
                t = log_m[e] + log_amp[e] - lam[e] * (xv - x_min)
            logs[e] = t
            if t > mx:
                mx = t
        t = log_m[k - 1] - alpha * log_x[i] - ln_z
        logs[k - 1] = t
        if t > mx:
            mx = t
        acc = 0.0
        for j in range(k):
            acc += math.exp(logs[j] - mx)
        log_f = mx + math.log(acc)
        w = wt[i]
        ll += w * log_f
        for e in range(n_exp):
            r = math.exp(logs[e] - log_f)
            g_m[e] += w * r / m[e]
            if literal:
                g_lam[e] += w * r * (d_const[e] - xv)
            else:
                g_lam[e] += w * r * (d_const[e] - (xv - x_min))
        r = math.exp(logs[k - 1] - log_f)
        g_m[k - 1] += w * r / m[k - 1]
        g_alpha += w * r * (-log_x[i] - dz_over_z)
    return ll, g_m, g_lam, g_alpha


def test_mix_loglik_matches_scalar_oracle_on_random_inputs():
    rng = substream(321)
    for n_exp in (0, 1, 2):
        for literal in (False, True):
            values = np.unique(rng.integers(1, 500, size=200)).astype(np.float64)
            mult = rng.integers(1, 30, size=values.size).astype(np.float64)
            raw = rng.uniform(0.2, 1.0, size=n_exp + 1)
            m = raw / raw.sum()
            lam = np.sort(rng.uniform(0.05, 3.0, size=n_exp))[::-1].copy()
            alpha = float(rng.uniform(1.1, 3.5))
            z, dz = kernels.zeta_pair(alpha, 1.0)
            args = (values, np.log(values), mult, m, lam, alpha, 1.0, z, dz, literal)
            out0 = kernels.mix_loglik_grad(*args)
            out1 = mix_loglik_grad_oracle(*args)
            assert out0[0] == pytest.approx(out1[0], rel=1e-12)
            np.testing.assert_allclose(out0[1], out1[1], rtol=1e-10)
            np.testing.assert_allclose(out0[2], out1[2], rtol=1e-10)
            assert out0[3] == pytest.approx(out1[3], rel=1e-10)


def test_literal_mode_matches_direct_formula():
    values = np.array([1.0, 2.0, 7.0])
    mult = np.ones(3)
    m = np.array([0.6, 0.4])
    lam = np.array([0.5])
    z, dz = kernels.zeta_pair(2.0, 1.0)
    ll, _, _, _ = kernels.mix_loglik_grad(
        values, np.log(values), mult, m, lam, 2.0, 1.0, z, dz, True
    )
    direct = np.log(
        0.6 * 0.5 * np.exp(-0.5 * values) + 0.4 * values**-2.0 / z
    ).sum()
    assert ll == pytest.approx(direct, rel=1e-12)


def test_batched_rows_equal_single_calls():
    rng = substream(404)
    values = np.unique(rng.integers(1, 400, size=150)).astype(np.float64)
    mult = rng.integers(1, 20, size=values.size).astype(np.float64)
    for n_exp in (0, 1, 2):
        for literal in (False, True):
            raw = rng.uniform(0.2, 1.0, size=(6, n_exp + 1))
            m = raw / raw.sum(axis=1, keepdims=True)
            lam = np.sort(rng.uniform(0.05, 3.0, size=(6, n_exp)), axis=1)[:, ::-1]
            lam = np.ascontiguousarray(lam)
            alpha = np.concatenate([[1.02, 1.05], rng.uniform(1.1, 3.9, size=4)])
            z, dz = kernels.zeta_pair(alpha, 1.0)
            out = kernels.mix_loglik_grad(
                values, np.log(values), mult, m, lam, alpha, 1.0, z, dz, literal
            )
            for r in range(6):
                z1, dz1 = kernels.zeta_pair(alpha[r], 1.0)
                assert (z[r], dz[r]) == (z1, dz1)
                one = kernels.mix_loglik_grad(
                    values, np.log(values), mult, m[r], lam[r], alpha[r],
                    1.0, z1, dz1, literal,
                )
                assert out[0][r] == one[0]
                np.testing.assert_array_equal(out[1][r], one[1])
                np.testing.assert_array_equal(out[2][r], one[2])
                assert out[3][r] == one[3]
