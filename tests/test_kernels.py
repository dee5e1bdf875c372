"""The numeric kernels against a scalar-loop oracle and direct formulas."""

import math

import numpy as np
import pytest
import scipy.special

from tailmix import kernels
from tailmix.dists import hurwitz_zeta
from tailmix.errors import DomainError
from tailmix.seeding import substream


def mix_loglik_grad_oracle(x, log_x, wt, m, lam, alpha, x_min, z, dz):
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
            g_lam[e] += w * r * (d_const[e] - (xv - x_min))
        r = math.exp(logs[k - 1] - log_f)
        g_m[k - 1] += w * r / m[k - 1]
        g_alpha += w * r * (-log_x[i] - dz_over_z)
    return ll, g_m, g_lam, g_alpha


def test_mix_loglik_matches_scalar_oracle_on_random_inputs():
    rng = substream(321)
    for n_exp in (0, 1, 2):
        values = np.unique(rng.integers(1, 500, size=200)).astype(np.float64)
        mult = rng.integers(1, 30, size=values.size).astype(np.float64)
        raw = rng.uniform(0.2, 1.0, size=n_exp + 1)
        m = raw / raw.sum()
        lam = np.sort(rng.uniform(0.05, 3.0, size=n_exp))[::-1].copy()
        alpha = float(rng.uniform(1.1, 3.5))
        z, dz = kernels.zeta_pair(alpha, 1.0)
        args = (values, np.log(values), mult, m, lam, alpha, 1.0, z, dz)
        out0 = kernels.mix_loglik_grad(*args)
        out1 = mix_loglik_grad_oracle(*args)
        assert out0[0] == pytest.approx(out1[0], rel=1e-12)
        np.testing.assert_allclose(out0[1], out1[1], rtol=1e-10)
        np.testing.assert_allclose(out0[2], out1[2], rtol=1e-10)
        assert out0[3] == pytest.approx(out1[3], rel=1e-10)


def test_geometric_form_matches_direct_formula():
    values = np.array([3.0, 4.0, 9.0])
    mult = np.ones(3)
    m = np.array([0.6, 0.4])
    lam = np.array([0.5])
    z, dz = kernels.zeta_pair(2.0, 3.0)
    ll, _, _, _ = kernels.mix_loglik_grad(
        values, np.log(values), mult, m, lam, 2.0, 3.0, z, dz
    )
    geometric = (1.0 - np.exp(-0.5)) * np.exp(-0.5 * (values - 3.0))
    direct = np.log(0.6 * geometric + 0.4 * values**-2.0 / z).sum()
    assert ll == pytest.approx(direct, rel=1e-12)


def test_tenth_argument_must_be_false():
    # kept so that callers passing ten positional arguments keep working
    values = np.array([1.0, 2.0, 7.0])
    args = (values, np.log(values), np.ones(3), np.array([0.6, 0.4]),
            np.array([0.5]), 2.0, 1.0, *kernels.zeta_pair(2.0, 1.0))
    for got, want in zip(kernels.mix_loglik_grad(*args, False),
                         kernels.mix_loglik_grad(*args), strict=True):
        np.testing.assert_array_equal(got, want)
    with pytest.raises(DomainError, match="unnormalized"):
        kernels.mix_loglik_grad(*args, True)


def test_batched_rows_equal_single_calls():
    rng = substream(404)
    values = np.unique(rng.integers(1, 400, size=150)).astype(np.float64)
    mult = rng.integers(1, 20, size=values.size).astype(np.float64)
    for n_exp in (0, 1, 2):
        raw = rng.uniform(0.2, 1.0, size=(6, n_exp + 1))
        m = raw / raw.sum(axis=1, keepdims=True)
        lam = np.sort(rng.uniform(0.05, 3.0, size=(6, n_exp)), axis=1)[:, ::-1]
        lam = np.ascontiguousarray(lam)
        alpha = np.concatenate([[1.02, 1.05], rng.uniform(1.1, 3.9, size=4)])
        z, dz = kernels.zeta_pair(alpha, 1.0)
        out = kernels.mix_loglik_grad(
            values, np.log(values), mult, m, lam, alpha, 1.0, z, dz
        )
        for r in range(6):
            z1, dz1 = kernels.zeta_pair(alpha[r], 1.0)
            assert (z[r], dz[r]) == (z1, dz1)
            one = kernels.mix_loglik_grad(
                values, np.log(values), mult, m[r], lam[r], alpha[r], 1.0, z1, dz1
            )
            assert out[0][r] == one[0]
            np.testing.assert_array_equal(out[1][r], one[1])
            np.testing.assert_array_equal(out[2][r], one[2])
            assert out[3][r] == one[3]


# alphas from just above 1, where the integral term dominates, to 40,
# where the first term does
_ZETA_ALPHAS = [1.0 + 1e-9, 1.0001, 1.05, 1.6, 3.9, 4.0, 40.0]


@pytest.mark.parametrize("q", [1.0, 3.0, 50.0])
def test_zeta_rows_equal_scalar_and_sub_batch_calls(q):
    alphas = np.array(_ZETA_ALPHAS)
    batch = kernels.zeta_pair(alphas, q, second=True)
    for r, a in enumerate(_ZETA_ALPHAS):
        assert kernels.zeta_pair(a, q, second=True) == tuple(v[r] for v in batch)
    for lo, hi in ((0, 2), (1, 4), (3, 7), (6, 7)):
        part = kernels.zeta_pair(alphas[lo:hi], q, second=True)
        for got, want in zip(part, batch):
            np.testing.assert_array_equal(got, want[lo:hi])
    # reversed, so each alpha sits at another place in the batch
    back = kernels.zeta_pair(alphas[::-1].copy(), q, second=True)
    for got, want in zip(back, batch):
        np.testing.assert_array_equal(got[::-1], want)


def _zeta_derivative_oracle(alpha, q, order, n_terms=1_000_000):
    """d^order zeta(alpha, q) / d alpha^order = sum_{n>=0} (-log(q+n))^order
    (q+n)^-alpha: a direct sum of n_terms terms, then the integral of the
    rest plus half its first term (trapezoid rule), which leaves an error
    below 1e-11 for alpha >= 1.1."""
    base = q + np.arange(n_terms, dtype=np.float64)
    head = math.fsum((np.log(base) ** order * base ** -alpha).tolist())
    edge = q + n_terms
    ln_e, a = math.log(edge), alpha - 1.0
    # the integral of log(x)^order x^-alpha over [edge, inf)
    integral = edge ** -a * sum(
        math.factorial(order) // math.factorial(order - i) * ln_e ** (order - i)
        / a ** (i + 1) for i in range(order + 1))
    return (-1) ** order * (head + integral + 0.5 * ln_e**order * edge ** -alpha)


@pytest.mark.parametrize("q", [1.0, 3.0, 50.0])
def test_zeta_and_derivatives_match_scipy_and_direct_sums(q):
    # past 2e5 terms the oracle's trapezoid error is at most 3.4e-14
    # relative over this grid (at alpha 1.05)
    for a in _ZETA_ALPHAS:
        z, dz, d2z = kernels.zeta_pair(a, q, second=True)
        assert z == pytest.approx(scipy.special.zeta(a, q), rel=1e-14, abs=0.0), a
        want = [_zeta_derivative_oracle(a, q, k, 200_000) for k in (1, 2)]
        assert dz == pytest.approx(want[0], rel=1e-13, abs=0.0), a
        assert d2z == pytest.approx(want[1], rel=1e-13, abs=0.0), a


def test_zeta_at_huge_alpha_is_its_first_term():
    # no power of alpha is formed alone, so nothing overflows
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for a in (1e14, 1e300):
            assert kernels.zeta_pair(a, 1.0, second=True) == (1.0, 0.0, 0.0)
            assert kernels.zeta_pair(a, 3.0, second=True) == (0.0, 0.0, 0.0)
            assert hurwitz_zeta(a) == 1.0


@pytest.mark.parametrize("q", [1.0, 3.0])
def test_second_zeta_derivative_matches_direct_sum(q):
    alphas = [1.1, 1.6, 2.0, 3.3, 3.9]
    _, _, d2z = kernels.zeta_pair(np.array(alphas), q, second=True)
    for a, got in zip(alphas, d2z):
        want = _zeta_derivative_oracle(a, q, 2)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-9)
        assert kernels.zeta_pair(a, q, second=True)[2] == got


@pytest.mark.parametrize("q", [1.0, 3.0])
def test_second_derivative_leaves_zeta_pair_bits_alone(q):
    alphas = np.array([1.0001, 1.05, 1.6, 3.9, 1.05])
    z, dz = kernels.zeta_pair(alphas, q)
    z2, dz2, _ = kernels.zeta_pair(alphas, q, second=True)
    np.testing.assert_array_equal(z, z2)
    np.testing.assert_array_equal(dz, dz2)
    assert kernels.zeta_pair(1.6, q, second=True)[:2] == kernels.zeta_pair(1.6, q)


def _kernel_point(n_exp, rng):
    raw = rng.uniform(0.2, 1.0, size=n_exp + 1)
    m = raw / raw.sum()
    lam = np.sort(rng.uniform(0.05, 3.0, size=n_exp))[::-1].copy()
    return np.concatenate([m, lam, [rng.uniform(1.2, 3.5)]])


@pytest.mark.parametrize("x_min", [1, 3])
# the kept tenth positional argument, which must be false
@pytest.mark.parametrize("tenth", [False])
@pytest.mark.parametrize("n_exp", [0, 1, 2])
def test_hessian_matches_differences_of_the_gradient(n_exp, tenth, x_min):
    rng = substream(515, n_exp, int(tenth), x_min)
    values = np.unique(rng.integers(x_min, 300, size=120)).astype(np.float64)
    mult = rng.integers(1, 20, size=values.size).astype(np.float64)
    log_values = np.log(values)

    def kernel(p, hessian=False):
        m, lam, alpha = p[: n_exp + 1], p[n_exp + 1 : -1], p[-1]
        z, dz, d2z = kernels.zeta_pair(alpha, float(x_min), second=True)
        out = kernels.mix_loglik_grad(values, log_values, mult, m, lam, alpha,
                                      float(x_min), z, dz, tenth,
                                      d2z=d2z if hessian else None)
        grad = np.concatenate([out[1], out[2], [out[3]]])
        return (grad, out[4]) if hessian else grad

    for _ in range(3):
        p = _kernel_point(n_exp, rng)
        grad, hess = kernel(p, hessian=True)
        np.testing.assert_array_equal(grad, kernel(p))
        np.testing.assert_array_equal(hess, hess.T)
        fd = np.empty_like(hess)
        for i in range(p.size):
            h = 1e-5 * abs(p[i])
            up, down = p.copy(), p.copy()
            up[i] += h
            down[i] -= h
            fd[:, i] = (kernel(up) - kernel(down)) / (2.0 * h)
        np.testing.assert_allclose(hess, fd, rtol=1e-6, atol=1e-8 * np.abs(hess).max())


def test_batched_hessian_rows_equal_single_calls():
    rng = substream(405)
    values = np.unique(rng.integers(1, 400, size=150)).astype(np.float64)
    mult = rng.integers(1, 20, size=values.size).astype(np.float64)
    for n_exp in (0, 1, 2):
        pts = np.array([_kernel_point(n_exp, rng) for _ in range(5)])
        m = np.ascontiguousarray(pts[:, : n_exp + 1])
        lam = np.ascontiguousarray(pts[:, n_exp + 1 : -1])
        alpha = np.ascontiguousarray(pts[:, -1])
        z, dz, d2z = kernels.zeta_pair(alpha, 1.0, second=True)
        out = kernels.mix_loglik_grad(values, np.log(values), mult, m, lam, alpha,
                                      1.0, z, dz, d2z=d2z)
        for r in range(5):
            one = kernels.mix_loglik_grad(values, np.log(values), mult, m[r],
                                          lam[r], alpha[r], 1.0, z[r], dz[r],
                                          d2z=d2z[r])
            np.testing.assert_array_equal(out[4][r], one[4])


def _component_logs_loop(x, log_x, m, lam, alpha, x_min, z):
    """``kernels.component_logs`` one component row at a time."""
    alpha = np.asarray(alpha)
    n_exp = lam.shape[-1]
    logs = np.empty(alpha.shape + (n_exp + 1, x.shape[0]))
    log_amp = kernels.exp_log_amp(lam)
    shifted = x - x_min
    log_m = np.log(m)
    for e in range(n_exp):
        amp = log_m[..., e] + log_amp[..., e]
        logs[..., e, :] = amp[..., None] - lam[..., e, None] * shifted
    log_z = np.reshape([math.log(v) for v in np.ravel(z).tolist()], alpha.shape)
    tail = log_m[..., n_exp, None] - alpha[..., None] * log_x
    logs[..., n_exp, :] = tail - log_z[..., None]
    return logs


def _mix_loglik_grad_loop(x, log_x, wt, m, lam, alpha, x_min, z, dz, d2z):
    """``kernels.mix_loglik_grad`` with a loop over the components for the
    log terms, the score rows and the Hessian's small entries."""
    n_exp = lam.shape[-1]
    dim = 2 * n_exp + 2
    logs = _component_logs_loop(x, log_x, m, lam, alpha, x_min, z)
    log_f = kernels.log_sum_exp(logs)
    logs -= log_f[..., None, :]
    u_t = np.empty(logs.shape[:-2] + (dim, x.shape[0]))
    resp = np.exp(logs, out=u_t[..., : n_exp + 1, :])
    ll = kernels._dot_wt(log_f, wt)
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
        score_sq[..., e] = kernels._dot_wt(np.multiply(row, score, out=score), wt)
    g_par = kernels._dot_wt(u_t[..., n_exp + 1 :, :], wt)
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
    return ll, g_m, g_par[..., :n_exp], g_par[..., n_exp], hess


@pytest.mark.parametrize("x_min", [1, 3])
@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
@pytest.mark.parametrize("n_exp", [0, 1, 2])
def test_broadcast_rows_equal_the_component_loop(n_exp, batched, x_min):
    # every component row is one broadcast in the kernel; each element
    # must take the operations the loop over components gives it
    rng = substream(707, n_exp, int(batched), x_min)
    values = np.unique(rng.integers(x_min, 600, size=250)).astype(np.float64)
    mult = rng.integers(1, 25, size=values.size).astype(np.float64)
    log_values = np.log(values)
    pts = np.array([_kernel_point(n_exp, rng) for _ in range(6)])
    pts[:2, -1] = (1.0 + 1e-6, 3.99)  # alpha at both ends of its box
    m = np.ascontiguousarray(pts[:, : n_exp + 1])
    lam = np.ascontiguousarray(pts[:, n_exp + 1 : -1])
    alpha = np.ascontiguousarray(pts[:, -1])
    z, dz, d2z = kernels.zeta_pair(alpha, float(x_min), second=True)
    cases = [(m, lam, alpha, z, dz, d2z)] if batched else [
        (m[r], lam[r], alpha[r], z[r], dz[r], d2z[r]) for r in range(6)]
    for m_, lam_, alpha_, z_, dz_, d2z_ in cases:
        np.testing.assert_array_equal(
            kernels.component_logs(values, log_values, m_, lam_, alpha_,
                                   float(x_min), z_),
            _component_logs_loop(values, log_values, m_, lam_, alpha_,
                                 float(x_min), z_))
        args = (values, log_values, mult, m_, lam_, alpha_, float(x_min), z_, dz_)
        want = _mix_loglik_grad_loop(*args, d2z_)
        got = kernels.mix_loglik_grad(*args, d2z=d2z_)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        # the no-Hessian form returns the same first four entries
        for g, w in zip(kernels.mix_loglik_grad(*args), want[:4], strict=True):
            np.testing.assert_array_equal(g, w)
